#include "core/contrast_matrix.h"

#include <vector>

#include "common/parallel.h"
#include "common/subspace.h"
#include "core/hics.h"
#include "engine/prepared_dataset.h"
#include "stats/two_sample_test.h"

namespace hics {

Result<Matrix> ComputeContrastMatrix(const Dataset& dataset,
                                     const ContrastMatrixParams& params) {
  const std::size_t build_threads =
      params.num_threads == 0 ? DefaultNumThreads() : params.num_threads;
  const PreparedDataset prepared(dataset, build_threads);
  return ComputeContrastMatrix(prepared, params);
}

Result<Matrix> ComputeContrastMatrix(const ShardPlane& plane,
                                     const ContrastMatrixParams& params) {
  const Dataset& dataset = plane.dataset();
  HICS_RETURN_NOT_OK(params.contrast.Validate());
  const auto test = stats::MakeTwoSampleTest(params.statistical_test);
  if (test == nullptr) {
    return Status::InvalidArgument("unknown statistical_test '" +
                                   params.statistical_test + "'");
  }
  const std::size_t d = dataset.num_attributes();
  if (d < 2) return Status::InvalidArgument("need at least 2 attributes");
  if (dataset.num_objects() < 2) {
    return Status::InvalidArgument("need at least 2 objects");
  }

  const std::size_t num_threads =
      params.num_threads == 0 ? DefaultNumThreads() : params.num_threads;
  const internal::LevelEvaluator evaluator(plane, *test, params.contrast,
                                           params.seed, num_threads);
  // The level-2 lattice in lexicographic order: no context, so no estimate
  // can fail or be interrupted and every pair is scored.
  const std::vector<Subspace> pairs = internal::AllTwoDimensionalSubspaces(d);
  std::vector<ScoredSubspace> scored;
  scored.reserve(pairs.size());
  HicsRunStats stats;
  HICS_RETURN_NOT_OK(
      evaluator.Score(pairs, /*eval_base=*/0, RunContext(), &scored, &stats));
  HICS_CHECK_EQ(scored.size(), pairs.size());

  Matrix result(d, d);
  for (const ScoredSubspace& s : scored) {
    result(s.subspace[0], s.subspace[1]) = s.score;
    result(s.subspace[1], s.subspace[0]) = s.score;
  }
  return result;
}

}  // namespace hics
