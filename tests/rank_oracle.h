#ifndef HICS_TESTS_RANK_ORACLE_H_
#define HICS_TESTS_RANK_ORACLE_H_

// The ranking oracle the tests compare every library route against: each
// subspace is scored through the scorer's self-contained Dataset path and
// the vectors are aggregated directly — no prepared artifact, no cache, no
// data plane — so a comparison never pits a vector against a cached copy
// of itself.

#include <vector>

#include "common/dataset.h"
#include "common/subspace.h"
#include "outlier/outlier_scorer.h"
#include "outlier/subspace_ranker.h"

namespace hics {

/// Reference ranking of `dataset` over `subspaces`; the full space when
/// the list is empty.
inline std::vector<double> OracleRank(
    const Dataset& dataset, const std::vector<Subspace>& subspaces,
    const OutlierScorer& scorer,
    ScoreAggregation aggregation = ScoreAggregation::kAverage) {
  if (subspaces.empty()) return scorer.ScoreFullSpace(dataset);
  std::vector<std::vector<double>> per_subspace;
  per_subspace.reserve(subspaces.size());
  for (const Subspace& s : subspaces) {
    per_subspace.push_back(scorer.ScoreSubspace(dataset, s));
  }
  return AggregateScores(per_subspace, aggregation);
}

/// Plain subspaces as search output (score 0), the input of the ranking
/// faces that take scored subspaces.
inline std::vector<ScoredSubspace> Scored(
    const std::vector<Subspace>& subspaces) {
  std::vector<ScoredSubspace> scored;
  scored.reserve(subspaces.size());
  for (const Subspace& s : subspaces) scored.push_back({s, 0.0});
  return scored;
}

}  // namespace hics

#endif  // HICS_TESTS_RANK_ORACLE_H_
