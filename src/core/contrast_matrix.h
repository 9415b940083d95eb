#ifndef HICS_CORE_CONTRAST_MATRIX_H_
#define HICS_CORE_CONTRAST_MATRIX_H_

#include <cstdint>

#include "common/dataset.h"
#include "common/matrix.h"
#include "common/status.h"
#include "core/contrast.h"

namespace hics {

class ShardPlane;  // engine/shard_plane.h

/// Pairwise contrast matrix: entry (i, j) is the HiCS contrast of the 2-D
/// subspace {i, j} (symmetric; the diagonal is 0 — one-dimensional
/// subspaces have no contrast). A compact, model-free dependence map of
/// the attribute space, analogous to a correlation matrix but sensitive to
/// any (also non-linear, non-monotone) dependence — handy for exploratory
/// analysis and as a cheap preview of what the full lattice search will
/// find at level 2.
struct ContrastMatrixParams {
  ContrastParams contrast;        ///< M and alpha of each estimate
  std::string statistical_test = "welch";
  std::uint64_t seed = 42;
  /// Worker threads (1 = serial, 0 = hardware concurrency). Results are
  /// identical for any value.
  std::size_t num_threads = 1;
};

/// Computes the full D x D matrix. Fails on invalid params or fewer than
/// two attributes / objects. Thin adapter: prepares `dataset` privately
/// and delegates to the plane overload.
Result<Matrix> ComputeContrastMatrix(const Dataset& dataset,
                                     const ContrastMatrixParams& params = {});

/// Plane variant (engine/shard_plane.h): scores AllTwoDimensionalSubspaces
/// through the search's own level evaluator, so entry (i, j) equals
/// RunHicsSearch's level-2 score of {i, j} on the same plane under the
/// same seed, M and alpha — one-shard rule and S > 1 merge included (see
/// RunHicsSearch). A PreparedDataset is the one-shard plane: the matrix
/// reuses its sorted-attribute index and rank artifacts (shared with the
/// search and the ranking stage). Bit-identical for a fixed effective
/// shard count across thread counts and shard completion orders.
Result<Matrix> ComputeContrastMatrix(const ShardPlane& plane,
                                     const ContrastMatrixParams& params = {});

}  // namespace hics

#endif  // HICS_CORE_CONTRAST_MATRIX_H_
