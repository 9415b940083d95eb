#ifndef HICS_CORE_SLICE_H_
#define HICS_CORE_SLICE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/random.h"
#include "common/subspace.h"
#include "index/sorted_index.h"

namespace hics {

/// One Monte Carlo draw: a random subspace slice (Definition 4) plus the
/// two samples the deviation function compares.
struct SliceDraw {
  /// The attribute whose marginal vs conditional distribution is tested.
  std::size_t test_attribute = 0;
  /// Values of the test attribute for the objects selected by the slice
  /// conditions (the empirical conditional sample p̂_s|C).
  std::vector<double> conditional_sample;
  /// Number of objects the slice selected (== conditional_sample.size()).
  std::size_t selected_count = 0;
};

/// Reusable working storage for SliceSampler::Draw / DrawSelection. One
/// instance per worker thread; capacity persists across draws so the
/// steady-state hot loop performs no allocations.
struct SliceScratch {
  /// Per-object condition counter; an object is selected when its counter
  /// reaches the number of conditions. Used by the materializing Draw.
  std::vector<std::uint16_t> selected;
  /// Attribute permutation of the subspace under test.
  std::vector<std::size_t> attrs;
};

/// Output of SliceSampler::DrawSelection: the rank-space description of one
/// slice. The selected objects are not materialized; they are exactly the
/// ids whose rank lies inside every condition's window:
///
///   id selected  <=>  for every c: condition_ranks[c][id] - window_starts[c]
///                                   < block            (uint32 arithmetic)
///
/// which downstream consumers evaluate in one vectorized pass
/// (simd select_rank_window). Reused across draws: the vectors keep their
/// capacity, and the rank pointers borrow the sampler's index.
struct SliceSelection {
  /// The attribute whose marginal vs conditional distribution is tested.
  std::size_t test_attribute = 0;
  /// Window length shared by every condition (SliceSampler::BlockSize).
  std::uint32_t block = 0;
  /// Object-id-order ranks (SortedAttributeIndex::Ranks) of each
  /// conditioning attribute, one per condition.
  std::vector<const std::uint32_t*> condition_ranks;
  /// First sorted position of each condition's window.
  std::vector<std::uint32_t> window_starts;

  /// Number of conditioning attributes (|S| - 1).
  std::size_t num_conditions() const { return window_starts.size(); }
};

/// Generates random adaptive subspace slices over pre-sorted attribute
/// indices (paper §III-C / §IV-A).
///
/// For a subspace S, one draw:
///  1. randomly permutes the attributes of S; the last one becomes the test
///     attribute, the other |S|-1 carry conditions,
///  2. for each conditioning attribute picks a random contiguous block of
///     its sorted index of size ceil(N * alpha^(1/|S|)) and intersects the
///     selections (a condition counter in Draw, a rank-window test in the
///     DrawSelection consumers),
///  3. collects the test attribute's values of the surviving objects.
///
/// The block size N*alpha1 with alpha1 = |S|-th root of alpha follows
/// Algorithm 1 verbatim; it keeps the conditional sample size stable as the
/// subspace dimensionality grows, which is what lets the contrast estimate
/// escape the curse of dimensionality.
/// Thread-safety contract: a SliceSampler holds no mutable state, so any
/// number of threads may call Draw concurrently on one instance — each
/// call's working storage is either a local (convenience overload) or the
/// caller's SliceScratch, which must not be shared between concurrent
/// calls. Both overloads consume the RNG identically, so results depend
/// only on (subspace, alpha, rng state), never on which overload ran.
class SliceSampler {
 public:
  /// Both references must outlive the sampler. `index` must be built over
  /// the same dataset.
  SliceSampler(const Dataset& dataset, const SortedAttributeIndex& index);

  /// Draws one random slice for `subspace` with selection ratio `alpha`
  /// (in (0,1)). Requires |subspace| >= 2. Allocates local working
  /// storage per call; the hot path uses the scratch overload below.
  SliceDraw Draw(const Subspace& subspace, double alpha, Rng* rng) const;

  /// Allocation-free variant for worker threads: `scratch` is reusable
  /// per-worker storage and `out` is reused across draws (its
  /// conditional_sample keeps capacity between calls). `scratch` and
  /// `out` must be distinct objects per concurrent caller.
  void Draw(const Subspace& subspace, double alpha, Rng* rng,
            SliceScratch* scratch, SliceDraw* out) const;

  /// Rank-space variant: performs the same random slice construction as
  /// Draw — identical RNG consumption (one shuffle, then one window start
  /// per condition), so a shared rng state yields the same slice through
  /// either entry point — but records only the windows in `out` instead of
  /// gathering the test attribute's values. `block` is
  /// BlockSize(|subspace|, alpha), resolved once by the caller for all
  /// draws of one subspace. O(|S|) per call; no O(N) work at all. The
  /// selection stays valid while the sampler's index lives; `out` is
  /// overwritten by the next call.
  void DrawSelection(const Subspace& subspace, std::size_t block, Rng* rng,
                     SliceScratch* scratch, SliceSelection* out) const;

  /// Block size used for one condition of a |dims|-dimensional subspace:
  /// ceil(N * alpha^(1/dims)), clamped to [1, N].
  std::size_t BlockSize(std::size_t dims, double alpha) const;

  const Dataset& dataset() const { return dataset_; }

 private:
  const Dataset& dataset_;
  const SortedAttributeIndex& index_;
};

}  // namespace hics

#endif  // HICS_CORE_SLICE_H_
