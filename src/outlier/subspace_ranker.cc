#include "outlier/subspace_ranker.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace hics {

namespace {

/// The kNN-family crossover, calibrated from BENCH_knn_backends.json
/// (all-kNN wall clock per backend over an (N, |S|) grid, k = 10, index
/// build included, avx512-dispatched SIMD screen kernels): the KD-tree
/// wins through |S| <= 4 at every measured N, through |S| = 5 from
/// N = 1000 on (10-40% ahead of the batched kernel there; a tie at
/// N = 500), and through |S| <= 6 once N reaches ~4000 — the vectorized
/// Gram-screen tile sped the blocked brute-force kernel up enough to
/// reclaim the (N=2000, |S|=6) cell that the pre-SIMD calibration gave to
/// the tree. Past the crossover the curse of dimensionality flattens the
/// tree's pruning while the brute kernel's cost stays nearly flat in |S|.
/// Below the measured range the whole decision is sub-100us — brute force
/// avoids betting on an unmeasured tree-build constant there. Both
/// backends return identical (distance, id) rows, so the choice never
/// changes a result.
KnnBackend KdVsBrute(std::size_t num_objects, std::size_t num_dimensions) {
  struct KdTier {
    std::size_t min_objects;
    std::size_t max_dims;
  };
  constexpr KdTier kKdTiers[] = {{256, 4}, {1000, 5}, {4000, 6}};
  for (const KdTier& tier : kKdTiers) {
    if (num_objects >= tier.min_objects && num_dimensions <= tier.max_dims) {
      return KnnBackend::kKdTree;
    }
  }
  return KnnBackend::kBruteForce;
}

}  // namespace

ScoringBackend ChooseScoringBackend(std::size_t num_objects,
                                    std::size_t num_dimensions) {
  // Grid crossover calibrated from BENCH_density_backends.json (end-to-end
  // per-subspace scoring wall clock, bins = 16, k = 10, grid build +
  // gather vs batched all-kNN + kNN-average, avx512-dispatched): the O(N)
  // grid tier beats both kNN backends at every measured cell from
  // N = 2048 on — ~100x at N = 2048, ~200-4000x at N = 2^15 — and at
  // N = 10^6 it scores a subspace in tens of milliseconds where the kNN
  // backends are not feasible per-subspace at all. The floor is
  // nevertheless set where the *better kNN backend* stops being cheap
  // (>= ~50 ms per subspace at N = 2^15): below it the kNN estimators'
  // distance-based fidelity costs next to nothing, so they keep the band
  // ChooseKnnBackend was calibrated on; above it the histogram estimator
  // is the only one that scales, and the margin only widens with N.
  constexpr std::size_t kGridMinObjects = 32768;
  if (num_objects >= kGridMinObjects) return ScoringBackend::kGrid;
  return KdVsBrute(num_objects, num_dimensions) == KnnBackend::kKdTree
             ? ScoringBackend::kKdTree
             : ScoringBackend::kBruteSimd;
}

KnnBackend ChooseKnnBackend(std::size_t num_objects,
                            std::size_t num_dimensions) {
  switch (ChooseScoringBackend(num_objects, num_dimensions)) {
    case ScoringBackend::kKdTree:
      return KnnBackend::kKdTree;
    case ScoringBackend::kBruteSimd:
      return KnnBackend::kBruteForce;
    case ScoringBackend::kGrid:
      // The caller needs neighbors; fall back to the better kNN backend
      // for the workload instead of the grid tier it cannot use.
      return KdVsBrute(num_objects, num_dimensions);
  }
  return KnnBackend::kBruteForce;
}

std::vector<double> AggregateScores(
    const std::vector<std::vector<double>>& per_subspace_scores,
    ScoreAggregation aggregation) {
  HICS_CHECK(!per_subspace_scores.empty());
  const std::size_t n = per_subspace_scores.front().size();
  for (const auto& scores : per_subspace_scores) {
    HICS_CHECK_EQ(scores.size(), n);
  }
  // Both reductions start from the first vector, so one vector passes
  // through bit for bit (the full-space fallback is that vector).
  std::vector<double> result = per_subspace_scores.front();
  switch (aggregation) {
    case ScoreAggregation::kAverage: {
      for (std::size_t s = 1; s < per_subspace_scores.size(); ++s) {
        for (std::size_t i = 0; i < n; ++i) {
          result[i] += per_subspace_scores[s][i];
        }
      }
      const double inv = 1.0 / static_cast<double>(per_subspace_scores.size());
      for (double& v : result) v *= inv;
      break;
    }
    case ScoreAggregation::kMax: {
      for (std::size_t s = 1; s < per_subspace_scores.size(); ++s) {
        for (std::size_t i = 0; i < n; ++i) {
          result[i] = std::max(result[i], per_subspace_scores[s][i]);
        }
      }
      break;
    }
  }
  return result;
}

Result<DegradedRankingResult> RankWithSubspaces(
    const ShardPlane& plane, const std::vector<Subspace>& subspaces,
    const OutlierScorer& scorer, ScoreAggregation aggregation,
    ShardedScoringPolicy policy, const RunContext& ctx,
    std::size_t num_threads) {
  if (plane.num_shards() > 1 &&
      policy == ShardedScoringPolicy::kRequireExactMerge &&
      !scorer.SupportsExactShardedMerge()) {
    return Status::InvalidArgument(
        "scorer '" + scorer.name() +
        "' cannot merge per-shard scores exactly; sharded ranking with it "
        "is a per-shard approximation — pass "
        "ShardedScoringPolicy::kAllowApproximation to opt in");
  }

  // Per-subspace outcomes land in pre-sized slots and are assembled in
  // subspace order, so the result does not depend on which worker
  // finished first. An interruption (from the context, or returned by a
  // scorer call) stops every subspace that has not started yet; the
  // inline serial loop therefore stops before the next subspace in order.
  enum class SlotState : char { kPending, kOk, kFailed, kInterrupted };
  const std::size_t count = subspaces.size();
  std::vector<SlotState> state(count, SlotState::kPending);
  std::vector<std::vector<double>> slot_scores(count);
  std::vector<Status> slot_status(count);
  std::atomic<std::size_t> attempted{0};
  std::atomic<bool> interrupted{false};
  ParallelFor(0, count, num_threads, [&](std::size_t i) {
    if (interrupted.load(std::memory_order_relaxed) || ctx.ShouldStop()) {
      return;
    }
    attempted.fetch_add(1, std::memory_order_relaxed);
    Result<std::vector<double>> scores =
        scorer.ScoreSubspaceChecked(plane, subspaces[i], ctx, i + 1);
    if (scores.ok()) {
      slot_scores[i] = std::move(scores).ValueOrDie();
      state[i] = SlotState::kOk;
      return;
    }
    slot_status[i] = scores.status();
    const StatusCode code = slot_status[i].code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded) {
      interrupted.store(true, std::memory_order_relaxed);
      state[i] = SlotState::kInterrupted;
    } else {
      state[i] = SlotState::kFailed;
    }
  });

  DegradedRankingResult result;
  result.attempted = attempted.load(std::memory_order_relaxed);
  std::vector<std::vector<double>> per_subspace;
  per_subspace.reserve(count);
  StatusCode stop = StatusCode::kOk;
  bool skipped = false;
  for (std::size_t i = 0; i < count; ++i) {
    switch (state[i]) {
      case SlotState::kOk:
        ++result.succeeded;
        per_subspace.push_back(std::move(slot_scores[i]));
        break;
      case SlotState::kFailed:
        result.failures.push_back({subspaces[i], std::move(slot_status[i])});
        break;
      case SlotState::kInterrupted:
        if (stop == StatusCode::kOk) stop = slot_status[i].code();
        break;
      case SlotState::kPending:
        skipped = true;
        break;
    }
  }
  // Holes without an interruption status: the context stopped the loop.
  if (stop == StatusCode::kOk && skipped) stop = ctx.CheckProgress().code();
  result.cancelled = stop == StatusCode::kCancelled;
  result.deadline_exceeded = stop == StatusCode::kDeadlineExceeded;
  if (!per_subspace.empty()) {
    result.scores = AggregateScores(per_subspace, aggregation);
  }
  return result;
}

namespace {

/// The faces' shared body call: default context, the full space for an
/// empty list, and the first failed subspace's status as the error.
Result<std::vector<double>> RankOrFail(const ShardPlane& plane,
                                       const std::vector<Subspace>& subspaces,
                                       const OutlierScorer& scorer,
                                       ScoreAggregation aggregation,
                                       ShardedScoringPolicy policy,
                                       std::size_t num_threads) {
  std::vector<Subspace> full_space;
  if (subspaces.empty()) full_space.push_back(plane.dataset().FullSpace());
  HICS_ASSIGN_OR_RETURN(
      DegradedRankingResult ranked,
      RankWithSubspaces(plane, subspaces.empty() ? full_space : subspaces,
                        scorer, aggregation, policy, RunContext(),
                        num_threads));
  if (!ranked.failures.empty()) return ranked.failures.front().status;
  return std::move(ranked.scores);
}

}  // namespace

std::vector<double> RankWithSubspaces(const PreparedDataset& prepared,
                                      const std::vector<Subspace>& subspaces,
                                      const OutlierScorer& scorer,
                                      ScoreAggregation aggregation,
                                      std::size_t num_threads) {
  Result<std::vector<double>> ranked =
      RankOrFail(prepared, subspaces, scorer, aggregation,
                 ShardedScoringPolicy::kRequireExactMerge, num_threads);
  HICS_CHECK(ranked.ok()) << ranked.status().ToString();
  return std::move(ranked).ValueOrDie();
}

Result<std::vector<double>> RankWithSubspaces(
    const ShardPlane& plane, const std::vector<ScoredSubspace>& subspaces,
    const OutlierScorer& scorer, ScoreAggregation aggregation,
    ShardedScoringPolicy policy, std::size_t num_threads) {
  return RankOrFail(plane, SubspacesOf(subspaces), scorer, aggregation,
                    policy, num_threads);
}

Result<std::vector<double>> RankWithSubspacesSharded(
    const ShardPlane& sharded,
    const std::vector<ScoredSubspace>& subspaces, const OutlierScorer& scorer,
    ScoreAggregation aggregation, ShardedScoringPolicy policy,
    std::size_t num_threads) {
  return RankWithSubspaces(sharded, subspaces, scorer, aggregation, policy,
                           num_threads);
}

}  // namespace hics
