#ifndef HICS_OUTLIER_SUBSPACE_RANKER_H_
#define HICS_OUTLIER_SUBSPACE_RANKER_H_

#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "common/subspace.h"
#include "engine/prepared_dataset.h"
#include "engine/shard_plane.h"
#include "index/neighbor_searcher.h"
#include "outlier/outlier_scorer.h"

namespace hics {

/// The three scoring-backend tiers the ranking layer can hand an
/// (N objects, |S| dimensions) subspace workload to.
enum class ScoringBackend {
  /// kNN via KD-tree (pruned search; wins at low |S| with enough objects
  /// to amortize the build).
  kKdTree,
  /// kNN via the blocked brute-force SIMD kernel (flat in |S|; wins in
  /// the mid-N band where the tree stops pruning).
  kBruteSimd,
  /// O(N) histogram density (GridDensityScorer): no neighbor search at
  /// all, so past its crossover N it beats *both* kNN backends by
  /// widening margins — the million-point tier.
  kGrid,
};

/// Ranking-layer policy: which scoring backend fits an (N, |S|) subspace
/// workload. The kNN backends return bit-identical scores to each other,
/// so kKdTree vs kBruteSimd is purely a wall-clock crossover; kGrid is a
/// *different estimator* (histogram density instead of kNN distances)
/// that the caller may only adopt when the scorer semantics allow it —
/// it is returned where the grid tier's O(N) fit beats batched all-kNN
/// outright. Crossover constants are calibrated by
/// `bench_density_backends` (committed record:
/// BENCH_density_backends.json) and `bench_knn_backends`
/// (BENCH_knn_backends.json); re-run them when changing the kernels or
/// build flags.
ScoringBackend ChooseScoringBackend(std::size_t num_objects,
                                    std::size_t num_dimensions);

/// kNN-only policy used by the neighbor-based scorers and the serving
/// layer's searcher choice. Delegates to ChooseScoringBackend and maps
/// its kGrid verdict back onto the better *kNN* backend for the workload
/// (a caller asking for neighbors cannot use the grid tier), so large-N
/// subspaces keep their calibrated KD-tree/brute choice.
KnnBackend ChooseKnnBackend(std::size_t num_objects,
                            std::size_t num_dimensions);

/// How per-subspace scores are combined into the final score.
enum class ScoreAggregation {
  /// Definition 1 in the paper: score(x) = (1/|RS|) sum_S score_S(x).
  /// Cumulative: deviating in several subspaces raises the total. The
  /// paper's default.
  kAverage,
  /// max_S score_S(x). Sensitive to fluctuations; the paper reports it
  /// degrades with many subspaces (checked by bench_ablation_aggregation).
  kMax,
};

/// Aggregates per-subspace score vectors (all of equal length) into one
/// final score per object. A single vector passes through bit for bit.
std::vector<double> AggregateScores(
    const std::vector<std::vector<double>>& per_subspace_scores,
    ScoreAggregation aggregation);

/// Caller consent for sharded scoring semantics (DESIGN.md §5i). Sharded
/// scoring is exact only for scorers that merge per-shard state without
/// approximation (OutlierScorer::SupportsExactShardedMerge — the
/// grid-density tier); for neighbor-based scorers a plane with several
/// shards falls back to the per-shard approximation, which is a
/// *different estimator* than unsharded scoring. That semantic change must
/// be an explicit caller decision, never a silent fallback. A one-shard
/// plane is the unsharded estimator for every scorer, so the policy only
/// matters when num_shards() > 1.
enum class ShardedScoringPolicy {
  /// Error (InvalidArgument) on a multi-shard plane unless the scorer
  /// merges exactly — the ranking is then bit-identical to the unsharded
  /// prepared path.
  kRequireExactMerge,
  /// Permit the per-shard approximation for non-merging scorers (each
  /// shard scored against its own rows, concatenated in shard order).
  kAllowApproximation,
};

/// One isolated per-subspace failure observed during ranking.
struct SubspaceFailure {
  Subspace subspace;
  Status status;
};

/// Outcome of fault-isolated subspace ranking. HiCS is an ensemble
/// (Definition 1 averages over the selected subspaces), so the aggregate
/// stays meaningful when individual members drop out; `scores` is the
/// aggregation over the `succeeded` subspaces only — the average
/// renormalizes automatically because AggregateScores divides by the
/// number of score vectors it is given.
struct DegradedRankingResult {
  /// Aggregated scores over the subspaces that scored successfully.
  /// Empty iff `succeeded == 0` (the caller decides on a fallback).
  std::vector<double> scores;
  std::size_t attempted = 0;   ///< subspaces whose scoring was started
  std::size_t succeeded = 0;   ///< subspaces that produced valid scores
  /// Isolated failures (injected faults, non-finite scorer output, ...),
  /// in subspace order. Interruptions are not failures; they set the
  /// flags below instead.
  std::vector<SubspaceFailure> failures;
  bool cancelled = false;           ///< stopped early: cancellation
  bool deadline_exceeded = false;   ///< stopped early: deadline
};

/// The outlier-ranking half of the decoupled pipeline, over any data
/// plane: scores every subspace through
/// OutlierScorer::ScoreSubspaceChecked and aggregates the survivors in
/// subspace order. It is the one ranking loop; the faces below are thin
/// wrappers over it.
///
/// Per subspace, ScoreSubspaceChecked runs the context checkpoint, the
/// "scorer.<name>" fault probe (ordinal = subspace index + 1), the
/// plane's scoring route, and validation. The route is the one-shard
/// rule: a one-shard plane (a PreparedDataset, ShardedDataset(ds, 1), a
/// one-shard StreamingDataset) scores on shard(0) through its artifact
/// cache, so it ranks exactly like the PreparedDataset over the same rows
/// under either policy; a multi-shard plane scores through
/// OutlierScorer::ScoreSubspaceSharded.
///
/// Fails only up front: InvalidArgument when the plane has more than one
/// shard, `policy` is kRequireExactMerge and the scorer cannot merge
/// per-shard state exactly. Otherwise it degrades instead of failing:
///  - a subspace whose scorer fails (injected fault, wrong-sized or
///    non-finite output) is skipped and recorded in `failures`;
///  - cancellation or deadline expiry stops scheduling further subspaces
///    and keeps the aggregate over the ones already scored;
///  - an empty `subspaces` list yields attempted == 0 and empty scores, so
///    the caller picks its fallback (the faces score the full space).
/// A failed or skipped subspace never enters an artifact cache, and a
/// warm cache never masks an injected fault (the probe runs first).
///
/// `num_threads` (1 = serial, 0 = hardware concurrency) scores subspaces
/// concurrently; each outcome lands in a pre-sized slot and aggregation
/// runs over the slots in subspace order, so a healthy result — and,
/// because fault ordinals are subspace indices, the surviving ensemble of
/// a faulted one — is byte-identical for every thread count. On
/// interruption the serial run stops before the next subspace in order,
/// while a parallel run additionally keeps later subspaces that had
/// already completed. The scorer must tolerate concurrent calls (all
/// shipped scorers are stateless).
Result<DegradedRankingResult> RankWithSubspaces(
    const ShardPlane& plane, const std::vector<Subspace>& subspaces,
    const OutlierScorer& scorer, ScoreAggregation aggregation,
    ShardedScoringPolicy policy, const RunContext& ctx,
    std::size_t num_threads = 1);

/// Face over the body for the prepared (one-shard) plane with a default
/// context: the aggregated scores. With an empty subspace list, scores
/// the full space (traditional outlier ranking). A subspace whose scorer
/// output is wrong-sized or non-finite is a programming error here and
/// CHECK-fails naming the subspace; callers that must survive it use the
/// body. A warm cache turns repeated rankings of one dataset — the serving
/// pattern — into cache lookups plus one aggregation pass.
std::vector<double> RankWithSubspaces(const PreparedDataset& prepared,
                                      const std::vector<Subspace>& subspaces,
                                      const OutlierScorer& scorer,
                                      ScoreAggregation aggregation =
                                          ScoreAggregation::kAverage,
                                      std::size_t num_threads = 1);

/// Face over the body for scored subspaces (the search output; scores are
/// ignored) on any plane, with a default context. With an empty subspace
/// list, scores the full space. Errors: the body's policy refusal, or the
/// first failed subspace's status (wrong-sized or non-finite scorer
/// output).
Result<std::vector<double>> RankWithSubspaces(
    const ShardPlane& plane, const std::vector<ScoredSubspace>& subspaces,
    const OutlierScorer& scorer,
    ScoreAggregation aggregation = ScoreAggregation::kAverage,
    ShardedScoringPolicy policy = ShardedScoringPolicy::kRequireExactMerge,
    std::size_t num_threads = 1);

/// The same face under its sharded name.
Result<std::vector<double>> RankWithSubspacesSharded(
    const ShardPlane& sharded,
    const std::vector<ScoredSubspace>& subspaces, const OutlierScorer& scorer,
    ScoreAggregation aggregation, ShardedScoringPolicy policy,
    std::size_t num_threads = 1);

}  // namespace hics

#endif  // HICS_OUTLIER_SUBSPACE_RANKER_H_
