#ifndef HICS_ENGINE_STREAMING_SEARCH_H_
#define HICS_ENGINE_STREAMING_SEARCH_H_

#include <cstddef>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "common/subspace.h"
#include "core/hics.h"  // RunHicsSearch takes a StreamingDataset as a plane
#include "engine/streaming_dataset.h"
#include "outlier/subspace_ranker.h"

namespace hics {

/// Streaming ranking entry points. Search and contrast matrix need no
/// streaming overload: a StreamingDataset is a ShardPlane, so
/// RunHicsSearch / ComputeContrastMatrix take it directly and run the one
/// lattice loop — a one-shard window through the unsharded estimator over
/// its whole-window prepared artifact (shard(0) is prepared(), so the
/// incremental sorted orders and the warm window cache serve the search),
/// a multi-shard window through the same fan-out, RNG streams and merge
/// order as ShardedDataset. Output is byte-identical to a cold rebuild of
/// the identical window — a fresh PreparedDataset when num_shards() == 1,
/// a fresh ShardedDataset at the same shard count otherwise — at every
/// thread count; tests/streaming_dataset_test.cc and bench_streaming
/// assert it after every slide (`streaming_identical` in CI).
///
/// Streaming ranking over the current window. One-shard planes rank
/// through the prepared path (exact for every scorer, cache-warm across
/// slides); multi-shard planes rank through RankWithSubspacesSharded
/// under `policy` (kRequireExactMerge fails for scorers that cannot merge
/// per-shard state exactly — same consent rule as the sharded API).
/// With an empty subspace list, scores the full space.
Result<std::vector<double>> RankWithSubspaces(
    const StreamingDataset& streaming, const std::vector<Subspace>& subspaces,
    const OutlierScorer& scorer,
    ScoreAggregation aggregation = ScoreAggregation::kAverage,
    ShardedScoringPolicy policy = ShardedScoringPolicy::kRequireExactMerge,
    std::size_t num_threads = 1);

/// Streaming convenience overload for scored subspaces (the search
/// output).
Result<std::vector<double>> RankWithSubspaces(
    const StreamingDataset& streaming,
    const std::vector<ScoredSubspace>& subspaces, const OutlierScorer& scorer,
    ScoreAggregation aggregation = ScoreAggregation::kAverage,
    ShardedScoringPolicy policy = ShardedScoringPolicy::kRequireExactMerge,
    std::size_t num_threads = 1);

}  // namespace hics

#endif  // HICS_ENGINE_STREAMING_SEARCH_H_
