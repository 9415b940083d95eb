#include "engine/streaming_search.h"

namespace hics {

Result<std::vector<double>> RankWithSubspaces(
    const StreamingDataset& streaming, const std::vector<Subspace>& subspaces,
    const OutlierScorer& scorer, ScoreAggregation aggregation,
    ShardedScoringPolicy policy, std::size_t num_threads) {
  if (streaming.num_shards() == 1) {
    return RankWithSubspaces(streaming.prepared(), subspaces, scorer,
                             aggregation, num_threads);
  }
  return RankWithSubspacesSharded(static_cast<const ShardPlane&>(streaming),
                                  subspaces, scorer, aggregation, policy,
                                  num_threads);
}

Result<std::vector<double>> RankWithSubspaces(
    const StreamingDataset& streaming,
    const std::vector<ScoredSubspace>& subspaces, const OutlierScorer& scorer,
    ScoreAggregation aggregation, ShardedScoringPolicy policy,
    std::size_t num_threads) {
  std::vector<Subspace> plain;
  plain.reserve(subspaces.size());
  for (const ScoredSubspace& s : subspaces) plain.push_back(s.subspace);
  return RankWithSubspaces(streaming, plain, scorer, aggregation, policy,
                           num_threads);
}

}  // namespace hics
