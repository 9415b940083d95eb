#include "outlier/subspace_ranker.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <string>

#include "common/random.h"
#include "common/run_context.h"
#include "engine/sharded_dataset.h"
#include "outlier/grid_density.h"
#include "outlier/lof.h"
#include "rank_oracle.h"

namespace hics {
namespace {

TEST(AggregateTest, AverageIsElementwiseMean) {
  const std::vector<std::vector<double>> scores = {
      {1.0, 2.0, 3.0},
      {3.0, 2.0, 1.0},
  };
  const auto avg = AggregateScores(scores, ScoreAggregation::kAverage);
  EXPECT_EQ(avg, (std::vector<double>{2.0, 2.0, 2.0}));
}

TEST(AggregateTest, MaxIsElementwiseMax) {
  const std::vector<std::vector<double>> scores = {
      {1.0, 5.0, 3.0},
      {4.0, 2.0, 3.0},
  };
  const auto mx = AggregateScores(scores, ScoreAggregation::kMax);
  EXPECT_EQ(mx, (std::vector<double>{4.0, 5.0, 3.0}));
}

TEST(AggregateTest, SingleVectorPassthrough) {
  const std::vector<std::vector<double>> scores = {{1.5, 2.5}};
  EXPECT_EQ(AggregateScores(scores, ScoreAggregation::kAverage),
            scores.front());
  EXPECT_EQ(AggregateScores(scores, ScoreAggregation::kMax), scores.front());
}

TEST(AggregateDeathTest, EmptyOrRaggedInputAborts) {
  EXPECT_DEATH(AggregateScores({}, ScoreAggregation::kAverage), "");
  const std::vector<std::vector<double>> ragged = {{1.0}, {1.0, 2.0}};
  EXPECT_DEATH(AggregateScores(ragged, ScoreAggregation::kAverage), "");
}

/// Dataset with one outlier visible only in {0,1} and another only in
/// {2,3} -- the paper's "multiple roles" observation.
Dataset TwoSubspaceOutliers(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 202;
  Dataset ds(n, 4);
  for (std::size_t i = 0; i < n; ++i) {
    const double c1 = rng.Bernoulli(0.5) ? 0.25 : 0.75;
    ds.Set(i, 0, c1 + rng.Gaussian(0.0, 0.02));
    ds.Set(i, 1, c1 + rng.Gaussian(0.0, 0.02));
    const double c2 = rng.Bernoulli(0.5) ? 0.25 : 0.75;
    ds.Set(i, 2, c2 + rng.Gaussian(0.0, 0.02));
    ds.Set(i, 3, c2 + rng.Gaussian(0.0, 0.02));
  }
  // Outlier A: mixes clusters in {0,1}.
  ds.Set(200, 0, 0.25);
  ds.Set(200, 1, 0.75);
  // Outlier B: mixes clusters in {2,3}.
  ds.Set(201, 2, 0.75);
  ds.Set(201, 3, 0.25);
  return ds;
}

TEST(RankWithSubspacesTest, CumulativeScoringFindsBothOutliers) {
  Dataset ds = TwoSubspaceOutliers(7);
  LofScorer lof({.min_pts = 12});
  const std::vector<Subspace> subspaces = {Subspace({0, 1}),
                                           Subspace({2, 3})};
  const auto scores = RankWithSubspaces(PreparedDataset(ds), subspaces, lof);
  ASSERT_EQ(scores.size(), ds.num_objects());
  // Both implanted outliers must outrank every regular object.
  double max_regular = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    max_regular = std::max(max_regular, scores[i]);
  }
  EXPECT_GT(scores[200], max_regular);
  EXPECT_GT(scores[201], max_regular);
}

TEST(RankWithSubspacesTest, EmptySubspaceListFallsBackToFullSpace) {
  Dataset ds = TwoSubspaceOutliers(8);
  LofScorer lof({.min_pts = 12});
  const auto fallback =
      RankWithSubspaces(PreparedDataset(ds), std::vector<Subspace>{}, lof);
  const auto full = lof.ScoreFullSpace(ds);
  EXPECT_EQ(fallback, full);
}

TEST(RankWithSubspacesTest, ScoredOverloadIgnoresScores) {
  Dataset ds = TwoSubspaceOutliers(9);
  LofScorer lof({.min_pts = 12});
  const std::vector<ScoredSubspace> scored = {{Subspace({0, 1}), 0.9},
                                              {Subspace({2, 3}), 0.1}};
  const std::vector<Subspace> plain = {Subspace({0, 1}), Subspace({2, 3})};
  EXPECT_EQ(*RankWithSubspaces(PreparedDataset(ds), scored, lof),
            RankWithSubspaces(PreparedDataset(ds), plain, lof));
}

TEST(RankWithSubspacesTest, IrrelevantSubspacesDiluteTheSignal) {
  // The paper's motivation for subspace *search*: adding irrelevant
  // (uncorrelated, outlier-free) subspaces to RS blurs the ranking.
  Rng rng(11);
  Dataset ds = TwoSubspaceOutliers(10);
  // Append 8 noise attributes.
  Dataset noisy(ds.num_objects(), 12);
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    for (std::size_t j = 0; j < 4; ++j) noisy.Set(i, j, ds.Get(i, j));
    for (std::size_t j = 4; j < 12; ++j) noisy.Set(i, j, rng.UniformDouble());
  }
  LofScorer lof({.min_pts = 12});
  const std::vector<Subspace> relevant = {Subspace({0, 1}), Subspace({2, 3})};
  std::vector<Subspace> diluted = relevant;
  for (std::size_t j = 4; j + 1 < 12; j += 2) {
    diluted.push_back(Subspace({j, j + 1}));
  }
  const auto good = RankWithSubspaces(PreparedDataset(noisy), relevant, lof);
  const auto blurred = RankWithSubspaces(PreparedDataset(noisy), diluted, lof);

  auto margin = [](const std::vector<double>& scores) {
    double max_regular = 0.0;
    for (std::size_t i = 0; i < 200; ++i) {
      max_regular = std::max(max_regular, scores[i]);
    }
    return std::min(scores[200], scores[201]) - max_regular;
  };
  EXPECT_GT(margin(good), margin(blurred));
}

// ---------------------------------------------------------------------------
// The one rank body on a multi-shard plane: the context's fault site,
// cancellation, deadline, and score validation hold there exactly as on
// the prepared plane.

std::vector<Subspace> FiveSubspaces() {
  return {Subspace{0, 1}, Subspace{2, 3}, Subspace{0, 2}, Subspace{1, 3},
          Subspace{0, 1, 2}};
}

TEST(RankWithSubspacesPlaneTest, FaultOnFourShardPlaneDropsExactlyThatMember) {
  const Dataset ds = TwoSubspaceOutliers(21);
  const GridDensityScorer grid({.bins_per_dim = 6});
  const std::vector<Subspace> subspaces = FiveSubspaces();
  for (std::size_t k = 1; k <= subspaces.size(); ++k) {
    std::vector<Subspace> survivors = subspaces;
    survivors.erase(survivors.begin() + static_cast<std::ptrdiff_t>(k - 1));
    const std::vector<double> expected = OracleRank(ds, survivors, grid);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      const ShardedDataset sharded(ds, 4);
      ASSERT_EQ(sharded.num_shards(), 4u);
      FaultInjector injector;
      injector.FailNthCall("scorer.grid-density", k,
                           Status::Internal("injected"));
      RunContext ctx;
      ctx.SetFaultInjector(&injector);
      const auto ranked = RankWithSubspaces(
          sharded, subspaces, grid, ScoreAggregation::kAverage,
          ShardedScoringPolicy::kRequireExactMerge, ctx, threads);
      ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
      EXPECT_EQ(ranked->attempted, subspaces.size());
      EXPECT_EQ(ranked->succeeded, subspaces.size() - 1);
      ASSERT_EQ(ranked->failures.size(), 1u);
      EXPECT_EQ(ranked->failures.front().subspace, subspaces[k - 1])
          << "k=" << k << " threads=" << threads;
      EXPECT_EQ(ranked->scores, expected)
          << "k=" << k << " threads=" << threads;
      EXPECT_FALSE(ranked->cancelled);
    }
  }
}

/// Grid-density scoring that requests cancellation from inside its
/// `cancel_on`-th sharded call (the call itself still completes).
class CancellingShardedScorer : public OutlierScorer {
 public:
  CancellingShardedScorer(const GridDensityScorer& inner, const RunContext& ctx,
                          int cancel_on)
      : inner_(inner), ctx_(ctx), cancel_on_(cancel_on) {}
  std::vector<double> ScoreSubspace(const Dataset& dataset,
                                    const Subspace& subspace) const override {
    return inner_.ScoreSubspace(dataset, subspace);
  }
  bool SupportsExactShardedMerge() const override { return true; }
  std::vector<double> ScoreSubspaceSharded(
      const ShardPlane& plane, const Subspace& subspace) const override {
    if (++calls_ == cancel_on_) ctx_.RequestCancellation();
    return inner_.ScoreSubspaceSharded(plane, subspace);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const GridDensityScorer& inner_;
  const RunContext& ctx_;
  const int cancel_on_;
  mutable int calls_ = 0;
};

TEST(RankWithSubspacesPlaneTest, CancelOnFourShardPlaneKeepsThePrefix) {
  const Dataset ds = TwoSubspaceOutliers(22);
  const GridDensityScorer grid({.bins_per_dim = 6});
  const std::vector<Subspace> subspaces = FiveSubspaces();
  const ShardedDataset sharded(ds, 4);
  RunContext ctx;
  const CancellingShardedScorer scorer(grid, ctx, /*cancel_on=*/3);
  const auto ranked =
      RankWithSubspaces(sharded, subspaces, scorer, ScoreAggregation::kAverage,
                        ShardedScoringPolicy::kRequireExactMerge, ctx);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_TRUE(ranked->cancelled);
  EXPECT_FALSE(ranked->deadline_exceeded);
  EXPECT_EQ(ranked->attempted, 3u);
  EXPECT_EQ(ranked->succeeded, 3u);
  EXPECT_TRUE(ranked->failures.empty());
  const std::vector<Subspace> prefix(subspaces.begin(), subspaces.begin() + 3);
  EXPECT_EQ(ranked->scores, OracleRank(ds, prefix, grid));
}

TEST(RankWithSubspacesPlaneTest, ExpiredDeadlineOnFourShardPlaneScoresNothing) {
  const Dataset ds = TwoSubspaceOutliers(23);
  const GridDensityScorer grid({.bins_per_dim = 6});
  const ShardedDataset sharded(ds, 4);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const auto ranked = RankWithSubspaces(
        sharded, FiveSubspaces(), grid, ScoreAggregation::kAverage,
        ShardedScoringPolicy::kRequireExactMerge,
        RunContext::WithTimeout(std::chrono::milliseconds(-1)), threads);
    ASSERT_TRUE(ranked.ok());
    EXPECT_TRUE(ranked->deadline_exceeded);
    EXPECT_EQ(ranked->attempted, 0u);
    EXPECT_TRUE(ranked->scores.empty());
  }
}

/// Scores every object 1.0 except object 0, which is NaN.
class NanScorer : public OutlierScorer {
 public:
  std::vector<double> ScoreSubspace(const Dataset& dataset,
                                    const Subspace&) const override {
    std::vector<double> scores(dataset.num_objects(), 1.0);
    scores[0] = std::numeric_limits<double>::quiet_NaN();
    return scores;
  }
  std::string name() const override { return "nan"; }
};

TEST(RankWithSubspacesPlaneTest, NonFiniteScoresAreATypedErrorFromResultFaces) {
  const Dataset ds = TwoSubspaceOutliers(24);
  const NanScorer scorer;
  const ShardedDataset two_shards(ds, 2);
  const ShardedDataset one_shard(ds, 1);
  for (const ShardPlane* plane : {static_cast<const ShardPlane*>(&two_shards),
                                  static_cast<const ShardPlane*>(&one_shard)}) {
    const auto ranked = RankWithSubspaces(
        *plane, Scored({Subspace{0, 1}}), scorer, ScoreAggregation::kAverage,
        ShardedScoringPolicy::kAllowApproximation);
    ASSERT_FALSE(ranked.ok()) << "shards=" << plane->num_shards();
    EXPECT_EQ(ranked.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(ranked.status().message().find("{0, 1}"), std::string::npos)
        << ranked.status().message();
  }
}

TEST(RankWithSubspacesDeathTest, NonFiniteScoresCheckFailNamingTheSubspace) {
  const Dataset ds = TwoSubspaceOutliers(25);
  const NanScorer scorer;
  EXPECT_DEATH(RankWithSubspaces(PreparedDataset(ds),
                                 std::vector<Subspace>{Subspace{2, 3}}, scorer),
               "non-finite.*\\{2, 3\\}");
}

TEST(ChooseScoringBackendTest, GridTierTakesOverAtLargeN) {
  // Exact constants are calibration-dependent (BENCH_density_backends.json);
  // the shape invariants: the grid tier is chosen at and past its floor
  // regardless of dimensionality, and below the floor the verdicts are the
  // original kNN-band choices.
  for (std::size_t d : {1u, 2u, 4u, 8u, 16u}) {
    EXPECT_EQ(ChooseScoringBackend(32768, d), ScoringBackend::kGrid) << d;
    EXPECT_EQ(ChooseScoringBackend(1u << 20, d), ScoringBackend::kGrid) << d;
    EXPECT_NE(ChooseScoringBackend(32767, d), ScoringBackend::kGrid) << d;
  }
  EXPECT_EQ(ChooseScoringBackend(10000, 2), ScoringBackend::kKdTree);
  EXPECT_EQ(ChooseScoringBackend(10000, 8), ScoringBackend::kBruteSimd);
  EXPECT_EQ(ChooseScoringBackend(100, 2), ScoringBackend::kBruteSimd);
}

TEST(ChooseScoringBackendTest, KnnDelegationNeverReturnsGrid) {
  // A caller that needs neighbors maps the grid verdict back onto the
  // better kNN backend, so large-N kNN workloads keep their KD-tree wins.
  for (std::size_t n : {10u, 1000u, 32768u, 1u << 20}) {
    for (std::size_t d : {1u, 2u, 4u, 8u, 16u}) {
      const KnnBackend choice = ChooseKnnBackend(n, d);
      EXPECT_NE(choice, KnnBackend::kAuto) << "n " << n << " d " << d;
    }
  }
  EXPECT_EQ(ChooseKnnBackend(1u << 20, 2), KnnBackend::kKdTree);
  EXPECT_EQ(ChooseKnnBackend(1u << 20, 16), KnnBackend::kBruteForce);
}

}  // namespace
}  // namespace hics
