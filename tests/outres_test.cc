#include "outlier/outres.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/synthetic.h"
#include "eval/roc.h"
#include "outlier/subspace_ranker.h"

namespace hics {
namespace {

Dataset BlobWithOutlier(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, 2);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    ds.Set(i, 0, rng.Gaussian(0.5, 0.05));
    ds.Set(i, 1, rng.Gaussian(0.5, 0.05));
  }
  ds.Set(n - 1, 0, 0.95);
  ds.Set(n - 1, 1, 0.95);
  return ds;
}

TEST(OutresTest, BandwidthGrowsWithDimensionality) {
  OutresScorer scorer;
  const double h1 = scorer.Bandwidth(1, 1000);
  const double h3 = scorer.Bandwidth(3, 1000);
  const double h8 = scorer.Bandwidth(8, 1000);
  EXPECT_LT(h1, h3);
  EXPECT_LT(h3, h8);
  // d=1, n=1000 is the calibration point.
  EXPECT_NEAR(h1, 0.1, 1e-12);
}

TEST(OutresTest, BandwidthShrinksWithSampleSize) {
  OutresScorer scorer;
  EXPECT_GT(scorer.Bandwidth(2, 100), scorer.Bandwidth(2, 10000));
}

TEST(OutresTest, IsolatedPointScoresHighest) {
  const Dataset ds = BlobWithOutlier(300, 1);
  OutresScorer scorer;
  const auto scores = scorer.ScoreFullSpace(ds);
  for (std::size_t i = 0; i + 1 < scores.size(); ++i) {
    EXPECT_GT(scores.back(), scores[i]);
  }
}

TEST(OutresTest, DenseUniformDataMostlyZero) {
  Rng rng(2);
  Dataset ds(500, 2);
  for (std::size_t i = 0; i < 500; ++i) {
    ds.Set(i, 0, rng.UniformDouble());
    ds.Set(i, 1, rng.UniformDouble());
  }
  OutresScorer scorer;
  const auto scores = scorer.ScoreFullSpace(ds);
  std::size_t flagged = 0;
  for (double s : scores) {
    if (s > 0.0) ++flagged;
  }
  // Only significant low-density deviators get a nonzero score; on
  // uniform data that should be a small minority (boundary effects).
  EXPECT_LT(flagged, 150u);
}

TEST(OutresTest, TinyDatasetSafe) {
  Dataset ds(2, 2);
  OutresScorer scorer;
  const auto scores = scorer.ScoreFullSpace(ds);
  ASSERT_EQ(scores.size(), 2u);
}

TEST(OutresTest, WorksAsPipelineScorer) {
  SyntheticParams gen;
  gen.num_objects = 500;
  gen.num_attributes = 6;
  gen.min_subspace_dims = 2;
  gen.max_subspace_dims = 2;
  gen.seed = 3;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  OutresScorer scorer;
  // Rank in the true subspaces (the decoupling contract: any scorer).
  const auto scores =
      RankWithSubspaces(PreparedDataset(data->data), data->relevant_subspaces,
                        scorer);
  const double auc = *ComputeAuc(scores, data->data.labels());
  EXPECT_GT(auc, 0.8);
}

TEST(OutresTest, NameIsOutres) { EXPECT_EQ(OutresScorer().name(), "outres"); }

}  // namespace
}  // namespace hics
