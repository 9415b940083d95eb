// Parameterized parity tests: the KD-tree backend must return exactly the
// same neighbors as the brute-force reference on random data, across
// dimensionalities and k values.

#include "index/neighbor_searcher.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"

namespace hics {
namespace {

Dataset RandomDataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.Set(i, j, rng.UniformDouble());
  }
  return ds;
}

TEST(BruteForceTest, FindsObviousNearestNeighbor) {
  auto ds = *Dataset::FromRows(
      {{0.0, 0.0}, {1.0, 0.0}, {0.1, 0.0}, {5.0, 5.0}});
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0, 1}));
  const auto nbrs = searcher->QueryKnn(0, 2);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].id, 2u);
  EXPECT_NEAR(nbrs[0].distance, 0.1, 1e-12);
  EXPECT_EQ(nbrs[1].id, 1u);
}

TEST(BruteForceTest, ExcludesQueryObject) {
  auto ds = *Dataset::FromRows({{0.0}, {0.0}, {1.0}});
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0}));
  const auto nbrs = searcher->QueryKnn(0, 3);
  ASSERT_EQ(nbrs.size(), 2u);
  for (const Neighbor& nb : nbrs) EXPECT_NE(nb.id, 0u);
}

TEST(BruteForceTest, SubspaceRestrictedDistance) {
  // Distances computed only in attribute 0: object 2 is nearest to 0
  // despite being far away in attribute 1.
  auto ds = *Dataset::FromRows({{0.0, 0.0}, {0.5, 0.0}, {0.1, 100.0}});
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0}));
  const auto nbrs = searcher->QueryKnn(0, 1);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0].id, 2u);
}

TEST(BruteForceTest, RadiusQuery) {
  auto ds = *Dataset::FromRows({{0.0}, {0.5}, {0.9}, {2.0}});
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0}));
  const auto nbrs = searcher->QueryRadius(0, 1.0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].id, 1u);
  EXPECT_EQ(nbrs[1].id, 2u);
}

TEST(BruteForceTest, CountRadiusMatchesQueryRadius) {
  Dataset ds = RandomDataset(200, 3, 9);
  auto searcher = MakeBruteForceSearcher(ds, ds.FullSpace());
  for (std::size_t q = 0; q < 20; ++q) {
    for (double radius : {0.05, 0.2, 0.6}) {
      EXPECT_EQ(searcher->CountRadius(q, radius),
                searcher->QueryRadius(q, radius).size())
          << "query " << q << " radius " << radius;
    }
  }
}

TEST(KdTreeTest, DefaultCountRadiusMatches) {
  Dataset ds = RandomDataset(150, 2, 10);
  auto kd = MakeKdTreeSearcher(ds, ds.FullSpace());
  for (std::size_t q = 0; q < 10; ++q) {
    EXPECT_EQ(kd->CountRadius(q, 0.3), kd->QueryRadius(q, 0.3).size());
  }
}

TEST(BruteForceTest, KLargerThanDatasetReturnsAll) {
  auto ds = RandomDataset(5, 2, 1);
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0, 1}));
  EXPECT_EQ(searcher->QueryKnn(0, 100).size(), 4u);
}

TEST(KdTreeTest, HandlesDuplicatePoints) {
  Dataset ds(40, 2);  // all zeros
  auto searcher = MakeKdTreeSearcher(ds, Subspace({0, 1}));
  const auto nbrs = searcher->QueryKnn(3, 5);
  ASSERT_EQ(nbrs.size(), 5u);
  for (const Neighbor& nb : nbrs) {
    EXPECT_EQ(nb.distance, 0.0);
    EXPECT_NE(nb.id, 3u);
  }
}

struct ParityCase {
  std::size_t n;
  std::size_t d;
  std::size_t k;
  std::uint64_t seed;
};

class KnnParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(KnnParityTest, KdTreeMatchesBruteForce) {
  const ParityCase& c = GetParam();
  Dataset ds = RandomDataset(c.n, c.d, c.seed);
  const Subspace full = ds.FullSpace();
  auto brute = MakeBruteForceSearcher(ds, full);
  auto kd = MakeKdTreeSearcher(ds, full);
  for (std::size_t q = 0; q < std::min<std::size_t>(c.n, 25); ++q) {
    const auto expected = brute->QueryKnn(q, c.k);
    const auto actual = kd->QueryKnn(q, c.k);
    ASSERT_EQ(actual.size(), expected.size()) << "query " << q;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id)
          << "query " << q << " neighbor " << i;
      EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-12);
    }
  }
}

TEST_P(KnnParityTest, RadiusMatchesBruteForce) {
  const ParityCase& c = GetParam();
  Dataset ds = RandomDataset(c.n, c.d, c.seed + 1000);
  const Subspace full = ds.FullSpace();
  auto brute = MakeBruteForceSearcher(ds, full);
  auto kd = MakeKdTreeSearcher(ds, full);
  const double radius = 0.25;
  for (std::size_t q = 0; q < std::min<std::size_t>(c.n, 15); ++q) {
    const auto expected = brute->QueryRadius(q, radius);
    const auto actual = kd->QueryRadius(q, radius);
    ASSERT_EQ(actual.size(), expected.size()) << "query " << q;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, KnnParityTest,
    ::testing::Values(ParityCase{30, 1, 3, 1}, ParityCase{100, 2, 5, 2},
                      ParityCase{100, 3, 10, 3}, ParityCase{200, 5, 7, 4},
                      ParityCase{150, 8, 15, 5}, ParityCase{64, 2, 63, 6},
                      ParityCase{500, 4, 1, 7}));

// Integer-grid coordinates make exact distance ties (duplicates at 0, and
// equal nonzero distances) the common case: the (distance, id) order must
// still pick the same neighbors on both backends, including far-side
// points at exactly the current k-th distance.
Dataset IntegerGridDataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      ds.Set(i, j, static_cast<double>(rng.UniformIndex(4)));
    }
  }
  return ds;
}

void ExpectSameNeighbors(std::span<const Neighbor> actual,
                         std::span<const Neighbor> expected,
                         const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << where << " neighbor " << i;
    EXPECT_EQ(actual[i].distance, expected[i].distance)
        << where << " neighbor " << i;
  }
}

TEST(KdTreeTest, DuplicateHeavyTiesMatchBruteForce) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t n = 60 + 40 * seed;
    const std::size_t d = 1 + seed % 4;
    Dataset ds = IntegerGridDataset(n, d, seed);
    const Subspace full = ds.FullSpace();
    auto brute = MakeBruteForceSearcher(ds, full);
    auto kd = MakeKdTreeSearcher(ds, full);
    Rng rng(seed + 500);
    std::vector<double> point(d);
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{10}}) {
      const std::string shape = "seed " + std::to_string(seed) + " n " +
                                std::to_string(n) + " d " +
                                std::to_string(d) + " k " + std::to_string(k);
      for (std::size_t q = 0; q < n; ++q) {
        ExpectSameNeighbors(kd->QueryKnn(q, k), brute->QueryKnn(q, k),
                            shape + " query " + std::to_string(q));
      }
      KnnResultTable want, got;
      brute->QueryAllKnn(k, &want);
      kd->QueryAllKnn(k, &got);
      ASSERT_EQ(got.num_queries(), want.num_queries()) << shape;
      for (std::size_t q = 0; q < n; ++q) {
        ExpectSameNeighbors(got.Row(q), want.Row(q),
                            shape + " all-kNN row " + std::to_string(q));
      }
      for (int trial = 0; trial < 20; ++trial) {
        for (double& v : point) {
          v = static_cast<double>(rng.UniformIndex(4));
        }
        ExpectSameNeighbors(kd->QueryKnnPoint(point, k),
                            brute->QueryKnnPoint(point, k),
                            shape + " point trial " + std::to_string(trial));
      }
    }
  }
}

// --------------------------------------------------------------------------
// QueryKnnPoint: the const out-of-sample query path (serving).
// --------------------------------------------------------------------------

TEST(QueryKnnPointTest, FindsNearestTrainingPoints) {
  auto ds = *Dataset::FromRows(
      {{0.0, 0.0}, {1.0, 0.0}, {0.1, 0.0}, {5.0, 5.0}});
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0, 1}));
  const std::vector<double> query = {0.05, 0.0};
  const auto nbrs = searcher->QueryKnnPoint(query, 2);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].id, 0u);
  EXPECT_NEAR(nbrs[0].distance, 0.05, 1e-12);
  EXPECT_EQ(nbrs[1].id, 2u);
}

TEST(QueryKnnPointTest, DoesNotExcludeCoincidingTrainingPoint) {
  // Unlike QueryKnn(q, ...), a point query excludes nothing: a query that
  // coincides with a training object sees it at distance 0.
  auto ds = *Dataset::FromRows({{0.0}, {1.0}, {2.0}});
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0}));
  const std::vector<double> query = {1.0};
  const auto nbrs = searcher->QueryKnnPoint(query, 1);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0].id, 1u);
  EXPECT_EQ(nbrs[0].distance, 0.0);
}

TEST(QueryKnnPointTest, KLargerThanDatasetReturnsAll) {
  auto ds = *Dataset::FromRows({{0.0}, {1.0}, {2.0}});
  auto searcher = MakeKdTreeSearcher(ds, Subspace({0}));
  const std::vector<double> query = {0.4};
  const auto nbrs = searcher->QueryKnnPoint(query, 99);
  EXPECT_EQ(nbrs.size(), 3u);
}

TEST_P(KnnParityTest, QueryKnnPointKdTreeMatchesBruteForce) {
  const ParityCase& c = GetParam();
  Dataset ds = RandomDataset(c.n, c.d, c.seed + 2000);
  const Subspace full = ds.FullSpace();
  auto brute = MakeBruteForceSearcher(ds, full);
  auto kd = MakeKdTreeSearcher(ds, full);
  Rng rng(c.seed + 3000);
  std::vector<double> query(c.d);
  for (int trial = 0; trial < 10; ++trial) {
    for (double& v : query) v = rng.UniformDouble();
    const auto expected = brute->QueryKnnPoint(query, c.k);
    const auto actual = kd->QueryKnnPoint(query, c.k);
    ASSERT_EQ(actual.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id)
          << "trial " << trial << " neighbor " << i;
      // Exact equality, not NEAR: serving depends on the backends being
      // bit-identical so the cache / backend choice can never change a
      // served score.
      EXPECT_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

TEST(QueryKnnPointTest, MatchesQueryKnnOnTrainingPointsPlusSelf) {
  // A point query at training object q must return q itself at distance 0
  // followed by exactly QueryKnn(q, k-1)'s neighbors (no duplicates in
  // the data).
  Dataset ds = RandomDataset(60, 3, 99);
  auto searcher = MakeBruteForceSearcher(ds, ds.FullSpace());
  std::vector<double> point(3);
  for (std::size_t q = 0; q < 10; ++q) {
    for (std::size_t j = 0; j < 3; ++j) point[j] = ds.Get(q, j);
    const auto with_self = searcher->QueryKnnPoint(point, 5);
    const auto without_self = searcher->QueryKnn(q, 4);
    ASSERT_EQ(with_self.size(), 5u);
    EXPECT_EQ(with_self[0].id, q);
    EXPECT_EQ(with_self[0].distance, 0.0);
    for (std::size_t i = 0; i < without_self.size(); ++i) {
      EXPECT_EQ(with_self[i + 1].id, without_self[i].id);
      EXPECT_EQ(with_self[i + 1].distance, without_self[i].distance);
    }
  }
}

}  // namespace
}  // namespace hics
