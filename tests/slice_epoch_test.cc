// DrawSelection-level guarantees of the rank-space slice selection: the
// rank windows select exactly the objects the materializing Draw gathers,
// the selection size follows Algorithm 1's block-size rule, and the
// sorted-order emission keeps KS bit-identical on duplicate-heavy data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "core/contrast.h"
#include "core/slice.h"
#include "stats/ks_test.h"

namespace hics {
namespace {

Dataset UniformDataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.Set(i, j, rng.UniformDouble());
  }
  return ds;
}

/// The per-object window test a SliceSelection stands for: `id` is
/// selected iff its rank lies in every condition's window.
bool InSlice(const SliceSelection& sel, std::size_t id) {
  for (std::size_t c = 0; c < sel.num_conditions(); ++c) {
    const std::uint32_t rank = sel.condition_ranks[c][id];
    if (rank < sel.window_starts[c] ||
        rank >= sel.window_starts[c] + sel.block) {
      return false;
    }
  }
  return true;
}

TEST(SliceEpochTest, DrawSelectionMatchesMaterializingDraw) {
  // Same RNG state through either entry point -> same slice: the rank
  // windows must select exactly the objects whose test-attribute values
  // Draw materializes.
  Dataset ds = UniformDataset(400, 5, 21);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  Rng r1(77), r2(77);
  SliceScratch s1, s2;
  SliceDraw draw;
  SliceSelection sel;
  const Subspace sub({0, 2, 3, 4});
  const std::size_t block = sampler.BlockSize(sub.size(), 0.15);
  for (int i = 0; i < 50; ++i) {
    sampler.Draw(sub, 0.15, &r1, &s1, &draw);
    sampler.DrawSelection(sub, block, &r2, &s2, &sel);
    EXPECT_EQ(sel.test_attribute, draw.test_attribute);
    EXPECT_EQ(sel.num_conditions(), sub.size() - 1);
    std::vector<double> windowed;
    const auto& col = ds.Column(sel.test_attribute);
    for (std::size_t id = 0; id < 400; ++id) {
      if (InSlice(sel, id)) windowed.push_back(col[id]);
    }
    ASSERT_EQ(windowed.size(), draw.selected_count);
    std::vector<double> materialized = draw.conditional_sample;
    std::sort(materialized.begin(), materialized.end());
    std::sort(windowed.begin(), windowed.end());
    EXPECT_EQ(windowed, materialized);
  }
}

TEST(SliceEpochTest, SelectionSizeConcentratesAcrossDimensionalities) {
  // Property: on independent data the conditional-sample size concentrates
  // near N * alpha^((|S|-1)/|S|) — the block-size rule of Algorithm 1 —
  // which approaches N * alpha from above as |S| grows. Checked for
  // |S| in {2..5}.
  const std::size_t n = 2000;
  const double alpha = 0.1;
  for (std::size_t dims = 2; dims <= 5; ++dims) {
    Dataset ds = UniformDataset(n, dims, 30 + dims);
    SortedAttributeIndex index(ds);
    SliceSampler sampler(ds, index);
    Rng rng(100 + dims);
    SliceScratch scratch;
    SliceSelection sel;
    std::vector<std::size_t> attrs(dims);
    std::iota(attrs.begin(), attrs.end(), std::size_t{0});
    const Subspace sub(attrs);
    const std::size_t block = sampler.BlockSize(dims, alpha);
    double sum = 0.0;
    const int reps = 200;
    for (int rep = 0; rep < reps; ++rep) {
      sampler.DrawSelection(sub, block, &rng, &scratch, &sel);
      std::size_t count = 0;
      for (std::size_t id = 0; id < n; ++id) {
        count += InSlice(sel, id);
      }
      sum += static_cast<double>(count);
    }
    const double mean = sum / reps;
    const double expected =
        static_cast<double>(n) *
        std::pow(alpha, (static_cast<double>(dims) - 1.0) /
                            static_cast<double>(dims));
    EXPECT_NEAR(mean, expected, 0.15 * expected) << "|S| = " << dims;
    // Never drifts below the target selection fraction N * alpha.
    EXPECT_GT(mean, static_cast<double>(n) * alpha * 0.85)
        << "|S| = " << dims;
  }
}

TEST(SliceEpochTest, DuplicateHeavyColumnsKeepKsBitIdentical) {
  // Columns quantized to 8 distinct values produce massive ties; the
  // sorted-order emission must still hand KsTestSorted the exact value
  // sequence the gather+sort oracle produces (equal values are
  // interchangeable), keeping contrast scores bit-identical.
  Rng rng(55);
  const std::size_t n = 500, d = 4;
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      ds.Set(i, j, std::floor(rng.UniformDouble() * 8.0));
    }
  }
  const stats::KsDeviation ks;
  ContrastParams rank_params{30, 0.2, true};
  ContrastParams oracle_params{30, 0.2, false};
  const ContrastEstimator rank(ds, ks, rank_params);
  const ContrastEstimator oracle(ds, ks, oracle_params);
  for (const Subspace& sub :
       {Subspace({0, 1}), Subspace({0, 1, 2}), Subspace({0, 1, 2, 3})}) {
    Rng ra(9), rb(9);
    const double a = rank.Contrast(sub, &ra);
    const double b = oracle.Contrast(sub, &rb);
    EXPECT_EQ(a, b) << sub.ToString();
  }
}

}  // namespace
}  // namespace hics
