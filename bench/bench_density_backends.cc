// Scoring-tier crossover calibration: times per-subspace outlier scoring
// end to end (index/grid build included, exactly what the ranking stage
// pays per subspace) for the three backends ChooseScoringBackend selects
// between, over an (N, |S|) grid:
//
//   knn_batched — KnnAverageScorer through the blocked brute-force SIMD
//                 kernel (all-kNN table + mean-distance reduction),
//   kd_tree     — the same kNN-average score from a median-split KD-tree
//                 all-kNN pass,
//   grid        — GridDensityScorer: O(N) histogram binning + Z-scored
//                 occupancy (no neighbor search at all).
//
// The kNN backends are only run up to N = 32768: past there their
// quadratic/tree cost is the thing this benchmark exists to avoid, while
// the grid tier is timed through N = 2^20 to demonstrate million-point
// per-subspace scoring in milliseconds.
//
// The record also drills the grid tier's determinism contract —
// byte-identical scores across SIMD tiers, thread counts, and the
// smoothed variant across tiers — because the backend chooser may only
// hand workloads to a tier whose output is reproducible everywhere.
//
// Output: a table on stdout and BENCH_density_backends.json with every
// cell, the per-|S| crossover N where the grid starts winning, the
// determinism verdict ("grid_identical"), the calibrated-cell verdict
// ("grid_wins_at_calibrated_cell", asserted by CI perf-smoke), and the
// selector constants ChooseScoringBackend pins from this record.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "common/random.h"
#include "common/timer.h"
#include "index/neighbor_searcher.h"
#include "outlier/grid_density.h"
#include "outlier/knn_outlier.h"
#include "outlier/subspace_ranker.h"
#include "simd/simd.h"

namespace hics {
namespace {

constexpr std::size_t kK = 10;     // the LOF default (min_pts = 10)
constexpr std::size_t kBins = 16;  // GridDensityParams default

/// The (N, |S|) cell the CI perf-smoke asserts on: one binary order above
/// the grid selector's floor would be off-grid, so the floor cell itself
/// is the proof obligation.
constexpr std::size_t kCalibratedN = 32768;
constexpr std::size_t kCalibratedDim = 4;

Dataset UniformData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.Set(i, j, rng.UniformDouble());
  }
  return ds;
}

template <typename Fn>
double MedianSeconds(int runs, const Fn& fn) {
  std::vector<double> times;
  times.reserve(runs);
  for (int r = 0; r < runs; ++r) {
    Timer timer;
    fn();
    times.push_back(timer.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct Cell {
  std::size_t n;
  std::size_t dim;
  bool knn_measured;
  double knn_batched_seconds;
  double kd_tree_seconds;
  double grid_seconds;
  double grid_smooth_seconds;
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// kNN-average scores from a KD-tree all-kNN pass (KnnAverageScorer's
/// reduction over the alternative backend's table).
std::vector<double> KdTreeKnnAverage(const Dataset& ds, const Subspace& full) {
  const auto searcher = MakeKdTreeSearcher(ds, full);
  KnnResultTable table;
  searcher->QueryAllKnn(kK, &table);
  const std::size_t n = ds.num_objects();
  std::vector<double> scores(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = table.Row(i);
    if (row.empty()) continue;
    double sum = 0.0;
    for (const Neighbor& nb : row) sum += nb.distance;
    scores[i] = sum / static_cast<double>(row.size());
  }
  return scores;
}

/// The determinism drill: grid scores at the calibrated cell must be
/// byte-identical across SIMD tiers {scalar, active}, thread counts
/// {1, 4}, and (separately) for the smoothed variant across tiers.
bool DrillGridIdentity(const Dataset& ds, const Subspace& full) {
  GridDensityParams params;
  params.bins_per_dim = kBins;
  std::vector<double> baseline;
  {
    GridDensityScorer scorer(params);
    baseline = scorer.ScoreSubspace(ds, full);
  }
  bool identical = true;
  {
    simd::ScopedSimdTier scalar(simd::SimdTier::kScalar);
    GridDensityScorer scorer(params);
    identical &= SameBits(baseline, scorer.ScoreSubspace(ds, full));
  }
  {
    GridDensityParams threaded = params;
    threaded.num_threads = 4;
    GridDensityScorer scorer(threaded);
    identical &= SameBits(baseline, scorer.ScoreSubspace(ds, full));
  }
  {
    GridDensityParams smooth = params;
    smooth.smooth = true;
    GridDensityScorer scorer(smooth);
    const std::vector<double> smooth_active = scorer.ScoreSubspace(ds, full);
    simd::ScopedSimdTier scalar(simd::SimdTier::kScalar);
    identical &= SameBits(smooth_active, scorer.ScoreSubspace(ds, full));
  }
  return identical;
}

}  // namespace

int Run() {
  // kNN backends measured through 32768; the grid tier continues alone to
  // 2^20 — the million-point rows the chooser's grid verdict unlocks.
  const std::vector<std::size_t> sizes = {2048, 8192, 32768, 131072, 1048576};
  constexpr std::size_t kKnnMaxObjects = 32768;
  const std::vector<std::size_t> dims = {2, 4, 8};
  std::vector<Cell> cells;

  std::printf(
      "per-subspace scoring wall clock (k = %zu, bins = %zu, median of "
      "runs, simd tier %s), seconds\n",
      kK, kBins, simd::SimdTierName(simd::ActiveTier()));
  std::printf("%8s %4s %14s %14s %14s %14s %s\n", "N", "|S|", "knn/batched",
              "kd-tree", "grid", "grid/smooth", "winner");
  for (std::size_t n : sizes) {
    for (std::size_t dim : dims) {
      const Dataset ds = UniformData(n, dim, 1000 + n + dim);
      const Subspace full = ds.FullSpace();
      const bool knn_measured = n <= kKnnMaxObjects;
      const int runs = n <= 8192 ? 3 : (knn_measured ? 2 : 3);
      double knn_batched = 0.0;
      double kd = 0.0;
      if (knn_measured) {
        const KnnAverageScorer knn(kK);
        knn_batched =
            MedianSeconds(runs, [&] { (void)knn.ScoreSubspace(ds, full); });
        kd = MedianSeconds(runs, [&] { (void)KdTreeKnnAverage(ds, full); });
      }
      GridDensityParams grid_params;
      grid_params.bins_per_dim = kBins;
      const GridDensityScorer grid_scorer(grid_params);
      const double grid =
          MedianSeconds(runs, [&] { (void)grid_scorer.ScoreSubspace(ds, full); });
      GridDensityParams smooth_params = grid_params;
      smooth_params.smooth = true;
      const GridDensityScorer smooth_scorer(smooth_params);
      const double grid_smooth = MedianSeconds(
          runs, [&] { (void)smooth_scorer.ScoreSubspace(ds, full); });
      cells.push_back(
          {n, dim, knn_measured, knn_batched, kd, grid, grid_smooth});
      if (knn_measured) {
        const double best_knn = std::min(knn_batched, kd);
        const char* winner = grid < best_knn        ? "grid"
                             : kd < knn_batched     ? "kd-tree"
                                                    : "knn/batched";
        std::printf("%8zu %4zu %14.6f %14.6f %14.6f %14.6f %s\n", n, dim,
                    knn_batched, kd, grid, grid_smooth, winner);
      } else {
        std::printf("%8zu %4zu %14s %14s %14.6f %14.6f %s\n", n, dim,
                    "(skipped)", "(skipped)", grid, grid_smooth,
                    "grid (knn infeasible)");
      }
    }
  }

  // Per-|S| crossover: the smallest measured N at which the grid tier
  // beats the better kNN backend (and every larger measured N agrees).
  std::printf("\ngrid crossover per |S| (smallest N where grid wins):\n");
  std::vector<std::pair<std::size_t, std::size_t>> crossovers;
  for (std::size_t dim : dims) {
    std::size_t crossover = 0;
    for (const Cell& c : cells) {
      if (c.dim != dim || !c.knn_measured) continue;
      const double best_knn = std::min(c.knn_batched_seconds,
                                       c.kd_tree_seconds);
      if (c.grid_seconds < best_knn) {
        if (crossover == 0 || c.n < crossover) crossover = c.n;
      }
    }
    crossovers.emplace_back(dim, crossover);
    if (crossover != 0) {
      std::printf("  |S|=%zu -> N >= %zu\n", dim, crossover);
    } else {
      std::printf("  |S|=%zu -> never (within the measured range)\n", dim);
    }
  }

  // Determinism drill at the calibrated cell.
  const Dataset drill_ds = UniformData(kCalibratedN, kCalibratedDim,
                                       1000 + kCalibratedN + kCalibratedDim);
  const bool grid_identical = DrillGridIdentity(drill_ds, drill_ds.FullSpace());
  std::printf("\ngrid determinism (tiers x threads x smoothing): %s\n",
              grid_identical ? "byte-identical" : "MISMATCH");

  bool grid_wins_at_calibrated_cell = false;
  for (const Cell& c : cells) {
    if (c.n == kCalibratedN && c.dim == kCalibratedDim && c.knn_measured) {
      grid_wins_at_calibrated_cell =
          c.grid_seconds <
          std::min(c.knn_batched_seconds, c.kd_tree_seconds);
    }
  }
  std::printf("grid wins at calibrated cell (N=%zu, |S|=%zu): %s\n",
              kCalibratedN, kCalibratedDim,
              grid_wins_at_calibrated_cell ? "yes" : "NO");

  // Bin-count sensitivity at the calibrated cell: the grid tier's cost is
  // nearly flat in bins (the count array grows, the pass count doesn't).
  const std::vector<std::size_t> bin_sweep = {8, 16, 32, 64};
  std::vector<std::pair<std::size_t, double>> bins_timings;
  for (std::size_t bins : bin_sweep) {
    GridDensityParams params;
    params.bins_per_dim = bins;
    const GridDensityScorer scorer(params);
    bins_timings.emplace_back(bins, MedianSeconds(3, [&] {
      (void)scorer.ScoreSubspace(drill_ds, drill_ds.FullSpace());
    }));
  }

  bench::JsonWriter json;
  json.BeginObject()
      .Field("benchmark", "bench_density_backends.scoring_tier_crossover")
      .Field("k", static_cast<std::uint64_t>(kK))
      .Field("bins_per_dim", static_cast<std::uint64_t>(kBins));
  bench::WriteBuildInfo(json);
  bench::WriteSimdInfo(json);
  bench::WriteMachineInfo(json);
  json.BeginArray("grid");
  for (const Cell& c : cells) {
    json.BeginObject()
        .Field("num_objects", static_cast<std::uint64_t>(c.n))
        .Field("dim", static_cast<std::uint64_t>(c.dim))
        .Field("knn_measured", c.knn_measured);
    if (c.knn_measured) {
      json.Field("knn_batched_seconds", c.knn_batched_seconds)
          .Field("kd_tree_seconds", c.kd_tree_seconds);
    }
    json.Field("grid_seconds", c.grid_seconds)
        .Field("grid_smooth_seconds", c.grid_smooth_seconds)
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("grid_crossover_n_by_dim");
  for (const auto& [dim, crossover] : crossovers) {
    json.BeginObject()
        .Field("dim", static_cast<std::uint64_t>(dim))
        .Field("min_winning_num_objects",
               static_cast<std::uint64_t>(crossover))
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("bins_sweep");
  for (const auto& [bins, seconds] : bins_timings) {
    json.BeginObject()
        .Field("bins_per_dim", static_cast<std::uint64_t>(bins))
        .Field("grid_seconds", seconds)
        .EndObject();
  }
  json.EndArray();
  json.Field("grid_identical", grid_identical)
      .Field("grid_wins_at_calibrated_cell", grid_wins_at_calibrated_cell);
  // The constants ChooseScoringBackend pins from this record (see
  // src/outlier/subspace_ranker.cc): the grid tier at
  // N >= grid_min_objects, the calibrated KD-tree/brute split below it.
  json.BeginObject("selector")
      .Field("grid_min_objects", static_cast<std::uint64_t>(32768))
      .Field("kd_tree_min_objects", static_cast<std::uint64_t>(256))
      .Field("kd_tree_max_dims", static_cast<std::uint64_t>(4))
      .Field("kd_tree_mid_min_objects", static_cast<std::uint64_t>(1000))
      .Field("kd_tree_mid_max_dims", static_cast<std::uint64_t>(5))
      .Field("kd_tree_extended_min_objects", static_cast<std::uint64_t>(4000))
      .Field("kd_tree_extended_max_dims", static_cast<std::uint64_t>(6))
      .EndObject()
      .EndObject();
  if (bench::WriteJsonFile("BENCH_density_backends.json", json)) {
    std::printf("\n-> BENCH_density_backends.json\n");
  }
  return grid_identical ? 0 : 1;
}

}  // namespace hics

int main() { return hics::Run(); }
