// kNN backend crossover calibration: times the all-kNN workload (the
// ranking stage's inner problem — every object's k nearest neighbors in
// one subspace) for three strategies over an (N, |S|) grid:
//
//   brute_per_query  — N independent bound-abandoning scans (the
//                      pre-batching reference path),
//   brute_batched    — the blocked SoA + symmetric-pair kernel,
//   brute_f32_screen — the same blocked kernel screening in float32 with
//                      exact-double recompute of surviving candidates,
//   kd_tree          — per-query median-split KD-tree search.
//
// Timings depend on the dispatched SIMD tier (the brute kernels run the
// tier's screen-row kernels; the kd-tree does not use them), so the header
// line and the JSON "simd" object record the tier each record came from.
//
// Output: a table on stdout and BENCH_knn_backends.json with every cell,
// the per-N crossover dimensionality where the KD-tree stops winning, and
// the selector constants ChooseKnnBackend derives from this record. Rerun
// after kernel or flag changes and re-pin the constants if the crossover
// moved.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "common/random.h"
#include "common/timer.h"
#include "index/neighbor_searcher.h"
#include "outlier/subspace_ranker.h"
#include "simd/simd.h"

namespace hics {
namespace {

constexpr std::size_t kK = 10;  // the LOF default (min_pts = 10)

Dataset UniformData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.Set(i, j, rng.UniformDouble());
  }
  return ds;
}

/// Median of `runs` timed executions of fn() (each a full all-kNN pass);
/// the median rejects one-off scheduler hiccups.
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
  double per_query_seconds;
  double batched_seconds;
  double batched_f32_seconds;
  double kd_tree_seconds;
};

}  // namespace

int Run() {
  const std::vector<std::size_t> sizes = {500, 1000, 2000, 4000};
  const std::vector<std::size_t> dims = {1, 2, 3, 4, 5, 6, 8};
  std::vector<Cell> cells;

  std::printf("all-kNN wall clock (k = %zu, median of 7, simd tier %s), "
              "seconds\n",
              kK, simd::SimdTierName(simd::ActiveTier()));
  std::printf("%6s %4s %14s %14s %14s %14s %s\n", "N", "|S|", "brute/query",
              "brute/batched", "brute/f32", "kd-tree", "winner");
  for (std::size_t n : sizes) {
    for (std::size_t dim : dims) {
      const Dataset ds = UniformData(n, dim, 1000 + n + dim);
      const Subspace full = ds.FullSpace();
      // Build cost is part of each measurement on purpose: the ranking
      // stage builds one fresh index per subspace, so the selector must
      // weigh construction too.
      // Seven runs: the |S| = 5 cells sit within ~10-25% of the
      // crossover, where a median of three still flipped between runs on
      // a shared host.
      const int runs = 7;
      KnnResultTable table;
      const double per_query = MedianSeconds(runs, [&] {
        const auto s = MakeBruteForceSearcher(ds, full);
        s->QueryAllKnnPerQuery(kK, &table);
      });
      const double batched = MedianSeconds(runs, [&] {
        const auto s = MakeBruteForceSearcher(ds, full);
        s->QueryAllKnn(kK, &table);
      });
      const double batched_f32 = MedianSeconds(runs, [&] {
        const auto s = MakeBruteForceSearcher(ds, full,
                                              KnnPrecision::kFloat32Screen);
        s->QueryAllKnn(kK, &table);
      });
      const double kd = MedianSeconds(runs, [&] {
        const auto s = MakeKdTreeSearcher(ds, full);
        s->QueryAllKnn(kK, &table);
      });
      cells.push_back({n, dim, per_query, batched, batched_f32, kd});
      const double best_brute = std::min(batched, batched_f32);
      const char* winner = kd < best_brute          ? "kd-tree"
                           : batched_f32 < batched ? "brute/f32"
                                                    : "brute/batched";
      std::printf("%6zu %4zu %14.6f %14.6f %14.6f %14.6f %s\n", n, dim,
                  per_query, batched, batched_f32, kd, winner);
    }
  }

  // Per-N crossover: the largest |S| at which the KD-tree still beats the
  // batched kernel (0 = never).
  std::printf("\nKD-tree crossover per N (largest |S| where kd wins):\n");
  std::vector<std::pair<std::size_t, std::size_t>> crossovers;
  for (std::size_t n : sizes) {
    std::size_t crossover = 0;
    for (const Cell& c : cells) {
      if (c.n == n && c.kd_tree_seconds < c.batched_seconds) {
        crossover = std::max(crossover, c.dim);
      }
    }
    crossovers.emplace_back(n, crossover);
    std::printf("  N=%6zu -> |S| <= %zu\n", n, crossover);
  }
  std::printf(
      "\nexpected shape: batched brute force is near-flat in |S| and beats\n"
      "the per-query scan everywhere; the kd-tree can only win at very low\n"
      "|S| and large N, and degrades toward brute force as |S| grows.\n");

  bench::JsonWriter json;
  json.BeginObject()
      .Field("benchmark", "bench_knn_backends.all_knn_crossover")
      .Field("k", static_cast<std::uint64_t>(kK));
  bench::WriteBuildInfo(json);
  bench::WriteSimdInfo(json);
  bench::WriteMachineInfo(json);
  json.BeginArray("grid");
  for (const Cell& c : cells) {
    json.BeginObject()
        .Field("num_objects", static_cast<std::uint64_t>(c.n))
        .Field("dim", static_cast<std::uint64_t>(c.dim))
        .Field("brute_per_query_seconds", c.per_query_seconds)
        .Field("brute_batched_seconds", c.batched_seconds)
        .Field("brute_f32_screen_seconds", c.batched_f32_seconds)
        .Field("kd_tree_seconds", c.kd_tree_seconds)
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("kd_tree_crossover_dim_by_n");
  for (const auto& [n, crossover] : crossovers) {
    json.BeginObject()
        .Field("num_objects", static_cast<std::uint64_t>(n))
        .Field("max_winning_dim", static_cast<std::uint64_t>(crossover))
        .EndObject();
  }
  json.EndArray();
  // The constants ChooseKnnBackend pins from this record (see
  // src/outlier/subspace_ranker.cc): kd-tree for |S| <= max_dims once
  // N >= min_objects, stretching to mid_max_dims at N >= mid_min_objects
  // and to extended_max_dims at N >= extended_min_objects; blocked brute
  // force otherwise.
  json.BeginObject("selector")
      .Field("kd_tree_min_objects", static_cast<std::uint64_t>(256))
      .Field("kd_tree_max_dims", static_cast<std::uint64_t>(4))
      .Field("kd_tree_mid_min_objects", static_cast<std::uint64_t>(1000))
      .Field("kd_tree_mid_max_dims", static_cast<std::uint64_t>(5))
      .Field("kd_tree_extended_min_objects", static_cast<std::uint64_t>(4000))
      .Field("kd_tree_extended_max_dims", static_cast<std::uint64_t>(6))
      .EndObject()
      .EndObject();
  if (bench::WriteJsonFile("BENCH_knn_backends.json", json)) {
    std::printf("\n-> BENCH_knn_backends.json\n");
  }
  return 0;
}

}  // namespace hics

int main() { return hics::Run(); }
