// Contrast kernel calibration: times one ContrastEstimator evaluation
// (M Monte Carlo iterations) through both deviation kernels over an
// (N, |S|, M, alpha, test) grid:
//
//   oracle — the materializing path: per-draw O(N) counter clear, gather
//            of the conditional sample, and (for rank tests) a per-draw
//            O(m log m) sort,
//   rank   — the rank-space kernel (DESIGN.md §5d): rank-window
//            selection + DeviationFromSelection (fused moments for Welch,
//            sorted-order emission for KS/CvM).
//
// A second table times the slice selection alone, per Monte Carlo draw,
// over an (N, |S|) grid: the generation-stamp scheme (stamp every id of
// each condition's sorted-index block, then compact the ids carrying the
// final stamp) against the one-pass rank-window kernel, on the same
// drawn windows. Both must compact the identical values.
//
// Output: tables on stdout and BENCH_contrast_kernels.json with every
// cell, the per-cell speedup, and an `identical` flag — the paths must
// agree bit for bit on every cell of both tables (the CI perf-smoke job
// asserts `all_identical`). Rerun after kernel changes.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_kernels.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/contrast.h"
#include "core/slice.h"
#include "index/sorted_index.h"
#include "simd/simd.h"
#include "stats/two_sample_test.h"

namespace hics {
namespace {

Dataset UniformData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.Set(i, j, rng.UniformDouble());
  }
  return ds;
}

Subspace FirstDims(std::size_t k) {
  std::vector<std::size_t> dims(k);
  for (std::size_t i = 0; i < k; ++i) dims[i] = i;
  return Subspace(dims);
}

/// Median of `runs` timed executions of fn(); rejects one-off scheduler
/// hiccups.
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
  std::size_t dims;
  std::size_t iterations;
  double alpha;
  std::string test;
  double oracle_seconds;
  double rank_seconds;
  bool identical;
};

struct SelectionCell {
  std::size_t n;
  std::size_t dims;
  double stamp_seconds;   // per draw
  double window_seconds;  // per draw
  bool identical;
};

/// The generation-stamp selection the rank-window pass replaced, as the
/// baseline row: each draw claims `conditions` fresh stamp values;
/// condition c promotes the ids of its sorted-index block from stamp
/// base+c to base+c+1, so the selected ids end on the draw's last stamp.
/// The array is cleared only when the 32-bit counter would wrap.
class StampSelector {
 public:
  std::size_t Select(const SortedAttributeIndex& index,
                     const std::vector<std::size_t>& attrs,
                     const SliceSelection& selection, const double* column,
                     double* out) {
    const std::size_t n = index.num_objects();
    const std::size_t conditions = selection.num_conditions();
    if (stamps_.size() != n ||
        conditions > std::numeric_limits<std::uint32_t>::max() - epoch_) {
      stamps_.assign(n, 0);
      epoch_ = 0;
    }
    const std::uint32_t base = epoch_;
    epoch_ += static_cast<std::uint32_t>(conditions);
    std::uint32_t* s = stamps_.data();
    for (std::size_t c = 0; c < conditions; ++c) {
      const auto block =
          index.Block(attrs[c], selection.window_starts[c], selection.block);
      const std::uint32_t next = base + static_cast<std::uint32_t>(c) + 1;
      if (c == 0) {
        for (std::size_t id : block) s[id] = next;
      } else {
        for (std::size_t id : block) s[id] += (s[id] == next - 1);
      }
    }
    return simd::ActiveKernels().compact_selected(column, s, n, epoch_, out);
  }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 0;
};

/// Times the per-draw slice selection both ways over the same windows
/// (kDraws draws from one rng stream, replayed kPasses times per timed run
/// so even sub-microsecond draws sum to a measurable interval) and checks
/// the compacted samples agree bit for bit.
SelectionCell MeasureSelection(std::size_t n, std::size_t dims, double alpha,
                               int runs) {
  constexpr std::size_t kDraws = 256;
  constexpr std::size_t kPasses = 20;
  const Dataset ds = UniformData(n, dims, 3000 + n + dims);
  const SortedAttributeIndex index(ds);
  const SliceSampler sampler(ds, index);
  const Subspace subspace = FirstDims(dims);
  const std::size_t block = sampler.BlockSize(dims, alpha);
  std::vector<SliceSelection> selections(kDraws);
  std::vector<std::vector<std::size_t>> attrs(kDraws);
  Rng rng(91 * n + dims);
  SliceScratch scratch;
  for (std::size_t d = 0; d < kDraws; ++d) {
    sampler.DrawSelection(subspace, block, &rng, &scratch, &selections[d]);
    attrs[d] = scratch.attrs;
  }
  std::vector<double> stamp_out(n + simd::kCompactPad);
  std::vector<double> window_out(n + simd::kCompactPad);
  StampSelector stamp;
  bool identical = true;
  for (std::size_t d = 0; d < kDraws; ++d) {
    const SliceSelection& sel = selections[d];
    const double* column = ds.Column(sel.test_attribute).data();
    const std::size_t a =
        stamp.Select(index, attrs[d], sel, column, stamp_out.data());
    const std::size_t b = simd::ActiveKernels().select_rank_window(
        sel.condition_ranks.data(), sel.window_starts.data(),
        sel.num_conditions(), sel.block, column, n, window_out.data(),
        nullptr);
    identical = identical && a == b &&
                std::memcmp(stamp_out.data(), window_out.data(),
                            a * sizeof(double)) == 0;
  }
  const double stamp_seconds = MedianSeconds(runs, [&] {
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      for (std::size_t d = 0; d < kDraws; ++d) {
        const SliceSelection& sel = selections[d];
        bench::KeepAlive(stamp.Select(index, attrs[d], sel,
                                      ds.Column(sel.test_attribute).data(),
                                      stamp_out.data()));
      }
    }
  });
  const double window_seconds = MedianSeconds(runs, [&] {
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      for (std::size_t d = 0; d < kDraws; ++d) {
        const SliceSelection& sel = selections[d];
        bench::KeepAlive(simd::ActiveKernels().select_rank_window(
            sel.condition_ranks.data(), sel.window_starts.data(),
            sel.num_conditions(), sel.block,
            ds.Column(sel.test_attribute).data(), n, window_out.data(),
            nullptr));
      }
    }
  });
  constexpr double kTimedDraws = kDraws * kPasses;
  return {n, dims, stamp_seconds / kTimedDraws, window_seconds / kTimedDraws,
          identical};
}

/// Appends a "kernels" object: effective GB/s and GFLOP/s of the
/// dispatched deviation-path kernels over a contrast-shaped working set
/// (one N=2000 column, ~alpha=0.1 selection density). These are the
/// kernels DeviationFromSelection runs per Monte Carlo draw: the
/// rank-window selection (4 conditions, the |S| = 5 shape) + moments for
/// Welch, sorted-order compaction for KS/CvM — plus the stamp-filtered
/// id-order compaction of the baseline selection row.
void WriteDeviationKernelThroughput(bench::JsonWriter& json) {
  const simd::SimdKernels& kernels = simd::ActiveKernels();
  Rng rng(4242);
  const std::size_t n = 2000;
  std::vector<double> column(n);
  for (double& v : column) v = rng.UniformDouble();
  std::vector<double> sorted = column;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::vector<std::uint32_t> stamps(n);
  const std::uint32_t target = 3;
  for (std::uint32_t& s : stamps) {
    s = rng.UniformDouble() < 0.1 ? target : 1;
  }
  std::vector<double> out(n + simd::kCompactPad);
  // Window density alpha^(1/5) per condition leaves ~alpha of the objects.
  constexpr std::size_t kConditions = 4;
  std::vector<std::vector<std::uint32_t>> rank_columns(kConditions);
  std::vector<const std::uint32_t*> ranks;
  for (auto& r : rank_columns) {
    r.resize(n);
    for (std::size_t i = 0; i < n; ++i) r[i] = static_cast<std::uint32_t>(i);
    rng.Shuffle(&r);
    ranks.push_back(r.data());
  }
  const std::uint32_t window = 1262;  // ceil(2000 * 0.1^(1/5))
  const std::vector<std::uint32_t> starts = {0, 300, 600, 738};
  std::vector<std::uint32_t> mask(n);
  const bench::KernelRate select = bench::MeasureKernel(
      [&] {
        bench::KeepAlive(kernels.select_rank_window(
            ranks.data(), starts.data(), kConditions, window, column.data(),
            n, out.data(), mask.data()));
      },
      // Every condition's ranks, the column, and the mask.
      static_cast<double>(n * (kConditions * sizeof(std::uint32_t) +
                               sizeof(double) + sizeof(std::uint32_t))),
      0.0);
  const bench::KernelRate compact = bench::MeasureKernel(
      [&] {
        bench::KeepAlive(kernels.compact_selected(
            column.data(), stamps.data(), n, target, out.data()));
      },
      static_cast<double>(n * (sizeof(double) + sizeof(std::uint32_t))),
      0.0);
  const bench::KernelRate compact_sorted = bench::MeasureKernel(
      [&] {
        bench::KeepAlive(kernels.compact_selected_sorted(
            sorted.data(), order.data(), stamps.data(), n, target,
            out.data()));
      },
      // Full sweep of order + gathered stamps, plus the selected ~10% of
      // sorted values read and written.
      static_cast<double>(n * (sizeof(std::size_t) +
                               sizeof(std::uint32_t)) +
                          0.1 * n * 2 * sizeof(double)),
      0.0);
  const bench::KernelRate sum_rate = bench::MeasureKernel(
      [&] { bench::KeepAlive(kernels.sum(column.data(), n)); },
      static_cast<double>(n * sizeof(double)), static_cast<double>(n));
  const bench::KernelRate ssd_rate = bench::MeasureKernel(
      [&] { bench::KeepAlive(kernels.sum_sq_dev(column.data(), n, 0.5)); },
      static_cast<double>(n * sizeof(double)),
      static_cast<double>(3 * n));
  json.BeginObject("kernels");
  bench::WriteKernelRate(json, "select_rank_window", select);
  bench::WriteKernelRate(json, "compact_selected", compact);
  bench::WriteKernelRate(json, "compact_selected_sorted", compact_sorted);
  bench::WriteKernelRate(json, "sum", sum_rate);
  bench::WriteKernelRate(json, "sum_sq_dev", ssd_rate);
  json.EndObject();
}

}  // namespace

int Run() {
  const std::vector<std::size_t> sizes = {500, 2000};
  const std::vector<std::size_t> subspace_dims = {2, 3, 5};
  const std::vector<std::size_t> iteration_counts = {50};
  const std::vector<double> alphas = {0.1, 0.3};
  const std::vector<std::string> tests = {"welch", "ks", "cvm"};
  // Repeated evaluations per timed run so small cells stay measurable;
  // each rep re-seeds its RNG, so both kernels see identical draws.
  const int kContrastsPerRun = 20;
  const int kRuns = 3;

  std::vector<Cell> cells;
  bool all_identical = true;
  std::printf(
      "contrast kernel wall clock (%d evaluations, median of %d), seconds\n",
      kContrastsPerRun, kRuns);
  std::printf("%6s %4s %4s %6s %6s %12s %12s %8s %s\n", "N", "|S|", "M",
              "alpha", "test", "oracle", "rank", "speedup", "identical");
  for (std::size_t n : sizes) {
    const Dataset ds = UniformData(
        n, *std::max_element(subspace_dims.begin(), subspace_dims.end()),
        2000 + n);
    for (std::size_t dims : subspace_dims) {
      const Subspace subspace = FirstDims(dims);
      for (std::size_t iterations : iteration_counts) {
        for (double alpha : alphas) {
          for (const std::string& test_name : tests) {
            const auto test = stats::MakeTwoSampleTest(test_name);
            ContrastParams oracle_params{iterations, alpha, false};
            ContrastParams rank_params{iterations, alpha, true};
            const ContrastEstimator oracle(ds, *test, oracle_params);
            const ContrastEstimator rank(ds, *test, rank_params);
            const std::uint64_t seed = 7 * n + dims + iterations;
            double oracle_sum = 0.0, rank_sum = 0.0;
            const double oracle_seconds = MedianSeconds(kRuns, [&] {
              oracle_sum = 0.0;
              ContrastScratch scratch;
              for (int rep = 0; rep < kContrastsPerRun; ++rep) {
                Rng rng(seed + rep);
                oracle_sum += oracle.Contrast(subspace, &rng, &scratch);
              }
            });
            const double rank_seconds = MedianSeconds(kRuns, [&] {
              rank_sum = 0.0;
              ContrastScratch scratch;
              for (int rep = 0; rep < kContrastsPerRun; ++rep) {
                Rng rng(seed + rep);
                rank_sum += rank.Contrast(subspace, &rng, &scratch);
              }
            });
            // Bitwise-identical per-draw deviations make the accumulated
            // sums bitwise-equal too.
            const bool identical = oracle_sum == rank_sum;
            all_identical = all_identical && identical;
            cells.push_back({n, dims, iterations, alpha, test_name,
                             oracle_seconds, rank_seconds, identical});
            std::printf("%6zu %4zu %4zu %6.2f %6s %12.6f %12.6f %7.2fx %s\n",
                        n, dims, iterations, alpha, test_name.c_str(),
                        oracle_seconds, rank_seconds,
                        oracle_seconds / rank_seconds,
                        identical ? "yes" : "NO (BUG)");
          }
        }
      }
    }
  }
  std::printf(
      "\nexpected shape: the rank kernel wins everywhere — most at low |S|\n"
      "and on the rank tests (the per-draw conditional sort disappears);\n"
      "`identical` must be yes in every cell.\n");

  std::vector<SelectionCell> selection_cells;
  const int kSelectionRuns = 7;
  std::printf(
      "\nslice selection per draw (alpha 0.1, median of %d), microseconds\n",
      kSelectionRuns);
  std::printf("%6s %4s %14s %12s %8s %s\n", "N", "|S|", "stamp+compact",
              "rank-window", "speedup", "identical");
  for (std::size_t n : {std::size_t{1000}, std::size_t{16000}}) {
    for (std::size_t dims : {2, 3, 4, 5}) {
      const SelectionCell c = MeasureSelection(n, dims, 0.1, kSelectionRuns);
      all_identical = all_identical && c.identical;
      selection_cells.push_back(c);
      std::printf("%6zu %4zu %14.3f %12.3f %7.2fx %s\n", c.n, c.dims,
                  c.stamp_seconds * 1e6, c.window_seconds * 1e6,
                  c.stamp_seconds / c.window_seconds,
                  c.identical ? "yes" : "NO (BUG)");
    }
  }

  bench::JsonWriter json;
  json.BeginObject()
      .Field("benchmark", "bench_contrast_kernels.rank_vs_oracle")
      .Field("contrasts_per_run",
             static_cast<std::uint64_t>(kContrastsPerRun));
  bench::WriteBuildInfo(json);
  bench::WriteSimdInfo(json);
  bench::WriteMachineInfo(json);
  WriteDeviationKernelThroughput(json);
  json.BeginArray("grid");
  for (const Cell& c : cells) {
    json.BeginObject()
        .Field("num_objects", static_cast<std::uint64_t>(c.n))
        .Field("subspace_dims", static_cast<std::uint64_t>(c.dims))
        .Field("num_iterations", static_cast<std::uint64_t>(c.iterations))
        .Field("alpha", c.alpha)
        .Field("test", c.test)
        .Field("oracle_seconds", c.oracle_seconds)
        .Field("rank_seconds", c.rank_seconds)
        .Field("speedup", c.oracle_seconds / c.rank_seconds)
        .Field("identical", c.identical)
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("selection");
  for (const SelectionCell& c : selection_cells) {
    json.BeginObject()
        .Field("num_objects", static_cast<std::uint64_t>(c.n))
        .Field("subspace_dims", static_cast<std::uint64_t>(c.dims))
        .Field("stamp_compact_seconds", c.stamp_seconds)
        .Field("rank_window_seconds", c.window_seconds)
        .Field("speedup", c.stamp_seconds / c.window_seconds)
        .Field("identical", c.identical)
        .EndObject();
  }
  json.EndArray();
  json.Field("all_identical", all_identical).EndObject();
  if (bench::WriteJsonFile("BENCH_contrast_kernels.json", json)) {
    std::printf("\n-> BENCH_contrast_kernels.json\n");
  }
  return all_identical ? 0 : 1;
}

}  // namespace hics

int main() { return hics::Run(); }
