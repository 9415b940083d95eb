// End-to-end benchmark driver for the HiCS library (perfbench/README.md).
//
//   perfbench_driver --workload <fit_lof|serve_lof|stream_grid> --seed <n>
//                    --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Runs one workload through the library's public entry points for
// `--seconds` seconds and prints, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run alternates
// untraced ops with traced ops, whose calls into each module are timed
// from outside, and the metrics are the per-layer ones. The line before
// the result is a {"record": ...} object naming the run's seed, thread and
// client counts, host, commit, and SIMD tier, plus the host-speed canary.
//
// Every run is a seed-determined op sequence: inputs, the deterministic
// prefix the quality and count metrics are taken from, and the correctness
// checkpoints depend on the seed only, never on timing. Checks run outside
// the timed regions; any mismatch fails the op and the exit code is 1.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/hics.h"
#include "data/synthetic.h"
#include "engine/prepared_dataset.h"
#include "engine/sharded_dataset.h"
#include "engine/streaming_dataset.h"
#include "engine/streaming_search.h"
#include "eval/roc.h"
#include "index/neighbor_searcher.h"
#include "outlier/grid_density.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"
#include "serve/hics_model.h"
#include "serve/model_io.h"
#include "simd/simd.h"

namespace perfbench {
namespace {

using hics::Dataset;
using hics::Subspace;

// Load hygiene: no workload runs more than two threads or clients, so a
// 4-core host keeps spare cores for the OS and the benchmark's own checks.
constexpr std::size_t kThreads = 2;
constexpr std::size_t kClients = 2;
// Set-up is repeated and its median reported (setup_s).
constexpr std::size_t kSetupReps = 5;
// Ops 1..kPrefixOps of every run form its deterministic prefix: the
// per-layer counts are read from it, and a run always executes at least
// this many ops, past --seconds if needed. stream_grid, whose answer
// changes with every slide, takes a longer prefix (kStreamPrefixOps) and
// averages its AUC over it.
constexpr std::size_t kPrefixOps = 24;

// ---------------------------------------------------------------- clocks

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}
double ProcessCpuMs() { return CpuMs(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuMs() { return CpuMs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host-speed canary: a fixed, library-free scalar loop (xorshift64), timed
/// in microseconds. It runs between ops and is only recorded, never used to
/// normalise or discard anything: slow-host phases show up in the record.
double CanaryUs() {
  const double start = NowMs();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  asm volatile("" : : "r"(x));
  return 1e3 * (NowMs() - start);
}

// ---------------------------------------------------------------- stats

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double Auc(const std::vector<double>& scores, const std::vector<bool>& labels) {
  auto auc = hics::ComputeAuc(scores, labels);
  return auc.ok() ? *auc : 0.0;
}

/// splitmix64 finaliser: derives independent per-purpose seeds from the run
/// seed, so every generated input is a function of (seed, purpose) only.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one workload run reports.
struct RunResult {
  bool checks_passed = true;  // set-up and checkpoint checks
  std::string failure;        // first failed check, for stderr
  std::size_t attempted = 0;  // timed ops attempted
  std::size_t failed = 0;     // timed ops that failed or mismatched
  std::size_t clients = 1;
  std::vector<Metric> metrics;
  std::vector<double> canary_us;
  double op_ms_p90 = 0.0;  // recorded, not gated (see README)

  void Fail(const std::string& why) {
    if (checks_passed) failure = why;
    checks_passed = false;
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Per-op bookkeeping shared by all workloads.
struct OpLog {
  std::vector<double> untraced_ms;  // wall time of untraced ops
  std::vector<double> traced_ms;    // wall time of traced ops
  std::vector<double> cpu_ms;       // CPU of each untraced op
  double traced_cpu_ms = 0.0;       // CPU of traced ops

  /// Rows (or queries) per second at the median untraced op time. A median
  /// rate, not total rows over total time, so that a stall of a few
  /// seconds in a 30-second run does not move it.
  double RowsPerSecond(std::size_t rows_per_op) const {
    return 1e3 * static_cast<double>(rows_per_op) / Median(untraced_ms);
  }
};

/// Adds the end-to-end metrics every workload shares.
void AddEndToEnd(RunResult* r, const std::vector<double>& setup_s,
                 const OpLog& log, double rows_per_s, double auc) {
  r->Add("setup_s", Median(setup_s), "s");
  r->Add("op_ms_p50", Median(log.untraced_ms), "ms");
  r->Add("rows_per_s", rows_per_s, "1/s");
  r->Add("cpu_ms_per_op", Median(log.cpu_ms), "ms");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
  r->Add("auc", auc, "ratio");
  r->Add("ok_rate",
         static_cast<double>(r->attempted - r->failed) /
             static_cast<double>(r->attempted),
         "ratio");
}

/// Wall-time spans of one traced op, by per-layer metric name.
using Spans = std::vector<std::pair<std::string, double>>;
/// Per-layer metric values a workload measured, by name.
using LayerValues = std::map<std::string, double>;

/// Accumulates traced samples and emits the per-layer metrics as medians
/// over traced ops.
class LayerTrace {
 public:
  /// One traced op: `spans` tile the op's timed calls into the library;
  /// whatever of `op_wall_ms` they leave uncovered is unattributed.
  void AddOp(const Spans& spans, double op_wall_ms) {
    double covered = 0.0;
    for (const auto& [name, ms] : spans) {
      Record(name, ms);
      covered += ms;
    }
    Record("trace.unattributed_ms", op_wall_ms - covered);
  }
  /// A per-op sample that is not a span of the op (a derived value or an
  /// out-of-op probe).
  void Record(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  double MedianOf(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : Median(it->second);
  }
  void Merge(const LayerTrace& other) {
    for (const auto& [name, v] : other.samples_) {
      auto& mine = samples_[name];
      mine.insert(mine.end(), v.begin(), v.end());
    }
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Name and unit of a per-layer metric.
using LayerMetric = std::pair<const char*, const char*>;

/// The per-layer metrics BENCHMARK.json declares, in its order: what the
/// traced fit_lof and stream_grid runs print.
constexpr LayerMetric kLayers[] = {
    {"engine.prepare_ms", "ms"},
    {"core.search_ms", "ms"},
    {"core.contrast_evals", "count"},
    {"core.us_per_contrast_eval", "us"},
    {"core.levels", "count"},
    {"index.knn_table_ms", "ms"},
    {"outlier.lof_ms", "ms"},
    {"outlier.grid_rank_ms", "ms"},
    {"serve.trained_state_ms", "ms"},
    {"serve.fit_ms", "ms"},
    {"engine.slide_ms", "ms"},
    {"engine.cache_hit_rate", "ratio"},
    {"engine.evicted_per_op", "count"},
    {"engine.invalidated_kb_per_op", "KiB"},
    {"engine.cache_mb", "MB"},
    {"core.failed_shard_evals", "count"},
    {"common.parallel_efficiency", "ratio"},
    {"trace.unattributed_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"host.canary_us_p50", "us"},
    {"host.canary_us_max", "us"},
};

/// What the traced serve_lof run prints in addition (it is not in
/// BENCHMARK.json; see README.md).
constexpr LayerMetric kServeLayers[] = {
    {"index.knn_point_us_per_query", "us"},
    {"serve.batch_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"serve.save_ms", "ms"},
    {"serve.load_ms", "ms"},
    {"serve.model_mb", "MB"},
};

/// Adds the metrics `layers` names. `values` holds the ones the workload
/// measured; a layer that is not on its path reads 0.
void AddPerLayer(RunResult* r, const LayerValues& values,
                 std::span<const LayerMetric> layers) {
  for (const auto& [name, unit] : layers) {
    const auto it = values.find(name);
    r->Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

/// Per-layer metrics every traced workload shares.
void AddTraceCommon(LayerValues* values, const LayerTrace& trace,
                    const OpLog& log, const std::vector<double>& canary_us,
                    double threads) {
  const double traced_wall =
      std::accumulate(log.traced_ms.begin(), log.traced_ms.end(), 0.0);
  const double untraced_p50 = Median(log.untraced_ms);
  (*values)["common.parallel_efficiency"] =
      log.traced_cpu_ms / (traced_wall * threads);
  (*values)["trace.unattributed_ms"] = trace.MedianOf("trace.unattributed_ms");
  (*values)["trace.overhead_pct"] =
      100.0 * (Median(log.traced_ms) - untraced_p50) / untraced_p50;
  (*values)["host.canary_us_p50"] = Median(canary_us);
  (*values)["host.canary_us_max"] = Max(canary_us);
}

/// Cache metrics over the ops between two snapshots.
void AddCacheMetrics(LayerValues* values,
                     const hics::ArtifactCacheStats& before,
                     const hics::ArtifactCacheStats& after, double ops) {
  const double hits = static_cast<double>(after.hits() - before.hits());
  const double misses = static_cast<double>(after.misses() - before.misses());
  (*values)["engine.cache_hit_rate"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  (*values)["engine.evicted_per_op"] =
      static_cast<double>(after.evicted_artifacts - before.evicted_artifacts) /
      ops;
  (*values)["engine.invalidated_kb_per_op"] =
      static_cast<double>(after.invalidated_bytes - before.invalidated_bytes) /
      1024.0 / ops;
  (*values)["engine.cache_mb"] =
      static_cast<double>(after.approx_bytes) / (1024.0 * 1024.0);
}

// Runs `op(index, traced)` in a closed loop until `seconds` have passed and
// at least `min_ops` ops ran. In trace mode odd ops are traced and even
// ops untraced, so both see the same host phases. The canary runs between
// ops, outside every timed region.
void ClosedLoop(double seconds, bool trace, std::size_t min_ops,
                std::vector<double>* canary_us,
                const std::function<void(std::size_t, bool)>& op) {
  const double deadline = NowMs() + 1e3 * seconds;
  for (std::size_t i = 1; i <= min_ops || NowMs() < deadline; ++i) {
    canary_us->push_back(CanaryUs());
    op(i, trace && i % 2 == 1);
  }
}

// ================================================================ fit_lof

// The library receives only the generated inputs: its parameters, including
// the Monte Carlo search seed (left at its default), are the same on every
// run. max_dimensionality = 5 matches the generator's largest planted
// subspace; the unbounded lattice made op cost swing with the input.
hics::HicsModelConfig FitConfig() {
  hics::HicsModelConfig config;
  config.search_params.num_threads = kThreads;
  config.search_params.max_dimensionality = 5;
  config.scorer = {hics::ScorerKind::kLof, 10};
  return config;
}

/// What a traced decomposition of HicsModel::Fit produces.
struct Decomposed {
  std::vector<double> scores;
  std::vector<hics::TrainedScorerState> states;
  hics::HicsRunStats stats;
  hics::ArtifactCacheStats cache;
  Spans spans;
};

/// HicsModel::Fit decomposed into its public layer calls (prepare, search,
/// kNN tables, LOF ranking, trained state), each timed from outside. Same
/// calls, parameters and thread counts as Fit, so the scores must equal
/// Fit's training_scores byte for byte.
Decomposed TracedFit(const Dataset& data, const hics::HicsModelConfig& config) {
  Decomposed out;
  const std::size_t n = data.num_objects();
  const std::size_t threads = config.search_params.num_threads;
  const hics::LofScorer lof(hics::LofParams{.min_pts = config.scorer.k});

  double t = NowMs();
  hics::PreparedDataset prepared(data, threads);
  prepared.sorted_index();
  out.spans.push_back({"engine.prepare_ms", NowMs() - t});

  t = NowMs();
  auto found = hics::RunHicsSearch(prepared, config.search_params, &out.stats);
  out.spans.push_back({"core.search_ms", NowMs() - t});
  std::vector<Subspace> subspaces;
  if (found.ok()) {
    for (const auto& s : *found) subspaces.push_back(s.subspace);
  }
  if (subspaces.empty()) subspaces.push_back(data.FullSpace());

  // Cold kNN tables, built as the ranking pass builds them: subspaces in
  // parallel, each table serially.
  const std::size_t k =
      hics::ClampNeighborhoodSize(config.scorer.k, n, "perfbench");
  t = NowMs();
  hics::ParallelFor(0, subspaces.size(), threads, [&](std::size_t s) {
    prepared.cache().GetKnnTable(
        subspaces[s], hics::ChooseKnnBackend(n, subspaces[s].size()), k, 1,
        /*use_batch_kernel=*/true);
  });
  out.spans.push_back({"index.knn_table_ms", NowMs() - t});

  t = NowMs();
  out.scores = hics::RankWithSubspaces(prepared, subspaces, lof,
                                       config.aggregation, threads);
  out.spans.push_back({"outlier.lof_ms", NowMs() - t});

  t = NowMs();
  for (const Subspace& s : subspaces) {
    const auto table = prepared.cache().GetKnnTable(
        s, hics::ChooseKnnBackend(n, s.size()), k, threads, true);
    out.states.push_back(lof.BuildTrainedState(*table));
  }
  out.spans.push_back({"serve.trained_state_ms", NowMs() - t});
  out.cache = prepared.cache().stats();
  return out;
}

bool MatchesModel(const Decomposed& d, const hics::HicsModel& model) {
  if (!SameBytes(d.scores, model.training_scores())) return false;
  if (d.states.size() != model.subspaces().size()) return false;
  for (std::size_t s = 0; s < d.states.size(); ++s) {
    if (!(d.states[s] == model.subspaces()[s].scorer_state)) return false;
  }
  return true;
}

/// True at the deterministic checkpoint ops 1, 2, 4, 8, ..., where an op's
/// answer is compared with an independent path outside the timed region.
bool IsCheckpoint(std::size_t op) { return (op & (op - 1)) == 0; }

bool AllFinite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

/// The input of fit op `op` (ops past kFitWarmupBase are the set-up
/// warm-ups): a fresh synthetic set per op, so nothing is reused between
/// ops and a run's median spans many draws of the generator instead of one.
constexpr std::size_t kFitWarmupBase = std::size_t{1} << 40;
constexpr std::size_t kFitRows = 1000;

hics::Result<hics::SyntheticDataset> FitData(std::uint64_t seed,
                                             std::size_t op) {
  hics::SyntheticParams params;
  params.num_objects = kFitRows;
  params.num_attributes = 20;
  params.cluster_stddev = 0.06;  // 0.03 pins AUC at ~1.0
  params.seed = Mix(seed, op);
  return hics::GenerateSynthetic(params);
}

RunResult RunFitLof(std::uint64_t seed, double seconds, bool trace) {
  RunResult r;
  const hics::HicsModelConfig config = FitConfig();

  // Set-up, repeated on distinct inputs: generate one and run the untimed
  // warm-up Fit on it.
  std::vector<double> setup_s;
  std::unique_ptr<hics::SyntheticDataset> warm_input;
  std::unique_ptr<hics::HicsModel> warm_model;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const double t = NowMs();
    auto generated = FitData(seed, kFitWarmupBase + rep);
    if (!generated.ok()) {
      r.Fail("GenerateSynthetic: " + generated.status().ToString());
      return r;
    }
    warm_input =
        std::make_unique<hics::SyntheticDataset>(std::move(*generated));
    auto model = hics::HicsModel::Fit(warm_input->data, config);
    setup_s.push_back(1e-3 * (NowMs() - t));
    if (!model.ok()) {
      r.Fail("warm-up Fit: " + model.status().ToString());
      return r;
    }
    warm_model = std::make_unique<hics::HicsModel>(std::move(*model));
  }
  if (!MatchesModel(TracedFit(warm_input->data, config), *warm_model)) {
    r.Fail("traced decomposition differs from HicsModel::Fit");
  }

  OpLog log;
  LayerTrace layers;
  std::vector<double> prefix_auc;
  hics::HicsRunStats prefix_stats;  // summed over traced prefix ops
  std::size_t prefix_traced = 0;
  hics::ArtifactCacheStats first_traced_cache;
  ClosedLoop(seconds, trace, kPrefixOps, &r.canary_us,
             [&](std::size_t i, bool traced) {
    auto input = FitData(seed, i);
    ++r.attempted;
    if (!input.ok()) {
      ++r.failed;
      return;
    }
    const Dataset& data = input->data;
    const double cpu0 = ProcessCpuMs();
    const double t0 = NowMs();
    std::vector<double> scores;
    bool ok = true;
    if (traced) {
      Decomposed d = TracedFit(data, config);
      const double wall = NowMs() - t0;
      log.traced_cpu_ms += ProcessCpuMs() - cpu0;
      log.traced_ms.push_back(wall);
      layers.AddOp(d.spans, wall);
      if (IsCheckpoint(i)) {
        auto model = hics::HicsModel::Fit(data, config);
        ok = model.ok() && MatchesModel(d, *model);
      }
      if (i <= kPrefixOps) {
        if (prefix_traced++ == 0) first_traced_cache = d.cache;
        prefix_stats.contrast_evaluations += d.stats.contrast_evaluations;
        prefix_stats.levels_processed += d.stats.levels_processed;
      }
      scores = std::move(d.scores);
    } else {
      auto model = hics::HicsModel::Fit(data, config);
      const double wall = NowMs() - t0;
      log.cpu_ms.push_back(ProcessCpuMs() - cpu0);
      log.untraced_ms.push_back(wall);
      ok = model.ok();
      if (ok) {
        scores = model->training_scores();
        if (IsCheckpoint(i)) ok = MatchesModel(TracedFit(data, config), *model);
      }
    }
    ok = ok && scores.size() == data.num_objects() && AllFinite(scores);
    if (!ok) ++r.failed;
    if (i <= kPrefixOps) {
      prefix_auc.push_back(ok ? Auc(scores, data.labels()) : 0.0);
    }
  });
  r.op_ms_p90 = Quantile(log.untraced_ms, 0.9);

  if (!trace) {
    AddEndToEnd(&r, setup_s, log, log.RowsPerSecond(kFitRows),
                std::accumulate(prefix_auc.begin(), prefix_auc.end(), 0.0) /
                    static_cast<double>(prefix_auc.size()));
    return r;
  }
  LayerValues values;
  for (const char* name : {"engine.prepare_ms", "core.search_ms",
                           "index.knn_table_ms", "outlier.lof_ms",
                           "serve.trained_state_ms"}) {
    values[name] = layers.MedianOf(name);
  }
  const double traced_ops =
      static_cast<double>(std::max<std::size_t>(prefix_traced, 1));
  const double evals = double(prefix_stats.contrast_evaluations) / traced_ops;
  values["core.contrast_evals"] = evals;
  values["core.levels"] = double(prefix_stats.levels_processed) / traced_ops;
  values["core.us_per_contrast_eval"] =
      1e3 * layers.MedianOf("core.search_ms") / std::max(evals, 1.0);
  values["serve.fit_ms"] = Median(log.untraced_ms);
  AddCacheMetrics(&values, hics::ArtifactCacheStats{}, first_traced_cache, 1.0);
  AddTraceCommon(&values, layers, log, r.canary_us, kThreads);
  AddPerLayer(&r, values, kLayers);
  return r;
}

// ============================================================== serve_lof

constexpr std::size_t kTrainRows = 1000;
constexpr std::size_t kPoolRows = 4096;  // held-out rows the queries come from
constexpr std::size_t kBatch = 16;
constexpr std::size_t kBatches = 128;  // 2048 query rows per run
// Serving keeps the 20 best subspaces. With the default 100, one query's
// searchers (~4.4 MB) overflow a 2 MB L2, and op times swung 1.7x with the
// host's shared-cache phases: a bimodal p50 no bound could hold.
constexpr std::size_t kServeSubspaces = 20;

/// The served model's training rows, and the run's query rows (row-major)
/// with their labels.
struct ServeInput {
  Dataset train;
  std::vector<double> queries;
  std::vector<bool> query_labels;
};

/// One generated set at the generator's default seed, the same for every
/// run: the first kTrainRows rows train the one served model, and the run
/// seed picks and orders the query rows from the held-out pool. The 50
/// outliers per subspace give the training rows the outlier share of 15
/// per subspace in 1000 + 512 rows.
hics::Result<ServeInput> ServeData(std::uint64_t seed) {
  hics::SyntheticParams params;
  params.num_objects = kTrainRows + kPoolRows;
  params.num_attributes = 20;
  params.cluster_stddev = 0.06;
  params.outliers_per_subspace = 50;
  HICS_ASSIGN_OR_RETURN(hics::SyntheticDataset generated,
                        hics::GenerateSynthetic(params));
  const Dataset& all = generated.data;
  const std::size_t d = all.num_attributes();
  const auto row = [&](std::size_t r) {
    std::vector<double> values(d);
    for (std::size_t a = 0; a < d; ++a) values[a] = all.Get(r, a);
    return values;
  };
  std::vector<std::vector<double>> train_rows;
  for (std::size_t r = 0; r < kTrainRows; ++r) train_rows.push_back(row(r));
  ServeInput in;
  HICS_ASSIGN_OR_RETURN(in.train, Dataset::FromRows(train_rows));
  std::vector<std::size_t> pool(kPoolRows);
  std::iota(pool.begin(), pool.end(), kTrainRows);
  hics::Rng rng(Mix(seed, 1));
  rng.Shuffle(&pool);
  for (std::size_t q = 0; q < kBatch * kBatches; ++q) {
    const std::vector<double> values = row(pool[q]);
    in.queries.insert(in.queries.end(), values.begin(), values.end());
    in.query_labels.push_back(all.labels()[pool[q]]);
  }
  return in;
}

RunResult RunServeLof(std::uint64_t seed, double seconds, bool trace,
                      const std::string& workdir) {
  RunResult r;
  r.clients = kClients;
  hics::HicsModelConfig config = FitConfig();
  config.search_params.output_top_k = kServeSubspaces;
  const std::string path =
      workdir + "/serve_lof." + std::to_string(getpid()) + ".model";
  constexpr std::size_t kQueries = kBatch * kBatches;

  // Set-up: generate, fit, save, load, and the untimed warm-up (one pass
  // over every batch, which also builds the model's searcher cache).
  std::vector<double> setup_s, fit_ms, save_ms, load_ms;
  std::unique_ptr<ServeInput> input;
  std::unique_ptr<hics::HicsModel> fresh, model;
  std::vector<double> expected;  // the loaded model's warm-up scores
  double model_mb = 0.0;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const double t = NowMs();
    auto generated = ServeData(seed);
    if (!generated.ok()) {
      r.Fail("ServeData: " + generated.status().ToString());
      return r;
    }
    input = std::make_unique<ServeInput>(std::move(*generated));
    double t1 = NowMs();
    auto fitted = hics::HicsModel::Fit(input->train, config);
    fit_ms.push_back(NowMs() - t1);
    if (!fitted.ok()) {
      r.Fail("Fit: " + fitted.status().ToString());
      return r;
    }
    fresh = std::make_unique<hics::HicsModel>(std::move(*fitted));
    t1 = NowMs();
    const hics::Status saved = hics::SaveHicsModel(*fresh, path);
    save_ms.push_back(NowMs() - t1);
    if (!saved.ok()) {
      r.Fail("SaveHicsModel: " + saved.ToString());
      return r;
    }
    t1 = NowMs();
    auto loaded = hics::LoadHicsModel(path);
    load_ms.push_back(NowMs() - t1);
    if (!loaded.ok()) {
      r.Fail("LoadHicsModel: " + loaded.status().ToString());
      return r;
    }
    model = std::make_unique<hics::HicsModel>(std::move(*loaded));
    auto warm = model->ScoreQueries(input->queries, kQueries);
    setup_s.push_back(1e-3 * (NowMs() - t));
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    model_mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
    std::filesystem::remove(path, ec);
    if (!warm.ok()) {
      r.Fail("warm-up ScoreQueries: " + warm.status().ToString());
      return r;
    }
    expected = std::move(*warm);
  }
  // The loaded model must score the query set exactly as the fitted one.
  auto reference = fresh->ScoreQueries(input->queries, kQueries);
  if (!reference.ok() || !SameBytes(*reference, expected)) {
    r.Fail("loaded model scores the queries unlike the fitted one");
  }
  const std::size_t d = model->num_attributes();
  const std::size_t n = model->num_training_objects();
  const std::size_t k =
      hics::ClampNeighborhoodSize(config.scorer.k, n, "perfbench");
  // Index probe of traced batches: searchers over the model's subspaces,
  // built by the benchmark through MakeSearcher.
  std::vector<std::unique_ptr<hics::NeighborSearcher>> searchers;
  if (trace) {
    for (const auto& ts : model->subspaces()) {
      searchers.push_back(
          hics::MakeSearcher(model->training_data(), ts.subspace,
                             hics::ChooseKnnBackend(n, ts.subspace.size())));
    }
  }

  struct Client {
    OpLog log;
    LayerTrace layers;
    std::vector<double> canary_us;
    std::size_t attempted = 0, failed = 0;
  };
  std::vector<Client> clients(kClients);
  std::barrier start(static_cast<std::ptrdiff_t>(kClients));
  // Closed loop per client; both share the model and its searcher mutex.
  // Client c sends batches c, c + 2, c + 4, ..., so the op sequence is a
  // function of the seed alone.
  const auto client_main = [&](std::size_t c) {
    Client& me = clients[c];
    std::vector<double> projected;
    std::vector<hics::Neighbor> neighbors;
    start.arrive_and_wait();
    const double deadline = NowMs() + 1e3 * seconds;
    for (std::size_t i = 1; i <= kPrefixOps || NowMs() < deadline; ++i) {
      if (c == 0) me.canary_us.push_back(CanaryUs());
      const std::size_t b = (c + kClients * (i - 1)) % kBatches;
      const std::span<const double> batch(
          input->queries.data() + b * kBatch * d, kBatch * d);
      const bool traced = trace && i % 2 == 1;
      ++me.attempted;
      const double cpu0 = ThreadCpuMs();
      const double t0 = NowMs();
      const double span0 = traced ? NowMs() : 0.0;
      auto scores = model->ScoreQueries(batch, kBatch);
      const double batch_ms = traced ? NowMs() - span0 : 0.0;
      const double wall = NowMs() - t0;
      const double cpu = ThreadCpuMs() - cpu0;
      if (!scores.ok() || scores->size() != kBatch ||
          std::memcmp(scores->data(), expected.data() + b * kBatch,
                      kBatch * sizeof(double)) != 0) {
        ++me.failed;
      }
      if (!traced) {
        me.log.untraced_ms.push_back(wall);
        me.log.cpu_ms.push_back(cpu);
        continue;
      }
      me.log.traced_ms.push_back(wall);
      me.log.traced_cpu_ms += cpu;
      me.layers.AddOp({{"serve.batch_ms", batch_ms}}, wall);
      // Index probe, outside the op: the same queries' kNN lookups on the
      // benchmark's own searchers. The batch minus this is the serve
      // layer's self time.
      const double p0 = NowMs();
      for (std::size_t q = 0; q < kBatch; ++q) {
        for (std::size_t s = 0; s < searchers.size(); ++s) {
          projected.clear();
          for (std::size_t dim : model->subspaces()[s].subspace) {
            projected.push_back(batch[q * d + dim]);
          }
          searchers[s]->QueryKnnPoint(projected, k, &neighbors);
        }
      }
      const double index_ms = NowMs() - p0;
      me.layers.Record("index.knn_point_us_per_query", 1e3 * index_ms / kBatch);
      me.layers.Record("serve.self_ms", batch_ms - index_ms);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(client_main, c);
  }
  for (auto& t : threads) t.join();

  OpLog log;
  LayerTrace layers;
  double rows_per_s = 0.0;  // the clients' summed rates
  for (const Client& c : clients) {
    r.attempted += c.attempted;
    r.failed += c.failed;
    log.untraced_ms.insert(log.untraced_ms.end(), c.log.untraced_ms.begin(),
                           c.log.untraced_ms.end());
    log.traced_ms.insert(log.traced_ms.end(), c.log.traced_ms.begin(),
                         c.log.traced_ms.end());
    log.cpu_ms.insert(log.cpu_ms.end(), c.log.cpu_ms.begin(),
                      c.log.cpu_ms.end());
    log.traced_cpu_ms += c.log.traced_cpu_ms;
    rows_per_s += c.log.RowsPerSecond(kBatch);
    layers.Merge(c.layers);
    r.canary_us.insert(r.canary_us.end(), c.canary_us.begin(),
                       c.canary_us.end());
  }
  r.op_ms_p90 = Quantile(log.untraced_ms, 0.9);

  if (!trace) {
    AddEndToEnd(&r, setup_s, log, rows_per_s,
                Auc(expected, input->query_labels));
    return r;
  }
  LayerValues values;
  for (const char* name : {"serve.batch_ms", "serve.self_ms",
                           "index.knn_point_us_per_query"}) {
    values[name] = layers.MedianOf(name);
  }
  values["serve.fit_ms"] = Median(fit_ms);
  values["serve.save_ms"] = Median(save_ms);
  values["serve.load_ms"] = Median(load_ms);
  values["serve.model_mb"] = model_mb;
  // Each serve op runs on its client's thread alone.
  AddTraceCommon(&values, layers, log, r.canary_us, 1.0);
  AddPerLayer(&r, values, kLayers);
  AddPerLayer(&r, values, kServeLayers);
  return r;
}

// ============================================================ stream_grid

constexpr std::size_t kWindow = 16000;
constexpr std::size_t kSlide = 2000;
constexpr std::size_t kStreamDims = 6;
constexpr std::size_t kShards = 4;
// 64 slides turn the 8-slide window over eight times, so the averaged AUC
// spans eight independent windows of data.
constexpr std::size_t kStreamPrefixOps = 64;
// Share of streamed rows that are planted contradictions.
constexpr double kContradictionRate = 0.005;

/// Rows of one stream segment and their labels.
struct Segment {
  std::vector<std::vector<double>> rows;
  std::vector<bool> labels;
};

/// Segment `segment` (0 = the initial fill): two clustered attribute pairs
/// the search can find and uniform noise elsewhere; a planted contradiction
/// puts its first pair in opposite clusters, a joint position no inlier
/// occupies. Generated from (seed, segment) alone, so every op's input is
/// independent of timing.
Segment StreamSegment(std::uint64_t seed, std::size_t segment, std::size_t n) {
  hics::Rng rng(Mix(seed, 100 + segment));
  Segment out;
  out.rows.resize(n);
  out.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double>& row = out.rows[i];
    row.resize(kStreamDims);
    const bool contradiction = rng.Bernoulli(kContradictionRate);
    const double c0 = rng.Bernoulli(0.5) ? 0.25 : 0.75;
    const double c1 = rng.Bernoulli(0.5) ? 0.3 : 0.7;
    row[0] = c0 + rng.Gaussian(0.0, 0.04);
    row[1] = (contradiction ? 1.0 - c0 : c0) + rng.Gaussian(0.0, 0.04);
    row[2] = c1 + rng.Gaussian(0.0, 0.05);
    row[3] = c1 + rng.Gaussian(0.0, 0.05);
    for (std::size_t a = 4; a < kStreamDims; ++a) row[a] = rng.UniformDouble();
    out.labels[i] = contradiction;
  }
  return out;
}

hics::HicsParams StreamSearchParams() {
  hics::HicsParams params;
  params.num_iterations = 30;
  params.output_top_k = 8;
  params.max_dimensionality = 3;
  params.num_threads = kThreads;
  return params;
}

/// The window plus its labels, in admission order.
struct Stream {
  std::unique_ptr<hics::StreamingDataset> plane;
  std::vector<bool> labels;
};

/// The counters of the window cache and every shard cache, summed.
hics::ArtifactCacheStats StreamCacheStats(const hics::StreamingDataset& plane) {
  hics::ArtifactCacheStats sum;
  for (std::size_t s = 0; s <= plane.num_shards(); ++s) {
    const hics::ArtifactCacheStats p = s == 0 ? plane.window_cache_stats()
                                              : plane.shard_cache_stats(s - 1);
    sum.searcher_hits += p.searcher_hits;
    sum.searcher_misses += p.searcher_misses;
    sum.knn_table_hits += p.knn_table_hits;
    sum.knn_table_misses += p.knn_table_misses;
    sum.score_hits += p.score_hits;
    sum.score_misses += p.score_misses;
    sum.grid_hits += p.grid_hits;
    sum.grid_misses += p.grid_misses;
    sum.approx_bytes += p.approx_bytes;
    sum.evicted_artifacts += p.evicted_artifacts;
    sum.invalidated_bytes += p.invalidated_bytes;
  }
  return sum;
}

RunResult RunStreamGrid(std::uint64_t seed, double seconds, bool trace) {
  RunResult r;
  const hics::HicsParams search = StreamSearchParams();
  const hics::GridDensityScorer grid(
      {.bins_per_dim = 32, .smooth = true, .num_threads = kThreads});
  hics::StreamingOptions options;
  options.capacity = kWindow;
  options.num_shards = kShards;
  options.build_threads = kThreads;

  struct Answer {
    bool ok = false;
    std::vector<hics::ScoredSubspace> found;
    std::vector<double> scores;
    hics::HicsRunStats stats;
    Spans spans;
  };
  // One op: slide, then search and re-rank the new window (slide-to-answer).
  const auto slide_and_answer = [&](Stream* stream, const Segment& segment,
                                    bool traced) {
    Answer a;
    double t = traced ? NowMs() : 0.0;
    const auto slid = stream->plane->Slide(kSlide, segment.rows);
    if (traced) a.spans.push_back({"engine.slide_ms", NowMs() - t});
    if (!slid.ok()) return a;
    t = traced ? NowMs() : 0.0;
    auto found = hics::RunHicsSearch(*stream->plane, search, &a.stats);
    if (traced) a.spans.push_back({"core.search_ms", NowMs() - t});
    if (!found.ok()) return a;
    t = traced ? NowMs() : 0.0;
    auto ranked = hics::RankWithSubspaces(
        *stream->plane, *found, grid, hics::ScoreAggregation::kAverage,
        hics::ShardedScoringPolicy::kRequireExactMerge, kThreads);
    if (traced) a.spans.push_back({"outlier.grid_rank_ms", NowMs() - t});
    if (!ranked.ok()) return a;
    a.ok = true;
    a.found = std::move(*found);
    a.scores = std::move(*ranked);
    return a;
  };
  const auto admit_labels = [](Stream* stream, const Segment& segment) {
    stream->labels.erase(stream->labels.begin(),
                         stream->labels.begin() + kSlide);
    stream->labels.insert(stream->labels.end(), segment.labels.begin(),
                          segment.labels.end());
  };

  // Set-up: fill the window and run the untimed warm-up op (segment 1).
  std::vector<double> setup_s;
  Stream stream;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    stream = Stream{};
    const double t = NowMs();
    Segment fill = StreamSegment(seed, 0, kWindow);
    stream.plane =
        std::make_unique<hics::StreamingDataset>(kStreamDims, options);
    const auto admitted = stream.plane->Admit(fill.rows);
    stream.labels = std::move(fill.labels);
    const Segment warm = StreamSegment(seed, 1, kSlide);
    const Answer answer = slide_and_answer(&stream, warm, false);
    admit_labels(&stream, warm);
    setup_s.push_back(1e-3 * (NowMs() - t));
    if (!admitted.ok() || !answer.ok) {
      r.Fail("stream set-up failed");
      return r;
    }
  }

  // Checkpoint: the streaming answer must equal a cold ShardedDataset
  // rebuild of the same window, byte for byte.
  const auto matches_cold_rebuild = [&](const Answer& a) {
    const Dataset window = stream.plane->window();
    const hics::ShardedDataset cold(window, kShards, kThreads);
    const auto found = hics::RunHicsSearch(cold, search);
    if (!found.ok() || found->size() != a.found.size()) return false;
    for (std::size_t i = 0; i < found->size(); ++i) {
      if ((*found)[i].subspace != a.found[i].subspace ||
          (*found)[i].score != a.found[i].score) {
        return false;
      }
    }
    const auto ranked = hics::RankWithSubspacesSharded(
        cold, *found, grid, hics::ScoreAggregation::kAverage,
        hics::ShardedScoringPolicy::kRequireExactMerge, kThreads);
    return ranked.ok() && SameBytes(*ranked, a.scores);
  };

  OpLog log;
  LayerTrace layers;
  std::vector<double> prefix_auc;
  hics::HicsRunStats prefix_stats;
  hics::ArtifactCacheStats cache_before = StreamCacheStats(*stream.plane);
  hics::ArtifactCacheStats cache_after;
  ClosedLoop(seconds, trace, kStreamPrefixOps, &r.canary_us,
             [&](std::size_t i, bool traced) {
    // Op i slides in segment i + 1 (segment 1 was the warm-up).
    const Segment segment = StreamSegment(seed, i + 1, kSlide);
    ++r.attempted;
    const double cpu0 = ProcessCpuMs();
    const double t0 = NowMs();
    Answer a = slide_and_answer(&stream, segment, traced);
    const double wall = NowMs() - t0;
    const double cpu = ProcessCpuMs() - cpu0;
    admit_labels(&stream, segment);
    bool ok = a.ok && a.scores.size() == kWindow;
    if (traced) {
      log.traced_ms.push_back(wall);
      log.traced_cpu_ms += cpu;
      layers.AddOp(a.spans, wall);
    } else {
      log.untraced_ms.push_back(wall);
      log.cpu_ms.push_back(cpu);
    }
    if (i <= kStreamPrefixOps) {
      prefix_auc.push_back(ok ? Auc(a.scores, stream.labels) : 0.0);
      prefix_stats.contrast_evaluations += a.stats.contrast_evaluations;
      prefix_stats.levels_processed += a.stats.levels_processed;
      prefix_stats.failed_shard_evaluations += a.stats.failed_shard_evaluations;
      if (i == kStreamPrefixOps) cache_after = StreamCacheStats(*stream.plane);
    }
    if (ok && IsCheckpoint(i) && !matches_cold_rebuild(a)) ok = false;
    if (!ok) ++r.failed;
  });
  r.op_ms_p90 = Quantile(log.untraced_ms, 0.9);

  const double prefix_ops = static_cast<double>(kStreamPrefixOps);
  if (!trace) {
    AddEndToEnd(&r, setup_s, log, log.RowsPerSecond(kSlide),
                std::accumulate(prefix_auc.begin(), prefix_auc.end(), 0.0) /
                    prefix_ops);
    return r;
  }
  LayerValues values;
  for (const char* name : {"engine.slide_ms", "core.search_ms",
                           "outlier.grid_rank_ms"}) {
    values[name] = layers.MedianOf(name);
  }
  const double evals = double(prefix_stats.contrast_evaluations) / prefix_ops;
  values["core.contrast_evals"] = evals;
  values["core.levels"] = double(prefix_stats.levels_processed) / prefix_ops;
  values["core.us_per_contrast_eval"] =
      1e3 * layers.MedianOf("core.search_ms") / std::max(evals, 1.0);
  values["core.failed_shard_evals"] =
      double(prefix_stats.failed_shard_evaluations) / prefix_ops;
  AddCacheMetrics(&values, cache_before, cache_after, prefix_ops);
  AddTraceCommon(&values, layers, log, r.canary_us, kThreads);
  AddPerLayer(&r, values, kLayers);
  return r;
}

// ================================================================== main

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver "
               "--workload fit_lof|serve_lof|stream_grid --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, workdir = ".";
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") trace = std::atoi(value);
    else if (flag == "--workdir") workdir = value;
    else return Usage();
  }
  if (argc % 2 != 1 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  RunResult r;
  if (workload == "fit_lof") {
    r = RunFitLof(seed, seconds, trace == 1);
  } else if (workload == "serve_lof") {
    r = RunServeLof(seed, seconds, trace == 1, workdir);
  } else if (workload == "stream_grid") {
    r = RunStreamGrid(seed, seconds, trace == 1);
  } else {
    return Usage();
  }
  if (!r.checks_passed) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", r.failure.c_str());
  }
  const bool correct = r.checks_passed && r.failed == 0 && r.attempted > 0;

  std::printf("{\"record\": {\"workload\": ");
  PrintJsonString(workload);
  std::printf(", \"seed\": %llu, \"trace\": %d, \"threads\": %zu, "
              "\"clients\": %zu, \"nproc\": %ld, \"git_commit\": ",
              static_cast<unsigned long long>(seed), trace, kThreads,
              r.clients, sysconf(_SC_NPROCESSORS_ONLN));
  PrintJsonString(PERFBENCH_GIT_COMMIT);
  std::printf(", \"simd_tier\": ");
  PrintJsonString(hics::simd::SimdTierName(hics::simd::ActiveTier()));
  std::printf(", \"ops\": %zu, \"op_ms_p90\": %.17g, \"canary_us_p50\": %.17g, "
              "\"canary_us_max\": %.17g}}\n",
              r.attempted, r.op_ms_p90, Median(r.canary_us), Max(r.canary_us));

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t m = 0; m < r.metrics.size(); ++m) {
    std::printf("%s", m == 0 ? "" : ", ");
    PrintJsonString(r.metrics[m].name);
    std::printf(": {\"value\": %.17g, \"unit\": ", r.metrics[m].value);
    PrintJsonString(r.metrics[m].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
