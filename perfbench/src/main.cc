// Copyright (c) 2026 The plastream Authors. MIT license.
//
// plastream's end-to-end benchmark binary. perfbench/run.py builds it,
// prepares the prior archives and calls it; see perfbench/README.md.
//
//   perfbench_e2e prepare --workload W --seed N --archive PATH [--smoke]
//   perfbench_e2e run --workload W --seed N --seconds S --trace 0|1
//                 --archive PATH --work DIR [--smoke]
//
// `run` restarts the system over a copy of the prior archive (set-up is
// timed several times), drives the workload's closed loop for S seconds,
// checks every output, and prints one JSON result line last: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// It exits 1 when the correctness gate fails.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/simd.h"
#include "core/filter_registry.h"
#include "core/reconstruction.h"
#include "datagen/signal.h"
#include "eval/metrics.h"
#include "replay.h"
#include "system.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using plastream::SegmentStore;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string archive;
  std::string work = ".";
  bool smoke = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e prepare|run "
               "--workload W --seed N [--seconds S] [--trace 0|1] "
               "--archive PATH [--work DIR] [--smoke]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Usage("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("flag without value");
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else if (flag == "--archive") a.archive = v;
    else if (flag == "--work") a.work = v;
    else Usage("unknown flag");
  }
  if (a.archive.empty()) Usage("--archive is required");
  if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
  return a;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

// --- panels ------------------------------------------------------------------

// One key's answers in a sampled panel, kept for the brute-force check.
struct PanelAnswer {
  size_t key = 0;
  size_t segments = 0;  // store size when the panel ran
  double begin = 0.0;
  double end = 0.0;
  std::vector<SegmentStore::RangeAggregate> aggregates;
  std::vector<double> values;
};

// Runs one panel refresh against the system's stores. Counts operations;
// when `answers` is non-null, keeps every answer for the correctness gate.
void RunPanel(const WorkloadConfig& config, const PanelPlan& plan,
              const System& sys, uint64_t* attempted, uint64_t* failed,
              std::vector<PanelAnswer>* answers, double* sink) {
  for (const size_t key : plan.keys) {
    const SegmentStore& s = sys.Store(key);
    PanelAnswer answer;
    answer.key = key;
    answer.segments = s.segment_count();
    answer.end = PanelEnd(config, plan, s.t_max());
    answer.begin = answer.end - plan.window;
    for (size_t dim = 0; dim < config.dims; ++dim) {
      ++*attempted;
      const auto agg = s.Aggregate(answer.begin, answer.end, dim);
      if (!agg.ok()) {
        ++*failed;
        continue;
      }
      *sink += agg->mean;
      if (answers != nullptr) answer.aggregates.push_back(*agg);
    }
    for (size_t dim = 0; dim < config.dims; ++dim) {
      ++*attempted;
      const auto value = s.ValueAt(answer.end, dim);
      if (!value.ok()) {
        ++*failed;
        continue;
      }
      *sink += *value;
      if (answers != nullptr) answer.values.push_back(*value);
    }
    if (answers != nullptr) answers->push_back(std::move(answer));
  }
}

// Brute force over the first `answer.segments` segments: the same
// arithmetic as SegmentStore without its index, so answers match exactly.
bool CheckPanelAnswer(const WorkloadConfig& config, const SegmentStore& store,
                      const PanelAnswer& answer) {
  const auto segments = store.segments().first(answer.segments);
  if (answer.aggregates.size() != config.dims ||
      answer.values.size() != config.dims) {
    return false;
  }
  for (size_t dim = 0; dim < config.dims; ++dim) {
    SegmentStore::RangeAggregate agg;
    bool any = false;
    for (const plastream::Segment& seg : segments) {
      const double a = std::max(seg.t_start, answer.begin);
      const double b = std::min(seg.t_end, answer.end);
      if (a > b) continue;
      const double va = seg.ValueAt(a, dim);
      const double vb = seg.ValueAt(b, dim);
      agg.min = any ? std::min({agg.min, va, vb}) : std::min(va, vb);
      agg.max = any ? std::max({agg.max, va, vb}) : std::max(va, vb);
      any = true;
      agg.integral += 0.5 * (va + vb) * (b - a);
      agg.covered_duration += b - a;
      ++agg.segments_touched;
    }
    const SegmentStore::RangeAggregate& got = answer.aggregates[dim];
    if (!any || got.min != agg.min || got.max != agg.max ||
        got.integral != agg.integral ||
        got.segments_touched != agg.segments_touched) {
      return false;
    }
    // ValueAt: the first segment ending at or after t covers it.
    const plastream::Segment* cover = nullptr;
    for (const plastream::Segment& seg : segments) {
      if (seg.t_end >= answer.end) {
        cover = &seg;
        break;
      }
    }
    if (cover == nullptr || cover->t_start > answer.end ||
        cover->ValueAt(answer.end, dim) != answer.values[dim]) {
      return false;
    }
  }
  return true;
}

// --- the closed loop -----------------------------------------------------------

// One round of the measured loop.
struct Round {
  std::vector<double> commit_ns;
  std::vector<double> panel_ns;
  uint64_t points = 0;
  int64_t commit_cpu_ns = 0;
};

// Lags in 1/8-sample bins: a fixed array, so recording one lag per key
// per commit adds nothing to the run's memory as it goes.
class LagHistogram {
 public:
  void Add(double samples) {
    const double bin = std::floor(std::max(samples, 0.0) * kPerSample);
    ++bins_[static_cast<size_t>(std::min(bin, double{kBins - 1}))];
    ++count_;
  }
  double Quantile(double q) const {
    const auto rank = static_cast<uint64_t>(std::ceil(q * count_));
    uint64_t seen = 0;
    for (size_t b = 0; b < kBins; ++b) {
      seen += bins_[b];
      if (seen >= rank && seen > 0) return static_cast<double>(b) / kPerSample;
    }
    return 0.0;
  }

 private:
  static constexpr size_t kPerSample = 8;
  static constexpr size_t kBins = 8192 * kPerSample;
  std::vector<uint64_t> bins_ = std::vector<uint64_t>(kBins);
  uint64_t count_ = 0;
};

// Everything one run measures (after warm-up).
struct Measured {
  std::vector<double> setup_s;
  std::vector<Round> rounds;
  std::vector<double> commit_ns;  // every round's, pooled
  std::vector<double> panel_ns;
  LagHistogram lag;
  uint64_t points = 0;
  uint64_t wire_bytes = 0;
  uint64_t storage_bytes = 0;
  int64_t wall_ns = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t total_commits = 0;  // including warm-up: what the feeds produced
  std::vector<PanelAnswer> sampled;  // answers kept for the gate
};

// The measured closed loop. Its time is split into kRounds equal rounds;
// rate and p99 metrics are medians over rounds, so one burst of outside
// load moves one round, not the result.
class Loop {
 public:
  static constexpr size_t kRounds = 5;
  // Write/read-back blocks per round on the ingest workloads.
  static constexpr size_t kBlocks = 5;

  Loop(const WorkloadConfig& config, uint64_t seed, System& sys,
       Replay* replay, Tracer* tracer)
      : config_(config),
        sys_(sys),
        replay_(replay),
        tracer_(tracer),
        feeds_(LiveFeeds(config, seed)),
        panels_(config, seed),
        sample_rng_(MixSeed(seed, 99)) {}

  /// Segments the traced panels' Aggregate calls touched.
  uint64_t touched() const { return touched_; }
  /// Aggregate calls of the traced panels (ValueAt calls are as many).
  uint64_t store_calls() const { return store_calls_; }
  /// Sum of every answer, printed so no query can be optimized away.
  double sink() const { return sink_; }

  // Runs warm-up, then the measured phases for `seconds`.
  void Run(double seconds, Measured& m) {
    for (size_t i = 0; i < config_.warmup_commits; ++i) Commit(nullptr);
    if (config_.mixed) {
      for (size_t i = 0; i < config_.warmup_panels; ++i) Panel(nullptr);
    }
    StartMeasuring(m);
    const int64_t start = NowNs();
    const double round_ns = seconds * 1e9 / kRounds;
    const double commit_ns =
        round_ns / static_cast<double>(config_.commits_per_round);
    for (size_t r = 0; r < kRounds; ++r) {
      m.rounds.emplace_back();
      const double round_start = round_ns * static_cast<double>(r);
      if (config_.mixed) {
        // Panels fill the time between evenly spaced tail commits.
        for (size_t i = 0; i < config_.commits_per_round; ++i) {
          const int64_t due =
              start + static_cast<int64_t>(round_start +
                                           commit_ns * static_cast<double>(i + 1));
          do {
            Panel(&m);
          } while (NowNs() < due);
          Commit(&m);
        }
        continue;
      }
      // Ingest workloads alternate write and read-back blocks, so both
      // sample the whole round rather than one stretch of it.
      const double block_ns = round_ns / kBlocks;
      for (size_t b = 0; b < kBlocks; ++b) {
        for (size_t i = 0; i < config_.commits_per_round / kBlocks; ++i) {
          Commit(&m);
        }
        for (size_t i = 0; i < config_.warmup_panels; ++i) Panel(nullptr);
        const int64_t due = start + static_cast<int64_t>(
                                        round_start + block_ns * (b + 1.0));
        // A slow system still gets enough panels for a p99.
        for (size_t i = 0; NowNs() < due || i < config_.min_panels / kBlocks;
             ++i) {
          Panel(&m);
        }
      }
    }
    m.wall_ns = NowNs() - start;
    m.wire_bytes = sys_.WireBytes() - wire_base_;
    m.storage_bytes = sys_.StorageBytes() - storage_base_;
    m.total_commits = commit_id_;
  }

 private:
  void StartMeasuring(Measured& m) {
    wire_base_ = sys_.WireBytes();
    storage_base_ = sys_.StorageBytes();
    m.attempted = 0;
    m.failed = 0;
    if (replay_ != nullptr) {
      replay_->ResetCounts();
      tracer_->ResetTotals();
      touched_ = 0;
      store_calls_ = 0;
    }
  }

  void Commit(Measured* m) {
    NextCommit(config_, feeds_, input_);
    uint64_t attempted = 0;
    uint64_t failed = 0;
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    sys_.Commit(input_, &attempted, &failed);
    const int64_t t1 = NowNs();
    const int64_t cpu1 = ProcessCpuNs();
    if (replay_ != nullptr) replay_->Commit(input_, commit_id_);
    ++commit_id_;
    if (m == nullptr) return;
    m->commit_ns.push_back(static_cast<double>(t1 - t0));
    m->points += input_.points;
    Round& round = m->rounds.back();
    round.commit_ns.push_back(static_cast<double>(t1 - t0));
    round.commit_cpu_ns += cpu1 - cpu0;
    round.points += input_.points;
    m->attempted += attempted;
    m->failed += failed;
    // The paper's lag: how far the archive trails the newest sample.
    for (size_t k = 0; k < feeds_.size(); ++k) {
      const SegmentStore& store = sys_.Store(k);
      m->lag.Add((feeds_[k].newest_t() - store.t_max()) / config_.dt);
    }
  }

  void Panel(Measured* m) {
    panels_.Next(plan_);
    const bool keep = m != nullptr && sample_rng_.Bernoulli(1.0 / 16);
    uint64_t attempted = 0;
    uint64_t failed = 0;
    const int64_t t0 = NowNs();
    RunPanel(config_, plan_, sys_, &attempted, &failed,
             keep ? &m->sampled : nullptr, &sink_);
    const int64_t t1 = NowNs();
    if (replay_ != nullptr) TracedPanel();
    if (m == nullptr) return;
    m->panel_ns.push_back(static_cast<double>(t1 - t0));
    m->rounds.back().panel_ns.push_back(static_cast<double>(t1 - t0));
    m->attempted += attempted;
    m->failed += failed;
  }

  // The same panel on the replay's stores: one span for the Aggregate
  // calls and one for the ValueAt calls.
  void TracedPanel() {
    Tracer& t = *tracer_;
    const Tracer::Token panel = t.Begin(kPanel, Tracer::kNoParent, commit_id_);
    Tracer::Token span = t.Begin(kAggregate, panel.index, commit_id_);
    for (const size_t key : plan_.keys) {
      const SegmentStore& s = replay_->Store(key);
      const double end = PanelEnd(config_, plan_, s.t_max());
      for (size_t dim = 0; dim < config_.dims; ++dim) {
        const auto agg = s.Aggregate(end - plan_.window, end, dim);
        if (agg.ok()) touched_ += agg->segments_touched;
        ++store_calls_;
      }
    }
    t.End(span);
    span = t.Begin(kValueAt, panel.index, commit_id_);
    for (const size_t key : plan_.keys) {
      const SegmentStore& s = replay_->Store(key);
      const double end = PanelEnd(config_, plan_, s.t_max());
      for (size_t dim = 0; dim < config_.dims; ++dim) {
        const auto value = s.ValueAt(end, dim);
        if (value.ok()) sink_ += *value;
      }
    }
    t.End(span);
    t.End(panel);
  }

  const WorkloadConfig& config_;
  System& sys_;
  Replay* replay_;
  Tracer* tracer_;
  std::vector<KeyFeed> feeds_;
  PanelGenerator panels_;
  plastream::Rng sample_rng_;
  CommitInput input_;
  PanelPlan plan_;
  uint64_t commit_id_ = 0;
  uint64_t wire_base_ = 0;
  uint64_t storage_base_ = 0;
  uint64_t touched_ = 0;
  uint64_t store_calls_ = 0;
  double sink_ = 0.0;
};

// --- correctness gate ----------------------------------------------------------

// Checks every key's live segments byte for byte against a direct filter
// fed the same admitted points (sorted, as the guard releases them), and
// |x - x^| <= eps at every admitted sample. Returns the failed checks.
size_t CheckKeys(const WorkloadConfig& config, uint64_t seed,
                 const System& sys, uint64_t commits) {
  const size_t arrivals = commits * config.ticks_per_commit;
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::mutex mu;
  size_t failures = 0;
  auto check = [&](size_t k) -> std::string {
    KeyFeed feed = LiveFeed(config, seed, k);
    plastream::Signal signal;
    signal.points.reserve(arrivals);
    for (size_t j = 0; j < arrivals; ++j) signal.points.push_back(feed.Next());
    std::stable_sort(
        signal.points.begin(), signal.points.end(),
        [](const auto& a, const auto& b) { return a.t < b.t; });
    auto filter = plastream::MakeFilter(config.filter_spec);
    if (!filter.ok()) return filter.status().ToString();
    const std::vector<double>& eps = (*filter)->options().epsilon;
    Status st = (*filter)->AppendBatch(signal.points);
    if (st.ok()) st = (*filter)->Finish();
    if (!st.ok()) return "reference filter: " + st.ToString();
    const std::vector<plastream::Segment> ref = (*filter)->TakeSegments();
    const auto stored =
        sys.Store(k).segments().subspan(sys.recovered()[k]);
    if (stored.size() != ref.size() ||
        !std::equal(ref.begin(), ref.end(), stored.begin())) {
      return "segments differ from the reference (" +
             std::to_string(stored.size()) + " archived vs " +
             std::to_string(ref.size()) + ")";
    }
    const auto approx = plastream::PiecewiseLinearFunction::Make(ref);
    if (!approx.ok()) return approx.status().ToString();
    st = plastream::VerifyPrecision(signal, *approx, eps);
    return st.ok() ? std::string() : st.ToString();
  };
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      for (size_t k = w; k < config.keys; k += threads) {
        const std::string error = check(k);
        if (error.empty()) continue;
        const std::lock_guard<std::mutex> lock(mu);
        if (failures++ < 5) {
          std::fprintf(stderr, "perfbench: key %s: %s\n",
                       config.KeyName(k).c_str(), error.c_str());
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return failures;
}

// --- reports ---------------------------------------------------------------------

void PrintProvenance(const WorkloadConfig& config, const Args& args,
                     int cpu) {
  const std::string dir =
      std::filesystem::path(args.archive).parent_path().string();
  std::printf(
      "provenance: {\"build_type\": \"%s\", \"ndebug\": true, \"simd\": "
      "\"%s\", \"nproc\": %ld, \"seed\": %llu, \"workload\": \"%s\", "
      "\"archive_fs\": \"%s\", \"threads\": %d, \"connections\": %zu, "
      "\"pinned_cpu\": %d, \"keys\": %zu, \"seconds\": %g, \"trace\": %d, "
      "\"smoke\": %s}\n",
      PERFBENCH_BUILD_TYPE, plastream::simd::kIsa, sysconf(_SC_NPROCESSORS_ONLN),
      static_cast<unsigned long long>(args.seed), config.name.c_str(),
      FilesystemName(dir.empty() ? "." : dir).c_str(), config.remote ? 2 : 1,
      config.remote ? config.producers : size_t{0}, cpu, config.keys,
      args.seconds,
      args.trace, args.smoke ? "true" : "false");
}

std::string RunCopy(const Args& args, const char* tag) {
  return args.work + "/" + tag + ".plar";
}

int RunUntraced(const WorkloadConfig& config, const Args& args,
                CpuPin& pin) {
  Measured m;
  const size_t rss_base_kb = ProcStatusKb("VmRSS");
  std::unique_ptr<System> sys;
  for (size_t i = 0; i < config.setups; ++i) {
    sys.reset();
    const std::string copy = RunCopy(args, "system");
    CopyFile(args.archive, copy);
    const int64_t t0 = NowNs();
    sys = System::Open(config, copy);
    m.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  size_t recovered = 0;
  for (const size_t n : sys->recovered()) recovered += n;
  const size_t expected = PriorArchiveSegments(args.archive);

  Loop loop(config, args.seed, *sys, nullptr, nullptr);
  loop.Run(args.seconds, m);
  const size_t rss_peak_kb = ProcStatusKb("VmHWM");
  std::fprintf(stderr, "perfbench: %zu commits, %zu panels, checksum %g\n",
               m.commit_ns.size(), m.panel_ns.size(), loop.sink());

  // Correctness gate (untimed), on every CPU.
  pin.Release();
  uint64_t gate_failed = 0;
  uint64_t gate_attempted = 2 + config.keys + m.sampled.size();
  if (recovered != expected) {
    std::fprintf(stderr, "perfbench: recovered %zu segments, archive holds %zu\n",
                 recovered, expected);
    ++gate_failed;
  }
  const Status finished = sys->Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "perfbench: Finish: %s\n", finished.ToString().c_str());
    ++gate_failed;
  }
  gate_failed += CheckKeys(config, args.seed, *sys, m.total_commits);
  size_t bad_panels = 0;
  for (const PanelAnswer& answer : m.sampled) {
    if (!CheckPanelAnswer(config, sys->Store(answer.key), answer)) {
      ++bad_panels;
    }
  }
  if (bad_panels > 0) {
    std::fprintf(stderr, "perfbench: %zu sampled panel answers differ\n",
                 bad_panels);
  }
  gate_failed += bad_panels;

  const uint64_t attempted = m.attempted + gate_attempted;
  const uint64_t failed = m.failed + gate_failed;
  const double points = static_cast<double>(std::max<uint64_t>(m.points, 1));
  // Rates and p99s are medians over rounds; p50s pool every sample.
  std::vector<double> pps, cpu_us, p99_ms, qps, q99_us;
  for (const Round& r : m.rounds) {
    const double commit_s = Sum(r.commit_ns) / 1e9;
    if (commit_s > 0) {
      pps.push_back(static_cast<double>(r.points) / commit_s);
      cpu_us.push_back(static_cast<double>(r.commit_cpu_ns) / 1e3 /
                       static_cast<double>(r.points));
      p99_ms.push_back(Quantile(r.commit_ns, 0.99) / 1e6);
    }
    if (!r.panel_ns.empty()) {
      qps.push_back(static_cast<double>(r.panel_ns.size()) /
                    (Sum(r.panel_ns) / 1e9));
      q99_us.push_back(Quantile(r.panel_ns, 0.99) / 1e3);
    }
  }
  ResultLine out;
  out.Add("setup_s", Median(m.setup_s), "s");
  out.Add("ingest_pps", Median(pps), "points/s");
  out.Add("commit_p50_ms", Quantile(m.commit_ns, 0.50) / 1e6, "ms");
  out.Add("commit_p99_ms", Median(p99_ms), "ms");
  out.Add("query_qps", Median(qps), "panels/s");
  out.Add("query_p50_us", Quantile(m.panel_ns, 0.50) / 1e3, "us");
  out.Add("query_p99_us", Median(q99_us), "us");
  out.Add("wire_bytes_per_point", static_cast<double>(m.wire_bytes) / points,
          "B");
  out.Add("storage_bytes_per_point",
          static_cast<double>(m.storage_bytes) / points, "B");
  out.Add("lag_p99_points", m.lag.Quantile(0.99), "points");
  out.Add("rss_peak_mb",
          static_cast<double>(rss_peak_kb - std::min(rss_peak_kb, rss_base_kb)) /
              1024.0,
          "MB");
  out.Add("cpu_us_per_point", Median(cpu_us), "us");
  out.Add("ok_op_ratio",
          1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
          "ratio");
  for (const Round& r : m.rounds) {
    if (r.commit_ns.size() < 1000 || r.panel_ns.size() < 1000) {
      std::fprintf(stderr,
                   "perfbench: warning: a round holds %zu commits and %zu "
                   "panels; its p99 needs >= 1000 of each\n",
                   r.commit_ns.size(), r.panel_ns.size());
      break;
    }
  }
  const bool correct = failed == 0;
  std::printf("%s\n", out.Format(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

// The traced run: the real system and the layer replay take the same
// commits and panels; the real side gives the untraced totals, the replay
// the spans.
int RunTraced(const WorkloadConfig& config, const Args& args) {
  // storage.open_s: StorageBackend::Open over a fresh copy, median of 3.
  std::vector<double> open_s;
  std::unique_ptr<plastream::StorageBackend> backend;
  const std::string replay_copy = RunCopy(args, "replay");
  for (int i = 0; i < 3; ++i) {
    backend.reset();
    CopyFile(args.archive, replay_copy);
    backend = Must(plastream::MakeStorageBackend(FileStorageSpec(replay_copy)),
                   "MakeStorageBackend");
    const int64_t t0 = NowNs();
    Must(backend->Open(), "StorageBackend::Open");
    open_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  size_t recovered = 0;
  for (const std::string& key : backend->StreamKeys()) {
    recovered += backend->FindStream(key)->store()->segment_count();
  }
  if (config.remote) {
    backend.reset();  // the replay's collector opens its own copy
    CopyFile(args.archive, replay_copy);
  }

  const std::string copy = RunCopy(args, "system");
  CopyFile(args.archive, copy);
  std::unique_ptr<System> sys = System::Open(config, copy);
  Tracer tracer(size_t{1} << 20);
  std::unique_ptr<Replay> replay =
      Replay::Open(config, replay_copy, std::move(backend), &tracer);

  Measured m;
  Loop loop(config, args.seed, *sys, replay.get(), &tracer);
  loop.Run(args.seconds, m);
  const int64_t collector_cpu = replay->CollectorCpuNs();
  tracer.Write(args.work + "/trace-" + config.name + "-" +
               std::to_string(args.seed) + ".csv");

  // Gate: the replay's archive must be byte-identical to the system's.
  uint64_t failed = m.failed + replay->failed();
  uint64_t attempted = m.attempted + config.keys;
  for (size_t k = 0; k < config.keys; ++k) {
    const auto a = sys->Store(k).segments();
    const auto b = replay->Store(k).segments();
    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin())) {
      if (failed == 0) {
        std::fprintf(stderr, "perfbench: replay of %s differs (%zu vs %zu)\n",
                     config.KeyName(k).c_str(), b.size(), a.size());
      }
      ++failed;
    }
  }

  const ReplayCounts c = replay->counts();
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto ns = [&](Layer l) { return static_cast<double>(tracer.total_ns(l)); };
  const double traced_total = ns(kCommit) + ns(kPanel);
  const double untraced_total = Sum(m.commit_ns) + Sum(m.panel_ns);
  const double layers_in_commit = ns(kGuard) + ns(kFilter) + ns(kEncode) +
                                  (config.remote ? 0.0 : ns(kDecode)) +
                                  ns(kStorageAppend) + ns(kStorageFlush) +
                                  ns(kSend) + ns(kAckWait);
  const double commit_untraced = Sum(m.commit_ns);
  const plastream::IngestGuardStats guard = replay->GuardStats();
  const plastream::ProducerClient::Stats producer = replay->ProducerStats();
  const double arrived = static_cast<double>(c.arrived);
  const double segments = static_cast<double>(c.segments);
  const std::vector<double>& flush = tracer.durations(kStorageFlush);
  const std::vector<double>& ack = tracer.durations(kAckWait);
  const double store_calls = static_cast<double>(loop.store_calls());

  ResultLine out;
  out.Add("core.filter.ns_per_point", per(ns(kFilter), c.admitted), "ns");
  out.Add("core.filter.busy_share", per(ns(kFilter), traced_total), "ratio");
  out.Add("core.filter.points_per_segment", per(c.admitted, segments),
          "points");
  out.Add("stream.ingest_guard.ns_per_point", per(ns(kGuard), arrived), "ns");
  out.Add("stream.ingest_guard.busy_share", per(ns(kGuard), traced_total),
          "ratio");
  out.Add("stream.ingest_guard.reordered_ratio",
          per(static_cast<double>(guard.reordered), arrived), "ratio");
  out.Add("stream.ingest_guard.late_drop_ratio",
          per(static_cast<double>(guard.late_dropped), arrived), "ratio");
  out.Add("stream.codec.encode_ns_per_record",
          per(ns(kEncode), c.records_encoded), "ns");
  out.Add("stream.codec.decode_ns_per_record",
          per(ns(kDecode), c.records_decoded), "ns");
  out.Add("stream.codec.bytes_per_segment", per(c.wire_bytes, segments), "B");
  out.Add("stream.codec.frames_per_commit", per(c.frames, c.commits), "count");
  out.Add("stream.codec.busy_share",
          per(ns(kEncode) + (config.remote ? 0.0 : ns(kDecode)), traced_total),
          "ratio");
  out.Add("stream.pipeline.unattributed_share",
          per(commit_untraced - layers_in_commit, commit_untraced), "ratio");
  out.Add("stream.pipeline.retained_segments",
          static_cast<double>(sys->RetainedSegments()), "count");
  out.Add("storage.open_s", Median(open_s), "s");
  out.Add("storage.segments_recovered", static_cast<double>(recovered),
          "count");
  out.Add("storage.append_ns_per_segment",
          per(ns(kStorageAppend), c.segments_appended), "ns");
  out.Add("storage.flush_p50_us", Quantile(flush, 0.50) / 1e3, "us");
  out.Add("storage.flush_p99_us", Quantile(flush, 0.99) / 1e3, "us");
  out.Add("storage.bytes_per_segment",
          per(static_cast<double>(c.storage_bytes), segments), "B");
  out.Add("storage.busy_share",
          per(ns(kStorageAppend) + ns(kStorageFlush), traced_total), "ratio");
  out.Add("transport.producer.send_ns_per_frame",
          per(ns(kSend), static_cast<double>(config.remote ? c.frames : 0)),
          "ns");
  out.Add("transport.producer.ack_wait_p50_us", Quantile(ack, 0.50) / 1e3,
          "us");
  out.Add("transport.producer.ack_wait_p99_us", Quantile(ack, 0.99) / 1e3,
          "us");
  out.Add("transport.producer.frames_resent_ratio",
          per(static_cast<double>(producer.frames_resent),
              static_cast<double>(producer.frames_sent)),
          "ratio");
  out.Add("transport.producer.backpressure_stalls",
          static_cast<double>(producer.backpressure_stalls), "count");
  out.Add("transport.producer.busy_share",
          per(ns(kSend) + ns(kAckWait), traced_total), "ratio");
  out.Add("transport.collector.cpu_busy_share",
          per(static_cast<double>(collector_cpu),
              static_cast<double>(m.wall_ns)),
          "ratio");
  out.Add("transport.collector.cpu_ns_per_point",
          per(static_cast<double>(collector_cpu), arrived), "ns");
  out.Add("transport.collector.bytes_read_per_point",
          per(static_cast<double>(replay->CollectorBytesRead()), arrived), "B");
  out.Add("core.segment_store.aggregate_ns_per_segment",
          per(ns(kAggregate), static_cast<double>(loop.touched())), "ns");
  out.Add("core.segment_store.segments_touched_per_query",
          per(static_cast<double>(loop.touched()), store_calls), "count");
  out.Add("core.segment_store.value_at_ns", per(ns(kValueAt), store_calls), "ns");
  out.Add("core.segment_store.busy_share",
          per(ns(kAggregate) + ns(kValueAt), traced_total), "ratio");
  out.Add("trace.overhead_ratio", per(traced_total, untraced_total), "ratio");
  const bool correct = failed == 0;
  std::printf("%s\n", out.Format(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const WorkloadConfig* config = FindWorkload(args.workload, args.smoke);
  if (config == nullptr) Usage("unknown workload");
  if (args.mode == "prepare") {
    WritePriorArchive(*config, args.seed, args.archive);
    return 0;
  }
  if (args.mode != "run") Usage("unknown mode");
#ifndef NDEBUG
  // A Debug number must never be compared with a Release one.
  std::fprintf(stderr, "perfbench_e2e: built without NDEBUG; refusing to "
                       "report (build with CMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  std::filesystem::create_directories(args.work);
  CpuPin pin;  // before set-up, so the collector's thread shares the CPU
  PrintProvenance(*config, args, pin.cpu());
  return args.trace != 0 ? RunTraced(*config, args)
                         : RunUntraced(*config, args, pin);
}
