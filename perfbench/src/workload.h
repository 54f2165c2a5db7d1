// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The benchmark's three workloads and their seeded input generator. The
// generator is separate from the system under test: it produces each
// commit's points (and each panel's query plan) before the timer starts,
// and the system receives only those inputs.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/types.h"

namespace perfbench {

/// One workload's shape. All three are closed loops from one thread.
struct WorkloadConfig {
  std::string name;
  std::string filter_spec;  ///< every key's filter (it carries eps)
  size_t dims = 1;
  std::string codec;        ///< wire codec spec
  std::string ingest;       ///< ingest-guard policy spec
  bool remote = false;      ///< producers ship to a CollectorServer over tcp
  size_t producers = 1;     ///< producer Pipelines (one connection each)
  size_t keys = 1;
  size_t ticks_per_commit = 1;  ///< points per key per commit
  bool per_point = false;   ///< Append per point instead of AppendBatch
  double reorder_prob = 0.0;  ///< share of points delayed by one tick
  double t0 = 0.0;          ///< time of tick 0
  double dt = 1.0;          ///< sample interval
  size_t prior_ticks = 0;   ///< ticks per key in the prior archive
  /// Commits per round (see Loop in main.cc). Fixed, so memory, bytes and
  /// lag do not depend on speed.
  size_t commits_per_round = 1000;
  /// Dashboard: the round's commits are spread evenly over its time and
  /// panels fill the gaps between them. Otherwise write blocks alternate
  /// with read-back blocks.
  bool mixed = false;
  size_t min_panels = 1000;  ///< ingest workloads: read-back panels per round
  size_t warmup_commits = 20;
  size_t warmup_panels = 20;
  size_t setups = 7;        ///< set-ups timed per run; median reported

  std::string KeyName(size_t key) const;
};

/// The named workload, or nullptr. `smoke` shrinks every size so the
/// benchmark's own smoke test finishes in seconds.
const WorkloadConfig* FindWorkload(const std::string& name, bool smoke);

/// Storage spec of a file archive at `path`.
std::string FileStorageSpec(const std::string& path);

/// One key's seeded input: a d-dimensional random walk (the paper's
/// Section 5 generator: each step is +-U(0, 1) per dimension) sampled every
/// dt, delivered in arrival order. With reorder_prob > 0 a point is
/// sometimes held back and delivered one tick late.
class KeyFeed {
 public:
  KeyFeed(const WorkloadConfig& config, uint64_t seed, size_t key,
          uint64_t first_tick, double reorder_prob);

  /// The next point in arrival order.
  const plastream::DataPoint& Next();
  /// Largest timestamp delivered so far.
  double newest_t() const { return newest_t_; }

 private:
  plastream::DataPoint Step();

  plastream::Rng walk_;
  plastream::Rng swap_;
  double reorder_prob_;
  double t0_;
  double dt_;
  uint64_t tick_;
  plastream::DimVec x_;
  bool holding_ = false;
  plastream::DataPoint held_;
  plastream::DataPoint out_;
  double newest_t_ = 0.0;
};

/// Key `key`'s live feed (seeded from the run seed), starting right after
/// the prior archive's last tick.
KeyFeed LiveFeed(const WorkloadConfig& config, uint64_t seed, size_t key);
/// The live feeds of every key of a workload.
std::vector<KeyFeed> LiveFeeds(const WorkloadConfig& config, uint64_t seed);

/// One commit's input: per key, the arrivals in order as columns.
struct CommitInput {
  struct Key {
    std::vector<double> ts;
    std::vector<double> vals;  ///< dimension-major, vals[d * n + j]
  };
  std::vector<Key> keys;
  size_t points = 0;
};

/// Draws the next commit from `feeds` into `out` (buffers reused).
void NextCommit(const WorkloadConfig& config, std::vector<KeyFeed>& feeds,
                CommitInput& out);

/// One dashboard panel refresh: for each of 8 Zipf-chosen keys,
/// Aggregate over a window ending `offset_ticks` before the key's newest
/// archived time, for every dimension, plus ValueAt at the window's end.
struct PanelPlan {
  std::vector<size_t> keys;
  double window = 0.0;        ///< window length in time units
  double offset_ticks = 0.0;  ///< window end, in samples before the newest
};

/// The end of `plan`'s window on a store whose newest time is `t_max`:
/// a sample time, so ValueAt there always lands on a covered instant.
double PanelEnd(const WorkloadConfig& config, const PanelPlan& plan,
                double t_max);

/// Seeded panel plans: windows of 1 minute, 1 hour or 1 day of samples.
class PanelGenerator {
 public:
  PanelGenerator(const WorkloadConfig& config, uint64_t seed);
  void Next(PanelPlan& out);

 private:
  const WorkloadConfig& config_;
  plastream::Rng rng_;
  Zipf zipf_;
};

/// Writes the workload's prior archive (the state a restarted collector
/// reopens) to `path`, plus `path`.segments with its segment count.
void WritePriorArchive(const WorkloadConfig& config, uint64_t seed,
                       const std::string& path);

/// Segment count recorded next to a prior archive.
size_t PriorArchiveSegments(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
