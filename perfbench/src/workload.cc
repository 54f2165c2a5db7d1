// Copyright (c) 2026 The plastream Authors. MIT license.

#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "stream/pipeline.h"

namespace perfbench {

namespace {

// Labels that keep the prior archive's, the live feed's and the panel
// plans' random streams apart for one seed.
constexpr uint64_t kPriorStream = 1;
constexpr uint64_t kLiveStream = 2;
constexpr uint64_t kSwapStream = 3;
constexpr uint64_t kPanelStream = 4;

WorkloadConfig ArchiveSlide() {
  WorkloadConfig c;
  c.name = "archive-slide";
  c.dims = 4;
  c.filter_spec = "slide(eps=1,dims=4)";
  c.codec = "delta";
  c.ingest = "pass";
  c.keys = 64;
  c.ticks_per_commit = 24;
  c.prior_ticks = 90'000;
  return c;
}

WorkloadConfig FleetTcp() {
  WorkloadConfig c;
  c.name = "fleet-tcp";
  c.dims = 1;
  c.filter_spec = "swing(eps=1)";
  c.codec = "batch(n=256)";
  c.ingest = "guard(reorder=32)";
  c.remote = true;
  c.producers = 4;
  c.keys = 1024;
  c.ticks_per_commit = 1;
  c.per_point = true;
  c.reorder_prob = 0.02;
  c.t0 = 1.7e12;  // epoch milliseconds
  c.dt = 1000.0;
  c.prior_ticks = 8192;
  return c;
}

WorkloadConfig DashboardQuery() {
  WorkloadConfig c = ArchiveSlide();  // reopens the same (largest) archive
  c.name = "dashboard-query";
  c.ticks_per_commit = 16;
  c.mixed = true;
  c.warmup_commits = 2;
  return c;
}

WorkloadConfig Smoke(WorkloadConfig c) {
  c.keys = c.remote ? 32 : 8;
  c.prior_ticks = c.remote ? 400 : 4000;
  c.warmup_commits = 2;
  c.warmup_panels = 2;
  c.setups = 2;
  c.commits_per_round = 50;
  c.min_panels = 50;
  return c;
}

}  // namespace

std::string WorkloadConfig::KeyName(size_t key) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), remote ? "host-%04zu.cpu" : "site-%02zu.env",
                key);
  return buf;
}

const WorkloadConfig* FindWorkload(const std::string& name, bool smoke) {
  static const std::vector<WorkloadConfig> full = {
      ArchiveSlide(), FleetTcp(), DashboardQuery()};
  static const std::vector<WorkloadConfig> small = {
      Smoke(ArchiveSlide()), Smoke(FleetTcp()), Smoke(DashboardQuery())};
  for (const WorkloadConfig& c : smoke ? small : full) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::string FileStorageSpec(const std::string& path) {
  return "file(path=" + path + ",codec=delta)";
}

KeyFeed::KeyFeed(const WorkloadConfig& config, uint64_t seed, size_t key,
                 uint64_t first_tick, double reorder_prob)
    : walk_(MixSeed(seed, key, 0)),
      swap_(MixSeed(seed, key, kSwapStream)),
      reorder_prob_(reorder_prob),
      t0_(config.t0),
      dt_(config.dt),
      tick_(first_tick) {
  x_.resize(config.dims);
  for (size_t i = 0; i < config.dims; ++i) x_[i] = walk_.Uniform(-50, 50);
}

plastream::DataPoint KeyFeed::Step() {
  plastream::DataPoint p;
  p.t = t0_ + static_cast<double>(tick_++) * dt_;
  for (size_t i = 0; i < x_.size(); ++i) {
    const double magnitude = walk_.Uniform(0.0, 1.0);
    x_[i] += walk_.Bernoulli(0.5) ? -magnitude : magnitude;
  }
  p.x = x_;
  return p;
}

const plastream::DataPoint& KeyFeed::Next() {
  if (holding_) {
    holding_ = false;
    out_ = held_;
  } else {
    out_ = Step();
    if (reorder_prob_ > 0.0 && swap_.Bernoulli(reorder_prob_)) {
      // Deliver the following tick first; this one arrives one tick late.
      held_ = out_;
      holding_ = true;
      out_ = Step();
    }
  }
  newest_t_ = std::max(newest_t_, out_.t);
  return out_;
}

KeyFeed LiveFeed(const WorkloadConfig& config, uint64_t seed, size_t key) {
  return KeyFeed(config, MixSeed(seed, kLiveStream), key, config.prior_ticks,
                 config.reorder_prob);
}

std::vector<KeyFeed> LiveFeeds(const WorkloadConfig& config, uint64_t seed) {
  std::vector<KeyFeed> feeds;
  feeds.reserve(config.keys);
  for (size_t k = 0; k < config.keys; ++k) {
    feeds.push_back(LiveFeed(config, seed, k));
  }
  return feeds;
}

void NextCommit(const WorkloadConfig& config, std::vector<KeyFeed>& feeds,
                CommitInput& out) {
  const size_t n = config.ticks_per_commit;
  const size_t d = config.dims;
  out.keys.resize(feeds.size());
  out.points = 0;
  for (size_t k = 0; k < feeds.size(); ++k) {
    CommitInput::Key& key = out.keys[k];
    key.ts.resize(n);
    key.vals.resize(n * d);
    for (size_t j = 0; j < n; ++j) {
      const plastream::DataPoint& p = feeds[k].Next();
      key.ts[j] = p.t;
      for (size_t i = 0; i < d; ++i) key.vals[i * n + j] = p.x[i];
    }
    out.points += n;
  }
}

PanelGenerator::PanelGenerator(const WorkloadConfig& config, uint64_t seed)
    : config_(config),
      rng_(MixSeed(seed, kPanelStream)),
      zipf_(config.keys, 1.1) {}

void PanelGenerator::Next(PanelPlan& out) {
  static constexpr double kWindowTicks[] = {60.0, 3600.0, 86400.0};
  out.keys.resize(8);
  for (size_t& key : out.keys) key = zipf_.Draw(rng_);
  out.window = kWindowTicks[rng_.UniformInt(3)] * config_.dt;
  // Scroll back up to an hour.
  const uint64_t max_offset = std::min<uint64_t>(3600, config_.prior_ticks / 2);
  out.offset_ticks = static_cast<double>(rng_.UniformInt(max_offset));
}

double PanelEnd(const WorkloadConfig& config, const PanelPlan& plan,
                double t_max) {
  const double newest_tick = std::floor((t_max - config.t0) / config.dt);
  return config.t0 + (newest_tick - plan.offset_ticks) * config.dt;
}

void WritePriorArchive(const WorkloadConfig& config, uint64_t seed,
                       const std::string& path) {
  std::remove(path.c_str());
  auto pipeline = Must(plastream::Pipeline::Builder()
                           .DefaultSpec(config.filter_spec)
                           .Codec(config.codec)
                           .Storage(FileStorageSpec(path))
                           .Build(),
                       "prior archive: Pipeline::Build");
  constexpr size_t kChunk = 1024;
  std::vector<double> ts(kChunk);
  std::vector<double> vals(kChunk * config.dims);
  std::vector<KeyFeed> feeds;
  for (size_t k = 0; k < config.keys; ++k) {
    feeds.emplace_back(config, MixSeed(seed, kPriorStream), k, 0, 0.0);
  }
  // Keys interleave chunk by chunk, as a collector's log does.
  for (size_t done = 0; done < config.prior_ticks; done += kChunk) {
    const size_t n = std::min(kChunk, config.prior_ticks - done);
    ts.resize(n);
    vals.resize(n * config.dims);
    for (size_t k = 0; k < config.keys; ++k) {
      for (size_t j = 0; j < n; ++j) {
        const plastream::DataPoint& p = feeds[k].Next();
        ts[j] = p.t;
        for (size_t i = 0; i < config.dims; ++i) vals[i * n + j] = p.x[i];
      }
      Must(pipeline->AppendBatch(config.KeyName(k), ts, vals),
           "prior archive: append");
    }
  }
  Must(pipeline->Finish(), "prior archive: Finish");
  std::ofstream(path + ".segments") << pipeline->Stats().segments << "\n";
}

size_t PriorArchiveSegments(const std::string& path) {
  std::ifstream in(path + ".segments");
  size_t n = 0;
  in >> n;
  return n;
}

}  // namespace perfbench
