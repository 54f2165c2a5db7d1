// Copyright (c) 2026 The plastream Authors. MIT license.

#include "common.h"

#include <sys/statfs.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace perfbench {

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ThreadCpuNs(pthread_t thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0;
  return ClockNs(clock);
}

CpuPin::CpuPin() {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) cpu_ = c;
    return;
  }
}

void CpuPin::Release() {
  if (cpu_ < 0) return;
  sched_setaffinity(0, sizeof(saved_), &saved_);
  cpu_ = -1;
}

void Must(const Status& status, std::string_view what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %.*s: %s\n", static_cast<int>(what.size()),
               what.data(), status.ToString().c_str());
  std::exit(2);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

size_t ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

void CopyFile(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy_file(
      from, to, std::filesystem::copy_options::overwrite_existing, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: copy %s -> %s: %s\n", from.c_str(),
                 to.c_str(), ec.message().c_str());
    std::exit(2);
  }
}

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  // splitmix64 finalizer over the combined labels.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + a * 0xBF58476D1CE4E5B9ull +
               b * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(plastream::Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

void ResultLine::Add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

std::string ResultLine::Format(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
