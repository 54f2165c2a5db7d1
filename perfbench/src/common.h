// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Shared helpers of the end-to-end benchmark: clocks, percentiles, process
// memory and CPU readings, and the one-line JSON result writer.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <pthread.h>
#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace perfbench {

using plastream::Result;
using plastream::Status;

/// Monotonic wall clock, in ns.
int64_t NowNs();
/// CPU time of every thread of this process, in ns.
int64_t ProcessCpuNs();
/// CPU time of one thread of this process, in ns.
int64_t ThreadCpuNs(pthread_t thread);

/// Prints `what: status` to stderr and exits 2 when `status` is not OK.
/// Used for set-up steps whose failure leaves nothing to measure.
void Must(const Status& status, std::string_view what);

template <typename T>
T Must(Result<T> result, std::string_view what) {
  Must(result.status(), what);
  return std::move(result).value();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// A field of /proc/self/status in KiB ("VmRSS", "VmHWM"); 0 if absent.
size_t ProcStatusKb(const char* field);

/// Name of the filesystem holding `path` ("ext4", "tmpfs", "overlay", ...).
std::string FilesystemName(const std::string& path);

/// Copies `from` over `to`, exiting on failure.
void CopyFile(const std::string& from, const std::string& to);

/// Pins the calling thread, and every thread it starts afterwards, to one
/// CPU of its allowed set (the last one) until Release() or destruction.
///
/// On a virtual machine a thread that wakes a thread parked on another
/// vCPU waits until the host schedules that vCPU; under load on the host
/// that put 5-50 ms tails into fleet-tcp's producer -> collector -> ACK
/// hand-offs, from the host rather than from plastream. On one CPU the
/// hand-off is a local context switch.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin() { Release(); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  /// Restores the calling thread's original affinity (threads started
  /// while pinned stay pinned).
  void Release();
  /// The CPU pinned to, or -1 when pinning was not possible.
  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_{};
  int cpu_ = -1;
};

/// Deterministic 64-bit mix of a seed and stream labels, for per-key
/// generator seeds.
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Zipf(s) draws over [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(plastream::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Builds the benchmark's result line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
class ResultLine {
 public:
  void Add(std::string name, double value, std::string unit);
  std::string Format(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
