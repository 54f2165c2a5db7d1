// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The system under test, driven only through its public API: one
// in-process Pipeline over a file archive, or producer Pipelines shipping
// over tcp to an in-process CollectorServer that archives to a file.

#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/segment_store.h"
#include "storage/storage_backend.h"
#include "stream/pipeline.h"
#include "transport/collector_server.h"
#include "workload.h"

namespace perfbench {

class System {
 public:
  /// Builds the system over the archive file at `archive_path`: builder,
  /// storage Open() with recovery, collector Listen and producer connect.
  /// This is what setup_s times.
  static std::unique_ptr<System> Open(const WorkloadConfig& config,
                                      const std::string& archive_path);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// One commit: every key's points (AppendBatch, or Append per point),
  /// then Flush() on every producer. Adds the operations attempted and
  /// failed to the counters.
  void Commit(const CommitInput& input, uint64_t* attempted,
              uint64_t* failed);

  /// Key `key`'s archive (stable for the system's lifetime).
  const plastream::SegmentStore& Store(size_t key) const {
    return *stores_[key];
  }
  /// Encoded bytes that left the producers so far.
  uint64_t WireBytes() const;
  /// Bytes appended to the archive medium so far.
  uint64_t StorageBytes() const { return backend_->bytes_written(); }
  /// Segments every key held right after Open().
  const std::vector<size_t>& recovered() const { return recovered_; }
  /// Segments held twice today: the receivers' vectors plus the stores.
  size_t RetainedSegments() const;
  /// Finishes every producer stream; over tcp, waits until the collector
  /// has applied every FINISH.
  Status Finish();

 private:
  explicit System(const WorkloadConfig& config) : config_(config) {}

  const WorkloadConfig& config_;
  std::vector<std::string> keys_;
  std::unique_ptr<plastream::CollectorServer> server_;
  Status serve_status_ = Status::OK();
  std::thread serving_;
  std::vector<std::unique_ptr<plastream::Pipeline>> pipelines_;
  const plastream::StorageBackend* backend_ = nullptr;
  std::vector<const plastream::SegmentStore*> stores_;
  std::vector<size_t> recovered_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
