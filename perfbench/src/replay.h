// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The traced run's layer replay. It feeds the same seeded commits as the
// untraced system, but calls each layer's public functions itself, in
// pipeline order, one pass per layer per commit:
//
//   ingest guard (IngestGuard::Admit)  -> the points it admits
//   filter (Filter::AppendBatch)       -> segments
//   codec encode (Transmitter -> WireCodec::Encode/Flush) -> frames
//   in-process: codec decode (Receiver::Poll -> WireCodec::Decode),
//               storage (StreamStorage::Append, StorageBackend::Flush)
//   over tcp:   ProducerClient::SendFrame, ProducerClient::Flush (ACK
//               wait) into a second CollectorServer; decode runs as a
//               side pass outside the commit, as the collector decodes
//               out of reach of the producer's clock.
//
// Every pass is a span (layer, start, end, parent, commit id) in a
// preallocated buffer. Because each pass runs alone, a span's duration is
// its layer's self time: the guard pass forwards into a filter that only
// records what it admits, and the real filter then runs over that
// admitted sequence in its own pass.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/filter.h"
#include "core/segment_store.h"
#include "storage/storage_backend.h"
#include "stream/channel.h"
#include "stream/ingest_guard.h"
#include "stream/receiver.h"
#include "stream/transmitter.h"
#include "stream/wire_codec.h"
#include "transport/collector_server.h"
#include "transport/producer_client.h"
#include "workload.h"

namespace perfbench {

/// Span names; one per timed pass.
enum Layer : uint32_t {
  kCommit,
  kPanel,
  kGuard,
  kFilter,
  kEncode,
  kDecode,
  kStorageAppend,
  kStorageFlush,
  kSend,
  kAckWait,
  kAggregate,
  kValueAt,
  kLayerCount,
};

/// Span recorder: spans go to a buffer preallocated up front (written out
/// at exit); per-layer totals and durations accumulate alongside, so a
/// full buffer loses only the span file's tail, never a metric.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = ~uint32_t{0};
  struct Token {
    Layer layer;
    uint32_t index;
    int64_t start;
  };

  explicit Tracer(size_t capacity);
  Token Begin(Layer layer, uint32_t parent, uint64_t commit);
  /// Closes the span; returns its duration in ns.
  int64_t End(const Token& token);
  /// Drops every accumulated total (the end of warm-up).
  void ResetTotals();

  int64_t total_ns(Layer layer) const { return total_ns_[layer]; }
  /// Span durations of `layer` since the last reset, in ns.
  const std::vector<double>& durations(Layer layer) const {
    return durations_[layer];
  }
  /// Writes every recorded span as CSV (name,start_ns,end_ns,parent,commit).
  void Write(const std::string& path) const;

 private:
  struct Span {
    Layer layer;
    uint32_t parent;
    uint64_t commit;
    int64_t start;
    int64_t end;
  };
  std::vector<Span> spans_;
  size_t dropped_ = 0;
  int64_t total_ns_[kLayerCount] = {};
  std::vector<double> durations_[kLayerCount];
};

/// Counts made where the replay's work happens (since the last reset).
struct ReplayCounts {
  uint64_t arrived = 0;        ///< points into the guard (or filter)
  uint64_t admitted = 0;       ///< points into the filter
  uint64_t segments = 0;       ///< segments out of the filters
  uint64_t records_encoded = 0;
  uint64_t records_decoded = 0;
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;
  uint64_t segments_appended = 0;
  uint64_t storage_bytes = 0;  ///< bytes appended to the replay's archive
  uint64_t commits = 0;
};

class Replay {
 public:
  /// Opens the replay's own copy of the archive (a StorageBackend, or a
  /// second CollectorServer over tcp) and one layer stack per key.
  /// `backend` is an already Open()ed file backend over that copy for the
  /// in-process workloads; over tcp it is unused and may be null.
  static std::unique_ptr<Replay> Open(
      const WorkloadConfig& config, const std::string& archive_path,
      std::unique_ptr<plastream::StorageBackend> backend, Tracer* tracer);
  ~Replay();
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Replays one commit, recording one span per layer pass.
  void Commit(const CommitInput& input, uint64_t commit_id);
  /// Key `key`'s archive on the replay side.
  const plastream::SegmentStore& Store(size_t key) const {
    return *stores_[key];
  }

  /// Counts since the last ResetCounts().
  ReplayCounts counts() const;
  void ResetCounts();
  /// Guard decisions summed over keys.
  plastream::IngestGuardStats GuardStats() const;
  /// Producer transport counters summed over connections.
  plastream::ProducerClient::Stats ProducerStats() const;
  /// CPU time of the collector's Serve() thread since the last
  /// ResetCounts() (0 in-process).
  int64_t CollectorCpuNs();
  uint64_t CollectorBytesRead() const;
  size_t failed() const { return failed_; }

 private:
  // Collects filter output in emission order for the encode pass.
  class EventSink : public plastream::SegmentSink {
   public:
    void OnSegment(const plastream::Segment& segment) override;
    void OnProvisionalLine(const plastream::ProvisionalLine& line) override;
    // Hands everything collected to `tx`, in order; returns the segments.
    size_t Drain(plastream::Transmitter& tx);

   private:
    std::vector<plastream::Segment> segments_;
    std::vector<plastream::ProvisionalLine> lines_;
    std::vector<bool> is_line_;
  };

  // A filter that only records the points the guard admits.
  class AdmittedRecorder : public plastream::Filter {
   public:
    explicit AdmittedRecorder(plastream::FilterOptions options)
        : Filter(std::move(options)) {}
    std::vector<plastream::DataPoint> points;
    std::string_view name() const override { return "admitted"; }

   protected:
    Status AppendValidated(const plastream::DataPoint& point) override {
      points.push_back(point);
      return Status::OK();
    }
    Status FinishImpl() override { return Status::OK(); }
    Status CutImpl() override { return Status::OK(); }
  };

  struct KeyStack {
    std::unique_ptr<AdmittedRecorder> admitted;
    std::unique_ptr<plastream::IngestGuard> guard;
    EventSink events;
    std::unique_ptr<plastream::Filter> filter;
    std::unique_ptr<plastream::WireCodec> codec;
    plastream::Channel channel;
    std::optional<plastream::Transmitter> tx;
    // In-process: decode and archive.
    std::optional<plastream::Receiver> rx;
    size_t archived = 0;
    plastream::StreamStorage* storage = nullptr;
    // Over tcp: the connection and stream id, plus a decode-only codec
    // for the decode side pass.
    plastream::ProducerClient* client = nullptr;
    uint32_t stream_id = 0;
    std::unique_ptr<plastream::WireCodec> side_decoder;
  };

  Replay(const WorkloadConfig& config, Tracer* tracer)
      : config_(config), tracer_(tracer) {}
  void Check(const Status& status);
  void CommitLocal(const CommitInput& input, uint64_t commit_id,
                   uint32_t parent);
  void CommitRemote(const CommitInput& input, uint64_t commit_id,
                    uint32_t parent);

  const WorkloadConfig& config_;
  Tracer* tracer_;
  std::vector<KeyStack> keys_;
  std::unique_ptr<plastream::StorageBackend> backend_;  // in-process only
  std::unique_ptr<plastream::CollectorServer> server_;  // over tcp only
  Status serve_status_ = Status::OK();
  std::thread serving_;
  std::vector<std::unique_ptr<plastream::ProducerClient>> clients_;
  std::vector<const plastream::SegmentStore*> stores_;
  std::vector<std::vector<uint8_t>> frames_;   // reused by the send pass
  std::vector<uint32_t> frame_streams_;
  std::vector<plastream::WireRecord> decoded_;  // reused by the side pass
  ReplayCounts counts_;
  uint64_t StorageBytes() const;

  uint64_t collector_bytes_base_ = 0;
  int64_t collector_cpu_base_ = 0;
  size_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
