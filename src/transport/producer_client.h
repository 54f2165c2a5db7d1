// Copyright (c) 2026 The plastream Authors. MIT license.
//
// ProducerClient: the producer half of the network transport. It owns one
// socket to a CollectorServer, frames codec output into the wire
// protocol, and gives the transports three guarantees the Pipeline
// relies on:
//
//  * Batched writes. OpenStream, SendFrame and FinishStream only queue
//    their message. Queued bytes reach the socket through Push() (write
//    what the socket takes, read waiting ACKs, never block), Flush()
//    (write, then wait for every ACK) or the backpressure stall below,
//    and through nothing else. A caller that queues many frames and
//    then pushes once pays one write for all of them.
//
//  * Reconnect-and-resume. Every frame gets a per-stream sequence number
//    and sits in a bounded resend buffer until the collector's cumulative
//    ACK covers it. When the connection dies mid-stream the client
//    redials (bounded retries, capped exponential backoff with seeded
//    jitter), replays its hello + open-stream preamble, and resends
//    everything unacknowledged. The
//    collector drops already-applied sequence numbers before they reach
//    the codec, so the resumed stream decodes byte-identically.
//
//  * Backpressure. Queued and in-flight messages both count against
//    max_unacked_bytes. A SendFrame that takes them over it writes the
//    queue and blocks, pumping socket I/O until ACKs drain the window —
//    a stalled collector surfaces as blocked producers plus one bounded
//    buffer per side, never unbounded memory. Stalls are counted.
//
// Thread model: one coarse mutex serializes Open/Send/Finish/Push/Flush;
// stats are atomics so GetStats() never blocks behind a stalled send.

#ifndef PLASTREAM_TRANSPORT_PRODUCER_CLIENT_H_
#define PLASTREAM_TRANSPORT_PRODUCER_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/filter_spec.h"
#include "stream/frame_splitter.h"
#include "transport/endpoint.h"
#include "transport/socket_util.h"

namespace plastream {

/// A reconnecting, backpressured client connection to a CollectorServer.
class ProducerClient {
 public:
  /// Client tuning; the transport specs' max_unacked_kb / retries /
  /// backoff_ms params land here.
  struct Options {
    /// Resend-window bound; SendFrame blocks while queued plus unacked
    /// bytes exceed it (the backpressure surface).
    size_t max_unacked_bytes = 4 * 1024 * 1024;
    /// Redial attempts per broken connection before giving up.
    size_t retries = 8;
    /// Base redial backoff. Attempt k sleeps roughly
    /// min(backoff_max_ms, backoff_ms << (k-1)) with half-jitter (a
    /// seeded draw in [delay/2, delay]) so producers restarting together
    /// do not redial in lockstep.
    size_t backoff_ms = 50;
    /// Cap on one backoff sleep.
    size_t backoff_max_ms = 2000;
    /// Deadline for one connect() attempt; -1 waits forever.
    int connect_timeout_ms = 10'000;
    /// Seed of the backoff-jitter stream (deterministic per seed).
    uint64_t jitter_seed = 1;
    /// Bound on one incoming (ACK/ERROR) protocol message.
    size_t max_message_bytes = 4 * 1024 * 1024;
  };

  /// Counters; readable without blocking behind an in-flight send.
  struct Stats {
    uint64_t bytes_sent = 0;           ///< raw socket bytes written
    uint64_t frames_sent = 0;          ///< FRAME/FINISH messages, first try
    uint64_t frames_resent = 0;        ///< messages replayed on reconnect
    uint64_t reconnects = 0;           ///< successful redials after a drop
    uint64_t backpressure_stalls = 0;  ///< sends that blocked on the window
    uint64_t acks_received = 0;        ///< ACK messages processed
    uint64_t socket_writes = 0;        ///< write syscalls that moved bytes
  };

  /// Dials `endpoint` and queues the hello carrying `codec_spec` (the
  /// canonical spec every stream on this connection encodes with).
  /// The hello is one-way: a collector that rejects it answers with an
  /// ERROR that surfaces from the next Push/Flush.
  static Result<std::unique_ptr<ProducerClient>> Connect(
      const NetEndpoint& endpoint, std::string codec_spec, Options options);
  /// Same, with default Options.
  static Result<std::unique_ptr<ProducerClient>> Connect(
      const NetEndpoint& endpoint, std::string codec_spec);

  /// Parses `endpoint_text` ("tcp(host=...,port=...)" or "uds(path=...)",
  /// optionally with max_unacked_kb/retries/backoff_ms/backoff_max_ms/
  /// connect_timeout_ms params overriding `options`) and dials it.
  static Result<std::unique_ptr<ProducerClient>> Connect(
      std::string_view endpoint_text, std::string codec_spec,
      Options options);
  /// Same, with default Options.
  static Result<std::unique_ptr<ProducerClient>> Connect(
      std::string_view endpoint_text, std::string codec_spec);

  ~ProducerClient();

  ProducerClient(const ProducerClient&) = delete;
  ProducerClient& operator=(const ProducerClient&) = delete;

  /// Queues the declaration of a stream for `key` with `dims` value
  /// dimensions and returns the connection-local stream id frames are
  /// sent under.
  Result<uint32_t> OpenStream(std::string_view key, uint16_t dims);

  /// Queues one codec frame for `stream_id`; it leaves with the next
  /// Push() or Flush(). When queued plus unacked bytes pass the window,
  /// writes the queue and blocks until ACKs drain it (backpressure);
  /// reconnects and resends through dropped connections. Errors are
  /// sticky: a collector ERROR or an exhausted redial budget fails this
  /// and every later call.
  Status SendFrame(uint32_t stream_id, std::span<const uint8_t> frame);

  /// Queues the end-of-stream marker for `stream_id` (sequenced and
  /// resent like a frame).
  Status FinishStream(uint32_t stream_id);

  /// Writes as much of the queue as the socket takes and reads any ACKs
  /// already waiting, without blocking; reconnects a dropped link. With
  /// nothing queued it returns at once and makes no syscall.
  Status Push();

  /// Writes the queue, then blocks until every message has been
  /// acknowledged — after Flush() the collector's decode state provably
  /// covers everything queued.
  Status Flush();

  /// Test hook: hard-closes the socket as a network partition would.
  /// The next Push/Flush redials and resends unacked frames.
  void DebugDropConnection();

  /// Unblocks a send stalled on backpressure with an Aborted error (no
  /// mutex, safe from any thread while a send is blocked). The client is
  /// permanently failed afterwards — a bench/teardown hook, not resume.
  void Abort() { abort_.store(true, std::memory_order_relaxed); }

  /// Statistics snapshot (never blocks).
  Stats GetStats() const;

  /// The dialed endpoint.
  const NetEndpoint& endpoint() const { return endpoint_; }

 private:
  ProducerClient(NetEndpoint endpoint, std::string codec_spec,
                 Options options);

  // One sequenced, resendable wire message (FRAME or FINISH).
  struct Pending {
    uint32_t stream_id = 0;
    uint64_t seq = 0;
    std::vector<uint8_t> message;  // fully framed bytes
  };

  struct StreamState {
    std::string key;
    uint16_t dims = 0;
    uint64_t next_seq = 0;   // last assigned; 1-based on the wire
    uint64_t acked_seq = 0;  // collector's cumulative ACK line
    bool finished = false;
  };

  // All private helpers assume mutex_ is held.
  Status Dial();                  // socket + preamble (+ resend if redial)
  Status EnsureConnected();       // redial loop with backoff
  Status PumpOnce(bool block);    // one write+read round; may reconnect
  Status DrainUntil(size_t max_unacked_bytes);  // pump until under bound
  Status HandleIncoming();        // parse ACK/ERROR bytes from splitter
  void QueueBytes(const std::vector<uint8_t>& message);

  const NetEndpoint endpoint_;
  const std::string codec_spec_;
  const Options options_;

  mutable std::mutex mutex_;
  Rng jitter_;  // backoff jitter; guarded by mutex_
  SocketFd fd_;
  bool ever_connected_ = false;
  Status sticky_ = Status::OK();
  std::map<uint32_t, StreamState> streams_;
  uint32_t next_stream_id_ = 1;
  std::deque<Pending> unacked_;  // send order; ACKs trim the front
  size_t unacked_bytes_ = 0;     // queued or in flight, not yet ACKed
  std::vector<uint8_t> outbuf_;  // bytes queued for the socket
  size_t out_written_ = 0;
  FrameSplitter incoming_;

  std::atomic<bool> abort_{false};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> frames_resent_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> backpressure_stalls_{0};
  std::atomic<uint64_t> acks_received_{0};
  std::atomic<uint64_t> socket_writes_{0};
};

}  // namespace plastream

#endif  // PLASTREAM_TRANSPORT_PRODUCER_CLIENT_H_
