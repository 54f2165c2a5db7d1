// Copyright (c) 2026 The plastream Authors. MIT license.

#include "transport/producer_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "transport/net_protocol.h"

namespace plastream {

namespace {
// Blocking-pump poll granularity; bounds how long a stalled send takes to
// notice Abort() or a dead socket.
constexpr int kPumpPollMs = 50;
}  // namespace

Result<std::unique_ptr<ProducerClient>> ProducerClient::Connect(
    const NetEndpoint& endpoint, std::string codec_spec, Options options) {
  auto client = std::unique_ptr<ProducerClient>(
      new ProducerClient(endpoint, std::move(codec_spec), options));
  const std::lock_guard<std::mutex> lock(client->mutex_);
  PLASTREAM_RETURN_NOT_OK(client->EnsureConnected());
  return client;
}

Result<std::unique_ptr<ProducerClient>> ProducerClient::Connect(
    const NetEndpoint& endpoint, std::string codec_spec) {
  return Connect(endpoint, std::move(codec_spec), Options());
}

Result<std::unique_ptr<ProducerClient>> ProducerClient::Connect(
    std::string_view endpoint_text, std::string codec_spec, Options options) {
  PLASTREAM_ASSIGN_OR_RETURN(const FilterSpec spec,
                             FilterSpec::Parse(endpoint_text));
  PLASTREAM_ASSIGN_OR_RETURN(const NetEndpoint endpoint,
                             ParseNetEndpoint(spec));
  // Tuning params ride in the same spec string; apply them over `options`.
  if (const std::string* kb = spec.FindParam("max_unacked_kb")) {
    options.max_unacked_bytes = std::stoull(*kb) * 1024;
  }
  if (const std::string* retries = spec.FindParam("retries")) {
    options.retries = std::stoull(*retries);
  }
  if (const std::string* backoff = spec.FindParam("backoff_ms")) {
    options.backoff_ms = std::stoull(*backoff);
  }
  if (const std::string* cap = spec.FindParam("backoff_max_ms")) {
    options.backoff_max_ms = std::stoull(*cap);
  }
  if (const std::string* timeout = spec.FindParam("connect_timeout_ms")) {
    options.connect_timeout_ms = static_cast<int>(std::stoull(*timeout));
  }
  return Connect(endpoint, std::move(codec_spec), options);
}

Result<std::unique_ptr<ProducerClient>> ProducerClient::Connect(
    std::string_view endpoint_text, std::string codec_spec) {
  return Connect(endpoint_text, std::move(codec_spec), Options());
}

ProducerClient::ProducerClient(NetEndpoint endpoint, std::string codec_spec,
                               Options options)
    : endpoint_(std::move(endpoint)),
      codec_spec_(std::move(codec_spec)),
      options_(options),
      jitter_(options.jitter_seed),
      incoming_(options.max_message_bytes) {}

ProducerClient::~ProducerClient() = default;

Status ProducerClient::Dial() {
  Result<SocketFd> dialed =
      endpoint_.kind == NetEndpoint::Kind::kTcp
          ? TcpConnect(endpoint_.host, endpoint_.port,
                       options_.connect_timeout_ms)
          : UdsConnect(endpoint_.path, options_.connect_timeout_ms);
  PLASTREAM_RETURN_NOT_OK(dialed.status());
  fd_ = std::move(dialed).value();
  incoming_.Reset();

  // Fresh connection, fresh conversation: hello, every stream binding,
  // then everything the collector has not acknowledged. A half-written
  // message on the dead socket is simply abandoned — the collector
  // discards a connection's partial trailing bytes with the connection.
  outbuf_.clear();
  out_written_ = 0;
  AppendHelloMessage(&outbuf_, codec_spec_);
  for (const auto& [id, stream] : streams_) {
    AppendOpenStreamMessage(&outbuf_, id, stream.dims, stream.key);
  }
  for (const Pending& pending : unacked_) {
    outbuf_.insert(outbuf_.end(), pending.message.begin(),
                   pending.message.end());
  }
  if (ever_connected_) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    frames_resent_.fetch_add(unacked_.size(), std::memory_order_relaxed);
  }
  ever_connected_ = true;
  return Status::OK();
}

Status ProducerClient::EnsureConnected() {
  if (fd_.valid()) return Status::OK();
  Status last = Status::OK();
  for (size_t attempt = 0; attempt <= options_.retries; ++attempt) {
    if (abort_.load(std::memory_order_relaxed)) {
      sticky_ = Status::IOError("producer client aborted");
      return sticky_;
    }
    if (attempt > 0) {
      // Capped exponential backoff with half-jitter: the deterministic
      // seeded draw keeps test runs reproducible while spreading a herd
      // of producers restarting off the same outage.
      uint64_t delay = options_.backoff_max_ms;
      if (attempt - 1 < 20) {
        delay = std::min<uint64_t>(
            delay, static_cast<uint64_t>(options_.backoff_ms)
                       << (attempt - 1));
      }
      if (delay > 0) {
        delay = delay / 2 + jitter_.UniformInt(delay / 2 + 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
    }
    last = Dial();
    if (last.ok()) return Status::OK();
  }
  sticky_ = Status::IOError(
      "could not reach collector at " + endpoint_.Format() + " after " +
      std::to_string(options_.retries + 1) + " attempts: " + last.message());
  return sticky_;
}

void ProducerClient::QueueBytes(const std::vector<uint8_t>& message) {
  outbuf_.insert(outbuf_.end(), message.begin(), message.end());
}

Status ProducerClient::PumpOnce(bool block) {
  if (!sticky_.ok()) return sticky_;
  if (abort_.load(std::memory_order_relaxed)) {
    sticky_ = Status::IOError("producer client aborted");
    return sticky_;
  }
  PLASTREAM_RETURN_NOT_OK(EnsureConnected());
  if (block) {
    PollSocket(fd_.get(), /*want_write=*/out_written_ < outbuf_.size(),
               kPumpPollMs);
  }

  // Write as much of the queue as the socket takes.
  bool reconnect = false;
  while (out_written_ < outbuf_.size()) {
    size_t n = 0;
    const IoOutcome outcome = WriteSome(
        fd_.get(),
        std::span<const uint8_t>(outbuf_.data() + out_written_,
                                 outbuf_.size() - out_written_),
        &n);
    if (outcome == IoOutcome::kProgress) {
      out_written_ += n;
      bytes_sent_.fetch_add(n, std::memory_order_relaxed);
      socket_writes_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (outcome == IoOutcome::kWouldBlock) break;
    reconnect = true;  // peer closed or socket error
    break;
  }
  if (out_written_ == outbuf_.size()) {
    outbuf_.clear();
    out_written_ = 0;
  }

  // Read whatever ACK/ERROR bytes are waiting.
  if (!reconnect) {
    uint8_t chunk[4096];
    while (true) {
      size_t n = 0;
      const IoOutcome outcome =
          ReadSome(fd_.get(), std::span<uint8_t>(chunk, sizeof(chunk)), &n);
      if (outcome == IoOutcome::kWouldBlock) break;
      if (outcome != IoOutcome::kProgress) {
        reconnect = true;
        break;
      }
      const Status fed =
          incoming_.Feed(std::span<const uint8_t>(chunk, n));
      if (!fed.ok()) {
        sticky_ = fed;
        return sticky_;
      }
      PLASTREAM_RETURN_NOT_OK(HandleIncoming());
    }
  }

  if (reconnect) {
    fd_.Close();
    // Nothing unacked and no queue? The drop cost nothing; redial lazily.
    if (!unacked_.empty() || !outbuf_.empty()) {
      return EnsureConnected();
    }
  }
  return Status::OK();
}

Status ProducerClient::HandleIncoming() {
  while (incoming_.HasFrame()) {
    const std::span<const uint8_t> payload = incoming_.NextFrame();
    PLASTREAM_ASSIGN_OR_RETURN(const NetMessageType type,
                               ParseMessageType(payload));
    switch (type) {
      case NetMessageType::kAck: {
        PLASTREAM_ASSIGN_OR_RETURN(const NetFrameHead ack,
                                   ParseAckMessage(payload));
        acks_received_.fetch_add(1, std::memory_order_relaxed);
        const auto stream = streams_.find(ack.stream_id);
        if (stream != streams_.end()) {
          stream->second.acked_seq =
              std::max(stream->second.acked_seq, ack.seq);
        }
        // Cumulative per stream, and the collector ACKs a connection's
        // messages in the order they were sent, so covered entries sit
        // at the front. After a reconnect a resend is re-ACKed with its
        // stream's whole applied line, which can cover entries behind
        // another stream's; those pop as soon as they reach the front.
        while (!unacked_.empty()) {
          const Pending& front = unacked_.front();
          if (front.seq > streams_.at(front.stream_id).acked_seq) break;
          unacked_bytes_ -= front.message.size();
          unacked_.pop_front();
        }
        break;
      }
      case NetMessageType::kError: {
        PLASTREAM_ASSIGN_OR_RETURN(const std::string reason,
                                   ParseErrorMessage(payload));
        sticky_ = Status::IOError("collector at " + endpoint_.Format() +
                                  " failed the connection: " + reason);
        return sticky_;
      }
      default:
        sticky_ = Status::Corruption(
            "collector sent producer-side message type " +
            std::to_string(static_cast<int>(type)));
        return sticky_;
    }
  }
  return Status::OK();
}

Status ProducerClient::DrainUntil(size_t max_unacked_bytes) {
  while (sticky_.ok() &&
         (unacked_bytes_ > max_unacked_bytes ||
          (max_unacked_bytes == 0 && out_written_ < outbuf_.size()))) {
    PLASTREAM_RETURN_NOT_OK(PumpOnce(/*block=*/true));
  }
  return sticky_;
}

Result<uint32_t> ProducerClient::OpenStream(std::string_view key,
                                            uint16_t dims) {
  if (key.empty()) {
    return Status::InvalidArgument("stream key must be non-empty");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  PLASTREAM_RETURN_NOT_OK(sticky_);
  const uint32_t stream_id = next_stream_id_++;
  StreamState& stream = streams_[stream_id];
  stream.key = std::string(key);
  stream.dims = dims;
  std::vector<uint8_t> message;
  AppendOpenStreamMessage(&message, stream_id, dims, key);
  QueueBytes(message);
  return stream_id;
}

Status ProducerClient::SendFrame(uint32_t stream_id,
                                 std::span<const uint8_t> frame) {
  const std::lock_guard<std::mutex> lock(mutex_);
  PLASTREAM_RETURN_NOT_OK(sticky_);
  const auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return Status::InvalidArgument("unknown stream id " +
                                   std::to_string(stream_id));
  }
  if (it->second.finished) {
    return Status::FailedPrecondition("stream '" + it->second.key +
                                      "' is finished");
  }
  Pending pending;
  pending.stream_id = stream_id;
  pending.seq = ++it->second.next_seq;
  AppendFrameMessage(&pending.message, stream_id, pending.seq, frame);
  unacked_bytes_ += pending.message.size();
  QueueBytes(pending.message);
  unacked_.push_back(std::move(pending));
  frames_sent_.fetch_add(1, std::memory_order_relaxed);

  if (unacked_bytes_ > options_.max_unacked_bytes) {
    // Backpressure: queued plus in-flight bytes passed the window, so
    // write the queue and hold the producer here until the ACK line
    // catches up.
    backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
    return DrainUntil(options_.max_unacked_bytes);
  }
  return Status::OK();
}

Status ProducerClient::FinishStream(uint32_t stream_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  PLASTREAM_RETURN_NOT_OK(sticky_);
  const auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return Status::InvalidArgument("unknown stream id " +
                                   std::to_string(stream_id));
  }
  if (it->second.finished) return Status::OK();
  it->second.finished = true;
  Pending pending;
  pending.stream_id = stream_id;
  pending.seq = ++it->second.next_seq;
  AppendFinishMessage(&pending.message, stream_id, pending.seq);
  unacked_bytes_ += pending.message.size();
  QueueBytes(pending.message);
  unacked_.push_back(std::move(pending));
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ProducerClient::Push() {
  const std::lock_guard<std::mutex> lock(mutex_);
  PLASTREAM_RETURN_NOT_OK(sticky_);
  if (out_written_ == outbuf_.size()) return Status::OK();  // no syscall
  return PumpOnce(/*block=*/false);
}

Status ProducerClient::Flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  PLASTREAM_RETURN_NOT_OK(sticky_);
  return DrainUntil(0);
}

void ProducerClient::DebugDropConnection() {
  const std::lock_guard<std::mutex> lock(mutex_);
  fd_.Close();
}

ProducerClient::Stats ProducerClient::GetStats() const {
  Stats stats;
  stats.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  stats.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  stats.frames_resent = frames_resent_.load(std::memory_order_relaxed);
  stats.reconnects = reconnects_.load(std::memory_order_relaxed);
  stats.backpressure_stalls =
      backpressure_stalls_.load(std::memory_order_relaxed);
  stats.acks_received = acks_received_.load(std::memory_order_relaxed);
  stats.socket_writes = socket_writes_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace plastream
