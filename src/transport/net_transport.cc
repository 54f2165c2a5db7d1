// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The "tcp" and "uds" transport families: a Transport facade over one
// ProducerClient connection. Every pipeline stream becomes a protocol
// stream on that connection; reconnect-and-resume and backpressure are
// the client's (see producer_client.h).

#include <memory>
#include <utility>

#include "transport/producer_client.h"
#include "transport/transport.h"

namespace plastream {

namespace {

class NetTransport;

// One pipeline stream on the shared connection.
class NetTransportLink final : public TransportLink {
 public:
  NetTransportLink(ProducerClient* client, uint32_t stream_id)
      : client_(client), stream_id_(stream_id) {}

  Status SendFrame(std::span<const uint8_t> frame) override {
    return client_->SendFrame(stream_id_, frame);
  }

  Status Finish() override { return client_->FinishStream(stream_id_); }

 private:
  ProducerClient* client_;  // borrowed from the owning NetTransport
  uint32_t stream_id_;
};

class NetTransport final : public Transport {
 public:
  explicit NetTransport(FilterSpec spec, NetEndpoint endpoint)
      : spec_(std::move(spec)), endpoint_(std::move(endpoint)) {}

  bool remote() const override { return true; }

  Status Connect(std::string_view codec_spec) override {
    if (client_ != nullptr) {
      return Status::FailedPrecondition("transport is already connected");
    }
    PLASTREAM_ASSIGN_OR_RETURN(
        client_, ProducerClient::Connect(spec_.Format(),
                                         std::string(codec_spec)));
    // Send the hello now: stream openings and frames only leave with a
    // Push or Flush, and the first may come later than the collector's
    // handshake deadline allows.
    return client_->Push();
  }

  Result<std::unique_ptr<TransportLink>> OpenLink(std::string_view key,
                                                  uint16_t dims) override {
    if (client_ == nullptr) {
      return Status::FailedPrecondition("transport is not connected");
    }
    PLASTREAM_ASSIGN_OR_RETURN(const uint32_t stream_id,
                               client_->OpenStream(key, dims));
    return std::unique_ptr<TransportLink>(
        new NetTransportLink(client_.get(), stream_id));
  }

  Status Push() override {
    if (client_ == nullptr) return Status::OK();
    return client_->Push();
  }

  Status Flush() override {
    if (client_ == nullptr) return Status::OK();
    return client_->Flush();
  }

  TransportStats GetStats() const override {
    TransportStats stats;
    if (client_ == nullptr) return stats;
    const ProducerClient::Stats client_stats = client_->GetStats();
    stats.bytes_sent = client_stats.bytes_sent;
    stats.frames_sent = client_stats.frames_sent;
    stats.frames_resent = client_stats.frames_resent;
    stats.reconnects = client_stats.reconnects;
    stats.backpressure_stalls = client_stats.backpressure_stalls;
    stats.socket_writes = client_stats.socket_writes;
    return stats;
  }

  std::string_view name() const override {
    return endpoint_.kind == NetEndpoint::Kind::kTcp ? "tcp" : "uds";
  }

 private:
  const FilterSpec spec_;       // verbatim, incl. tuning params
  const NetEndpoint endpoint_;
  std::unique_ptr<ProducerClient> client_;  // null until Connect()
};

Result<std::unique_ptr<Transport>> MakeNetTransport(const FilterSpec& spec) {
  // Validates the endpoint and the tuning params at Build() time; the
  // socket is dialed later, at Connect().
  PLASTREAM_ASSIGN_OR_RETURN(NetEndpoint endpoint, ParseNetEndpoint(spec));
  return std::unique_ptr<Transport>(
      new NetTransport(spec, std::move(endpoint)));
}

}  // namespace

void RegisterNetTransports(TransportRegistry& registry) {
  for (const char* family : {"tcp", "uds"}) {
    const Status status = registry.Register(family, MakeNetTransport);
    (void)status;  // double registration is a startup bug
  }
}

}  // namespace plastream
