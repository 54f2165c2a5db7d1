// Copyright (c) 2026 The plastream Authors. MIT license.

#include "replay.h"

#include <cstdio>
#include <fstream>

#include "core/filter_registry.h"
#include "core/filter_spec.h"

namespace perfbench {

using plastream::DataPoint;
using plastream::FilterSpec;

namespace {

constexpr const char* kLayerNames[kLayerCount] = {
    "commit",
    "panel",
    "stream.ingest_guard.Admit",
    "core.filter.AppendBatch",
    "stream.codec.Encode",
    "stream.codec.Decode",
    "storage.StreamStorage.Append",
    "storage.StorageBackend.Flush",
    "transport.producer.SendFrame",
    "transport.producer.Flush",
    "core.segment_store.Aggregate",
    "core.segment_store.ValueAt",
};

}  // namespace

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(size_t capacity) { spans_.reserve(capacity); }

Tracer::Token Tracer::Begin(Layer layer, uint32_t parent, uint64_t commit) {
  Token token{layer, kNoParent, 0};
  if (spans_.size() < spans_.capacity()) {
    token.index = static_cast<uint32_t>(spans_.size());
    spans_.push_back({layer, parent, commit, 0, 0});
  } else {
    ++dropped_;
  }
  token.start = NowNs();
  return token;
}

int64_t Tracer::End(const Token& token) {
  const int64_t end = NowNs();
  const int64_t duration = end - token.start;
  if (token.index != kNoParent) {
    spans_[token.index].start = token.start;
    spans_[token.index].end = end;
  }
  total_ns_[token.layer] += duration;
  durations_[token.layer].push_back(static_cast<double>(duration));
  return duration;
}

void Tracer::ResetTotals() {
  for (size_t i = 0; i < kLayerCount; ++i) {
    total_ns_[i] = 0;
    durations_[i].clear();
  }
}

void Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "name,start_ns,end_ns,parent,commit\n";
  for (const Span& s : spans_) {
    out << kLayerNames[s.layer] << ',' << s.start << ',' << s.end << ','
        << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
        << ',' << s.commit << '\n';
  }
  if (dropped_ > 0) {
    std::fprintf(stderr, "perfbench: span buffer full, %zu spans not written\n",
                 dropped_);
  }
}

// --- Replay ------------------------------------------------------------------

void Replay::EventSink::OnSegment(const plastream::Segment& segment) {
  segments_.push_back(segment);
  is_line_.push_back(false);
}

void Replay::EventSink::OnProvisionalLine(
    const plastream::ProvisionalLine& line) {
  lines_.push_back(line);
  is_line_.push_back(true);
}

size_t Replay::EventSink::Drain(plastream::Transmitter& tx) {
  size_t s = 0;
  size_t l = 0;
  for (const bool line : is_line_) {
    if (line) {
      tx.OnProvisionalLine(lines_[l++]);
    } else {
      tx.OnSegment(segments_[s++]);
    }
  }
  segments_.clear();
  lines_.clear();
  is_line_.clear();
  return s;
}

std::unique_ptr<Replay> Replay::Open(
    const WorkloadConfig& config, const std::string& archive_path,
    std::unique_ptr<plastream::StorageBackend> backend, Tracer* tracer) {
  std::unique_ptr<Replay> r(new Replay(config, tracer));
  const FilterSpec spec =
      Must(FilterSpec::Parse(config.filter_spec), "replay filter spec");
  const plastream::IngestPolicy policy =
      Must(plastream::IngestPolicy::Parse(config.ingest), "replay ingest");
  const plastream::StorageBackend* view = nullptr;
  if (config.remote) {
    plastream::CollectorServer::Options options;
    options.storage_spec = FileStorageSpec(archive_path);
    r->server_ = Must(plastream::CollectorServer::Listen(
                          "tcp(host=127.0.0.1,port=0)", options),
                      "replay CollectorServer::Listen");
    Replay* raw = r.get();
    r->serving_ =
        std::thread([raw] { raw->serve_status_ = raw->server_->Serve(); });
    const std::string codec =
        Must(FilterSpec::Parse(config.codec), "replay codec spec").Format();
    for (size_t p = 0; p < config.producers; ++p) {
      r->clients_.push_back(Must(
          plastream::ProducerClient::Connect(r->server_->endpoint(), codec),
          "replay ProducerClient::Connect"));
    }
    view = &r->server_->storage();
  } else {
    r->backend_ = std::move(backend);
    view = r->backend_.get();
  }
  r->keys_ = std::vector<KeyStack>(config.keys);  // never reallocated
  const size_t per_producer = config.keys / config.producers;
  for (size_t k = 0; k < config.keys; ++k) {
    KeyStack& s = r->keys_[k];
    const std::string key = config.KeyName(k);
    s.filter = Must(plastream::MakeFilter(spec, &s.events), "replay filter");
    if (!policy.pass_through()) {
      s.admitted = std::make_unique<AdmittedRecorder>(spec.options);
      s.guard =
          std::make_unique<plastream::IngestGuard>(policy, s.admitted.get());
    }
    s.codec = Must(plastream::MakeWireCodec(config.codec), "replay codec");
    s.tx.emplace(&s.channel, s.codec.get());
    if (config.remote) {
      s.client = r->clients_[k / per_producer].get();
      s.stream_id = Must(s.client->OpenStream(key, config.dims),
                         "replay OpenStream");
      s.side_decoder =
          Must(plastream::MakeWireCodec(config.codec), "replay decoder");
    } else {
      s.rx.emplace(s.codec.get());
      s.storage = Must(r->backend_->OpenStream(key, config.dims),
                       "replay storage OpenStream");
    }
    const plastream::StreamStorage* stream = view->FindStream(key);
    if (stream == nullptr) {
      Must(Status::NotFound("replay archive has no stream '" + key + "'"),
           "Replay::Open");
    }
    r->stores_.push_back(stream->store());
  }
  if (config.remote) {
    // The collector learns each stream from its OPEN message; wait for
    // the handshake so the first timed commit does not pay for it.
    for (auto& client : r->clients_) r->Check(client->Flush());
  }
  return r;
}

Replay::~Replay() {
  clients_.clear();
  if (server_ != nullptr) {
    server_->Shutdown();
    serving_.join();
  }
}

void Replay::Check(const Status& status) {
  if (status.ok()) return;
  if (failed_ == 0) {
    std::fprintf(stderr, "perfbench: replay: %s\n", status.ToString().c_str());
  }
  ++failed_;
}

void Replay::Commit(const CommitInput& input, uint64_t commit_id) {
  const Tracer::Token commit = tracer_->Begin(kCommit, Tracer::kNoParent,
                                              commit_id);
  if (config_.remote) {
    CommitRemote(input, commit_id, commit.index);
  } else {
    CommitLocal(input, commit_id, commit.index);
  }
  tracer_->End(commit);
  ++counts_.commits;
  if (!config_.remote) return;
  // Side pass: decode exactly the frames the collector received, in
  // order, with a decode-only codec chain per key.
  const Tracer::Token decode =
      tracer_->Begin(kDecode, Tracer::kNoParent, commit_id);
  for (size_t i = 0; i < frames_.size(); ++i) {
    decoded_.clear();
    Check(keys_[frame_streams_[i]].side_decoder->Decode(frames_[i],
                                                        &decoded_));
    counts_.records_decoded += decoded_.size();
  }
  tracer_->End(decode);
  for (size_t i = 0; i < frames_.size(); ++i) {
    keys_[frame_streams_[i]].channel.Recycle(std::move(frames_[i]));
  }
}

void Replay::CommitLocal(const CommitInput& input, uint64_t commit_id,
                         uint32_t parent) {
  Tracer& t = *tracer_;
  Tracer::Token span = t.Begin(kFilter, parent, commit_id);
  for (size_t k = 0; k < keys_.size(); ++k) {
    Check(keys_[k].filter->AppendBatch(input.keys[k].ts, input.keys[k].vals));
  }
  t.End(span);
  counts_.arrived += input.points;
  counts_.admitted += input.points;

  span = t.Begin(kEncode, parent, commit_id);
  for (KeyStack& s : keys_) {
    counts_.segments += s.events.Drain(*s.tx);
    Check(s.tx->Flush());
  }
  t.End(span);

  span = t.Begin(kDecode, parent, commit_id);
  for (KeyStack& s : keys_) Check(s.rx->Poll(&s.channel));
  t.End(span);

  span = t.Begin(kStorageAppend, parent, commit_id);
  for (KeyStack& s : keys_) {
    const std::vector<plastream::Segment>& segments = s.rx->segments();
    for (; s.archived < segments.size(); ++s.archived) {
      Check(s.storage->Append(segments[s.archived]));
      ++counts_.segments_appended;
    }
  }
  t.End(span);

  span = t.Begin(kStorageFlush, parent, commit_id);
  Check(backend_->Flush());
  t.End(span);
}

void Replay::CommitRemote(const CommitInput& input, uint64_t commit_id,
                          uint32_t parent) {
  Tracer& t = *tracer_;
  const size_t per_producer = keys_.size() / clients_.size();
  frames_.clear();
  frame_streams_.clear();
  DataPoint point;
  point.x.resize(config_.dims);
  for (size_t p = 0; p < clients_.size(); ++p) {
    const size_t k0 = p * per_producer;
    const size_t k1 = k0 + per_producer;
    Tracer::Token span = t.Begin(kGuard, parent, commit_id);
    for (size_t k = k0; k < k1; ++k) {
      const CommitInput::Key& key = input.keys[k];
      const size_t n = key.ts.size();
      for (size_t j = 0; j < n; ++j) {
        point.t = key.ts[j];
        for (size_t i = 0; i < config_.dims; ++i) {
          point.x[i] = key.vals[i * n + j];
        }
        Check(keys_[k].guard->Admit(point));
      }
      counts_.arrived += n;
    }
    t.End(span);

    span = t.Begin(kFilter, parent, commit_id);
    for (size_t k = k0; k < k1; ++k) {
      std::vector<DataPoint>& admitted = keys_[k].admitted->points;
      Check(keys_[k].filter->AppendBatch(admitted));
      counts_.admitted += admitted.size();
      admitted.clear();
    }
    t.End(span);

    span = t.Begin(kEncode, parent, commit_id);
    for (size_t k = k0; k < k1; ++k) {
      counts_.segments += keys_[k].events.Drain(*keys_[k].tx);
      Check(keys_[k].tx->Flush());
    }
    t.End(span);

    const size_t first = frames_.size();
    for (size_t k = k0; k < k1; ++k) {
      while (auto frame = keys_[k].channel.Pop()) {
        frames_.push_back(std::move(*frame));
        frame_streams_.push_back(static_cast<uint32_t>(k));
      }
    }
    span = t.Begin(kSend, parent, commit_id);
    for (size_t i = first; i < frames_.size(); ++i) {
      const KeyStack& s = keys_[frame_streams_[i]];
      Check(s.client->SendFrame(s.stream_id, frames_[i]));
    }
    t.End(span);
  }
  for (auto& client : clients_) {
    const Tracer::Token span = t.Begin(kAckWait, parent, commit_id);
    Check(client->Flush());
    t.End(span);
  }
}

void Replay::ResetCounts() {
  counts_ = ReplayCounts{};
  for (KeyStack& s : keys_) {
    // Channel and transmitter counters are cumulative; fold the current
    // values into negative offsets so counts() reads from here on.
    counts_.records_encoded -= s.tx->records_sent();
    counts_.wire_bytes -= s.channel.bytes_sent();
    counts_.frames -= s.channel.frames_sent();
    if (s.rx) counts_.records_decoded -= s.rx->records_received();
  }
  counts_.storage_bytes -= StorageBytes();
  if (server_ != nullptr) {
    collector_bytes_base_ = server_->GetStats().bytes_received;
    collector_cpu_base_ = ThreadCpuNs(serving_.native_handle());
  }
}

ReplayCounts Replay::counts() const {
  ReplayCounts c = counts_;
  for (const KeyStack& s : keys_) {
    c.records_encoded += s.tx->records_sent();
    c.wire_bytes += s.channel.bytes_sent();
    c.frames += s.channel.frames_sent();
    if (s.rx) c.records_decoded += s.rx->records_received();
  }
  c.storage_bytes += StorageBytes();
  return c;
}

plastream::IngestGuardStats Replay::GuardStats() const {
  plastream::IngestGuardStats stats;
  for (const KeyStack& s : keys_) {
    if (s.guard) stats += s.guard->stats();
  }
  return stats;
}

plastream::ProducerClient::Stats Replay::ProducerStats() const {
  plastream::ProducerClient::Stats total;
  for (const auto& client : clients_) {
    const plastream::ProducerClient::Stats s = client->GetStats();
    total.bytes_sent += s.bytes_sent;
    total.frames_sent += s.frames_sent;
    total.frames_resent += s.frames_resent;
    total.reconnects += s.reconnects;
    total.backpressure_stalls += s.backpressure_stalls;
    total.acks_received += s.acks_received;
  }
  return total;
}

uint64_t Replay::StorageBytes() const {
  return server_ != nullptr ? server_->storage().bytes_written()
                            : backend_->bytes_written();
}

int64_t Replay::CollectorCpuNs() {
  return server_ != nullptr
             ? ThreadCpuNs(serving_.native_handle()) - collector_cpu_base_
             : 0;
}

uint64_t Replay::CollectorBytesRead() const {
  return server_ != nullptr
             ? server_->GetStats().bytes_received - collector_bytes_base_
             : 0;
}

}  // namespace perfbench
