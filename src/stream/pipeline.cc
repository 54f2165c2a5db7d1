// Copyright (c) 2026 The plastream Authors. MIT license.

#include "stream/pipeline.h"

#include <algorithm>
#include <utility>

namespace plastream {

Pipeline::Builder::Builder()
    : registry_(&FilterRegistry::Global()),
      codec_registry_(&CodecRegistry::Global()),
      storage_registry_(&StorageRegistry::Global()),
      transport_registry_(&TransportRegistry::Global()) {}

Pipeline::Builder& Pipeline::Builder::DefaultSpec(FilterSpec spec) {
  default_spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::DefaultSpec(std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return DefaultSpec(std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::PerKeySpec(std::string_view key,
                                                 FilterSpec spec) {
  per_key_.insert_or_assign(std::string(key), std::move(spec));
  return *this;
}

Pipeline::Builder& Pipeline::Builder::PerKeySpec(std::string_view key,
                                                 std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return PerKeySpec(key, std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::PrefixSpec(std::string_view prefix,
                                                 FilterSpec spec) {
  // Longest prefix first; a repeated prefix overrides in place.
  const auto it = std::find_if(
      prefixes_.begin(), prefixes_.end(),
      [prefix](const auto& entry) { return entry.first == prefix; });
  if (it != prefixes_.end()) {
    it->second = std::move(spec);
    return *this;
  }
  const auto pos = std::find_if(
      prefixes_.begin(), prefixes_.end(), [prefix](const auto& entry) {
        return entry.first.size() < prefix.size();
      });
  prefixes_.emplace(pos, std::string(prefix), std::move(spec));
  return *this;
}

Pipeline::Builder& Pipeline::Builder::PrefixSpec(std::string_view prefix,
                                                 std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return PrefixSpec(prefix, std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::Storage(FilterSpec spec) {
  storage_spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Storage(std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return Storage(std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::WithStorageRegistry(
    const StorageRegistry* registry) {
  storage_registry_ = registry;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Codec(FilterSpec spec) {
  codec_spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Codec(std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return Codec(std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::WithCodecRegistry(
    const CodecRegistry* registry) {
  codec_registry_ = registry;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Transport(FilterSpec spec) {
  transport_spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Transport(std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return Transport(std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::WithTransportRegistry(
    const TransportRegistry* registry) {
  transport_registry_ = registry;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Ingest(FilterSpec spec) {
  ingest_spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Ingest(std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return Ingest(std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::Shards(size_t n) {
  shards_ = n;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::WithRegistry(
    const FilterRegistry* registry) {
  registry_ = registry;
  return *this;
}

Result<std::unique_ptr<Pipeline>> Pipeline::Builder::Build() {
  PLASTREAM_RETURN_NOT_OK(deferred_);
  if (registry_ == nullptr) {
    return Status::InvalidArgument("Pipeline registry is null");
  }
  if (codec_registry_ == nullptr) {
    return Status::InvalidArgument("Pipeline codec registry is null");
  }
  if (storage_registry_ == nullptr) {
    return Status::InvalidArgument("Pipeline storage registry is null");
  }
  if (transport_registry_ == nullptr) {
    return Status::InvalidArgument("Pipeline transport registry is null");
  }
  if (!default_spec_.has_value() && per_key_.empty() && prefixes_.empty()) {
    return Status::InvalidArgument(
        "Pipeline has no filter specs: call DefaultSpec, PerKeySpec or "
        "PrefixSpec");
  }
  if (shards_ == 0) {
    return Status::InvalidArgument("Pipeline needs Shards >= 1");
  }
  // Fail at build time, not first append: every configured family must be
  // registered and every configured spec must produce a filter.
  if (default_spec_.has_value()) {
    PLASTREAM_RETURN_NOT_OK(
        registry_->MakeFilter(*default_spec_, nullptr).status());
  }
  for (const auto& [key, spec] : per_key_) {
    PLASTREAM_RETURN_NOT_OK(registry_->MakeFilter(spec, nullptr).status());
  }
  for (const auto& [prefix, spec] : prefixes_) {
    PLASTREAM_RETURN_NOT_OK(registry_->MakeFilter(spec, nullptr).status());
  }
  // Same early-failure contract for the codec: an unknown codec or a bad
  // codec parameter is a Build()-time error, not a first-append surprise.
  FilterSpec codec_spec;
  codec_spec.family = "frame";
  if (codec_spec_.has_value()) codec_spec = *codec_spec_;
  PLASTREAM_RETURN_NOT_OK(codec_registry_->MakeCodec(codec_spec).status());
  // The transport is built AND connected here: an unknown family, a bad
  // endpoint spec or an unreachable collector all fail the build. The
  // default "inproc" transport keeps everything in-process.
  FilterSpec transport_spec;
  transport_spec.family = "inproc";
  if (transport_spec_.has_value()) transport_spec = *transport_spec_;
  PLASTREAM_ASSIGN_OR_RETURN(
      auto transport, transport_registry_->MakeTransport(transport_spec));
  if (transport->remote() && storage_spec_.has_value() &&
      storage_spec_->family != "none") {
    return Status::InvalidArgument(
        "Storage('" + storage_spec_->Format() +
        "') conflicts with remote transport '" + transport_spec.Format() +
        "': the collector owns the archives — configure storage there, or "
        "pass Storage(\"none\")");
  }
  PLASTREAM_RETURN_NOT_OK(transport->Connect(codec_spec.Format()));
  // The storage backend is built AND opened here: an unknown backend, a
  // bad parameter, an unwritable path or an unrecoverable archive all
  // fail the build. File backends run crash recovery inside Open().
  // With a remote transport there is nothing to archive locally.
  FilterSpec storage_spec;
  storage_spec.family = transport->remote() ? "none" : "memory";
  if (storage_spec_.has_value()) storage_spec = *storage_spec_;
  PLASTREAM_ASSIGN_OR_RETURN(auto storage,
                             storage_registry_->MakeBackend(storage_spec));
  PLASTREAM_RETURN_NOT_OK(storage->Open());
  ShardedFilterBank::Options bank_options;
  bank_options.shards = shards_;
  if (ingest_spec_.has_value()) {
    // An unknown policy family, a bad parameter or an inconsistent
    // combination (dup=last without a reorder buffer) fails the build.
    PLASTREAM_ASSIGN_OR_RETURN(bank_options.ingest,
                               IngestPolicy::FromSpec(*ingest_spec_));
  }
  return std::unique_ptr<Pipeline>(new Pipeline(
      std::move(default_spec_), std::move(per_key_), std::move(prefixes_),
      registry_, std::move(codec_spec), codec_registry_,
      std::move(storage_spec), std::move(storage),
      std::move(transport_spec), std::move(transport),
      std::move(bank_options)));
}

Pipeline::Pipeline(std::optional<FilterSpec> default_spec,
                   std::map<std::string, FilterSpec, std::less<>> per_key,
                   std::vector<std::pair<std::string, FilterSpec>> prefixes,
                   const FilterRegistry* registry, FilterSpec codec_spec,
                   const CodecRegistry* codec_registry,
                   FilterSpec storage_spec,
                   std::unique_ptr<StorageBackend> storage,
                   FilterSpec transport_spec,
                   std::unique_ptr<class Transport> transport,
                   ShardedFilterBank::Options bank_options)
    : default_spec_(std::move(default_spec)),
      per_key_(std::move(per_key)),
      prefixes_(std::move(prefixes)),
      registry_(registry),
      codec_spec_(std::move(codec_spec)),
      codec_registry_(codec_registry),
      storage_spec_(std::move(storage_spec)),
      storage_(std::move(storage)),
      transport_spec_(std::move(transport_spec)),
      transport_(std::move(transport)),
      ingest_policy_(bank_options.ingest) {
  stream_shards_.reserve(bank_options.shards);
  for (size_t i = 0; i < bank_options.shards; ++i) {
    stream_shards_.push_back(std::make_unique<StreamShard>());
  }
  // The factory runs on the producer thread that appends the key's first
  // point; only the key's own stream-shard map locks for the insertion —
  // afterwards the new Stream is touched solely by its shard.
  auto factory =
      [this](std::string_view key) -> Result<std::unique_ptr<Filter>> {
    PLASTREAM_ASSIGN_OR_RETURN(const FilterSpec spec, SpecFor(key));
    StreamShard& shard = *stream_shards_[bank_->ShardOf(key)];
    Stream* stream;
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      stream = &shard.streams[std::string(key)];
    }
    PLASTREAM_ASSIGN_OR_RETURN(stream->codec,
                               codec_registry_->MakeCodec(codec_spec_));
    stream->transmitter.emplace(&stream->channel, stream->codec.get());
    if (transport_->remote()) {
      // Frames leave through the transport; the collector decodes and
      // archives. DrainKey forwards the channel into the link.
      PLASTREAM_ASSIGN_OR_RETURN(
          stream->link,
          transport_->OpenLink(
              key, static_cast<uint16_t>(spec.options.epsilon.size())));
    } else {
      // The backend hands back this stream's archive handle (or nullptr
      // for "none"); a file backend that recovered the key returns the
      // handle with every pre-crash segment already queryable. The
      // receiver archives each segment as it decodes it.
      PLASTREAM_ASSIGN_OR_RETURN(
          stream->storage,
          storage_->OpenStream(key, spec.options.epsilon.size()));
      stream->receiver.emplace(stream->codec.get(), stream->storage);
    }
    return registry_->MakeFilter(spec, &*stream->transmitter);
  };
  bank_options.post_append = [this](std::string_view key) {
    return DrainKey(key);
  };
  bank_ = ShardedFilterBank::Create(std::move(factory),
                                    std::move(bank_options))
              .value();
}

Result<FilterSpec> Pipeline::SpecFor(std::string_view key) const {
  const auto it = per_key_.find(key);
  if (it != per_key_.end()) return it->second;
  // prefixes_ is ordered longest-first, so the first hit is the most
  // specific wildcard.
  for (const auto& [prefix, spec] : prefixes_) {
    if (key.starts_with(prefix)) return spec;
  }
  if (default_spec_.has_value()) return *default_spec_;
  return Status::NotFound("no filter spec for stream '" + std::string(key) +
                          "' and no default spec");
}

Status Pipeline::Append(std::string_view key, const DataPoint& point) {
  // Filtering, wire transport and archiving all happen inside the bank's
  // post-append hook (DrainKey), on the shard that owns the key.
  return bank_->Append(key, point);
}

Status Pipeline::Append(std::string_view key, double t, double value) {
  return Append(key, DataPoint::Scalar(t, value));
}

Status Pipeline::AppendBatch(std::string_view key,
                             std::span<const DataPoint> points) {
  // The bank batches the shard lock/queue hop and runs the post-append
  // hook (DrainKey) once for the whole key-group.
  return bank_->AppendBatch(key, points);
}

Status Pipeline::AppendBatch(std::string_view key, std::span<const double> ts,
                             std::span<const double> vals) {
  return bank_->AppendBatch(key, ts, vals);
}

Status Pipeline::DrainKey(std::string_view key) {
  StreamShard& shard = *stream_shards_[bank_->ShardOf(key)];
  Stream* stream;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.streams.find(key);
    if (it == shard.streams.end()) {
      return Status::Internal("stream state missing for '" + std::string(key) +
                              "'");
    }
    stream = &it->second;
  }
  // Over a remote transport Drain only queues; one Push per call hands
  // this call's frames to the wire before Append returns.
  const bool queued = stream->link != nullptr && stream->channel.queued() > 0;
  PLASTREAM_RETURN_NOT_OK(Drain(*stream));
  return queued ? transport_->Push() : Status::OK();
}

Status Pipeline::Flush() {
  // Force every stream's codec to emit what it still buffers and drain it
  // through the receiver into the archive. Callers hold the between-phases
  // contract (no concurrent Append), so touching stream state here is
  // safe.
  for (auto& shard : stream_shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& [key, stream] : shard->streams) {
      PLASTREAM_RETURN_NOT_OK(stream.transmitter->Flush());
      PLASTREAM_RETURN_NOT_OK(Drain(stream));
    }
  }
  // Durability point: everything archived so far reaches the backend's
  // medium — and, over a remote transport, every stream's queued frames
  // leave in one write and are acknowledged by the collector — before
  // Flush returns.
  PLASTREAM_RETURN_NOT_OK(transport_->Flush());
  return storage_->Flush();
}

Status Pipeline::Drain(Stream& stream) {
  PLASTREAM_RETURN_NOT_OK(stream.transmitter->status());
  if (stream.link != nullptr) {
    // Remote: every frame is queued on the link; the caller's Push or
    // Flush writes it. A full window blocks here (backpressure).
    while (std::optional<std::vector<uint8_t>> frame = stream.channel.Pop()) {
      PLASTREAM_RETURN_NOT_OK(stream.link->SendFrame(*frame));
      stream.channel.Recycle(std::move(*frame));
    }
    return Status::OK();
  }
  return stream.receiver->Poll(&stream.channel);
}

Status Pipeline::Finish() {
  if (finished_) return Status::OK();
  // Finishes every filter, pushing each stream's final segments through
  // its transmitter; the codec flush then emits anything a batching codec
  // still buffers.
  PLASTREAM_RETURN_NOT_OK(bank_->FinishAll());
  for (auto& shard : stream_shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& [key, stream] : shard->streams) {
      PLASTREAM_RETURN_NOT_OK(stream.transmitter->Flush());
      PLASTREAM_RETURN_NOT_OK(Drain(stream));
      PLASTREAM_RETURN_NOT_OK(stream.link != nullptr
                                  ? stream.link->Finish()
                                  : stream.receiver->FinishStream());
    }
  }
  finished_ = true;
  // Wait for the collector's acknowledgment of every frame (remote), then
  // finalize the archive medium; the in-memory stores stay queryable.
  PLASTREAM_RETURN_NOT_OK(transport_->Flush());
  return storage_->Close();
}

std::vector<std::string> Pipeline::Keys() const {
  // Streams recovered from a pre-existing archive exist in the backend
  // before (and whether or not) anything re-appends to them; the key
  // list is the union of both sides.
  std::vector<std::string> keys = bank_->Keys();
  for (std::string& key : storage_->StreamKeys()) {
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

const Pipeline::Stream* Pipeline::Find(std::string_view key) const {
  const StreamShard& shard = *stream_shards_[bank_->ShardOf(key)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.streams.find(key);
  return it == shard.streams.end() ? nullptr : &it->second;
}

Result<std::vector<Segment>> Pipeline::Segments(std::string_view key) const {
  if (transport_->remote()) {
    return Status::FailedPrecondition(
        "segments live on the collector with a remote transport ('" +
        transport_spec_.Format() + "'); query the CollectorServer");
  }
  const Stream* stream = Find(key);
  if (stream == nullptr) {
    return Status::NotFound("unknown stream '" + std::string(key) + "'");
  }
  return stream->receiver->segments();
}

Result<PiecewiseLinearFunction> Pipeline::Reconstruction(
    std::string_view key) const {
  if (transport_->remote()) {
    return Status::FailedPrecondition(
        "segments live on the collector with a remote transport ('" +
        transport_spec_.Format() + "'); query the CollectorServer");
  }
  const Stream* stream = Find(key);
  if (stream == nullptr) {
    return Status::NotFound("unknown stream '" + std::string(key) + "'");
  }
  return stream->receiver->Reconstruction();
}

const SegmentStore* Pipeline::Store(std::string_view key) const {
  const Stream* stream = Find(key);
  if (stream != nullptr) {
    return stream->storage == nullptr ? nullptr : stream->storage->store();
  }
  // Not live this run — maybe recovered from a pre-existing archive.
  const StreamStorage* recovered = storage_->FindStream(key);
  return recovered == nullptr ? nullptr : recovered->store();
}

const Filter* Pipeline::GetFilter(std::string_view key) const {
  return bank_->GetFilter(key);
}

Result<Pipeline::StreamStats> Pipeline::StatsFor(std::string_view key) const {
  const Stream* stream = Find(key);
  if (stream == nullptr) {
    // A recovered-but-untouched stream has archive stats and nothing
    // else (no filter, no transport this run).
    if (const StreamStorage* recovered = storage_->FindStream(key);
        recovered != nullptr) {
      StreamStats stats;
      stats.segments_archived = recovered->store()->segment_count();
      stats.storage_bytes = static_cast<size_t>(recovered->bytes_written());
      return stats;
    }
    return Status::NotFound("unknown stream '" + std::string(key) + "'");
  }
  StreamStats stats;
  const Filter* filter = bank_->GetFilter(key);
  if (filter != nullptr) stats.points = filter->points_seen();
  // Remote streams have no local receiver; their segments are counted by
  // the collector.
  if (stream->receiver.has_value()) {
    stats.segments = stream->receiver->segments().size();
  }
  stats.records_sent = stream->transmitter->records_sent();
  stats.frames_sent = stream->channel.frames_sent();
  stats.bytes_sent = stream->channel.bytes_sent();
  if (stream->storage != nullptr) {
    stats.segments_archived = stream->storage->store()->segment_count();
    stats.storage_bytes =
        static_cast<size_t>(stream->storage->bytes_written());
  }
  return stats;
}

Pipeline::PipelineStats Pipeline::Stats() const {
  PipelineStats stats;
  const FilterBank::BankStats bank = bank_->Stats();
  stats.points = bank.points;
  // One lock at a time (a stream-shard mutex is never nested with a bank
  // shard mutex): snapshot the keys, then look each side up independently.
  for (const std::string& key : Keys()) {
    KeyStats key_stats;
    key_stats.key = key;
    const Stream* stream = Find(key);
    if (stream != nullptr) {
      if (stream->receiver.has_value()) {
        stats.segments += stream->receiver->segments().size();
      }
      stats.records_sent += stream->transmitter->records_sent();
      stats.frames_sent += stream->channel.frames_sent();
      stats.bytes_sent += stream->channel.bytes_sent();
      const Filter* filter = bank_->GetFilter(key);
      if (filter != nullptr) {
        stats.bytes_raw += filter->points_seen() *
                           (filter->dimensions() + 1) * sizeof(double);
      }
      if (stream->storage != nullptr) {
        key_stats.segments = stream->storage->store()->segment_count();
        key_stats.storage_bytes =
            static_cast<size_t>(stream->storage->bytes_written());
      }
    } else if (const StreamStorage* recovered = storage_->FindStream(key);
               recovered != nullptr) {
      // Recovered from a pre-existing archive, untouched this run.
      key_stats.segments = recovered->store()->segment_count();
      key_stats.storage_bytes =
          static_cast<size_t>(recovered->bytes_written());
    }
    stats.per_key.push_back(std::move(key_stats));
  }
  stats.streams = stats.per_key.size();
  // Backend-level total (includes framing a stream cannot be billed for,
  // e.g. the archive header).
  stats.storage_bytes = static_cast<size_t>(storage_->bytes_written());
  stats.transport = transport_->GetStats();
  stats.ingest = bank_->IngestStats();
  stats.storage_health = storage_->Health();
  return stats;
}

Pipeline::HealthSnapshot Pipeline::Health() const {
  HealthSnapshot health;
  health.storage = storage_->Health();
  health.state = health.storage.state;
  health.cause = health.storage.cause;
  return health;
}

std::vector<FilterCounter> Pipeline::AggregateCounters() const {
  return bank_->AggregateCounters();
}

}  // namespace plastream
