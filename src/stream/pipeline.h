// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Pipeline: the five-line collector. One object composes the whole stream
// stack — a ShardedFilterBank routing keyed points into spec-built
// filters, a Transmitter/Channel/Receiver round-trip per stream (binary
// codec, byte accounting, corruption detection), and a per-stream
// SegmentStore archive, fed by the receiver as it decodes, answering
// error-bounded range queries:
//
//   auto pipeline = Pipeline::Builder()
//                       .DefaultSpec("slide(eps=0.05)")
//                       .PerKeySpec("db-1.iops", "swing(eps=2,max_lag=64)")
//                       .Codec("batch(n=32)")          // wire format by spec
//                       .Storage("file(path=segments.plar)")  // durable log
//                       .Build().value();
//   pipeline->Append("web-1.cpu", t, value);   // ... stream points in ...
//   pipeline->Finish();
//   auto mean = pipeline->Store("web-1.cpu")->Aggregate(t0, t1, 0)->mean;
//
// Every answer served from the store is within the stream's ε of the raw
// signal — the paper's precision contract carried end to end.

#ifndef PLASTREAM_STREAM_PIPELINE_H_
#define PLASTREAM_STREAM_PIPELINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/filter_registry.h"
#include "core/filter_spec.h"
#include "core/reconstruction.h"
#include "core/segment_store.h"
#include "storage/storage_backend.h"
#include "stream/channel.h"
#include "stream/receiver.h"
#include "stream/sharded_filter_bank.h"
#include "stream/transmitter.h"
#include "stream/wire_codec.h"
#include "transport/transport.h"

namespace plastream {

/// A keyed collector: spec-configured filters in front, wire transport in
/// the middle, queryable segment archives behind.
///
/// Thread-safety: with Builder::Shards(n) the pipeline accepts concurrent
/// Append calls from multiple producer threads — appends to keys on
/// different shards run in parallel, and each key's whole path (filter,
/// wire codec, archive) stays serialized on its shard. Points of one key
/// must still arrive in time order, so concurrent producers should own
/// disjoint key sets. Flush(), Finish() and the read-side accessors must
/// not race with Append; call them after producers have stopped. The
/// default single-shard pipeline adds one uncontended lock per append.
class Pipeline {
 public:
  /// Configures and constructs a Pipeline.
  class Builder {
   public:
    /// A builder targeting the global filter registry.
    Builder();

    /// Spec used for every key without a PerKeySpec override.
    Builder& DefaultSpec(FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& DefaultSpec(std::string_view spec_text);

    /// Spec override for one stream key.
    Builder& PerKeySpec(std::string_view key, FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& PerKeySpec(std::string_view key, std::string_view spec_text);

    /// Spec for every key starting with `prefix` — the `web-*`
    /// wildcard of config files. An exact PerKeySpec beats any prefix;
    /// among prefixes the longest match wins; DefaultSpec is the
    /// fallback.
    Builder& PrefixSpec(std::string_view prefix, FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& PrefixSpec(std::string_view prefix, std::string_view spec_text);

    /// Storage backend for the per-stream segment archives, as a
    /// storage spec (e.g. "memory" — the default, "none",
    /// "file(path=segments.plar,codec=delta,sync=flush)"). The backend
    /// is created and Open()ed at Build(), so an unwritable archive
    /// path or a torn file that cannot be recovered fails the build,
    /// not the first append.
    Builder& Storage(FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& Storage(std::string_view spec_text);

    /// Uses `registry` for storage specs instead of
    /// StorageRegistry::Global(); `registry` is borrowed and must
    /// outlive the builder's Build() call.
    Builder& WithStorageRegistry(const StorageRegistry* registry);

    /// Loads builder configuration from the INI-style file at `path`
    /// (see FromConfigString for the format). Read or parse failures
    /// surface at Build().
    Builder& FromConfigFile(const std::string& path);

    /// Loads builder configuration from INI-style `text`: top-level
    /// `key-pattern = filter-spec` lines (an exact key, a `prefix*`
    /// wildcard, or `*` alone for the default spec) plus a `[pipeline]`
    /// section with `codec`, `storage` and `shards` keys. `#`/`;` start
    /// comments. `context` names the source in error messages
    /// (e.g. the file path); parse errors surface at Build().
    Builder& FromConfigString(std::string_view text,
                              std::string_view context = "config");

    /// Wire codec used by every stream's transport, as a codec spec
    /// (e.g. "frame", "delta(varint=true)", "batch(n=32,crc=crc32c)";
    /// default "frame"). Every stream gets its own codec instance, so
    /// sharded ingest stays lock-free on the encode path.
    Builder& Codec(FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& Codec(std::string_view spec_text);

    /// Uses `registry` for codec specs instead of CodecRegistry::Global();
    /// `registry` is borrowed and must outlive the pipeline.
    Builder& WithCodecRegistry(const CodecRegistry* registry);

    /// Where encoded frames go, as a transport spec (default "inproc" —
    /// the in-process Channel → Receiver path; "tcp(host=...,port=...)"
    /// or "uds(path=...)" ship them to a CollectorServer instead). With
    /// a remote transport the collector owns decode and archive state:
    /// Segments/Reconstruction error with FailedPrecondition, Store
    /// returns nullptr, and Storage() must stay unset (or "none") — the
    /// archive spec belongs to the collector. The transport connects at
    /// Build(), so an unreachable collector fails the build.
    Builder& Transport(FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& Transport(std::string_view spec_text);

    /// Uses `registry` for transport specs instead of
    /// TransportRegistry::Global(); `registry` is borrowed and must
    /// outlive the builder's Build() call.
    Builder& WithTransportRegistry(const TransportRegistry* registry);

    /// Ingest-guard policy applied in front of every stream's filter, as
    /// a policy spec: "pass" (the default — no guard stage, no overhead)
    /// or "guard(reorder=N,nan=reject|skip|gap,max_dt=SECONDS,
    /// dup=error|first|last)". See stream/ingest_guard.h for the
    /// semantics; guard counters surface in Stats().ingest. A bad policy
    /// spec fails at Build().
    Builder& Ingest(FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& Ingest(std::string_view spec_text);

    /// Hash-partitions keys across `n` shards (default 1) so producers on
    /// different shards ingest in parallel. 0 is an error at Build().
    Builder& Shards(size_t n);

    /// Uses `registry` instead of FilterRegistry::Global(); `registry` is
    /// borrowed and must outlive the pipeline.
    Builder& WithRegistry(const FilterRegistry* registry);

    /// Builds the pipeline. Errors when no spec was configured, a spec
    /// string or config file failed to parse, a spec names an
    /// unregistered filter family, codec or storage backend, the storage
    /// backend fails to open (unwritable or unrecoverable archive file),
    /// or the sharding configuration is invalid (Shards(0)).
    Result<std::unique_ptr<Pipeline>> Build();

   private:
    Status deferred_ = Status::OK();  // first spec-string parse failure
    std::optional<FilterSpec> default_spec_;
    std::map<std::string, FilterSpec, std::less<>> per_key_;
    std::vector<std::pair<std::string, FilterSpec>> prefixes_;
    std::optional<FilterSpec> codec_spec_;
    std::optional<FilterSpec> storage_spec_;
    std::optional<FilterSpec> transport_spec_;
    std::optional<FilterSpec> ingest_spec_;
    size_t shards_ = 1;
    const FilterRegistry* registry_;
    const CodecRegistry* codec_registry_;
    const StorageRegistry* storage_registry_;
    const TransportRegistry* transport_registry_;
  };

  /// Pipelines own per-stream transports and are not copyable.
  Pipeline(const Pipeline&) = delete;
  /// Pipelines own per-stream transports and are not copyable.
  Pipeline& operator=(const Pipeline&) = delete;

  /// Routes one point into the stream named `key`, creating its filter
  /// chain on first use. Errors with NotFound when the key has no spec
  /// (no default and no per-key entry), plus all Filter::Append errors.
  Status Append(std::string_view key, const DataPoint& point);

  /// Scalar-stream convenience overload.
  Status Append(std::string_view key, double t, double value);

  /// Routes a time-ordered batch of points into the stream named `key`,
  /// paying the per-append costs once per batch instead of once per
  /// point: one shard hash, one lock acquisition, one filter lookup, and
  /// one transport drain.
  /// Segments, wire bytes and archives are byte-identical to appending
  /// the same points one at a time. Stops at the first error, leaving
  /// earlier points applied.
  Status AppendBatch(std::string_view key, std::span<const DataPoint> points);

  /// Columnar batch append: timestamps and dimension-major values as flat
  /// column arrays (layout per Filter::AppendBatch(ts, vals)) — the
  /// zero-copy entry for CSV/Arrow-style sources. Identical semantics and
  /// byte-identical output to the row-batch overload.
  Status AppendBatch(std::string_view key, std::span<const double> ts,
                     std::span<const double> vals);

  /// Flushes each stream's codec — a buffering codec like "batch" holds
  /// records until flushed — and drains the transports into the
  /// receivers and archives. Over a remote transport every stream's
  /// frames are queued and leave together, in one write when the socket
  /// takes them, before the wait for the collector's ACKs. Reports the
  /// first error; the pipeline stays open for more appends. Call between
  /// producer phases (never concurrently with Append) to make the read
  /// accessors safe and complete mid-stream.
  Status Flush();

  /// Finishes every filter, drains the transports, and completes the
  /// archives. Idempotent; Append afterwards
  /// is an error.
  Status Finish();

  /// Stream keys seen so far, sorted — including streams recovered from
  /// a pre-existing archive file that nothing has re-appended to yet.
  std::vector<std::string> Keys() const;

  /// The segments reconstructed by `key`'s receiver so far.
  Result<std::vector<Segment>> Segments(std::string_view key) const;

  /// Queryable reconstruction of `key`'s stream from received segments.
  Result<PiecewiseLinearFunction> Reconstruction(std::string_view key) const;

  /// The stream's archive, or nullptr for an unknown key or a pipeline
  /// built with Storage("none"). With a file backend the store also
  /// contains every segment recovered from a pre-existing archive, and
  /// recovered streams are queryable here before (and without) any new
  /// Append to them. The transport accessors (Segments, Reconstruction,
  /// GetFilter) only know streams that are live this run.
  const SegmentStore* Store(std::string_view key) const;

  /// The stream's filter (for counters/statistics), or nullptr.
  const Filter* GetFilter(std::string_view key) const;

  /// The spec a given key resolves to (per-key override or default), or
  /// NotFound when the pipeline has no spec for it.
  Result<FilterSpec> SpecFor(std::string_view key) const;

  /// Transport and archive statistics of one stream.
  struct StreamStats {
    size_t points = 0;         ///< samples accepted by the filter
    size_t segments = 0;       ///< segments received
    size_t records_sent = 0;   ///< wire records on this stream's channel
    size_t frames_sent = 0;    ///< channel frames (== records for "frame")
    size_t bytes_sent = 0;     ///< encoded bytes on this stream's channel
    size_t segments_archived = 0;  ///< segments in the storage backend
    size_t storage_bytes = 0;  ///< bytes this stream appended to storage
  };

  /// Per-stream statistics; NotFound for an unknown key. A stream
  /// recovered from a pre-existing archive but untouched this run
  /// reports only its archive fields (no points, no transport).
  Result<StreamStats> StatsFor(std::string_view key) const;

  /// Per-key archive statistics inside PipelineStats, so monitors need
  /// not recompute them from the stores.
  struct KeyStats {
    std::string key;           ///< the stream's key
    size_t segments = 0;       ///< segments archived for this key
    size_t storage_bytes = 0;  ///< bytes this key appended to storage
  };

  /// Aggregate transport and archive statistics across every stream.
  struct PipelineStats {
    size_t streams = 0;            ///< distinct keys (live + recovered)
    size_t points = 0;             ///< samples accepted across streams
    size_t segments = 0;           ///< segments received across streams
    size_t records_sent = 0;       ///< wire records (the paper's recordings)
    size_t frames_sent = 0;        ///< channel frames across streams
    size_t bytes_sent = 0;         ///< encoded bytes on all channels
    size_t bytes_raw = 0;          ///< (t, X) doubles of the raw input
    size_t storage_bytes = 0;      ///< bytes on the storage backend's medium
    /// Transport-level counters (socket bytes and writes, resends,
    /// reconnects, backpressure stalls). All zero for the default inproc
    /// transport.
    TransportStats transport;
    /// Ingest-guard decision counters (reorders, late drops, NaN skips,
    /// gap cuts, duplicate resolutions). All zero for the default
    /// pass-through ingest policy.
    IngestGuardStats ingest;
    /// The storage medium's health counters (degradations, dropped
    /// segments, recoveries); always kOk for non-durable backends.
    StorageHealth storage_health;
    std::vector<KeyStats> per_key;  ///< per-key archive stats, sorted by key
  };
  PipelineStats Stats() const;

  /// Pipeline health: whether every durable piece is doing its job, as
  /// opposed to Stats()' throughput counters. Today the signal is the
  /// storage medium (a file backend under `on_error=degrade` keeps
  /// serving ingest with archiving suspended and reports kDegraded here
  /// until the medium recovers); `state` is the roll-up, `cause` says
  /// why it is not kOk.
  struct HealthSnapshot {
    /// Roll-up state: ok (everything healthy), degraded (running with
    /// reduced durability) or failing (a durable piece is lost).
    StorageHealth::State state = StorageHealth::State::kOk;
    /// Why `state` is not kOk; empty when healthy.
    std::string cause;
    /// The storage backend's full health report.
    StorageHealth storage;
  };

  /// Health snapshot; safe to call concurrently with ingest.
  HealthSnapshot Health() const;

  /// Family-specific diagnostic counters summed by name across the filters
  /// of every stream on every shard.
  std::vector<FilterCounter> AggregateCounters() const;

  /// Number of ingest shards.
  size_t shard_count() const { return bank_->shard_count(); }

  /// The codec spec every stream's transport uses (default "frame").
  const FilterSpec& CodecSpec() const { return codec_spec_; }

  /// The storage spec the archives live behind (default "memory";
  /// forced to "none" by a remote transport — the collector archives).
  const FilterSpec& StorageSpec() const { return storage_spec_; }

  /// The transport spec frames leave through (default "inproc").
  const FilterSpec& TransportSpec() const { return transport_spec_; }

  /// The ingest-guard policy in front of every stream's filter (default
  /// pass-through).
  const IngestPolicy& GetIngestPolicy() const { return ingest_policy_; }

  /// The transport instance (for counters); never null.
  const class Transport& GetTransport() const { return *transport_; }

  /// True when frames leave the process (a tcp/uds transport): decode
  /// and archive state live on the collector, so Segments,
  /// Reconstruction and Store do not answer locally.
  bool remote() const { return transport_->remote(); }

  /// The storage backend, for byte accounting and backend-specific
  /// inspection. Owned by the pipeline; never null.
  const StorageBackend& GetStorageBackend() const { return *storage_; }

  /// True once Finish() has run.
  bool finished() const { return finished_; }

 private:
  // Per-stream transport + archive handle. Channel/Codec/Receiver live
  // here; the filter is owned by the bank, the storage handle by the
  // backend. Only the stream's shard touches this state during ingest,
  // so no per-stream lock is needed.
  struct Stream {
    Channel channel;
    std::unique_ptr<WireCodec> codec;
    std::optional<Transmitter> transmitter;
    // Local (inproc) path: the receiver decodes and archives to storage.
    std::optional<Receiver> receiver;
    StreamStorage* storage = nullptr;  // borrowed; null for "none"
    // Remote path: frames leave through the transport instead.
    std::unique_ptr<TransportLink> link;
  };

  Pipeline(std::optional<FilterSpec> default_spec,
           std::map<std::string, FilterSpec, std::less<>> per_key,
           std::vector<std::pair<std::string, FilterSpec>> prefixes,
           const FilterRegistry* registry, FilterSpec codec_spec,
           const CodecRegistry* codec_registry, FilterSpec storage_spec,
           std::unique_ptr<StorageBackend> storage,
           FilterSpec transport_spec,
           std::unique_ptr<class Transport> transport,
           ShardedFilterBank::Options bank_options);

  // Decodes (and thereby archives) whatever the transmitter queued, or
  // queues it on the remote link.
  Status Drain(Stream& stream);

  // Post-append hook: drains the appended key's transport and, when that
  // queued a frame, pushes it to the wire; runs on the producer thread
  // while the key's shard is exclusively held.
  Status DrainKey(std::string_view key);

  const Stream* Find(std::string_view key) const;

  std::optional<FilterSpec> default_spec_;
  std::map<std::string, FilterSpec, std::less<>> per_key_;
  // Prefix-wildcard specs, longest prefix first so the first match wins.
  std::vector<std::pair<std::string, FilterSpec>> prefixes_;
  const FilterRegistry* registry_;
  FilterSpec codec_spec_;
  const CodecRegistry* codec_registry_;
  FilterSpec storage_spec_;
  std::unique_ptr<StorageBackend> storage_;
  FilterSpec transport_spec_;
  std::unique_ptr<class Transport> transport_;
  IngestPolicy ingest_policy_;
  // Stream state is partitioned exactly like the bank's keys, one map per
  // shard, so the per-point drain lookup and stream creation synchronize
  // only within a shard — appends on different shards share no lock. The
  // mutex guards each map's structure; a mapped Stream's contents stay
  // shard-serialized.
  struct StreamShard {
    mutable std::mutex mutex;
    std::map<std::string, Stream, std::less<>> streams;
  };
  std::vector<std::unique_ptr<StreamShard>> stream_shards_;
  std::unique_ptr<ShardedFilterBank> bank_;
  bool finished_ = false;
};

}  // namespace plastream

#endif  // PLASTREAM_STREAM_PIPELINE_H_
