// Copyright (c) 2026 The plastream Authors. MIT license.
//
// ShardedFilterBank: the multi-core ingestion front-end. The paper's
// filters are strictly per-stream, which makes keyed ingest embarrassingly
// parallel: hash-partition the key space across N shards, give each shard
// its own FilterBank behind a mutex, and run Append on the calling thread
// under that shard's lock. Producers appending to different shards
// proceed fully in parallel.
//
// Key-to-shard assignment is a stable FNV-1a hash, so a key's points are
// always processed by the same shard, in arrival order — per-key segment
// sequences are byte-identical for every shard count.

#ifndef PLASTREAM_STREAM_SHARDED_FILTER_BANK_H_
#define PLASTREAM_STREAM_SHARDED_FILTER_BANK_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/filter.h"
#include "stream/filter_bank.h"

namespace plastream {

/// Routes keyed data points to per-stream filters across N hash shards.
///
/// Thread-safety contract:
///  - Append may be called concurrently from any number of producer
///    threads. Points of one key must be produced by one thread at a time
///    (or be externally ordered) — concurrent producers should own
///    disjoint key sets, exactly as they would with one bank per producer.
///  - FinishAll is safe to call from one thread while producers have
///    stopped appending.
///  - The read-side accessors (Keys, GetFilter, Stats, TakeSegments,
///    AggregateCounters) are safe during concurrent ingest.
class ShardedFilterBank {
 public:
  /// Builds the filter for a newly seen stream key; invoked on the
  /// producer thread that appends the key's first point.
  using FilterFactory = FilterBank::FilterFactory;

  /// Optional callback run after every successfully appended point, on the
  /// producer thread, while the point's key is exclusively held — the
  /// seam the Pipeline uses to drain per-stream transports in shard
  /// parallel. A non-OK return is treated like a filter error.
  using PostAppendHook = std::function<Status(std::string_view key)>;

  /// Configuration of a ShardedFilterBank.
  struct Options {
    /// Number of hash shards (>= 1). 1 shard degenerates to a
    /// mutex-guarded FilterBank.
    size_t shards = 1;
    /// See PostAppendHook.
    PostAppendHook post_append;
    /// Ingest-guard policy applied in front of every stream's filter,
    /// inside the shard's serialization (see stream/ingest_guard.h). The
    /// default pass-through policy adds no stage.
    IngestPolicy ingest;
  };

  /// Validates `options` (shards >= 1) and constructs the bank.
  static Result<std::unique_ptr<ShardedFilterBank>> Create(
      FilterFactory factory, Options options);

  /// Shards own filters; the bank is not copyable.
  ShardedFilterBank(const ShardedFilterBank&) = delete;
  /// Shards own filters; the bank is not copyable.
  ShardedFilterBank& operator=(const ShardedFilterBank&) = delete;

  /// Appends a point to the stream named `key`, creating its filter on
  /// first use. Runs synchronously under the shard's lock and returns the
  /// filter's status.
  Status Append(std::string_view key, const DataPoint& point);

  /// Appends a batch of points to the stream named `key`, paying the
  /// shard costs once per batch instead of once per point: one hash, one
  /// lock acquisition and one filter lookup. Segments are byte-identical
  /// to per-point Append. Stops at the first error with earlier points
  /// applied. The per-key ordering contract is unchanged: one producer at
  /// a time per key.
  Status AppendBatch(std::string_view key, std::span<const DataPoint> points);

  /// Columnar batch append: timestamps and dimension-major values as flat
  /// column arrays (layout per Filter::AppendBatch(ts, vals)), forwarded
  /// zero-copy under the shard lock. Error semantics match AppendBatch's.
  Status AppendBatch(std::string_view key, std::span<const double> ts,
                     std::span<const double> vals);

  /// Finishes every stream's filter (idempotent). Returns the first
  /// finish error.
  Status FinishAll();

  /// Drains the finalized segments of one stream.
  /// Errors with NotFound for an unknown key.
  Result<std::vector<Segment>> TakeSegments(std::string_view key);

  /// All stream keys seen so far, sorted across shards.
  std::vector<std::string> Keys() const;

  /// True when the key has a filter.
  bool Contains(std::string_view key) const;

  /// Borrow a stream's filter (nullptr for unknown keys). The pointer
  /// stays valid for the bank's lifetime; reading the filter while its
  /// shard is still ingesting is racy — observe the quiescence rule above.
  const Filter* GetFilter(std::string_view key) const;

  /// Aggregate statistics summed over every shard.
  FilterBank::BankStats Stats() const;

  /// Ingest-guard decision counters summed over every shard. All zero
  /// when the bank runs the pass-through policy.
  IngestGuardStats IngestStats() const;

  /// Per-shard statistics, indexed by shard; useful for balance checks.
  std::vector<FilterBank::BankStats> ShardStats() const;

  /// Family-specific diagnostic counters summed by name across every
  /// filter in every shard (see MergeFilterCounters).
  std::vector<FilterCounter> AggregateCounters() const;

  /// Number of shards.
  size_t shard_count() const { return shards_.size(); }

  /// The shard index `key` hashes to (stable across runs and platforms).
  size_t ShardOf(std::string_view key) const;

 private:
  // A shard: its bank plus the mutex that serializes access to it.
  struct Shard {
    Shard(FilterFactory factory, const IngestPolicy& ingest)
        : bank(std::move(factory), ingest) {}

    mutable std::mutex mutex;
    FilterBank bank;
  };

  ShardedFilterBank(FilterFactory factory, Options options);

  // Runs the post-append hook after a (possibly partial) batch, shard
  // lock held; the filter's error wins over the hook's.
  Status AfterBatch(std::string_view key, const Status& appended);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace plastream

#endif  // PLASTREAM_STREAM_SHARDED_FILTER_BANK_H_
