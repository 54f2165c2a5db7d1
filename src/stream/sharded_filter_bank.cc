// Copyright (c) 2026 The plastream Authors. MIT license.

#include "stream/sharded_filter_bank.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace plastream {

namespace {

// FNV-1a 64-bit: stable across platforms and standard-library versions, so
// key->shard placement (and therefore any per-shard observation) is
// reproducible everywhere.
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

Result<std::unique_ptr<ShardedFilterBank>> ShardedFilterBank::Create(
    FilterFactory factory, Options options) {
  if (factory == nullptr) {
    return Status::InvalidArgument("ShardedFilterBank factory is null");
  }
  if (options.shards == 0) {
    return Status::InvalidArgument("ShardedFilterBank needs >= 1 shard");
  }
  return std::unique_ptr<ShardedFilterBank>(
      new ShardedFilterBank(std::move(factory), std::move(options)));
}

ShardedFilterBank::ShardedFilterBank(FilterFactory factory, Options options)
    : options_(std::move(options)) {
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(factory, options_.ingest));
  }
}

size_t ShardedFilterBank::ShardOf(std::string_view key) const {
  return static_cast<size_t>(Fnv1a(key) % shards_.size());
}

Status ShardedFilterBank::AfterBatch(std::string_view key,
                                     const Status& appended) {
  if (options_.post_append == nullptr) return appended;
  // Run the hook even after a partial batch: earlier points may have
  // emitted segments the hook's transport still has to drain. The
  // filter's own error stays the one reported.
  const Status hook = options_.post_append(key);
  return appended.ok() ? hook : appended;
}

Status ShardedFilterBank::Append(std::string_view key,
                                 const DataPoint& point) {
  Shard& shard = *shards_[ShardOf(key)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  PLASTREAM_RETURN_NOT_OK(shard.bank.Append(key, point));
  if (options_.post_append != nullptr) return options_.post_append(key);
  return Status::OK();
}

Status ShardedFilterBank::AppendBatch(std::string_view key,
                                      std::span<const DataPoint> points) {
  if (points.empty()) return Status::OK();
  Shard& shard = *shards_[ShardOf(key)];
  // The whole key-group pays for one lock acquisition.
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return AfterBatch(key, shard.bank.AppendBatch(key, points));
}

Status ShardedFilterBank::AppendBatch(std::string_view key,
                                      std::span<const double> ts,
                                      std::span<const double> vals) {
  if (ts.empty() && vals.empty()) return Status::OK();
  Shard& shard = *shards_[ShardOf(key)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return AfterBatch(key, shard.bank.AppendBatch(key, ts, vals));
}

Status ShardedFilterBank::FinishAll() {
  Status first = Status::OK();
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    const Status finish = shard->bank.FinishAll();
    if (!finish.ok() && first.ok()) first = finish;
  }
  return first;
}

Result<std::vector<Segment>> ShardedFilterBank::TakeSegments(
    std::string_view key) {
  Shard& shard = *shards_[ShardOf(key)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.bank.TakeSegments(key);
}

std::vector<std::string> ShardedFilterBank::Keys() const {
  std::vector<std::string> keys;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    std::vector<std::string> shard_keys = shard->bank.Keys();
    keys.insert(keys.end(), std::make_move_iterator(shard_keys.begin()),
                std::make_move_iterator(shard_keys.end()));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool ShardedFilterBank::Contains(std::string_view key) const {
  const Shard& shard = *shards_[ShardOf(key)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.bank.Contains(key);
}

const Filter* ShardedFilterBank::GetFilter(std::string_view key) const {
  const Shard& shard = *shards_[ShardOf(key)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.bank.GetFilter(key);
}

FilterBank::BankStats ShardedFilterBank::Stats() const {
  FilterBank::BankStats total;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    const FilterBank::BankStats stats = shard->bank.Stats();
    total.streams += stats.streams;
    total.points += stats.points;
    total.segments += stats.segments;
    total.extra_recordings += stats.extra_recordings;
  }
  return total;
}

IngestGuardStats ShardedFilterBank::IngestStats() const {
  IngestGuardStats total;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->bank.IngestStats();
  }
  return total;
}

std::vector<FilterBank::BankStats> ShardedFilterBank::ShardStats() const {
  std::vector<FilterBank::BankStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    stats.push_back(shard->bank.Stats());
  }
  return stats;
}

std::vector<FilterCounter> ShardedFilterBank::AggregateCounters() const {
  std::vector<FilterCounter> merged;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const std::string& key : shard->bank.Keys()) {
      const Filter* filter = shard->bank.GetFilter(key);
      if (filter != nullptr) MergeFilterCounters(merged, filter->Counters());
    }
  }
  return merged;
}

}  // namespace plastream
