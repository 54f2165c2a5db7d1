// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Ingest guard: the policy stage in front of a stream's filter. Real
// feeds are not the clean, in-order, finite streams the filters demand —
// collectors see late arrivals (network reordering), duplicated samples
// (at-least-once delivery), NaN readings (sensor faults) and sampling
// gaps (outages). The guard turns each of those into a configured,
// counted decision instead of a hard per-point error:
//
//   "pass"                                    no policy, zero overhead
//   "guard(reorder=16)"                       fix arrivals up to 16 late
//   "guard(nan=gap,max_dt=5)"                 NaN or a >5s hole cuts the
//                                             segment chain (Filter::Cut)
//   "guard(reorder=8,dup=last,nan=skip)"      last-write-wins duplicates
//
// One guard instance fronts one filter (per-stream state, like the filter
// itself); FilterBank owns the pairing, Pipeline::Builder::Ingest() and
// the `[pipeline] ingest =` config key select the policy.

#ifndef PLASTREAM_STREAM_INGEST_GUARD_H_
#define PLASTREAM_STREAM_INGEST_GUARD_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/filter.h"
#include "core/filter_spec.h"

namespace plastream {

/// What the guard does with a point whose value is NaN or infinite in any
/// dimension.
enum class NanPolicy {
  /// Error with InvalidArgument, exactly like a bare filter (default).
  kReject,
  /// Drop the point and continue the open segment across it.
  kSkip,
  /// Drop the point and cut the segment chain: the data hole becomes a
  /// chain break instead of one long interpolated segment.
  kGap,
};

/// What the guard does with a point whose timestamp exactly equals an
/// already-seen timestamp of the stream.
enum class DupPolicy {
  /// Error with OutOfOrder, exactly like a bare filter (default).
  kError,
  /// First write wins: the later arrival is dropped.
  kFirst,
  /// Last write wins: the later arrival replaces the earlier one. Needs
  /// reorder >= 1 — replacement is only possible while the earlier point
  /// is still held in the reorder buffer.
  kLast,
};

/// Parsed ingest-policy configuration. Uses the FilterSpec grammar with
/// families `pass` (no parameters; the default policy) and
/// `guard(reorder=N,nan=reject|skip|gap,max_dt=SECONDS,dup=error|first|last)`.
struct IngestPolicy {
  /// Reorder window: the guard buffers up to this many points per stream
  /// and releases them in timestamp order, so an arrival up to `reorder`
  /// positions late is silently fixed. 0 (default) disables buffering —
  /// out-of-order arrivals error exactly like a bare filter.
  size_t reorder = 0;

  /// Non-finite-value handling (see NanPolicy).
  NanPolicy nan = NanPolicy::kReject;

  /// Duplicate-timestamp handling (see DupPolicy).
  DupPolicy dup = DupPolicy::kError;

  /// Maximum tolerated timestamp delta between consecutive admitted
  /// points. A larger hole cuts the segment chain before the point after
  /// the hole is appended. 0 (default) disables gap cutting.
  double max_dt = 0.0;

  /// True when every field is at its default: the guard stage can be
  /// skipped entirely (the pass-through the hot-path bench gates).
  bool pass_through() const {
    return reorder == 0 && nan == NanPolicy::kReject &&
           dup == DupPolicy::kError && max_dt == 0.0;
  }

  /// Builds a policy from a parsed spec. Errors with InvalidArgument for
  /// an unknown family, an unknown parameter, a bad value, eps/dims/
  /// max_lag on the spec (they belong to filter specs), or `dup=last`
  /// without `reorder >= 1`.
  static Result<IngestPolicy> FromSpec(const FilterSpec& spec);

  /// Parses a policy string ("pass", "guard(reorder=16,nan=gap)").
  static Result<IngestPolicy> Parse(std::string_view text);

  /// Canonical string form; Parse(Format()) reproduces this policy.
  std::string Format() const;

  /// Field-wise equality.
  bool operator==(const IngestPolicy&) const = default;
};

/// Counters of guard decisions, aggregated per bank / pipeline.
struct IngestGuardStats {
  /// Points admitted out of arrival order and fixed by the reorder buffer.
  size_t reordered = 0;
  /// Points older than the release watermark, dropped as hopelessly late.
  size_t late_dropped = 0;
  /// Non-finite values dropped under nan=skip.
  size_t nan_skipped = 0;
  /// Non-finite values dropped under nan=gap (each also cuts the chain).
  size_t nan_gaps = 0;
  /// Chain cuts performed because a timestamp delta exceeded max_dt.
  size_t gaps_cut = 0;
  /// Duplicate timestamps resolved by dup=first or dup=last.
  size_t dups_resolved = 0;

  /// Element-wise accumulation (shard/bank aggregation).
  IngestGuardStats& operator+=(const IngestGuardStats& other);

  /// Field-wise equality.
  bool operator==(const IngestGuardStats&) const = default;
};

/// The per-stream policy stage. Owns the reorder buffer and the pending
/// cut state; borrows the filter it feeds. Not thread-safe (same contract
/// as the filter — one stream, one processing thread at a time).
class IngestGuard {
 public:
  /// `filter` is borrowed and must outlive the guard.
  IngestGuard(IngestPolicy policy, Filter* filter);

  /// Admits one arrival. Depending on the policy this forwards zero, one
  /// or several points (reorder-buffer releases) to the filter, possibly
  /// cutting the chain first. Errors: InvalidArgument for a non-finite
  /// timestamp or a dimension mismatch (never buffered), InvalidArgument
  /// for a non-finite value under nan=reject, OutOfOrder for ordering or
  /// duplicate violations the policy does not absorb, plus any filter
  /// error raised by a release. A mid-release error leaves earlier
  /// releases applied, like a partial batch.
  Status Admit(const DataPoint& point);

  /// Admits a batch of arrivals. Under the pass-through policy the whole
  /// span forwards to Filter::AppendBatch in one call (the guard adds no
  /// per-point work, keeping the pass-through overhead gate honest); any
  /// active policy falls back to per-point Admit. Error and partial-
  /// application semantics match calling Admit point by point.
  Status AdmitBatch(std::span<const DataPoint> points);

  /// Columnar batch admission (layout per Filter::AppendBatch(ts, vals)).
  /// Pass-through forwards the spans zero-copy; an active policy admits
  /// point by point through a reused scratch row.
  Status AdmitBatch(std::span<const double> ts, std::span<const double> vals);

  /// Releases every buffered point to the filter in timestamp order.
  /// Called before Filter::Finish; also safe mid-stream (the next late
  /// arrival after a flush is dropped as late rather than reordered).
  Status Flush();

  /// Points currently held in the reorder buffer.
  size_t buffered() const { return buffer_.size() - head_; }

  /// Guard decision counters so far.
  const IngestGuardStats& stats() const { return stats_; }

  /// The policy in force.
  const IngestPolicy& policy() const { return policy_; }

 private:
  // Applies pending/gap cuts and appends one in-order point.
  Status Forward(const DataPoint& point);

  // Forwards the oldest held points until at most `keep` remain.
  Status Release(size_t keep);

  IngestPolicy policy_;
  Filter* filter_;
  // Sorted by t, ascending; [0, head_) is released and awaits compaction.
  std::vector<DataPoint> buffer_;
  size_t head_ = 0;
  DataPoint columnar_scratch_;     // reused row for columnar slow path
  bool cut_pending_ = false;
  bool has_watermark_ = false;
  double watermark_ = 0.0;  // largest timestamp forwarded to the filter
  IngestGuardStats stats_;
};

}  // namespace plastream

#endif  // PLASTREAM_STREAM_INGEST_GUARD_H_
