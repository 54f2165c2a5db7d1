// Copyright (c) 2026 The plastream Authors. MIT license.

#include "stream/ingest_guard.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace plastream {

namespace {

bool HasNonFiniteValue(const DataPoint& point) {
  for (double v : point.x) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

Status ParseSize(const std::string& text, std::string_view key, size_t* out) {
  size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (...) {
    pos = 0;
  }
  if (pos != text.size() || text.empty() || text[0] == '-') {
    return Status::InvalidArgument("ingest " + std::string(key) +
                                   " must be a non-negative integer, got '" +
                                   text + "'");
  }
  *out = static_cast<size_t>(value);
  return Status::OK();
}

}  // namespace

Result<IngestPolicy> IngestPolicy::FromSpec(const FilterSpec& spec) {
  if (!spec.options.epsilon.empty() || spec.options.max_lag != 0) {
    return Status::InvalidArgument(
        "ingest spec '" + spec.Format() +
        "' must not set eps/dims/max_lag (those belong to filter specs)");
  }
  if (spec.family == "pass") {
    PLASTREAM_RETURN_NOT_OK(spec.ExpectParamsIn({}));
    return IngestPolicy{};
  }
  if (spec.family != "guard") {
    return Status::InvalidArgument("unknown ingest policy '" + spec.family +
                                   "' (expected pass|guard)");
  }
  PLASTREAM_RETURN_NOT_OK(
      spec.ExpectParamsIn({"reorder", "nan", "max_dt", "dup"}));
  IngestPolicy policy;
  if (const std::string* value = spec.FindParam("reorder")) {
    PLASTREAM_RETURN_NOT_OK(ParseSize(*value, "reorder", &policy.reorder));
  }
  if (const std::string* value = spec.FindParam("nan")) {
    if (*value == "reject") {
      policy.nan = NanPolicy::kReject;
    } else if (*value == "skip") {
      policy.nan = NanPolicy::kSkip;
    } else if (*value == "gap") {
      policy.nan = NanPolicy::kGap;
    } else {
      return Status::InvalidArgument(
          "ingest nan must be reject|skip|gap, got '" + *value + "'");
    }
  }
  if (const std::string* value = spec.FindParam("dup")) {
    if (*value == "error") {
      policy.dup = DupPolicy::kError;
    } else if (*value == "first") {
      policy.dup = DupPolicy::kFirst;
    } else if (*value == "last") {
      policy.dup = DupPolicy::kLast;
    } else {
      return Status::InvalidArgument(
          "ingest dup must be error|first|last, got '" + *value + "'");
    }
  }
  if (const std::string* value = spec.FindParam("max_dt")) {
    size_t pos = 0;
    double parsed = 0.0;
    try {
      parsed = std::stod(*value, &pos);
    } catch (...) {
      pos = 0;
    }
    if (pos != value->size() || !std::isfinite(parsed) || parsed < 0.0) {
      return Status::InvalidArgument(
          "ingest max_dt must be a finite non-negative number, got '" +
          *value + "'");
    }
    policy.max_dt = parsed;
  }
  if (policy.dup == DupPolicy::kLast && policy.reorder == 0) {
    return Status::InvalidArgument(
        "ingest dup=last requires reorder >= 1: replacing a duplicate is "
        "only possible while the earlier point is still buffered");
  }
  return policy;
}

Result<IngestPolicy> IngestPolicy::Parse(std::string_view text) {
  PLASTREAM_ASSIGN_OR_RETURN(const FilterSpec spec, FilterSpec::Parse(text));
  return FromSpec(spec);
}

std::string IngestPolicy::Format() const {
  if (pass_through()) return "pass";
  std::string out = "guard(";
  bool first = true;
  const auto add = [&](std::string_view key, const std::string& value) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += '=';
    out += value;
  };
  // Alphabetical parameter order, matching FilterSpec::Format's sorted
  // params, so Parse(Format()) round-trips to an identical string.
  if (dup != DupPolicy::kError) {
    add("dup", dup == DupPolicy::kFirst ? "first" : "last");
  }
  if (max_dt != 0.0) {
    std::string value = std::to_string(max_dt);
    // Trim trailing zeros so Format stays readable; std::stod reparses
    // any of these forms identically.
    while (value.size() > 1 && value.back() == '0') value.pop_back();
    if (!value.empty() && value.back() == '.') value.pop_back();
    add("max_dt", value);
  }
  if (nan != NanPolicy::kReject) {
    add("nan", nan == NanPolicy::kSkip ? "skip" : "gap");
  }
  if (reorder != 0) {
    add("reorder", std::to_string(reorder));
  }
  out += ')';
  return out;
}

IngestGuardStats& IngestGuardStats::operator+=(const IngestGuardStats& other) {
  reordered += other.reordered;
  late_dropped += other.late_dropped;
  nan_skipped += other.nan_skipped;
  nan_gaps += other.nan_gaps;
  gaps_cut += other.gaps_cut;
  dups_resolved += other.dups_resolved;
  return *this;
}

IngestGuard::IngestGuard(IngestPolicy policy, Filter* filter)
    : policy_(std::move(policy)), filter_(filter) {}

Status IngestGuard::Forward(const DataPoint& point) {
  if (cut_pending_) {
    PLASTREAM_RETURN_NOT_OK(filter_->Cut());
    cut_pending_ = false;
  }
  if (policy_.max_dt > 0.0 && has_watermark_ &&
      point.t - watermark_ > policy_.max_dt) {
    PLASTREAM_RETURN_NOT_OK(filter_->Cut());
    ++stats_.gaps_cut;
  }
  PLASTREAM_RETURN_NOT_OK(filter_->Append(point));
  has_watermark_ = true;
  watermark_ = point.t;
  return Status::OK();
}

Status IngestGuard::Admit(const DataPoint& point) {
  // Timestamp and shape problems are never buffered: an unordered or
  // mis-shaped point would poison releases far from its cause.
  if (!std::isfinite(point.t)) {
    return Status::InvalidArgument("non-finite timestamp");
  }
  if (point.x.size() != filter_->dimensions()) {
    return Status::InvalidArgument(
        "point has " + std::to_string(point.x.size()) +
        " dimensions, filter expects " +
        std::to_string(filter_->dimensions()));
  }
  if (HasNonFiniteValue(point)) {
    switch (policy_.nan) {
      case NanPolicy::kReject:
        return Status::InvalidArgument("non-finite value at t=" +
                                       std::to_string(point.t));
      case NanPolicy::kSkip:
        ++stats_.nan_skipped;
        return Status::OK();
      case NanPolicy::kGap:
        ++stats_.nan_gaps;
        cut_pending_ = true;
        return Status::OK();
    }
  }

  if (policy_.reorder == 0) {
    // No buffer: only duplicate-of-previous can be absorbed.
    if (has_watermark_ && point.t == watermark_ &&
        policy_.dup == DupPolicy::kFirst) {
      ++stats_.dups_resolved;
      return Status::OK();
    }
    return Forward(point);
  }

  // Reorder mode. Points at or below the watermark can no longer be
  // placed: equal is a duplicate of a released point, older is late
  // beyond what the window absorbed.
  if (has_watermark_ && point.t <= watermark_) {
    if (point.t == watermark_) {
      switch (policy_.dup) {
        case DupPolicy::kError:
          return Status::OutOfOrder("duplicate timestamp " +
                                    std::to_string(point.t) +
                                    " (already released to the filter)");
        case DupPolicy::kFirst:
          ++stats_.dups_resolved;
          return Status::OK();
        case DupPolicy::kLast:
          // The earlier value already left the buffer; replacing it is
          // impossible, so the arrival is late, not resolvable.
          ++stats_.late_dropped;
          return Status::OK();
      }
    }
    ++stats_.late_dropped;
    return Status::OK();
  }

  // In order (the common case): append without a search or a shift.
  if (head_ == buffer_.size() || buffer_.back().t < point.t) {
    buffer_.push_back(point);
    return Release(policy_.reorder);
  }
  // Sorted insert; an equal-timestamp hit inside the buffer is a
  // duplicate the policy can still resolve in place.
  const auto at = std::lower_bound(
      buffer_.begin() + static_cast<std::ptrdiff_t>(head_), buffer_.end(),
      point.t, [](const DataPoint& held, double t) { return held.t < t; });
  if (at->t == point.t) {
    switch (policy_.dup) {
      case DupPolicy::kError:
        return Status::OutOfOrder("duplicate timestamp " +
                                  std::to_string(point.t) +
                                  " (equal to a buffered point)");
      case DupPolicy::kFirst:
        ++stats_.dups_resolved;
        return Status::OK();
      case DupPolicy::kLast:
        at->x = point.x;
        ++stats_.dups_resolved;
        return Status::OK();
    }
  }
  ++stats_.reordered;
  buffer_.insert(at, point);
  return Release(policy_.reorder);
}

Status IngestGuard::Release(size_t keep) {
  // Releases can only fail on filter errors (cut/append), never on
  // ordering: the buffer is sorted and strictly above the watermark. A
  // point leaves the buffer before it is forwarded, so a failed release
  // consumes it, as a failed Append consumes its point.
  while (buffered() > keep) {
    const DataPoint& released = buffer_[head_++];
    PLASTREAM_RETURN_NOT_OK(Forward(released));
  }
  // Compact once the released prefix outgrows the held points, so each
  // release costs O(1) amortized moves instead of shifting the buffer.
  if (head_ > 0 && head_ >= buffered()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return Status::OK();
}

Status IngestGuard::AdmitBatch(std::span<const DataPoint> points) {
  if (policy_.pass_through() && !cut_pending_) {
    // Pass-through adds no per-point decisions — the filter performs the
    // exact same validation with the exact same errors — so the whole
    // span forwards in one call. The watermark advances by the number of
    // points the filter actually applied (partial on a mid-batch error).
    const size_t before = filter_->points_seen();
    const Status status = filter_->AppendBatch(points);
    const size_t applied = filter_->points_seen() - before;
    if (applied > 0) {
      has_watermark_ = true;
      watermark_ = points[applied - 1].t;
    }
    return status;
  }
  for (const DataPoint& point : points) {
    PLASTREAM_RETURN_NOT_OK(Admit(point));
  }
  return Status::OK();
}

Status IngestGuard::AdmitBatch(std::span<const double> ts,
                               std::span<const double> vals) {
  if (policy_.pass_through() && !cut_pending_) {
    const size_t before = filter_->points_seen();
    const Status status = filter_->AppendBatch(ts, vals);
    const size_t applied = filter_->points_seen() - before;
    if (applied > 0) {
      has_watermark_ = true;
      watermark_ = ts[applied - 1];
    }
    return status;
  }
  // Active policy: per-point admission through a reused scratch row, with
  // the same upfront shape check (and message) as Filter::AppendBatch.
  const size_t d = filter_->dimensions();
  const size_t n = ts.size();
  if (vals.size() != n * d) {
    return Status::InvalidArgument(
        "columnar batch has " + std::to_string(vals.size()) +
        " values for " + std::to_string(n) + " timestamps of a " +
        std::to_string(d) + "-dimensional stream (expected " +
        std::to_string(n * d) + ")");
  }
  columnar_scratch_.x.resize(d);
  for (size_t j = 0; j < n; ++j) {
    columnar_scratch_.t = ts[j];
    for (size_t i = 0; i < d; ++i) columnar_scratch_.x[i] = vals[i * n + j];
    PLASTREAM_RETURN_NOT_OK(Admit(columnar_scratch_));
  }
  return Status::OK();
}

Status IngestGuard::Flush() { return Release(0); }

}  // namespace plastream
