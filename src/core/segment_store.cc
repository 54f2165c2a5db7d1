// Copyright (c) 2026 The plastream Authors. MIT license.

#include "core/segment_store.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

namespace plastream {

namespace {

// `cond ? a : b` as a bit mask, so the choice costs no branch to mispredict.
double SelectBits(bool cond, double a, double b) {
  const uint64_t mask = -static_cast<uint64_t>(cond);
  return std::bit_cast<double>((std::bit_cast<uint64_t>(a) & mask) |
                               (std::bit_cast<uint64_t>(b) & ~mask));
}

}  // namespace

SegmentStore::SegmentStore(size_t dimensions) : dimensions_(dimensions) {}

Status SegmentStore::Append(const Segment& segment) {
  if (segment.x_start.size() != dimensions_ ||
      segment.x_end.size() != dimensions_) {
    return Status::InvalidArgument("segment dimensionality mismatch");
  }
  if (!(segment.t_start <= segment.t_end)) {
    return Status::InvalidArgument("segment with t_start > t_end");
  }
  for (size_t i = 0; i < dimensions_; ++i) {
    if (!std::isfinite(segment.x_start[i]) ||
        !std::isfinite(segment.x_end[i])) {
      return Status::InvalidArgument("segment with non-finite value");
    }
  }
  if (!segments_.empty()) {
    const Segment& prev = segments_.back();
    if (segment.t_start < prev.t_end) {
      return Status::OutOfOrder("segment overlaps the stored chain");
    }
    if (segment.connected_to_prev) {
      if (segment.t_start != prev.t_end) {
        return Status::InvalidArgument(
            "connected segment does not share the previous end time");
      }
      for (size_t i = 0; i < dimensions_; ++i) {
        if (segment.x_start[i] != prev.x_end[i]) {
          return Status::InvalidArgument(
              "connected segment does not share the previous end value");
        }
      }
    }
  } else if (segment.connected_to_prev) {
    return Status::InvalidArgument("first segment marked connected");
  }
  // push_back's own growth is already geometric; a small first reserve
  // just skips the 1->2->4 steps without the per-key memory spike a large
  // floor would cost now that Segment inlines its DimVecs.
  if (segments_.empty()) segments_.reserve(8);
  segments_.push_back(segment);
  return Status::OK();
}

Status SegmentStore::AppendAll(std::span<const Segment> segments) {
  for (const Segment& segment : segments) {
    PLASTREAM_RETURN_NOT_OK(Append(segment));
  }
  return Status::OK();
}

size_t SegmentStore::LowerBound(double t) const {
  const auto it = std::lower_bound(
      segments_.begin(), segments_.end(), t,
      [](const Segment& seg, double time) { return seg.t_end < time; });
  return static_cast<size_t>(it - segments_.begin());
}

Result<double> SegmentStore::ValueAt(double t, size_t dim) const {
  if (dim >= dimensions_) {
    return Status::InvalidArgument("dimension out of range");
  }
  const size_t idx = LowerBound(t);
  if (idx == segments_.size() || segments_[idx].t_start > t) {
    return Status::NotFound("no segment covers t=" + std::to_string(t));
  }
  return segments_[idx].ValueAt(t, dim);
}

Result<SegmentStore::RangeAggregate> SegmentStore::Aggregate(
    double t_begin, double t_end, size_t dim) const {
  if (dim >= dimensions_) {
    return Status::InvalidArgument("dimension out of range");
  }
  if (!(t_begin <= t_end)) {
    return Status::InvalidArgument("reversed aggregate range");
  }
  const size_t n = segments_.size();
  size_t idx = LowerBound(t_begin);
  if (idx == n || segments_[idx].t_start > t_end) {
    return Status::NotFound("aggregate range touches no segment");
  }
  RangeAggregate agg;
  // Adds `seg` clipped to the range, with ValueAt at both clipped ends.
  // Linear pieces: extrema at clip endpoints, integral by trapezoid.
  auto add_clipped = [&](const Segment& seg, bool first) {
    const double a = std::max(seg.t_start, t_begin);
    const double b = std::min(seg.t_end, t_end);
    const double va = seg.ValueAt(a, dim);
    const double vb = seg.ValueAt(b, dim);
    agg.min = first ? std::min(va, vb) : std::min({agg.min, va, vb});
    agg.max = first ? std::max(va, vb) : std::max({agg.max, va, vb});
    agg.integral += 0.5 * (va + vb) * (b - a);
    agg.covered_duration += b - a;
    ++agg.segments_touched;
  };
  // Only the first touched segment can start before t_begin.
  add_clipped(segments_[idx++], /*first=*/true);

  // The run of segments wholly inside the range. There a = t_start and
  // b = t_end, so ValueAt's weight is exactly +0 at a and exactly 1 at b
  // and the values below are ValueAt's bits without its two divisions.
  // Min/max are compare-and-select in std::min/max({m, va, vb})'s order,
  // and the sums keep the same left-to-right chain (no FP contraction).
  const size_t run_begin = idx;
  for (; idx < n && segments_[idx].t_end <= t_end; ++idx) {
    const Segment& seg = segments_[idx];
    const double xs = seg.x_start[dim];
    // A point segment's ValueAt is xs at both ends; a -0 difference makes
    // both expressions below yield xs bit for bit, since x + -0 == x.
    const double dx = SelectBits(seg.IsPoint(), -0.0, seg.x_end[dim] - xs);
    const double va = xs + 0.0 * dx;
    const double vb = xs + dx;
    agg.min = va < agg.min ? va : agg.min;
    agg.min = vb < agg.min ? vb : agg.min;
    agg.max = agg.max < va ? va : agg.max;
    agg.max = agg.max < vb ? vb : agg.max;
    const double span = seg.t_end - seg.t_start;
    agg.integral += 0.5 * (va + vb) * span;
    agg.covered_duration += span;
  }
  agg.segments_touched += idx - run_begin;

  // Only the segment after the run can end after t_end.
  if (idx < n && segments_[idx].t_start <= t_end) {
    add_clipped(segments_[idx], /*first=*/false);
  }
  agg.mean = agg.covered_duration > 0.0
                 ? agg.integral / agg.covered_duration
                 : 0.5 * (agg.min + agg.max);  // instant query on a point
  return agg;
}

std::vector<std::pair<double, double>> SegmentStore::IntervalsAbove(
    double threshold, double t_begin, double t_end, size_t dim) const {
  std::vector<std::pair<double, double>> out;
  if (dim >= dimensions_ || !(t_begin <= t_end)) return out;

  bool open = false;
  double open_start = 0.0;
  double last_covered = 0.0;
  auto close_interval = [&](double at) {
    if (open && at > open_start) out.emplace_back(open_start, at);
    open = false;
  };

  for (size_t idx = LowerBound(t_begin); idx < segments_.size(); ++idx) {
    const Segment& seg = segments_[idx];
    if (seg.t_start > t_end) break;
    const double a = std::max(seg.t_start, t_begin);
    const double b = std::min(seg.t_end, t_end);
    if (a > b) continue;
    // A coverage gap (or a disconnected jump) ends any open interval.
    if (open && a > last_covered) close_interval(last_covered);

    const double va = seg.ValueAt(a, dim);
    const double vb = seg.ValueAt(b, dim);
    const bool above_a = va > threshold;
    const bool above_b = vb > threshold;
    if (above_a != above_b && b > a) {
      // One crossing strictly inside the clipped piece.
      const double cross = a + (threshold - va) / (vb - va) * (b - a);
      if (above_a) {
        if (!open) {
          open = true;
          open_start = a;
        }
        close_interval(cross);
      } else {
        close_interval(a);  // terminates any stale state; no-op when closed
        open = true;
        open_start = cross;
      }
    } else if (above_a && above_b) {
      if (!open) {
        // Degenerate double-crossing inside one linear piece is impossible;
        // the piece is entirely above.
        open = true;
        open_start = a;
      }
    } else if (b > a) {
      // Entirely at/below threshold.
      close_interval(a);
    }
    last_covered = b;
  }
  close_interval(last_covered);
  return out;
}

}  // namespace plastream
