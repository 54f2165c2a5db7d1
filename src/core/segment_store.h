// Copyright (c) 2026 The plastream Authors. MIT license.
//
// SegmentStore: a time-indexed archive of PLA segments with error-bounded
// analytics. This is the repository side of the paper's pipeline — once a
// stream has been filtered into segments, monitoring dashboards and
// offline analysis run range queries against the approximation instead of
// the raw points. Because every original sample is within ε_i of the
// stored function, each answer below carries a hard error bound:
//
//   point value          -> true sample within ±ε
//   time-weighted mean   -> true time-weighted mean within ±ε
//   min / max            -> true extremum within ±ε of the reported one
//   threshold crossings  -> exact for the approximation; true crossings of
//                           levels beyond ±ε cannot be missed

#ifndef PLASTREAM_CORE_SEGMENT_STORE_H_
#define PLASTREAM_CORE_SEGMENT_STORE_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/types.h"

namespace plastream {

/// Append-only archive of one stream's segment chain with range analytics.
/// Not thread-safe; one instance per stream.
class SegmentStore {
 public:
  /// Creates an empty store for d-dimensional segments.
  explicit SegmentStore(size_t dimensions);

  /// Appends the next segment of the chain. Enforces the same invariants
  /// as ValidateSegmentChain incrementally (monotone times, matching
  /// dimensionality, consistent junctions).
  Status Append(const Segment& segment);

  /// Appends a whole batch in order.
  Status AppendAll(std::span<const Segment> segments);

  /// Number of stored segments.
  size_t segment_count() const { return segments_.size(); }

  /// Dimensionality d.
  size_t dimensions() const { return dimensions_; }

  /// True when no segments are stored.
  bool empty() const { return segments_.empty(); }

  /// Earliest / latest covered time. Requires a non-empty store.
  double t_min() const { return segments_.front().t_start; }
  double t_max() const { return segments_.back().t_end; }

  /// The stored segments, in time order.
  std::span<const Segment> segments() const { return segments_; }

  /// Value of dimension `dim` at time t; NotFound in coverage gaps.
  Result<double> ValueAt(double t, size_t dim) const;

  /// Aggregates of the stored approximation over [t_begin, t_end].
  struct RangeAggregate {
    /// Smallest / largest approximation value on the covered part.
    double min = 0.0;
    double max = 0.0;
    /// Time-weighted mean over the covered part (integral / duration).
    double mean = 0.0;
    /// Integral of the approximation over the covered part.
    double integral = 0.0;
    /// Total covered time within the query range (gaps excluded).
    double covered_duration = 0.0;
    /// Segments that intersected the range.
    size_t segments_touched = 0;
  };

  /// Computes RangeAggregate for dimension `dim` over [t_begin, t_end].
  /// Answers are bit-identical to a left-to-right scan over the touched
  /// segments that clips each one to the range, evaluates Segment::ValueAt
  /// at both clipped ends, folds them into min/max with std::min/std::max
  /// and adds each trapezoid and clipped length in segment order. Segments
  /// wholly inside the range skip ValueAt's divisions and branches without
  /// changing a bit (see docs/PERFORMANCE.md, "Range queries").
  /// Errors: InvalidArgument for a reversed range or bad dimension,
  /// NotFound when the range touches no segment.
  Result<RangeAggregate> Aggregate(double t_begin, double t_end,
                                   size_t dim) const;

  /// Maximal time intervals within [t_begin, t_end] where the stored
  /// approximation of dimension `dim` is strictly above `threshold`.
  /// Coverage gaps always terminate an interval.
  std::vector<std::pair<double, double>> IntervalsAbove(double threshold,
                                                        double t_begin,
                                                        double t_end,
                                                        size_t dim) const;

 private:
  // Index of the first segment with t_end >= t.
  size_t LowerBound(double t) const;

  size_t dimensions_;
  std::vector<Segment> segments_;
};

}  // namespace plastream

#endif  // PLASTREAM_CORE_SEGMENT_STORE_H_
