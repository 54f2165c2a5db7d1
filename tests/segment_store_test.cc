// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Unit and property tests for SegmentStore: incremental chain validation,
// point/range queries, trapezoid integration, threshold intervals, and
// bit-identity of the range-aggregate kernel with the plain clipped scan.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/segment_store.h"
#include "core/slide_filter.h"
#include "datagen/sea_surface.h"
#include "datagen/shapes.h"
#include "eval/metrics.h"
#include "eval/runner.h"

namespace plastream {
namespace {

Segment MakeSegment(double t0, double t1, double x0, double x1,
                    bool connected = false) {
  Segment seg;
  seg.t_start = t0;
  seg.t_end = t1;
  seg.x_start = {x0};
  seg.x_end = {x1};
  seg.connected_to_prev = connected;
  return seg;
}

TEST(SegmentStoreTest, AppendValidatesIncrementally) {
  SegmentStore store(1);
  EXPECT_TRUE(store.Append(MakeSegment(0, 2, 0, 4)).ok());
  // Overlap.
  EXPECT_EQ(store.Append(MakeSegment(1, 3, 0, 1)).code(),
            StatusCode::kOutOfOrder);
  // Connected without sharing the junction.
  EXPECT_EQ(store.Append(MakeSegment(2, 4, 3.5, 0, true)).code(),
            StatusCode::kInvalidArgument);
  // Proper continuation.
  EXPECT_TRUE(store.Append(MakeSegment(2, 4, 4, 0, true)).ok());
  EXPECT_EQ(store.segment_count(), 2u);
  EXPECT_DOUBLE_EQ(store.t_min(), 0.0);
  EXPECT_DOUBLE_EQ(store.t_max(), 4.0);
}

TEST(SegmentStoreTest, RejectsBadFirstSegment) {
  SegmentStore store(1);
  EXPECT_EQ(store.Append(MakeSegment(0, 1, 0, 1, true)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Append(MakeSegment(2, 1, 0, 1)).code(),
            StatusCode::kInvalidArgument);
  Segment nan_seg = MakeSegment(0, 1, 0, 1);
  nan_seg.x_end[0] = std::nan("");
  EXPECT_EQ(store.Append(nan_seg).code(), StatusCode::kInvalidArgument);
  Segment wrong_dim = MakeSegment(0, 1, 0, 1);
  wrong_dim.x_start = {0.0, 0.0};
  wrong_dim.x_end = {1.0, 1.0};
  EXPECT_EQ(store.Append(wrong_dim).code(), StatusCode::kInvalidArgument);
}

TEST(SegmentStoreTest, ValueAtMatchesReconstruction) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 0, 20)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(15, 20, 5, 5)).ok());
  EXPECT_DOUBLE_EQ(*store.ValueAt(5, 0), 10.0);
  EXPECT_DOUBLE_EQ(*store.ValueAt(17, 0), 5.0);
  EXPECT_EQ(store.ValueAt(12, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.ValueAt(5, 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SegmentStoreTest, AggregateHandComputed) {
  SegmentStore store(1);
  // Ramp 0->10 over [0,10]: integral 50, mean 5, min 0, max 10.
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 0, 10)).ok());
  const auto agg = store.Aggregate(0, 10, 0);
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg->integral, 50.0);
  EXPECT_DOUBLE_EQ(agg->mean, 5.0);
  EXPECT_DOUBLE_EQ(agg->min, 0.0);
  EXPECT_DOUBLE_EQ(agg->max, 10.0);
  EXPECT_DOUBLE_EQ(agg->covered_duration, 10.0);
  EXPECT_EQ(agg->segments_touched, 1u);
}

TEST(SegmentStoreTest, AggregateClipsToRange) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 0, 10)).ok());
  // Clip [4, 6]: values 4..6, integral 10, mean 5.
  const auto agg = store.Aggregate(4, 6, 0);
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg->min, 4.0);
  EXPECT_DOUBLE_EQ(agg->max, 6.0);
  EXPECT_DOUBLE_EQ(agg->integral, 10.0);
  EXPECT_DOUBLE_EQ(agg->mean, 5.0);
}

TEST(SegmentStoreTest, AggregateSkipsGaps) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 2, 1, 1)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(8, 10, 3, 3)).ok());
  const auto agg = store.Aggregate(0, 10, 0);
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg->covered_duration, 4.0);
  EXPECT_DOUBLE_EQ(agg->integral, 2.0 * 1 + 2.0 * 3);
  EXPECT_DOUBLE_EQ(agg->mean, 2.0);
  EXPECT_EQ(agg->segments_touched, 2u);
}

TEST(SegmentStoreTest, AggregateRangeInsideGapIsNotFound) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 2, 1, 1)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(8, 10, 3, 3)).ok());
  // Both a window and a single instant strictly inside the gap miss.
  EXPECT_EQ(store.Aggregate(3, 7, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Aggregate(5, 5, 0).status().code(), StatusCode::kNotFound);
  // A range that merely *touches* a segment boundary does not miss.
  EXPECT_TRUE(store.Aggregate(2, 7, 0).ok());
}

TEST(SegmentStoreTest, AggregateAtJunctionInstant) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 2, 0, 4)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(2, 4, 4, 0, true)).ok());
  // t_begin == t_end == the junction: both segments touch, the covered
  // duration is zero, and the instant-query value is the junction value.
  const auto agg = store.Aggregate(2, 2, 0);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->segments_touched, 2u);
  EXPECT_DOUBLE_EQ(agg->covered_duration, 0.0);
  EXPECT_DOUBLE_EQ(agg->integral, 0.0);
  EXPECT_DOUBLE_EQ(agg->min, 4.0);
  EXPECT_DOUBLE_EQ(agg->max, 4.0);
  EXPECT_DOUBLE_EQ(agg->mean, 4.0);
}

TEST(SegmentStoreTest, AggregateSingleInstantInsideSegment) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 0, 10)).ok());
  const auto agg = store.Aggregate(5, 5, 0);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->segments_touched, 1u);
  EXPECT_DOUBLE_EQ(agg->covered_duration, 0.0);
  EXPECT_DOUBLE_EQ(agg->min, 5.0);
  EXPECT_DOUBLE_EQ(agg->max, 5.0);
  EXPECT_DOUBLE_EQ(agg->mean, 5.0);
  // The same instant at the very edges of coverage.
  EXPECT_DOUBLE_EQ(store.Aggregate(0, 0, 0)->mean, 0.0);
  EXPECT_DOUBLE_EQ(store.Aggregate(10, 10, 0)->mean, 10.0);
}

TEST(SegmentStoreTest, AggregateErrorsOnEmptyRange) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 2, 1, 1)).ok());
  EXPECT_EQ(store.Aggregate(5, 7, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Aggregate(7, 5, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SegmentStoreTest, AggregateMatchesSineIntegral) {
  // Store a fine PLA of a sine wave and compare the trapezoid integral
  // against the closed form.
  SegmentStore store(1);
  const double period = 100.0;
  double prev_t = 0.0, prev_v = 0.0;
  for (int j = 1; j <= 400; ++j) {
    const double t = j * 0.5;
    const double v = std::sin(2 * M_PI * t / period);
    ASSERT_TRUE(store
                    .Append(MakeSegment(prev_t, t, prev_v, v,
                                        /*connected=*/j > 1))
                    .ok());
    prev_t = t;
    prev_v = v;
  }
  // Integral over two full periods is ~0; over a half period it is
  // period/pi.
  EXPECT_NEAR(store.Aggregate(0, 200, 0)->integral, 0.0, 1e-2);
  EXPECT_NEAR(store.Aggregate(0, 50, 0)->integral, period / M_PI, 2e-2);
  EXPECT_NEAR(store.Aggregate(0, 200, 0)->min, -1.0, 1e-3);
  EXPECT_NEAR(store.Aggregate(0, 200, 0)->max, 1.0, 1e-3);
}

TEST(SegmentStoreTest, IntervalsAboveSimpleCrossing) {
  SegmentStore store(1);
  // Triangle: up 0->10 over [0,10], down 10->0 over [10,20].
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 0, 10)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(10, 20, 10, 0, true)).ok());
  const auto intervals = store.IntervalsAbove(5.0, 0, 20, 0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0].first, 5.0);
  EXPECT_DOUBLE_EQ(intervals[0].second, 15.0);
}

TEST(SegmentStoreTest, IntervalsAboveRespectsGapsAndClipping) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 4, 8, 8)).ok());   // above
  ASSERT_TRUE(store.Append(MakeSegment(6, 10, 8, 8)).ok());  // above, after gap
  const auto intervals = store.IntervalsAbove(5.0, 1, 9, 0);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(intervals[0].first, 1.0);
  EXPECT_DOUBLE_EQ(intervals[0].second, 4.0);
  EXPECT_DOUBLE_EQ(intervals[1].first, 6.0);
  EXPECT_DOUBLE_EQ(intervals[1].second, 9.0);
}

TEST(SegmentStoreTest, IntervalsAboveNoneWhenBelow) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 1, 2)).ok());
  EXPECT_TRUE(store.IntervalsAbove(5.0, 0, 10, 0).empty());
  EXPECT_TRUE(store.IntervalsAbove(5.0, 20, 30, 0).empty());
}

// Integration: filter a real-shaped signal, archive it, and check the
// error-bounded analytics contract: the aggregate of the approximation is
// within epsilon of the aggregate of the raw samples.
TEST(SegmentStoreTest, ErrorBoundedAnalyticsOverFilteredSignal) {
  const Signal signal = *GenerateSeaSurfaceTemperature({});
  const double eps = signal.Range(0) * 0.02;
  const auto run = RunFilter(FilterSpec{.family = "slide"},
                             FilterOptions::Scalar(eps), signal)
                       .value();
  SegmentStore store(1);
  ASSERT_TRUE(store.AppendAll(run.segments).ok());

  // Compare means over a mid-trace window.
  const double t0 = 2000.0, t1 = 9000.0;
  double raw_sum = 0.0;
  size_t raw_count = 0;
  double raw_min = 1e300, raw_max = -1e300;
  for (const DataPoint& p : signal.points) {
    if (p.t < t0 || p.t > t1) continue;
    raw_sum += p.x[0];
    ++raw_count;
    raw_min = std::min(raw_min, p.x[0]);
    raw_max = std::max(raw_max, p.x[0]);
  }
  ASSERT_GT(raw_count, 0u);
  const auto agg = store.Aggregate(t0, t1, 0);
  ASSERT_TRUE(agg.ok());
  // Uniform sampling makes the time-weighted mean comparable to the raw
  // sample mean; both sides are epsilon-close pointwise.
  EXPECT_NEAR(agg->mean, raw_sum / raw_count, eps + 0.05);
  EXPECT_NEAR(agg->min, raw_min, eps + 1e-9);
  EXPECT_NEAR(agg->max, raw_max, eps + 1e-9);
}

TEST(SegmentStoreTest, MultiDimensionalQueries) {
  SegmentStore store(2);
  Segment seg;
  seg.t_start = 0;
  seg.t_end = 10;
  seg.x_start = {0.0, 100.0};
  seg.x_end = {10.0, 90.0};
  ASSERT_TRUE(store.Append(seg).ok());
  EXPECT_DOUBLE_EQ(*store.ValueAt(5, 0), 5.0);
  EXPECT_DOUBLE_EQ(*store.ValueAt(5, 1), 95.0);
  EXPECT_DOUBLE_EQ(store.Aggregate(0, 10, 1)->mean, 95.0);
}

// --- Aggregate exactness ---------------------------------------------------

// The plain clipped scan Aggregate used to run, kept as the reference: every touched
// segment is clipped and evaluated through Segment::ValueAt. nullopt where
// the store answers NotFound.
std::optional<SegmentStore::RangeAggregate> ReferenceAggregate(
    std::span<const Segment> segments, double t_begin, double t_end,
    size_t dim) {
  SegmentStore::RangeAggregate agg;
  bool any = false;
  for (const Segment& seg : segments) {
    if (seg.t_start > t_end) break;
    const double a = std::max(seg.t_start, t_begin);
    const double b = std::min(seg.t_end, t_end);
    if (a > b) continue;
    const double va = seg.ValueAt(a, dim);
    const double vb = seg.ValueAt(b, dim);
    if (!any) {
      agg.min = std::min(va, vb);
      agg.max = std::max(va, vb);
      any = true;
    } else {
      agg.min = std::min({agg.min, va, vb});
      agg.max = std::max({agg.max, va, vb});
    }
    agg.integral += 0.5 * (va + vb) * (b - a);
    agg.covered_duration += b - a;
    ++agg.segments_touched;
  }
  if (!any) return std::nullopt;
  agg.mean = agg.covered_duration > 0.0
                 ? agg.integral / agg.covered_duration
                 : 0.5 * (agg.min + agg.max);
  return agg;
}

// Bit pattern of a double: stricter than ==, which equates +0 and -0.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Checks Aggregate against the reference over [t_begin, t_end], dim.
void ExpectSameAggregate(const SegmentStore& store, double t_begin,
                         double t_end, size_t dim) {
  SCOPED_TRACE(::testing::Message() << std::setprecision(17) << "window ["
                                    << t_begin << ", " << t_end << "] dim "
                                    << dim);
  const auto want = ReferenceAggregate(store.segments(), t_begin, t_end, dim);
  const auto got = store.Aggregate(t_begin, t_end, dim);
  ASSERT_EQ(got.ok(), want.has_value()) << got.status().ToString();
  if (!want.has_value()) {
    EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
    return;
  }
  EXPECT_EQ(Bits(got->min), Bits(want->min));
  EXPECT_EQ(Bits(got->max), Bits(want->max));
  EXPECT_EQ(Bits(got->integral), Bits(want->integral));
  EXPECT_EQ(Bits(got->covered_duration), Bits(want->covered_duration));
  EXPECT_EQ(Bits(got->mean), Bits(want->mean));
  EXPECT_EQ(got->segments_touched, want->segments_touched);
}

// A seeded d-dimensional chain starting at t0 that mixes connected
// pieces, disconnected jumps, coverage gaps, and point segments (some of
// them with x_end != x_start, which ValueAt ignores), over values that
// include exact +0 and -0.
std::vector<Segment> RandomChain(Rng& rng, size_t d, double t0, size_t n) {
  std::vector<Segment> chain;
  DimVec x(d);
  double t = t0;
  const double scale = std::pow(10.0, rng.Uniform(-3.0, 6.0));
  auto next_value = [&](double prev) {
    const uint64_t kind = rng.UniformInt(10);
    if (kind == 0) return 0.0;
    if (kind == 1) return -0.0;
    if (kind == 2) return prev;
    return prev + scale * rng.Gaussian();
  };
  for (size_t k = 0; k < n; ++k) {
    Segment seg;
    const uint64_t kind = rng.UniformInt(8);
    const bool gap = k > 0 && kind == 0;
    const bool jump = k > 0 && kind == 1;
    const bool point = kind == 2 || kind == 3;
    if (gap) t += rng.Uniform(0.5, 4.0);
    seg.t_start = t;
    seg.x_start = x;
    if (k == 0 || gap || jump) {
      for (size_t i = 0; i < d; ++i) seg.x_start[i] = next_value(x[i]);
    }
    seg.connected_to_prev = k > 0 && !gap && !jump;
    if (point) {
      seg.t_end = t;
    } else {
      // Integral, binary-fractional and arbitrary lengths.
      const uint64_t len = rng.UniformInt(3);
      seg.t_end = t + (len == 0   ? static_cast<double>(1 + rng.UniformInt(4))
                       : len == 1 ? 0.25 * static_cast<double>(
                                               1 + rng.UniformInt(8))
                                  : rng.Uniform(0.01, 3.0));
    }
    seg.x_end = seg.x_start;
    if (!point || rng.Bernoulli(0.3)) {
      for (size_t i = 0; i < d; ++i) seg.x_end[i] = next_value(seg.x_start[i]);
    }
    t = seg.t_end;
    x = seg.x_end;
    chain.push_back(std::move(seg));
  }
  return chain;
}

TEST(SegmentStoreTest, AggregateKernelEdgeCases) {
  SegmentStore store(1);
  // [0,2] ramp, point at 2, [2,4] connected, [4,6] disconnected jump,
  // gap, [8,10], point at 11.
  ASSERT_TRUE(store.Append(MakeSegment(0, 2, -0.0, 3)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(2, 2, 3, 3, true)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(2, 4, 3, 0.0, true)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(4, 6, -0.0, -5)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(8, 10, 1, 2)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(11, 11, 7, 7)).ok());
  const double windows[][2] = {
      {0, 10},   // run holds the point at 2; clipped nothing
      {-1, 12},  // whole chain, starting and ending in uncovered time
      {1, 9},    // clipped head and tail
      {0, 2},    // run ends on the junction at 2 (the [2,4] piece starts)
      {1, 4},    // run ends where the jump's segment starts
      {0.5, 1},  // inside one segment: no run at all
      {2, 2},    // instant on the junction with a point segment
      {6, 6},    // instant at a chain end before a gap
      {6.5, 7},  // entirely inside the gap: NotFound
      {5, 8},    // starts in a segment, ends on a segment start after a gap
      {7, 11},   // starts in a gap, ends on the trailing point
      {11, 11},  // instant on the trailing point
  };
  for (const auto& w : windows) ExpectSameAggregate(store, w[0], w[1], 0);
  EXPECT_EQ(store.Aggregate(0, 10, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SegmentStoreTest, AggregateBitIdenticalToReferenceLoop) {
  // Window kinds the kernel splits on, counted so the sweep provably
  // reaches each of them.
  size_t run_with_point = 0, run_ends_on_junction = 0, no_run = 0,
         clipped_tail = 0, instants = 0;
  uint64_t seed = 0;
  for (const size_t d : {1, 4, 12}) {
    for (const double t0 : {0.0, 1.7e9, 1.7e12}) {
      for (int rep = 0; rep < 6; ++rep) {
        Rng rng(++seed);
        const std::vector<Segment> chain = RandomChain(rng, d, t0, 120);
        SegmentStore store(d);
        ASSERT_TRUE(store.AppendAll(chain).ok());
        // Window ends: segment boundaries (so windows start and end on
        // junctions and points), gap midpoints, and arbitrary times around
        // the chain.
        std::vector<double> ends;
        for (size_t k = 0; k < chain.size(); ++k) {
          ends.push_back(chain[k].t_start);
          ends.push_back(chain[k].t_end);
          if (k > 0 && chain[k].t_start > chain[k - 1].t_end) {
            ends.push_back(0.5 * (chain[k - 1].t_end + chain[k].t_start));
          }
        }
        const double lo = store.t_min() - 2.0, hi = store.t_max() + 2.0;
        for (int w = 0; w < 150; ++w) {
          double a = rng.Bernoulli(0.6) ? ends[rng.UniformInt(ends.size())]
                                        : rng.Uniform(lo, hi);
          double b = rng.Bernoulli(0.15) ? a
                     : rng.Bernoulli(0.6) ? ends[rng.UniformInt(ends.size())]
                                          : rng.Uniform(lo, hi);
          if (b < a) std::swap(a, b);
          for (size_t dim = 0; dim < d; ++dim) {
            ExpectSameAggregate(store, a, b, dim);
          }
          // Classify the window as the kernel sees it: the first touched
          // segment, then the run wholly inside, then at most one more.
          size_t k = 0;
          while (k < chain.size() && chain[k].t_end < a) ++k;
          if (k == chain.size() || chain[k].t_start > b) continue;
          instants += a == b;
          size_t run = 0;
          bool point = false;
          for (++k; k < chain.size() && chain[k].t_end <= b; ++k, ++run) {
            point = point || chain[k].IsPoint();
          }
          no_run += run == 0;
          run_with_point += point;
          if (k < chain.size() && chain[k].t_start <= b) {
            ++clipped_tail;
            run_ends_on_junction += run > 0 && chain[k].t_start == b;
          }
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(run_with_point, 0u);
  EXPECT_GT(run_ends_on_junction, 0u);
  EXPECT_GT(no_run, 0u);
  EXPECT_GT(clipped_tail, 0u);
  EXPECT_GT(instants, 0u);
}

}  // namespace
}  // namespace plastream
