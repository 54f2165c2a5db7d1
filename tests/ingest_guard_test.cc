// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Ingest-guard unit tests: policy spec parsing and formatting, the guard
// decision semantics (reorder, nan, gap, duplicate policies) against a
// real filter, Filter::Cut across every family, and the wiring through
// FilterBank, Pipeline::Builder::Ingest and the `[pipeline] ingest =`
// config key — including the Stats().ingest counters.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/filter_registry.h"
#include "stream/filter_bank.h"
#include "stream/ingest_guard.h"
#include "stream/pipeline.h"

namespace plastream {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::unique_ptr<Filter> MakeScalarFilter(const std::string& spec) {
  return MakeFilter(spec).value();
}

// --- policy parsing ----------------------------------------------------------

TEST(IngestPolicyTest, DefaultIsPassThrough) {
  const IngestPolicy policy;
  EXPECT_TRUE(policy.pass_through());
  EXPECT_EQ(policy.Format(), "pass");
}

TEST(IngestPolicyTest, ParsesPass) {
  const auto policy = IngestPolicy::Parse("pass");
  ASSERT_TRUE(policy.ok());
  EXPECT_TRUE(policy.value().pass_through());
}

TEST(IngestPolicyTest, ParsesFullGuardSpec) {
  const auto policy =
      IngestPolicy::Parse("guard(reorder=16,nan=gap,max_dt=5.5,dup=first)");
  ASSERT_TRUE(policy.ok());
  EXPECT_FALSE(policy.value().pass_through());
  EXPECT_EQ(policy.value().reorder, 16u);
  EXPECT_EQ(policy.value().nan, NanPolicy::kGap);
  EXPECT_EQ(policy.value().dup, DupPolicy::kFirst);
  EXPECT_DOUBLE_EQ(policy.value().max_dt, 5.5);
}

TEST(IngestPolicyTest, FormatParseRoundTrips) {
  for (const char* text :
       {"pass", "guard(reorder=8)", "guard(dup=first,nan=skip)",
        "guard(dup=last,max_dt=2.5,nan=gap,reorder=4)"}) {
    const auto policy = IngestPolicy::Parse(text);
    ASSERT_TRUE(policy.ok()) << text;
    const auto reparsed = IngestPolicy::Parse(policy.value().Format());
    ASSERT_TRUE(reparsed.ok()) << policy.value().Format();
    EXPECT_EQ(policy.value(), reparsed.value()) << text;
    EXPECT_EQ(policy.value().Format(), reparsed.value().Format()) << text;
  }
}

TEST(IngestPolicyTest, RejectsBadSpecs) {
  // Unknown family, unknown parameter, bad values, eps on an ingest spec.
  for (const char* text :
       {"shield", "guard(window=4)", "guard(reorder=-1)", "guard(nan=maybe)",
        "guard(dup=sometimes)", "guard(max_dt=-2)", "guard(max_dt=nan)",
        "guard(eps=0.5)", "pass(reorder=4)"}) {
    const auto policy = IngestPolicy::Parse(text);
    EXPECT_FALSE(policy.ok()) << text;
    EXPECT_EQ(policy.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(IngestPolicyTest, DupLastRequiresReorderBuffer) {
  const auto policy = IngestPolicy::Parse("guard(dup=last)");
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(IngestPolicy::Parse("guard(dup=last,reorder=1)").ok());
}

// --- filter-level duplicate and non-finite behavior (pinned) -----------------

// Duplicate timestamps at a bare filter are always OutOfOrder, for every
// family, and the message says "duplicate" (distinguishing them from
// regressions); graceful handling lives exclusively in the guard.
TEST(FilterContractTest, DuplicateTimestampIsOutOfOrderForEveryFamily) {
  for (const char* family : {"cache", "linear", "swing", "slide", "kalman"}) {
    auto filter = MakeScalarFilter(std::string(family) + "(eps=0.5)");
    ASSERT_TRUE(filter->Append(DataPoint::Scalar(1.0, 1.0)).ok()) << family;
    const Status dup = filter->Append(DataPoint::Scalar(1.0, 2.0));
    EXPECT_EQ(dup.code(), StatusCode::kOutOfOrder) << family;
    EXPECT_NE(dup.message().find("duplicate"), std::string::npos)
        << family << ": " << dup.message();
    // The stream is still usable afterwards.
    EXPECT_TRUE(filter->Append(DataPoint::Scalar(2.0, 1.0)).ok()) << family;
  }
}

// Non-finite timestamps and values are InvalidArgument at Append for
// every family — never silently admitted into the approximation.
TEST(FilterContractTest, NonFiniteInputIsRejectedForEveryFamily) {
  for (const char* family : {"cache", "linear", "swing", "slide", "kalman"}) {
    auto filter = MakeScalarFilter(std::string(family) + "(eps=0.5)");
    for (const DataPoint& bad :
         {DataPoint::Scalar(kNaN, 1.0), DataPoint::Scalar(kInf, 1.0),
          DataPoint::Scalar(-kInf, 1.0), DataPoint::Scalar(1.0, kNaN),
          DataPoint::Scalar(1.0, kInf), DataPoint::Scalar(1.0, -kInf)}) {
      const Status st = filter->Append(bad);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << family << " accepted t=" << bad.t << " x=" << bad.x[0];
    }
    // Rejections leave the ordering state untouched.
    EXPECT_TRUE(filter->Append(DataPoint::Scalar(1.0, 1.0)).ok()) << family;
    EXPECT_TRUE(filter->Append(DataPoint::Scalar(2.0, 2.0)).ok()) << family;
  }
}

// A multi-dimensional point with one NaN dimension is rejected whole.
TEST(FilterContractTest, NonFiniteRejectionCoversEveryDimension) {
  auto filter = MakeFilter("slide(eps=0.5,dims=3)").value();
  const Status st = filter->Append(DataPoint(1.0, {1.0, kNaN, 3.0}));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// --- Filter::Cut -------------------------------------------------------------

TEST(FilterCutTest, CutSplitsTheChainForEveryFamily) {
  for (const char* family : {"cache", "linear", "swing", "slide", "kalman"}) {
    auto filter = MakeScalarFilter(std::string(family) + "(eps=0.1)");
    for (double t = 1.0; t <= 5.0; t += 1.0) {
      ASSERT_TRUE(filter->Append(DataPoint::Scalar(t, 10.0 * t)).ok())
          << family;
    }
    ASSERT_TRUE(filter->Cut().ok()) << family;
    EXPECT_EQ(filter->cuts(), 1u) << family;
    for (double t = 6.0; t <= 10.0; t += 1.0) {
      ASSERT_TRUE(filter->Append(DataPoint::Scalar(t, -7.0 * t)).ok())
          << family;
    }
    ASSERT_TRUE(filter->Finish().ok()) << family;

    const std::vector<Segment> segments = filter->TakeSegments();
    ASSERT_FALSE(segments.empty()) << family;
    EXPECT_TRUE(ValidateSegmentChain(segments).ok()) << family;
    // Some segment boundary at the cut is disconnected: find the first
    // segment starting at or after t=6 and check it does not connect.
    bool found_break = false;
    for (const Segment& segment : segments) {
      if (segment.t_start >= 6.0 && !segment.connected_to_prev) {
        found_break = true;
      }
      // No segment may span the cut.
      EXPECT_FALSE(segment.t_start <= 5.0 && segment.t_end >= 6.0) << family;
    }
    EXPECT_TRUE(found_break) << family;
  }
}

TEST(FilterCutTest, CutOnFreshFilterIsANoOp) {
  auto filter = MakeScalarFilter("slide(eps=0.1)");
  EXPECT_TRUE(filter->Cut().ok());
  EXPECT_TRUE(filter->Append(DataPoint::Scalar(1.0, 1.0)).ok());
  EXPECT_TRUE(filter->Finish().ok());
  EXPECT_EQ(filter->TakeSegments().size(), 1u);
}

TEST(FilterCutTest, TimeOrderingIsEnforcedAcrossCuts) {
  auto filter = MakeScalarFilter("linear(eps=0.1)");
  ASSERT_TRUE(filter->Append(DataPoint::Scalar(1.0, 1.0)).ok());
  ASSERT_TRUE(filter->Append(DataPoint::Scalar(2.0, 2.0)).ok());
  ASSERT_TRUE(filter->Cut().ok());
  // A cut is not a time reset: going backwards is still an error.
  EXPECT_EQ(filter->Append(DataPoint::Scalar(1.5, 1.0)).code(),
            StatusCode::kOutOfOrder);
  EXPECT_EQ(filter->Append(DataPoint::Scalar(2.0, 1.0)).code(),
            StatusCode::kOutOfOrder);
  EXPECT_TRUE(filter->Append(DataPoint::Scalar(3.0, 1.0)).ok());
}

TEST(FilterCutTest, CutAfterFinishFails) {
  auto filter = MakeScalarFilter("cache(eps=0.1)");
  ASSERT_TRUE(filter->Append(DataPoint::Scalar(1.0, 1.0)).ok());
  ASSERT_TRUE(filter->Finish().ok());
  EXPECT_EQ(filter->Cut().code(), StatusCode::kFailedPrecondition);
}

// --- guard semantics against a real filter -----------------------------------

class GuardTest : public ::testing::Test {
 protected:
  void Attach(const std::string& policy_text) {
    filter_ = MakeScalarFilter("linear(eps=0.25)");
    guard_ = std::make_unique<IngestGuard>(
        IngestPolicy::Parse(policy_text).value(), filter_.get());
  }

  std::vector<Segment> Drain() {
    EXPECT_TRUE(guard_->Flush().ok());
    EXPECT_TRUE(filter_->Finish().ok());
    return filter_->TakeSegments();
  }

  std::unique_ptr<Filter> filter_;
  std::unique_ptr<IngestGuard> guard_;
};

TEST_F(GuardTest, ReorderBufferRestoresTimeOrder) {
  Attach("guard(reorder=4)");
  // 1, 2, 4, 5, 3: the 3 is two positions late, within the window.
  for (double t : {1.0, 2.0, 4.0, 5.0, 3.0}) {
    ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(t, t)).ok()) << t;
  }
  EXPECT_EQ(guard_->stats().reordered, 1u);
  EXPECT_EQ(guard_->stats().late_dropped, 0u);
  const auto segments = Drain();
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(filter_->points_seen(), 5u);
  EXPECT_TRUE(ValidateSegmentChain(segments).ok());
}

TEST_F(GuardTest, PointsBeyondTheWindowAreDroppedAndCounted) {
  Attach("guard(reorder=2)");
  for (double t : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
    ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(t, t)).ok());
  }
  // 1..4 have been released (buffer holds 5, 6); t=2.5 is under the
  // watermark and unplaceable.
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(2.5, 99.0)).ok());
  EXPECT_EQ(guard_->stats().late_dropped, 1u);
  Drain();
  EXPECT_EQ(filter_->points_seen(), 6u);
}

TEST_F(GuardTest, NanRejectMatchesBareFilter) {
  Attach("guard(reorder=2)");
  const Status st = guard_->Admit(DataPoint::Scalar(1.0, kNaN));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(GuardTest, NanSkipDropsAndCounts) {
  Attach("guard(nan=skip)");
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 1.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(2.0, kNaN)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(3.0, kInf)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(4.0, 4.0)).ok());
  EXPECT_EQ(guard_->stats().nan_skipped, 2u);
  Drain();
  EXPECT_EQ(filter_->points_seen(), 2u);
}

TEST_F(GuardTest, NanGapCutsTheChain) {
  Attach("guard(nan=gap)");
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 0.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(2.0, 10.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(2.5, kNaN)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(3.0, 0.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(4.0, -10.0)).ok());
  EXPECT_EQ(guard_->stats().nan_gaps, 1u);
  const auto segments = Drain();
  EXPECT_EQ(filter_->cuts(), 1u);
  // Nothing spans the hole: no segment covers both t=2 and t=3.
  for (const Segment& segment : segments) {
    EXPECT_FALSE(segment.t_start <= 2.0 && segment.t_end >= 3.0)
        << segment.ToString();
  }
}

TEST_F(GuardTest, MaxDtGapCutsTheChain) {
  Attach("guard(max_dt=2)");
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 1.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(2.0, 2.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(10.0, 3.0)).ok());  // 8s hole
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(11.0, 4.0)).ok());
  EXPECT_EQ(guard_->stats().gaps_cut, 1u);
  const auto segments = Drain();
  EXPECT_EQ(filter_->points_seen(), 4u);
  for (const Segment& segment : segments) {
    EXPECT_FALSE(segment.t_start <= 2.0 && segment.t_end >= 10.0)
        << segment.ToString();
  }
}

TEST_F(GuardTest, DupErrorMatchesBareFilter) {
  Attach("guard(reorder=2)");
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 1.0)).ok());
  const Status dup = guard_->Admit(DataPoint::Scalar(1.0, 2.0));
  EXPECT_EQ(dup.code(), StatusCode::kOutOfOrder);
  EXPECT_NE(dup.message().find("duplicate"), std::string::npos);
}

TEST_F(GuardTest, DupFirstKeepsTheFirstValue) {
  Attach("guard(reorder=2,dup=first)");
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 5.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 500.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(2.0, 5.0)).ok());
  EXPECT_EQ(guard_->stats().dups_resolved, 1u);
  const auto segments = Drain();
  ASSERT_FALSE(segments.empty());
  // The admitted value at t=1 is the first one.
  EXPECT_NEAR(segments.front().ValueAt(1.0, 0), 5.0, 0.25 + 1e-9);
}

TEST_F(GuardTest, DupFirstWithoutBufferAbsorbsRepeatOfPrevious) {
  Attach("guard(dup=first)");  // reorder=0
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 5.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 500.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(2.0, 5.0)).ok());
  EXPECT_EQ(guard_->stats().dups_resolved, 1u);
  Drain();
  EXPECT_EQ(filter_->points_seen(), 2u);
}

TEST_F(GuardTest, DupLastReplacesWhileBuffered) {
  Attach("guard(reorder=2,dup=last)");
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 500.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 5.0)).ok());  // replaces
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(2.0, 5.0)).ok());
  EXPECT_EQ(guard_->stats().dups_resolved, 1u);
  const auto segments = Drain();
  ASSERT_FALSE(segments.empty());
  EXPECT_NEAR(segments.front().ValueAt(1.0, 0), 5.0, 0.25 + 1e-9);
}

TEST_F(GuardTest, DupLastOfAReleasedPointDegradesToLate) {
  Attach("guard(reorder=1,dup=last)");
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 1.0)).ok());
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(2.0, 2.0)).ok());  // releases 1
  ASSERT_TRUE(guard_->Admit(DataPoint::Scalar(1.0, 99.0)).ok());
  EXPECT_EQ(guard_->stats().late_dropped, 1u);
  EXPECT_EQ(guard_->stats().dups_resolved, 0u);
  Drain();
  EXPECT_EQ(filter_->points_seen(), 2u);
}

TEST_F(GuardTest, NonFiniteTimestampIsAlwaysAnError) {
  Attach("guard(reorder=4,nan=skip)");
  EXPECT_EQ(guard_->Admit(DataPoint::Scalar(kNaN, 1.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(guard_->Admit(DataPoint::Scalar(kInf, 1.0)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GuardTest, DimensionMismatchIsAlwaysAnError) {
  Attach("guard(reorder=4,nan=skip)");
  EXPECT_EQ(guard_->Admit(DataPoint(1.0, {1.0, 2.0})).code(),
            StatusCode::kInvalidArgument);
}

// --- reorder buffer against a reference model --------------------------------

// Records every point it is handed, in order; no approximation.
class RecordingFilter final : public Filter {
 public:
  RecordingFilter() : Filter(FilterOptions::Uniform(1, 1.0)) {}
  std::string_view name() const override { return "recording"; }
  std::vector<DataPoint> forwarded;

 protected:
  Status AppendValidated(const DataPoint& point) override {
    forwarded.push_back(point);
    return Status::OK();
  }
  Status FinishImpl() override { return Status::OK(); }
  Status CutImpl() override { return Status::OK(); }
};

// The reorder window as a specification: an arrival-order buffer that is
// stable-sorted before every release, behind the same watermark rules.
class ReferenceGuard {
 public:
  ReferenceGuard(size_t reorder, DupPolicy dup)
      : reorder_(reorder), dup_(dup) {}

  StatusCode Admit(const DataPoint& point) {
    if (has_watermark_ && point.t <= watermark_) {
      if (point.t == watermark_ && dup_ == DupPolicy::kError) {
        return StatusCode::kOutOfOrder;
      }
      if (point.t == watermark_ && dup_ == DupPolicy::kFirst) {
        ++stats.dups_resolved;
      } else {
        ++stats.late_dropped;
      }
      return StatusCode::kOk;
    }
    for (DataPoint& held : buffer_) {
      if (held.t != point.t) continue;
      if (dup_ == DupPolicy::kError) return StatusCode::kOutOfOrder;
      if (dup_ == DupPolicy::kLast) held.x = point.x;
      ++stats.dups_resolved;
      return StatusCode::kOk;
    }
    for (const DataPoint& held : buffer_) {
      if (held.t > point.t) {
        ++stats.reordered;
        break;
      }
    }
    buffer_.push_back(point);
    Release(reorder_);
    return StatusCode::kOk;
  }

  void Release(size_t keep) {
    std::stable_sort(
        buffer_.begin(), buffer_.end(),
        [](const DataPoint& a, const DataPoint& b) { return a.t < b.t; });
    while (buffer_.size() > keep) {
      forwarded.push_back(buffer_.front());
      has_watermark_ = true;
      watermark_ = buffer_.front().t;
      buffer_.erase(buffer_.begin());
    }
  }

  size_t buffered() const { return buffer_.size(); }

  std::vector<DataPoint> forwarded;
  IngestGuardStats stats;

 private:
  size_t reorder_;
  DupPolicy dup_;
  std::vector<DataPoint> buffer_;
  bool has_watermark_ = false;
  double watermark_ = 0.0;
};

// Arrivals over epoch-millisecond ticks: mostly in order, some displaced
// by up to twice the window (so some land beyond it and drop as late),
// and some repeating a recent tick with a new value.
std::vector<DataPoint> MessyArrivals(uint64_t seed, size_t reorder) {
  Rng rng(seed);
  std::vector<DataPoint> arrivals;
  for (size_t i = 0; i < 3000; ++i) {
    arrivals.push_back(
        DataPoint::Scalar(1.7e12 + 1000.0 * i, rng.Uniform(-5.0, 5.0)));
  }
  for (size_t i = 0; i + 1 < arrivals.size(); ++i) {
    if (rng.Bernoulli(0.15)) {
      const size_t j = std::min(arrivals.size() - 1,
                                i + 1 + rng.UniformInt(2 * reorder + 1));
      std::swap(arrivals[i], arrivals[j]);
    }
  }
  std::vector<DataPoint> out;
  for (const DataPoint& point : arrivals) {
    out.push_back(point);
    if (out.size() > 1 && rng.Bernoulli(0.08)) {
      const size_t back = 1 + rng.UniformInt(std::min<size_t>(
                                  out.size() - 1, 2 * reorder + 1));
      out.push_back(DataPoint::Scalar(out[out.size() - 1 - back].t,
                                      rng.Uniform(-5.0, 5.0)));
    }
  }
  return out;
}

bool SamePoints(const std::vector<DataPoint>& a,
                const std::vector<DataPoint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].t != b[i].t || a[i].x[0] != b[i].x[0]) return false;
  }
  return true;
}

TEST(GuardReorderModelTest, MatchesStableSortWatermarkModel) {
  for (const size_t reorder : {1u, 8u, 32u}) {
    for (const char* dup : {"error", "first", "last"}) {
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("reorder=" + std::to_string(reorder) + " dup=" + dup +
                     " seed=" + std::to_string(seed));
        const IngestPolicy policy =
            IngestPolicy::Parse("guard(reorder=" + std::to_string(reorder) +
                                ",dup=" + dup + ")")
                .value();
        RecordingFilter filter;
        IngestGuard guard(policy, &filter);
        ReferenceGuard model(reorder, policy.dup);
        const std::vector<DataPoint> arrivals =
            MessyArrivals(seed * 7919 + reorder, reorder);
        size_t errors = 0;
        for (size_t i = 0; i < arrivals.size(); ++i) {
          const StatusCode code = guard.Admit(arrivals[i]).code();
          ASSERT_EQ(code, model.Admit(arrivals[i])) << "arrival " << i;
          if (code != StatusCode::kOk) ++errors;
          ASSERT_EQ(guard.buffered(), model.buffered()) << "arrival " << i;
          ASSERT_EQ(guard.stats(), model.stats) << "arrival " << i;
          ASSERT_EQ(filter.forwarded.size(), model.forwarded.size())
              << "arrival " << i;
        }
        ASSERT_TRUE(guard.Flush().ok());
        model.Release(0);
        EXPECT_EQ(guard.buffered(), 0u);
        EXPECT_TRUE(SamePoints(filter.forwarded, model.forwarded));
        EXPECT_EQ(guard.stats(), model.stats);
        // The sweep reached every decision it is meant to cover.
        EXPECT_GT(guard.stats().reordered, 0u);
        EXPECT_GT(guard.stats().late_dropped, 0u);
        EXPECT_GT(guard.stats().dups_resolved + errors, 0u);
      }
    }
  }
}

// --- FilterBank / Pipeline / config wiring -----------------------------------

TEST(IngestWiringTest, FilterBankAppliesThePolicyPerStream) {
  FilterBank bank([](std::string_view) { return MakeFilter("linear(eps=0.25)"); },
                  IngestPolicy::Parse("guard(reorder=2,nan=skip)").value());
  // Out-of-order within the window on one key, a NaN on another.
  ASSERT_TRUE(bank.Append("a", DataPoint::Scalar(1.0, 1.0)).ok());
  ASSERT_TRUE(bank.Append("b", DataPoint::Scalar(1.0, 1.0)).ok());
  ASSERT_TRUE(bank.Append("a", DataPoint::Scalar(3.0, 3.0)).ok());
  ASSERT_TRUE(bank.Append("a", DataPoint::Scalar(2.0, 2.0)).ok());
  ASSERT_TRUE(bank.Append("b", DataPoint::Scalar(2.0, kNaN)).ok());
  ASSERT_TRUE(bank.FinishAll().ok());
  const IngestGuardStats stats = bank.IngestStats();
  EXPECT_EQ(stats.reordered, 1u);
  EXPECT_EQ(stats.nan_skipped, 1u);
  EXPECT_EQ(bank.Stats().points, 4u);
}

TEST(IngestWiringTest, PipelineIngestSpecFlowsThroughToStats) {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("linear(eps=0.25)")
                      .Ingest("guard(reorder=4,nan=skip,dup=first)")
                      .Shards(2)
                      .Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().message();
  EXPECT_EQ((*pipeline)->GetIngestPolicy().reorder, 4u);
  ASSERT_TRUE((*pipeline)->Append("k", 1.0, 1.0).ok());
  ASSERT_TRUE((*pipeline)->Append("k", 3.0, 3.0).ok());
  ASSERT_TRUE((*pipeline)->Append("k", 2.0, 2.0).ok());   // late, repaired
  ASSERT_TRUE((*pipeline)->Append("k", 2.0, 99.0).ok());  // dup, dropped
  ASSERT_TRUE((*pipeline)->Append("k", 4.0, kNaN).ok());  // skipped
  ASSERT_TRUE((*pipeline)->Finish().ok());
  const auto stats = (*pipeline)->Stats();
  EXPECT_EQ(stats.points, 3u);
  EXPECT_EQ(stats.ingest.reordered, 1u);
  EXPECT_EQ(stats.ingest.dups_resolved, 1u);
  EXPECT_EQ(stats.ingest.nan_skipped, 1u);
}

TEST(IngestWiringTest, DefaultPipelineIsPassThrough) {
  auto pipeline =
      Pipeline::Builder().DefaultSpec("linear(eps=0.25)").Build();
  ASSERT_TRUE(pipeline.ok());
  EXPECT_TRUE((*pipeline)->GetIngestPolicy().pass_through());
  // Bare-filter semantics: duplicates error.
  ASSERT_TRUE((*pipeline)->Append("k", 1.0, 1.0).ok());
  EXPECT_EQ((*pipeline)->Append("k", 1.0, 2.0).code(),
            StatusCode::kOutOfOrder);
}

TEST(IngestWiringTest, BadIngestSpecFailsAtBuild) {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("linear(eps=0.25)")
                      .Ingest("guard(dup=last)")  // needs reorder >= 1
                      .Build();
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
}

TEST(IngestWiringTest, ConfigFileIngestKeyIsApplied) {
  auto pipeline = Pipeline::Builder()
                      .FromConfigString(
                          "* = linear(eps=0.25)\n"
                          "[pipeline]\n"
                          "ingest = guard(reorder=8,nan=gap)\n"
                          "shards = 2\n")
                      .Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().message();
  EXPECT_EQ((*pipeline)->GetIngestPolicy().reorder, 8u);
  EXPECT_EQ((*pipeline)->GetIngestPolicy().nan, NanPolicy::kGap);
}

TEST(IngestWiringTest, ConfigFileBadIngestSpecCarriesLineContext) {
  auto pipeline = Pipeline::Builder()
                      .FromConfigString(
                          "* = linear(eps=0.25)\n"
                          "[pipeline]\n"
                          "ingest = shield(up=1)\n",
                          "test.conf")
                      .Build();
  ASSERT_FALSE(pipeline.ok());
  EXPECT_NE(pipeline.status().message().find("test.conf:3"),
            std::string::npos)
      << pipeline.status().message();
}

}  // namespace
}  // namespace plastream
