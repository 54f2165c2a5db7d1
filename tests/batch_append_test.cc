// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Batch-vs-single equivalence: AppendBatch must produce byte-identical
// segment chains and statistics to per-point Append at every layer —
// Filter, FilterBank, ShardedFilterBank (several shard counts) and
// Pipeline — across filter families and dimensionalities.

#include <map>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/filter_registry.h"
#include "datagen/correlated_walk.h"
#include "stream/filter_bank.h"
#include "stream/pipeline.h"
#include "stream/sharded_filter_bank.h"

namespace plastream {
namespace {

Signal MakeSignal(size_t dims, size_t count, uint64_t seed) {
  CorrelatedWalkOptions options;
  options.count = count;
  options.dimensions = dims;
  options.correlation = 0.25;
  options.max_delta = 0.9;
  options.seed = seed;
  return GenerateCorrelatedWalk(options).value();
}

std::string SpecFor(const std::string& family, size_t dims) {
  return family + "(eps=0.4,dims=" + std::to_string(dims) + ")";
}

// Chops `points` into batches of `batch` and feeds them through
// AppendBatch; the tail batch is partial.
void AppendInBatches(Filter& filter, const std::vector<DataPoint>& points,
                     size_t batch) {
  for (size_t at = 0; at < points.size(); at += batch) {
    const size_t n = std::min(batch, points.size() - at);
    ASSERT_TRUE(
        filter.AppendBatch(std::span<const DataPoint>(&points[at], n)).ok());
  }
}

TEST(BatchAppendTest, FilterBatchMatchesSingleAcrossFamiliesAndDims) {
  const std::vector<std::string> families{"cache", "linear", "swing", "slide",
                                          "kalman"};
  for (const std::string& family : families) {
    for (const size_t dims : {1u, 4u, 8u}) {
      const Signal signal = MakeSignal(dims, 3000, 7 + dims);
      const std::string spec = SpecFor(family, dims);

      auto single = MakeFilter(spec).value();
      for (const DataPoint& p : signal.points) {
        ASSERT_TRUE(single->Append(p).ok());
      }
      ASSERT_TRUE(single->Finish().ok());
      const auto expected = single->TakeSegments();

      for (const size_t batch :
           {size_t{7}, size_t{256}, signal.points.size()}) {
        auto batched = MakeFilter(spec).value();
        AppendInBatches(*batched, signal.points, batch);
        ASSERT_TRUE(batched->Finish().ok());
        EXPECT_EQ(batched->TakeSegments(), expected)
            << family << " dims=" << dims << " batch=" << batch;
        EXPECT_EQ(batched->points_seen(), single->points_seen());
        EXPECT_EQ(batched->segments_emitted(), single->segments_emitted());
      }
    }
  }
}

TEST(BatchAppendTest, MaxLagProvisionalPathMatches) {
  const Signal signal = MakeSignal(2, 2000, 99);
  const std::string spec = "slide(eps=0.3,dims=2,max_lag=64)";
  auto single = MakeFilter(spec).value();
  for (const DataPoint& p : signal.points) ASSERT_TRUE(single->Append(p).ok());
  ASSERT_TRUE(single->Finish().ok());

  auto batched = MakeFilter(spec).value();
  AppendInBatches(*batched, signal.points, 100);
  ASSERT_TRUE(batched->Finish().ok());
  EXPECT_EQ(batched->TakeSegments(), single->TakeSegments());
  EXPECT_EQ(batched->extra_recordings(), single->extra_recordings());
}

TEST(BatchAppendTest, EmptyBatchIsANoOp) {
  auto filter = MakeFilter("swing(eps=0.5)").value();
  EXPECT_TRUE(filter->AppendBatch({}).ok());
  EXPECT_EQ(filter->points_seen(), 0u);

  FilterBank bank([](std::string_view) {
    return Result<std::unique_ptr<Filter>>(MakeFilter("swing(eps=0.5)"));
  });
  EXPECT_TRUE(bank.AppendBatch("k", {}).ok());
  EXPECT_FALSE(bank.Contains("k"));  // no filter created for an empty batch
}

TEST(BatchAppendTest, BatchStopsAtFirstErrorWithEarlierPointsApplied) {
  auto filter = MakeFilter("swing(eps=0.5)").value();
  std::vector<DataPoint> points;
  points.push_back(DataPoint::Scalar(1.0, 0.0));
  points.push_back(DataPoint::Scalar(2.0, 0.5));
  points.push_back(DataPoint::Scalar(1.5, 0.7));  // out of order
  points.push_back(DataPoint::Scalar(3.0, 0.9));
  const Status status = filter->AppendBatch(points);
  EXPECT_EQ(status.code(), StatusCode::kOutOfOrder);
  EXPECT_EQ(filter->points_seen(), 2u);  // the prefix before the error
  // The stream continues with corrected input, like the per-point path.
  EXPECT_TRUE(filter->Append(DataPoint::Scalar(2.5, 0.8)).ok());
  EXPECT_TRUE(filter->Finish().ok());
}

TEST(BatchAppendTest, FilterBankBatchMatchesSingle) {
  const auto factory = [](std::string_view) {
    return Result<std::unique_ptr<Filter>>(MakeFilter("slide(eps=0.4)"));
  };
  const Signal a = MakeSignal(1, 1500, 11);
  const Signal b = MakeSignal(1, 1500, 12);

  FilterBank single(factory);
  for (const DataPoint& p : a.points) ASSERT_TRUE(single.Append("a", p).ok());
  for (const DataPoint& p : b.points) ASSERT_TRUE(single.Append("b", p).ok());
  ASSERT_TRUE(single.FinishAll().ok());

  FilterBank batched(factory);
  for (size_t at = 0; at < a.points.size(); at += 128) {
    const size_t n = std::min<size_t>(128, a.points.size() - at);
    ASSERT_TRUE(
        batched
            .AppendBatch("a", std::span<const DataPoint>(&a.points[at], n))
            .ok());
    ASSERT_TRUE(
        batched
            .AppendBatch("b", std::span<const DataPoint>(&b.points[at], n))
            .ok());
  }
  ASSERT_TRUE(batched.FinishAll().ok());

  EXPECT_EQ(batched.TakeSegments("a").value(), single.TakeSegments("a").value());
  EXPECT_EQ(batched.TakeSegments("b").value(), single.TakeSegments("b").value());
  const auto s1 = single.Stats();
  const auto s2 = batched.Stats();
  EXPECT_EQ(s1.points, s2.points);
  EXPECT_EQ(s1.segments, s2.segments);
}

TEST(BatchAppendTest, ShardedBankMatrixMatchesSingleBaseline) {
  const size_t kKeys = 6;
  const size_t kPoints = 1200;
  std::vector<std::string> keys;
  std::vector<Signal> signals;
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back("host" + std::to_string(i) + ".metric");
    signals.push_back(MakeSignal(4, kPoints, 40 + i));
  }
  const auto factory = [](std::string_view) {
    return Result<std::unique_ptr<Filter>>(
        MakeFilter("slide(eps=0.4,dims=4)"));
  };

  // Baseline: per-point appends through a 1-shard bank.
  std::map<std::string, std::vector<Segment>> expected;
  {
    ShardedFilterBank::Options baseline_options;
    baseline_options.shards = 1;
    auto bank = ShardedFilterBank::Create(factory, baseline_options).value();
    for (size_t i = 0; i < kKeys; ++i) {
      for (const DataPoint& p : signals[i].points) {
        ASSERT_TRUE(bank->Append(keys[i], p).ok());
      }
    }
    ASSERT_TRUE(bank->FinishAll().ok());
    for (size_t i = 0; i < kKeys; ++i) {
      expected[keys[i]] = bank->TakeSegments(keys[i]).value();
    }
  }

  for (const size_t shards : {1u, 3u, 4u}) {
    for (const size_t batch : {16u, 256u}) {
      ShardedFilterBank::Options options;
      options.shards = shards;
      auto bank = ShardedFilterBank::Create(factory, options).value();
      for (size_t at = 0; at < kPoints; at += batch) {
        const size_t n = std::min(batch, kPoints - at);
        for (size_t i = 0; i < kKeys; ++i) {
          ASSERT_TRUE(bank->AppendBatch(keys[i], std::span<const DataPoint>(
                                                     &signals[i].points[at], n))
                          .ok());
        }
      }
      ASSERT_TRUE(bank->FinishAll().ok());
      for (size_t i = 0; i < kKeys; ++i) {
        EXPECT_EQ(bank->TakeSegments(keys[i]).value(), expected[keys[i]])
            << "shards=" << shards << " batch=" << batch << " key=" << keys[i];
      }
      const auto stats = bank->Stats();
      EXPECT_EQ(stats.points, kKeys * kPoints);
    }
  }
}

TEST(BatchAppendTest, PipelineBatchMatchesSingle) {
  const Signal a = MakeSignal(1, 2000, 5);
  const Signal b = MakeSignal(1, 2000, 6);

  const auto build = [](size_t shards) {
    return Pipeline::Builder()
        .DefaultSpec("slide(eps=0.4)")
        .Codec("delta")
        .Shards(shards)
        .Build()
        .value();
  };

  auto single = build(1);
  for (const DataPoint& p : a.points) {
    ASSERT_TRUE(single->Append("a", p).ok());
  }
  for (const DataPoint& p : b.points) {
    ASSERT_TRUE(single->Append("b", p).ok());
  }
  ASSERT_TRUE(single->Finish().ok());

  for (const size_t shards : {1u, 2u}) {
    auto batched = build(shards);
    for (size_t at = 0; at < a.points.size(); at += 256) {
      const size_t n = std::min<size_t>(256, a.points.size() - at);
      const std::span<const DataPoint> a_batch(&a.points[at], n);
      ASSERT_TRUE(batched->AppendBatch("a", a_batch).ok());
      const std::span<const DataPoint> b_batch(&b.points[at], n);
      ASSERT_TRUE(batched->AppendBatch("b", b_batch).ok());
    }
    ASSERT_TRUE(batched->Finish().ok());
    EXPECT_EQ(batched->Segments("a").value(), single->Segments("a").value());
    EXPECT_EQ(batched->Segments("b").value(), single->Segments("b").value());
    const auto s1 = single->Stats();
    const auto s2 = batched->Stats();
    EXPECT_EQ(s1.points, s2.points);
    EXPECT_EQ(s1.segments, s2.segments);
    EXPECT_EQ(s1.records_sent, s2.records_sent);
    // Archives are identical too: same segments, same per-key stores.
    for (const char* key : {"a", "b"}) {
      const SegmentStore* lhs = single->Store(key);
      const SegmentStore* rhs = batched->Store(key);
      ASSERT_NE(lhs, nullptr);
      ASSERT_NE(rhs, nullptr);
      ASSERT_EQ(lhs->segment_count(), rhs->segment_count());
      for (size_t k = 0; k < lhs->segment_count(); ++k) {
        EXPECT_EQ(lhs->segments()[k], rhs->segments()[k]);
      }
    }
  }
}

}  // namespace
}  // namespace plastream
