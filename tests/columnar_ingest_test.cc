// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Columnar-vs-row equivalence: the zero-copy columnar overload
// AppendBatch(key, ts, vals) must produce byte-identical segment chains
// to the per-point path across filter families x dims x shard counts x
// ingest guard on/off, stop at the first error with the "columnar batch"
// prefix for malformed spans, and treat empty batches as no-ops. The
// forced-scalar kernel toggle is part of the matrix, so the SIMD and
// scalar paths are held to the same bytes.

#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.h"
#include "core/filter_registry.h"
#include "datagen/correlated_walk.h"
#include "stream/filter_bank.h"
#include "stream/pipeline.h"

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

// Transposes points[at, at+n) into dimension-major columns:
// vals[dim * n + j] is dimension `dim` of point at+j.
void ToColumns(const std::vector<DataPoint>& points, size_t at, size_t n,
               std::vector<double>* ts, std::vector<double>* vals) {
  const size_t dims = points.empty() ? 0 : points[at].x.size();
  ts->clear();
  vals->assign(n * dims, 0.0);
  for (size_t j = 0; j < n; ++j) {
    const DataPoint& point = points[at + j];
    ts->push_back(point.t);
    for (size_t dim = 0; dim < dims; ++dim) {
      (*vals)[dim * n + j] = point.x[dim];
    }
  }
}

// Feeds the whole signal columnar-style in batches of `batch`.
void AppendColumnar(Filter& filter, const std::vector<DataPoint>& points,
                    size_t batch) {
  std::vector<double> ts;
  std::vector<double> vals;
  for (size_t at = 0; at < points.size(); at += batch) {
    const size_t n = std::min(batch, points.size() - at);
    ToColumns(points, at, n, &ts, &vals);
    ASSERT_TRUE(filter.AppendBatch(ts, vals).ok());
  }
}

TEST(ColumnarIngestTest, FilterColumnarMatchesRowAcrossFamiliesAndDims) {
  const std::vector<std::string> families{"cache", "linear", "swing", "slide",
                                          "kalman"};
  for (const std::string& family : families) {
    for (const size_t dims : {1u, 4u, 8u}) {
      const Signal signal = MakeSignal(dims, 2500, 17 + dims);
      const std::string spec = SpecFor(family, dims);

      auto row = MakeFilter(spec).value();
      for (const DataPoint& p : signal.points) {
        ASSERT_TRUE(row->Append(p).ok());
      }
      ASSERT_TRUE(row->Finish().ok());
      const auto expected = row->TakeSegments();

      for (const size_t batch : {size_t{9}, size_t{256}}) {
        auto columnar = MakeFilter(spec).value();
        AppendColumnar(*columnar, signal.points, batch);
        ASSERT_TRUE(columnar->Finish().ok());
        EXPECT_EQ(columnar->TakeSegments(), expected)
            << family << " dims=" << dims << " batch=" << batch;
        EXPECT_EQ(columnar->points_seen(), row->points_seen());
      }

      // The forced-scalar route through the same overload must produce
      // the same bytes as the SIMD kernels.
      simd::SetForceScalar(true);
      auto scalar = MakeFilter(spec).value();
      AppendColumnar(*scalar, signal.points, 256);
      ASSERT_TRUE(scalar->Finish().ok());
      simd::SetForceScalar(false);
      EXPECT_EQ(scalar->TakeSegments(), expected)
          << family << " dims=" << dims << " (forced scalar)";
    }
  }
}

TEST(ColumnarIngestTest, PipelineColumnarMatrixShardsAndGuard) {
  const size_t kKeys = 4;
  const size_t kPoints = 1500;
  const size_t kDims = 4;
  std::vector<std::string> keys;
  std::vector<Signal> signals;
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back("sensor" + std::to_string(i));
    signals.push_back(MakeSignal(kDims, kPoints, 70 + i));
  }

  const auto build = [&](size_t shards, bool guarded) {
    Pipeline::Builder builder;
    builder.DefaultSpec(SpecFor("slide", kDims)).Codec("frame").Shards(shards);
    // The guarded leg uses a real reordering policy; the input is clean,
    // so the guard must admit every point unchanged.
    if (guarded) builder.Ingest("guard(reorder=8,nan=skip)");
    return builder.Build().value();
  };

  // Baseline: per-point appends, one shard, no guard.
  auto baseline = build(1, false);
  for (size_t i = 0; i < kKeys; ++i) {
    for (const DataPoint& p : signals[i].points) {
      ASSERT_TRUE(baseline->Append(keys[i], p).ok());
    }
  }
  ASSERT_TRUE(baseline->Finish().ok());

  std::vector<double> ts;
  std::vector<double> vals;
  for (const size_t shards : {1u, 3u}) {
    for (const bool guarded : {false, true}) {
      auto pipeline = build(shards, guarded);
      for (size_t at = 0; at < kPoints; at += 256) {
        const size_t n = std::min<size_t>(256, kPoints - at);
        for (size_t i = 0; i < kKeys; ++i) {
          ToColumns(signals[i].points, at, n, &ts, &vals);
          ASSERT_TRUE(pipeline->AppendBatch(keys[i], ts, vals).ok());
        }
      }
      ASSERT_TRUE(pipeline->Finish().ok());
      for (size_t i = 0; i < kKeys; ++i) {
        EXPECT_EQ(pipeline->Segments(keys[i]).value(),
                  baseline->Segments(keys[i]).value())
            << "shards=" << shards << " guarded=" << guarded
            << " key=" << keys[i];
      }
      EXPECT_EQ(pipeline->Stats().points, kKeys * kPoints);
    }
  }
}

TEST(ColumnarIngestTest, LengthMismatchRejectsWholeBatchWithPrefix) {
  auto filter = MakeFilter("swing(eps=0.5,dims=2)").value();
  // Seed one good point so "nothing applied" is observable against
  // existing state.
  ASSERT_TRUE(filter->Append(DataPoint(1.0, {0.0, 0.0})).ok());

  const std::vector<double> ts{2.0, 3.0, 4.0};
  const std::vector<double> short_vals{1.0, 2.0, 3.0, 4.0, 5.0};  // 5 != 3*2
  const Status mismatched = filter->AppendBatch(ts, short_vals);
  EXPECT_EQ(mismatched.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mismatched.message().rfind("columnar batch", 0), 0u)
      << mismatched.message();
  EXPECT_EQ(filter->points_seen(), 1u);  // nothing from the bad batch

  // The stream continues unharmed with a well-formed batch.
  const std::vector<double> good_vals{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  EXPECT_TRUE(filter->AppendBatch(ts, good_vals).ok());
  EXPECT_EQ(filter->points_seen(), 4u);
  EXPECT_TRUE(filter->Finish().ok());
}

TEST(ColumnarIngestTest, MidBatchErrorStopsWithPrefixApplied) {
  auto filter = MakeFilter("swing(eps=0.5)").value();
  const std::vector<double> ts{1.0, 2.0, 1.5, 3.0};  // 1.5 is out of order
  const std::vector<double> vals{0.0, 0.5, 0.7, 0.9};
  const Status status = filter->AppendBatch(ts, vals);
  EXPECT_EQ(status.code(), StatusCode::kOutOfOrder);
  EXPECT_EQ(filter->points_seen(), 2u);  // the prefix before the error
  EXPECT_TRUE(filter->Append(DataPoint::Scalar(2.5, 0.8)).ok());
  EXPECT_TRUE(filter->Finish().ok());
}

TEST(ColumnarIngestTest, EmptyColumnarBatchIsANoOp) {
  auto filter = MakeFilter("slide(eps=0.4)").value();
  EXPECT_TRUE(filter->AppendBatch(std::span<const double>{},
                                  std::span<const double>{})
                  .ok());
  EXPECT_EQ(filter->points_seen(), 0u);

  FilterBank bank([](std::string_view) {
    return Result<std::unique_ptr<Filter>>(MakeFilter("slide(eps=0.4)"));
  });
  EXPECT_TRUE(bank.AppendBatch("k", std::span<const double>{},
                               std::span<const double>{})
                  .ok());
  EXPECT_FALSE(bank.Contains("k"));  // no filter created for an empty batch

  auto pipeline =
      Pipeline::Builder().DefaultSpec("slide(eps=0.4)").Build().value();
  EXPECT_TRUE(pipeline
                  ->AppendBatch("k", std::span<const double>{},
                                std::span<const double>{})
                  .ok());
  EXPECT_EQ(pipeline->Stats().points, 0u);
  EXPECT_TRUE(pipeline->Finish().ok());
}

}  // namespace
}  // namespace plastream
