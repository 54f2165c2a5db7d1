// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The storage-backend subsystem: registry semantics, spec validation at
// Build(), the memory/none built-ins, and the file backend's end-to-end
// contract — a file-backed pipeline's reloaded archive answers
// ValueAt/RangeAggregate identically to the in-memory backend, for every
// archive codec × shard count, including reopen-for-append and custom
// registries.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/random_walk.h"
#include "plastream.h"

namespace plastream {
namespace {

Signal Walk(uint64_t seed, double x0) {
  RandomWalkOptions o;
  o.count = 1200;
  o.max_delta = 1.0;
  o.x0 = x0;
  o.seed = seed;
  return *GenerateRandomWalk(o);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "plastream_storage_" + name + ".plar";
}

// --- registry ---------------------------------------------------------------

TEST(StorageRegistryTest, GlobalHasBuiltins) {
  const auto names = StorageRegistry::Global().ListBackends();
  EXPECT_EQ(names, (std::vector<std::string>{"file", "memory", "none"}));
  EXPECT_TRUE(StorageRegistry::Global().Contains("file"));
  EXPECT_FALSE(StorageRegistry::Global().Contains("s3"));
}

TEST(StorageRegistryTest, RegisterRejectsDuplicatesAndBadArgs) {
  StorageRegistry registry;
  RegisterBuiltinStorageBackends(registry);
  EXPECT_EQ(registry
                .Register("memory",
                          [](const FilterSpec&) {
                            return Result<std::unique_ptr<StorageBackend>>(
                                MakeMemoryStorageBackend());
                          })
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Register("", nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(StorageRegistryTest, MakeBackendValidatesSpecs) {
  const StorageRegistry& registry = StorageRegistry::Global();
  EXPECT_EQ(registry.MakeBackend("tape").status().code(),
            StatusCode::kNotFound);
  // Filter options have no meaning on a storage spec.
  EXPECT_EQ(registry.MakeBackend("memory(eps=1)").status().code(),
            StatusCode::kInvalidArgument);
  // Unknown parameters are typos worth failing on.
  EXPECT_EQ(registry.MakeBackend("memory(mode=fast)").status().code(),
            StatusCode::kInvalidArgument);
  // The file backend requires a path and validates its enums.
  EXPECT_EQ(registry.MakeBackend("file").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.MakeBackend("file(path=x,codec=zstd)").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.MakeBackend("file(path=x,sync=fsync)").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(registry.MakeBackend("file(path=x,codec=frame,sync=flush)")
                  .ok());
}

// --- Builder surface --------------------------------------------------------

TEST(PipelineStorageTest, BuildFailsOnBadStorageSpecs) {
  EXPECT_EQ(Pipeline::Builder()
                .DefaultSpec("cache(eps=1)")
                .Storage("tape")
                .Build()
                .status()
                .code(),
            StatusCode::kNotFound);
  // A parse failure in the spec string is deferred to Build().
  EXPECT_EQ(Pipeline::Builder()
                .DefaultSpec("cache(eps=1)")
                .Storage("file(path=")
                .Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // The backend is opened at Build(): an unwritable path fails there.
  EXPECT_EQ(Pipeline::Builder()
                .DefaultSpec("cache(eps=1)")
                .Storage("file(path=/nonexistent-dir/x.plar)")
                .Build()
                .status()
                .code(),
            StatusCode::kIOError);
}

TEST(PipelineStorageTest, CustomRegistryIsUsed) {
  StorageRegistry registry;
  ASSERT_TRUE(registry
                  .Register("shadow",
                            [](const FilterSpec& spec)
                                -> Result<std::unique_ptr<StorageBackend>> {
                              PLASTREAM_RETURN_NOT_OK(spec.ExpectParamsIn({}));
                              return MakeMemoryStorageBackend();
                            })
                  .ok());
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("cache(eps=1)")
                      .Storage("shadow")
                      .WithStorageRegistry(&registry)
                      .Build();
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Append("k", 0.0, 1.0).ok());
  ASSERT_TRUE((*pipeline)->Finish().ok());
  EXPECT_NE((*pipeline)->Store("k"), nullptr);
  EXPECT_EQ((*pipeline)->StorageSpec().family, "shadow");
  // The global registry does not know "shadow".
  EXPECT_EQ(Pipeline::Builder()
                .DefaultSpec("cache(eps=1)")
                .Storage("shadow")
                .Build()
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(PipelineStorageTest, StatsExposePerKeySegmentsAndStorageBytes) {
  const std::string path = TempPath("stats");
  std::remove(path.c_str());
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("slide(eps=0.5)")
                      .Storage("file(path=" + path + ")")
                      .Build()
                      .value();
  const Signal a = Walk(1, 10.0);
  const Signal b = Walk(2, 50.0);
  for (const DataPoint& p : a.points) ASSERT_TRUE(pipeline->Append("a", p).ok());
  for (const DataPoint& p : b.points) ASSERT_TRUE(pipeline->Append("b", p).ok());
  ASSERT_TRUE(pipeline->Finish().ok());

  const auto stats = pipeline->Stats();
  ASSERT_EQ(stats.per_key.size(), 2u);
  size_t per_key_bytes = 0;
  for (const auto& key_stats : stats.per_key) {
    const SegmentStore* store = pipeline->Store(key_stats.key);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(key_stats.segments, store->segment_count());
    EXPECT_GT(key_stats.storage_bytes, 0u);
    per_key_bytes += key_stats.storage_bytes;
  }
  // Backend total = per-stream records + the 12-byte archive header.
  EXPECT_EQ(stats.storage_bytes, per_key_bytes + 12);
  const auto a_stats = pipeline->StatsFor("a").value();
  EXPECT_EQ(a_stats.segments_archived, pipeline->Store("a")->segment_count());
  EXPECT_GT(a_stats.storage_bytes, 0u);
  std::remove(path.c_str());
}

TEST(PipelineStorageTest, MemoryBackendReportsZeroStorageBytes) {
  auto pipeline =
      Pipeline::Builder().DefaultSpec("cache(eps=1)").Build().value();
  ASSERT_TRUE(pipeline->Append("k", 0.0, 1.0).ok());
  ASSERT_TRUE(pipeline->Append("k", 1.0, 5.0).ok());
  ASSERT_TRUE(pipeline->Finish().ok());
  const auto stats = pipeline->Stats();
  EXPECT_EQ(stats.storage_bytes, 0u);
  ASSERT_EQ(stats.per_key.size(), 1u);
  EXPECT_EQ(stats.per_key[0].key, "k");
  EXPECT_EQ(stats.per_key[0].segments,
            pipeline->Store("k")->segment_count());
  EXPECT_EQ(pipeline->StorageSpec().family, "memory");
  EXPECT_EQ(pipeline->GetStorageBackend().name(), "memory");
}

// --- file backend end-to-end ------------------------------------------------

struct FileCase {
  const char* storage_codec;
  size_t shards;
};

class FileBackendTest : public ::testing::TestWithParam<FileCase> {};

// The acceptance matrix: for each archive codec × shard count, a
// file-backed pipeline and its reloaded archive answer every query
// identically to the in-memory backend.
TEST_P(FileBackendTest, ReloadedArchiveAnswersLikeMemoryBackend) {
  const FileCase param = GetParam();
  const std::string path = TempPath(
      std::string(param.storage_codec) + "_s" +
      std::to_string(param.shards));
  std::remove(path.c_str());

  const std::vector<std::pair<std::string, Signal>> streams{
      {"web-1.cpu", Walk(11, 35.0)},
      {"web-2.cpu", Walk(12, 30.0)},
      {"db-1.iops", Walk(13, 120.0)},
      {"db-2.iops", Walk(14, 90.0)},
  };

  const auto build = [&](const std::string& storage_spec) {
    Pipeline::Builder builder;
    builder.DefaultSpec("slide(eps=0.4)")
        .PerKeySpec("db-1.iops", "swing(eps=1.5)")
        .Codec("delta")
        .Storage(storage_spec)
        .Shards(param.shards);
    return builder.Build().value();
  };

  auto memory_pipeline = build("memory");
  auto file_pipeline = build("file(path=" + path + ",codec=" +
                             param.storage_codec + ")");
  for (const auto& [key, signal] : streams) {
    for (const DataPoint& p : signal.points) {
      ASSERT_TRUE(memory_pipeline->Append(key, p).ok());
      ASSERT_TRUE(file_pipeline->Append(key, p).ok());
    }
  }
  ASSERT_TRUE(memory_pipeline->Finish().ok());
  ASSERT_TRUE(file_pipeline->Finish().ok());

  auto reader = SegmentArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_FALSE((*reader)->torn_tail());
  EXPECT_EQ((*reader)->codec_name(), param.storage_codec);
  EXPECT_EQ((*reader)->stream_count(), streams.size());

  for (const auto& [key, signal] : streams) {
    const SegmentStore* truth = memory_pipeline->Store(key);
    ASSERT_NE(truth, nullptr);
    // The live file-backed store and the reloaded archive must both hold
    // the exact same chain.
    const SegmentStore* live = file_pipeline->Store(key);
    ASSERT_NE(live, nullptr);
    const SegmentStore* reloaded = (*reader)->Store(key);
    ASSERT_NE(reloaded, nullptr) << key;
    ASSERT_EQ(live->segment_count(), truth->segment_count());
    ASSERT_EQ(reloaded->segment_count(), truth->segment_count());
    for (size_t i = 0; i < truth->segment_count(); ++i) {
      EXPECT_EQ(live->segments()[i], truth->segments()[i]);
      EXPECT_EQ(reloaded->segments()[i], truth->segments()[i]) << key;
    }
    // Query sweep: point lookups and window aggregates agree bit-for-bit
    // (gaps included: both sides must miss identically).
    const double t0 = truth->t_min();
    const double t1 = truth->t_max();
    for (int i = 0; i <= 50; ++i) {
      const double t = t0 + (t1 - t0) * i / 50.0;
      const auto expected = truth->ValueAt(t, 0);
      const auto actual = (*reader)->ValueAt(key, t, 0);
      ASSERT_EQ(expected.ok(), actual.ok());
      if (expected.ok()) {
        EXPECT_EQ(*expected, *actual);
      }
    }
    const auto expected_agg = truth->Aggregate(t0, t1, 0).value();
    const auto actual_agg = (*reader)->RangeAggregate(key, t0, t1, 0).value();
    EXPECT_EQ(expected_agg.mean, actual_agg.mean);
    EXPECT_EQ(expected_agg.min, actual_agg.min);
    EXPECT_EQ(expected_agg.max, actual_agg.max);
    EXPECT_EQ(expected_agg.integral, actual_agg.integral);
    EXPECT_EQ(expected_agg.segments_touched, actual_agg.segments_touched);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FileBackendTest,
    ::testing::Values(FileCase{"frame", 1}, FileCase{"delta", 1},
                      FileCase{"frame", 4}, FileCase{"delta", 4},
                      FileCase{"frame", 3}, FileCase{"delta", 3}),
    [](const ::testing::TestParamInfo<FileCase>& info) {
      return std::string(info.param.storage_codec) + "Shards" +
             std::to_string(info.param.shards);
    });

TEST(FileBackendTest, ReopenForAppendContinuesTheArchive) {
  const std::string path = TempPath("reopen");
  std::remove(path.c_str());
  const Signal signal = Walk(7, 20.0);
  const size_t half = signal.size() / 2;

  const std::string spec = "file(path=" + path + ",codec=delta)";
  size_t first_run_segments = 0;
  {
    auto pipeline = Pipeline::Builder()
                        .DefaultSpec("slide(eps=0.3)")
                        .Storage(spec)
                        .Build()
                        .value();
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(pipeline->Append("k", signal.points[i]).ok());
    }
    ASSERT_TRUE(pipeline->Finish().ok());
    first_run_segments = pipeline->Store("k")->segment_count();
    ASSERT_GT(first_run_segments, 0u);
  }
  {
    auto pipeline = Pipeline::Builder()
                        .DefaultSpec("slide(eps=0.3)")
                        .Storage(spec)
                        .Build()
                        .value();
    // Recovered streams are visible before any new Append touches them:
    // Keys/Store/Stats all serve the archive's data.
    EXPECT_EQ(pipeline->Keys(), std::vector<std::string>{"k"});
    ASSERT_NE(pipeline->Store("k"), nullptr);
    EXPECT_EQ(pipeline->Store("k")->segment_count(), first_run_segments);
    const auto pre_stats = pipeline->Stats();
    EXPECT_EQ(pre_stats.streams, 1u);
    ASSERT_EQ(pre_stats.per_key.size(), 1u);
    EXPECT_EQ(pre_stats.per_key[0].segments, first_run_segments);
    EXPECT_GT(pre_stats.per_key[0].storage_bytes, 0u);
    EXPECT_EQ(pipeline->StatsFor("k")->segments_archived,
              first_run_segments);
    EXPECT_EQ(pipeline->StatsFor("k")->points, 0u);
    for (size_t i = half; i < signal.size(); ++i) {
      ASSERT_TRUE(pipeline->Append("k", signal.points[i]).ok());
    }
    ASSERT_TRUE(pipeline->Finish().ok());
    // The live store contains the recovered first-run segments plus the
    // second run's.
    EXPECT_GT(pipeline->Store("k")->segment_count(), first_run_segments);
    EXPECT_DOUBLE_EQ(pipeline->Store("k")->t_min(), signal.points[0].t);
  }
  auto reader = SegmentArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE((*reader)->torn_tail());
  const SegmentStore* store = (*reader)->Store("k");
  ASSERT_NE(store, nullptr);
  EXPECT_GT(store->segment_count(), first_run_segments);
  EXPECT_DOUBLE_EQ(store->t_min(), signal.points[0].t);
  EXPECT_DOUBLE_EQ(store->t_max(), signal.points.back().t);
  std::remove(path.c_str());
}

TEST(FileBackendTest, ReopenWithDifferentCodecFailsAtBuild) {
  const std::string path = TempPath("codec_mismatch");
  std::remove(path.c_str());
  {
    auto pipeline = Pipeline::Builder()
                        .DefaultSpec("cache(eps=1)")
                        .Storage("file(path=" + path + ",codec=delta)")
                        .Build()
                        .value();
    ASSERT_TRUE(pipeline->Append("k", 0.0, 1.0).ok());
    ASSERT_TRUE(pipeline->Finish().ok());
  }
  const auto rebuilt = Pipeline::Builder()
                           .DefaultSpec("cache(eps=1)")
                           .Storage("file(path=" + path + ",codec=frame)")
                           .Build();
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(FileBackendTest, RecoveredStreamRejectsDimensionalityChange) {
  const std::string path = TempPath("dims");
  std::remove(path.c_str());
  {
    auto pipeline = Pipeline::Builder()
                        .DefaultSpec("cache(eps=1)")
                        .Storage("file(path=" + path + ")")
                        .Build()
                        .value();
    ASSERT_TRUE(pipeline->Append("k", 0.0, 1.0).ok());
    ASSERT_TRUE(pipeline->Finish().ok());
  }
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("cache(eps=1:1)")  // now 2-dimensional
                      .Storage("file(path=" + path + ")")
                      .Build()
                      .value();
  // The mismatch surfaces when the key's stream is first opened.
  EXPECT_EQ(
      pipeline->Append("k", DataPoint(100.0, {1.0, 2.0})).code(),
      StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(FileBackendTest, SyncFlushPersistsWithoutFinish) {
  const std::string path = TempPath("sync_flush");
  std::remove(path.c_str());
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("cache(eps=1)")
                      .Storage("file(path=" + path + ",sync=flush)")
                      .Build()
                      .value();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pipeline->Append("k", i, (i / 10) * 10.0).ok());
  }
  // No Flush(), no Finish(): with sync=flush every archived segment is
  // already on the file, so a reader sees all closed segments.
  auto reader = SegmentArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_GT((*reader)->segment_count(), 0u);
  ASSERT_TRUE(pipeline->Finish().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace plastream
