// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Integration tests for the sharded Pipeline: builder options, end-to-end
// equivalence across shard counts (filter -> wire codec -> receiver ->
// SegmentStore), counter aggregation, mid-stream Flush, and concurrent
// multi-producer ingest (a TSan CI target together with
// sharded_filter_bank_test).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "stream/pipeline.h"

namespace plastream {
namespace {

std::vector<std::string> Hosts(size_t count) {
  std::vector<std::string> keys;
  for (size_t i = 0; i < count; ++i) {
    keys.push_back("host" + std::to_string(i) + ".load");
  }
  return keys;
}

double Sample(size_t key_index, int j) {
  return (j % 17) * 0.4 + key_index * 2.0 + (j % 5) * 0.1;
}

std::unique_ptr<Pipeline> BuildPipeline(size_t shards) {
  auto built = Pipeline::Builder()
                   .DefaultSpec("slide(eps=0.5)")
                   .Shards(shards)
                   .Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

void Feed(Pipeline& pipeline, const std::vector<std::string>& keys,
          int points) {
  for (int j = 0; j < points; ++j) {
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(pipeline.Append(keys[i], j, Sample(i, j)).ok());
    }
  }
}

TEST(ShardedPipelineTest, BuilderValidatesShardOptions) {
  EXPECT_EQ(Pipeline::Builder()
                .DefaultSpec("slide(eps=1)")
                .Shards(0)
                .Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The acceptance-criteria property: the same key sequence through 1-shard,
// 4-shard and 8-shard pipelines yields identical per-key segment
// sequences, stats and archives.
TEST(ShardedPipelineTest, EndToEndIdenticalAcrossShardCounts) {
  const auto keys = Hosts(11);
  const int points = 300;

  const auto baseline = BuildPipeline(1);
  Feed(*baseline, keys, points);
  ASSERT_TRUE(baseline->Finish().ok());
  const auto baseline_stats = baseline->Stats();
  std::map<std::string, std::vector<Segment>> expected;
  for (const std::string& key : keys) {
    expected[key] = baseline->Segments(key).value();
    EXPECT_FALSE(expected[key].empty());
  }

  for (const size_t shards : {4u, 8u}) {
    auto pipeline = BuildPipeline(shards);
    EXPECT_EQ(pipeline->shard_count(), shards);
    Feed(*pipeline, keys, points);
    ASSERT_TRUE(pipeline->Finish().ok());

    for (const std::string& key : keys) {
      EXPECT_EQ(pipeline->Segments(key).value(), expected[key])
          << "key=" << key << " shards=" << shards;
      // The archive saw the same chain.
      ASSERT_NE(pipeline->Store(key), nullptr);
      EXPECT_EQ(pipeline->Store(key)->segment_count(), expected[key].size());
    }

    // Transport accounting is deterministic too.
    const auto stats = pipeline->Stats();
    EXPECT_EQ(stats.streams, baseline_stats.streams);
    EXPECT_EQ(stats.points, baseline_stats.points);
    EXPECT_EQ(stats.segments, baseline_stats.segments);
    EXPECT_EQ(stats.records_sent, baseline_stats.records_sent);
    EXPECT_EQ(stats.bytes_sent, baseline_stats.bytes_sent);
  }
}

TEST(ShardedPipelineTest, KeysAndSpecRoutingUnchangedBySharding) {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("slide(eps=0.5)")
                      .PerKeySpec("special", "cache(eps=2)")
                      .Shards(8)
                      .Build()
                      .value();
  ASSERT_TRUE(pipeline->Append("special", 0, 1).ok());
  ASSERT_TRUE(pipeline->Append("normal", 0, 1).ok());
  ASSERT_TRUE(pipeline->Finish().ok());
  EXPECT_EQ(pipeline->GetFilter("special")->name(), "cache");
  EXPECT_EQ(pipeline->GetFilter("normal")->name(), "slide");
  const auto keys = pipeline->Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "normal");
  EXPECT_EQ(keys[1], "special");
}

TEST(ShardedPipelineTest, AggregateCountersSumAcrossShards) {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("slide(eps=0.25)")
                      .Shards(4)
                      .Build()
                      .value();
  const auto keys = Hosts(8);
  Feed(*pipeline, keys, 100);
  ASSERT_TRUE(pipeline->Finish().ok());
  // Every slide filter exposes these counters; the pipeline-level view
  // sums them by name across all streams and shards.
  const auto counters = pipeline->AggregateCounters();
  std::vector<std::string> names;
  for (const auto& counter : counters) names.push_back(counter.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "connected_junctions", "max_hull_vertices",
                       "pinning_fallbacks", "unreported_points"}));
}

TEST(ShardedPipelineTest, FlushMakesMidStreamReadsSafe) {
  auto pipeline = BuildPipeline(4);
  const auto keys = Hosts(6);
  Feed(*pipeline, keys, 200);
  ASSERT_TRUE(pipeline->Flush().ok());
  // After Flush every appended point has been filtered, transported and
  // archived; mid-stream reads are coherent.
  size_t points = 0;
  for (const std::string& key : keys) {
    points += pipeline->StatsFor(key)->points;
    EXPECT_GT(pipeline->Segments(key)->size(), 0u);
  }
  EXPECT_EQ(points, keys.size() * 200);
  ASSERT_TRUE(pipeline->Finish().ok());
}

// Concurrent multi-producer ingest through the full pipeline; a TSan CI
// target.
TEST(ShardedPipelineTest, ConcurrentProducersEndToEnd) {
  auto pipeline = BuildPipeline(8);
  constexpr int kProducers = 4;
  constexpr int kKeysPerProducer = 4;
  constexpr int kPoints = 250;
  std::atomic<int> failures{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pipeline, &failures, p] {
      for (int j = 0; j < kPoints; ++j) {
        for (int k = 0; k < kKeysPerProducer; ++k) {
          const std::string key =
              "prod" + std::to_string(p) + ".metric" + std::to_string(k);
          if (!pipeline->Append(key, j, (j % 9) * 0.7 + k).ok()) ++failures;
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(pipeline->Finish().ok());

  const auto stats = pipeline->Stats();
  EXPECT_EQ(stats.streams,
            static_cast<size_t>(kProducers * kKeysPerProducer));
  EXPECT_EQ(stats.points,
            static_cast<size_t>(kProducers * kKeysPerProducer * kPoints));
  // Every stream made it through the wire into a queryable archive.
  for (const std::string& key : pipeline->Keys()) {
    ASSERT_NE(pipeline->Store(key), nullptr);
    EXPECT_GT(pipeline->Store(key)->segment_count(), 0u);
    EXPECT_TRUE(pipeline->Reconstruction(key).ok());
  }
}

}  // namespace
}  // namespace plastream
