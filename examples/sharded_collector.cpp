// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Multi-core collector scenario: four producer threads (think: one per
// network listener) stream disjoint sets of host metrics into one
// Pipeline that is sharded four ways. Each key's whole path — filter, wire
// codec, archive — runs on its producer's thread under its shard's lock,
// so producers never contend on a global lock, and per-key output is
// identical to what a single-threaded collector would produce.
//
//   $ ./build/sharded_collector

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "plastream.h"

using namespace plastream;

namespace {

constexpr int kProducers = 4;
constexpr int kHostsPerProducer = 8;
constexpr int kSamples = 2000;

// Synthetic load curve: a daily-ish wave plus per-host jitter.
double LoadSample(int host, int j) {
  return 50.0 + 30.0 * ((j / 250) % 2 == 0 ? j % 250 : 250 - j % 250) / 250.0 +
         (j % 7) * 0.4 + host * 0.1;
}

}  // namespace

int main() {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("slide(eps=1)")
                      .PerKeySpec("edge0.host0.load", "swing(eps=0.5)")
                      .Shards(4)
                      .Build()
                      .value();

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pipeline, p] {
      for (int j = 0; j < kSamples; ++j) {
        for (int h = 0; h < kHostsPerProducer; ++h) {
          const std::string key = "edge" + std::to_string(p) + ".host" +
                                  std::to_string(h) + ".load";
          const Status status =
              pipeline->Append(key, j, LoadSample(p * kHostsPerProducer + h, j));
          if (!status.ok()) {
            std::fprintf(stderr, "append %s: %s\n", key.c_str(),
                         status.ToString().c_str());
            return;
          }
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  if (const Status status = pipeline->Finish(); !status.ok()) {
    std::fprintf(stderr, "finish: %s\n", status.ToString().c_str());
    return 1;
  }

  const auto stats = pipeline->Stats();
  std::printf("collected %zu streams over %zu shards: %zu points -> %zu "
              "segments, %zu wire bytes (%.1fx compression)\n",
              stats.streams, pipeline->shard_count(), stats.points,
              stats.segments, stats.bytes_sent,
              static_cast<double>(stats.bytes_raw) / stats.bytes_sent);

  // Error-bounded analytics straight off the compressed archives.
  std::printf("\n%-22s %10s %10s %10s\n", "stream", "mean", "max", "segs");
  for (const std::string& key :
       {std::string("edge0.host0.load"), std::string("edge3.host7.load")}) {
    const SegmentStore* store = pipeline->Store(key);
    const auto agg = store->Aggregate(0, kSamples, 0).value();
    std::printf("%-22s %10.2f %10.2f %10zu\n", key.c_str(), agg.mean, agg.max,
                store->segment_count());
  }

  std::printf("\nEvery answer above is within the stream's eps of the raw "
              "signal, and per-key output is identical to a single-shard "
              "collector's.\n");
  return 0;
}
