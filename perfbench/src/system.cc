// Copyright (c) 2026 The plastream Authors. MIT license.

#include "system.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

using plastream::CollectorServer;
using plastream::Pipeline;

std::unique_ptr<System> System::Open(const WorkloadConfig& config,
                                     const std::string& archive_path) {
  std::unique_ptr<System> sys(new System(config));
  for (size_t k = 0; k < config.keys; ++k) {
    sys->keys_.push_back(config.KeyName(k));
  }
  if (config.remote) {
    CollectorServer::Options options;
    options.storage_spec = FileStorageSpec(archive_path);
    sys->server_ = Must(
        CollectorServer::Listen("tcp(host=127.0.0.1,port=0)", options),
        "CollectorServer::Listen");
    System* raw = sys.get();
    sys->serving_ =
        std::thread([raw] { raw->serve_status_ = raw->server_->Serve(); });
    sys->backend_ = &sys->server_->storage();
    for (size_t p = 0; p < config.producers; ++p) {
      sys->pipelines_.push_back(Must(Pipeline::Builder()
                                         .DefaultSpec(config.filter_spec)
                                         .Codec(config.codec)
                                         .Ingest(config.ingest)
                                         .Transport(sys->server_->endpoint())
                                         .Build(),
                                     "producer Pipeline::Build"));
    }
  } else {
    sys->pipelines_.push_back(Must(Pipeline::Builder()
                                       .DefaultSpec(config.filter_spec)
                                       .Codec(config.codec)
                                       .Ingest(config.ingest)
                                       .Storage(FileStorageSpec(archive_path))
                                       .Build(),
                                   "Pipeline::Build"));
    sys->backend_ = &sys->pipelines_[0]->GetStorageBackend();
  }
  for (const std::string& key : sys->keys_) {
    const plastream::StreamStorage* stream = sys->backend_->FindStream(key);
    if (stream == nullptr) {
      Must(Status::NotFound("archive has no stream '" + key + "'"),
           "System::Open");
    }
    sys->stores_.push_back(stream->store());
    sys->recovered_.push_back(stream->store()->segment_count());
  }
  return sys;
}

System::~System() {
  pipelines_.clear();  // producers hang up before the collector stops
  if (server_ != nullptr) {
    server_->Shutdown();
    serving_.join();
    if (!serve_status_.ok()) {
      std::fprintf(stderr, "perfbench: collector Serve: %s\n",
                   serve_status_.ToString().c_str());
    }
  }
}

void System::Commit(const CommitInput& input, uint64_t* attempted,
                    uint64_t* failed) {
  const size_t per_producer = config_.keys / pipelines_.size();
  for (size_t k = 0; k < input.keys.size(); ++k) {
    Pipeline& pipeline = *pipelines_[k / per_producer];
    const CommitInput::Key& key = input.keys[k];
    if (!config_.per_point) {
      ++*attempted;
      if (!pipeline.AppendBatch(keys_[k], key.ts, key.vals).ok()) ++*failed;
      continue;
    }
    const size_t n = key.ts.size();
    plastream::DataPoint point;
    point.x.resize(config_.dims);
    for (size_t j = 0; j < n; ++j) {
      point.t = key.ts[j];
      for (size_t i = 0; i < config_.dims; ++i) point.x[i] = key.vals[i * n + j];
      ++*attempted;
      if (!pipeline.Append(keys_[k], point).ok()) ++*failed;
    }
  }
  for (auto& pipeline : pipelines_) {
    ++*attempted;
    if (!pipeline->Flush().ok()) ++*failed;
  }
}

uint64_t System::WireBytes() const {
  uint64_t bytes = 0;
  for (const auto& pipeline : pipelines_) bytes += pipeline->Stats().bytes_sent;
  return bytes;
}

size_t System::RetainedSegments() const {
  size_t total = 0;
  for (size_t k = 0; k < keys_.size(); ++k) {
    const auto received =
        server_ != nullptr
            ? server_->Segments(keys_[k])
            : pipelines_[0]->Segments(keys_[k]);
    if (received.ok()) total += received->size();
    total += stores_[k]->segment_count();
  }
  return total;
}

Status System::Finish() {
  for (auto& pipeline : pipelines_) {
    PLASTREAM_RETURN_NOT_OK(pipeline->Finish());
  }
  if (server_ == nullptr) return Status::OK();
  const int64_t deadline = NowNs() + 30'000'000'000;
  while (server_->GetStats().streams_finished < keys_.size()) {
    if (NowNs() > deadline) {
      return Status::Internal("collector did not apply every FINISH");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

}  // namespace perfbench
