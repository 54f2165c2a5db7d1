// Copyright (c) 2026 The plastream Authors. MIT license.

#include "stream/receiver.h"

#include <algorithm>
#include <limits>

#include "storage/storage_backend.h"
#include "stream/wire_codec.h"

namespace plastream {

Receiver::Receiver() : owned_codec_(MakeFrameWireCodec()) {
  codec_ = owned_codec_.get();
}

Receiver::Receiver(WireCodec* codec) : codec_(codec) {}

Receiver::Receiver(WireCodec* codec, StreamStorage* storage)
    : codec_(codec), storage_(storage) {}

Status Receiver::Poll(Channel* channel) {
  PLASTREAM_RETURN_NOT_OK(archive_status_);
  while (auto frame = channel->Pop()) {
    PLASTREAM_RETURN_NOT_OK(ApplyFrame(*frame));
    // The frame's storage goes back to the channel so the next encode
    // reuses it instead of allocating.
    channel->Recycle(std::move(*frame));
  }
  return Status::OK();
}

Status Receiver::ApplyFrame(std::span<const uint8_t> frame) {
  PLASTREAM_RETURN_NOT_OK(archive_status_);
  decoded_.clear();
  PLASTREAM_RETURN_NOT_OK(codec_->Decode(frame, &decoded_));
  for (const WireRecord& record : decoded_) {
    PLASTREAM_RETURN_NOT_OK(Apply(record));
  }
  return Status::OK();
}

Status Receiver::Apply(const WireRecord& record) {
  switch (record.type) {
    case WireRecordType::kSegmentBreak: {
      PLASTREAM_RETURN_NOT_OK(FlushPendingBreak());
      pending_break_ = record;
      break;
    }
    case WireRecordType::kSegmentPoint: {
      // Ends a disconnected segment: its start must be pending.
      if (!pending_break_.has_value()) {
        return Status::Corruption(
            "disconnected segment end without its start record");
      }
      Segment seg;
      seg.t_start = pending_break_->t;
      seg.x_start = pending_break_->x;
      seg.connected_to_prev = false;
      pending_break_.reset();
      seg.t_end = record.t;
      seg.x_end = record.x;
      if (seg.t_end < seg.t_start) {
        return Status::Corruption("segment end precedes its start");
      }
      last_end_ = record;
      PLASTREAM_RETURN_NOT_OK(Emit(std::move(seg)));
      break;
    }
    case WireRecordType::kSegmentPointConnected: {
      // A preceding lone break was a point segment; materialize it so this
      // segment can connect to its end.
      PLASTREAM_RETURN_NOT_OK(FlushPendingBreak());
      if (!last_end_.has_value()) {
        return Status::Corruption(
            "connected segment end without a previous segment");
      }
      Segment seg;
      seg.t_start = last_end_->t;
      seg.x_start = last_end_->x;
      seg.connected_to_prev = true;
      seg.t_end = record.t;
      seg.x_end = record.x;
      if (seg.t_end < seg.t_start) {
        return Status::Corruption("segment end precedes its start");
      }
      last_end_ = record;
      PLASTREAM_RETURN_NOT_OK(Emit(std::move(seg)));
      break;
    }
    case WireRecordType::kProvisionalLine: {
      coverage_t_ = std::max(coverage_t_, record.t);
      break;
    }
  }
  ++records_received_;
  return Status::OK();
}

Status Receiver::FlushPendingBreak() {
  if (!pending_break_.has_value()) return Status::OK();
  // A break that was never continued is a zero-length (point) segment.
  Segment seg;
  seg.t_start = pending_break_->t;
  seg.t_end = pending_break_->t;
  seg.x_start = pending_break_->x;
  seg.x_end = pending_break_->x;
  seg.connected_to_prev = false;
  last_end_ = pending_break_;
  pending_break_.reset();
  return Emit(std::move(seg));
}

Status Receiver::Emit(Segment segment) {
  coverage_t_ = std::max(coverage_t_, segment.t_end);
  segments_.push_back(std::move(segment));
  if (storage_ != nullptr) archive_status_ = storage_->Append(segments_.back());
  return archive_status_;
}

Status Receiver::FinishStream() {
  PLASTREAM_RETURN_NOT_OK(archive_status_);
  return FlushPendingBreak();
}

}  // namespace plastream
