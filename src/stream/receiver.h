// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Receiver: decodes wire records from a channel and incrementally rebuilds
// the transmitted piece-wise linear approximation. The round-trip property
// (receiver segments == filter segments) is part of the integration test
// suite. Given a stream archive, the receiver is also the one place where
// decoded segments reach storage: each segment is archived as it is
// materialized, for the in-process Pipeline and the CollectorServer alike.

#ifndef PLASTREAM_STREAM_RECEIVER_H_
#define PLASTREAM_STREAM_RECEIVER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/reconstruction.h"
#include "core/types.h"
#include "stream/channel.h"
#include "stream/wire.h"
#include "stream/wire_codec.h"

namespace plastream {

class StreamStorage;

/// Rebuilds segments from the wire protocol.
class Receiver {
 public:
  /// Receives through an owned default "frame" codec.
  Receiver();

  /// Receives through `codec`, which must match the transmitter's codec
  /// spec. Borrowed; must outlive the receiver. Stateful codecs (delta)
  /// need one instance per stream — sharing the transmitter's instance is
  /// fine (encode and decode state are independent).
  explicit Receiver(WireCodec* codec);

  /// Receives through `codec` and archives every segment it rebuilds to
  /// `storage`, in order, as the segment is materialized. Both borrowed;
  /// a null `storage` archives nothing. An archive failure is sticky:
  /// every later ApplyFrame, Poll and FinishStream returns it.
  Receiver(WireCodec* codec, StreamStorage* storage);

  /// Drains every queued frame from `channel`, decoding and applying the
  /// records each carries. Stops at the first corrupt frame with its
  /// Corruption status.
  Status Poll(Channel* channel);

  /// Decodes one complete frame and applies the records it carries — the
  /// unit Poll repeats per queued Channel frame. Byte-stream transports
  /// (the network collector) reassemble partial reads with a
  /// FrameSplitter and feed each popped frame here, so Channel-fed and
  /// socket-fed streams share one decode path. Errors with Corruption on
  /// a frame that fails validation; previously applied records stand.
  Status ApplyFrame(std::span<const uint8_t> frame);

  /// Marks end-of-stream: a trailing segment-break becomes a point segment.
  Status FinishStream();

  /// Segments reconstructed so far, in time order.
  const std::vector<Segment>& segments() const { return segments_; }

  /// Builds the queryable reconstruction from the segments received so far.
  Result<PiecewiseLinearFunction> Reconstruction() const {
    return PiecewiseLinearFunction::Make(segments_);
  }

  /// Wire records successfully applied.
  size_t records_received() const { return records_received_; }

  /// Latest time the receiver has full knowledge of: the end of the last
  /// closed segment, or the provisional anchor if later.
  double coverage_t() const { return coverage_t_; }

 private:
  Status Apply(const WireRecord& record);
  // Materializes a never-continued break record as a point segment.
  Status FlushPendingBreak();
  // Every materialized segment goes through here: it extends the
  // coverage, joins segments_ and reaches the archive.
  Status Emit(Segment segment);

  std::unique_ptr<WireCodec> owned_codec_;  // set by the default ctor
  WireCodec* codec_;
  StreamStorage* storage_ = nullptr;  // borrowed; null archives nothing
  Status archive_status_ = Status::OK();  // sticky archive failure
  std::vector<WireRecord> decoded_;  // scratch, reused across frames
  std::optional<WireRecord> pending_break_;
  std::optional<WireRecord> last_end_;
  std::vector<Segment> segments_;
  size_t records_received_ = 0;
  double coverage_t_ = -std::numeric_limits<double>::infinity();
};

}  // namespace plastream

#endif  // PLASTREAM_STREAM_RECEIVER_H_
