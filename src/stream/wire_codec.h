// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The pluggable wire-codec subsystem: how a stream's recordings become
// bytes on its Channel. A WireCodec turns a sequence of WireRecords into
// channel frames and back; the CodecRegistry makes codecs selectable by
// the same spec-string grammar as filters, so the wire format is a
// configuration choice rather than a recompile:
//
//   "frame"                 one record per frame, CRC32C each — the default
//   "delta(varint=true)"    delta-of-time + zigzag/varint packing
//   "batch(n=32,crc=crc32c)" many records per frame, one CRC per frame
//
// Codecs are stateful on both sides (delta encoding carries the previous
// record's time; batch framing buffers records), so every stream owns its
// own instance — the Pipeline creates one per stream, which also keeps
// sharded ingest lock-free on the encode path. Channel byte
// accounting remains the source of truth for wire cost.

#ifndef PLASTREAM_STREAM_WIRE_CODEC_H_
#define PLASTREAM_STREAM_WIRE_CODEC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/filter_spec.h"
#include "stream/channel.h"
#include "stream/wire.h"

namespace plastream {

/// Encodes wire records into channel frames and decodes them back.
///
/// Contract: the decoder applied to the encoder's frames, in order,
/// reproduces the exact record sequence (Decode'd records compare equal to
/// the Encode'd ones). Encoders may buffer — Flush() forces everything
/// buffered onto the channel, and must be called before draining the
/// channel for the last time. One instance serves one stream: encode state
/// and decode state live side by side and never interact, so the same
/// object can back a stream's Transmitter and Receiver.
class WireCodec {
 public:
  /// Codecs are deleted through the base interface.
  virtual ~WireCodec() = default;

  /// Encodes one record, pushing zero or more frames onto `channel`
  /// (buffering codecs may defer; see Flush).
  virtual Status Encode(const WireRecord& record, Channel* channel) = 0;

  /// Pushes any buffered records onto `channel` as a final (possibly
  /// short) frame. No-op for unbuffered codecs. Safe to call repeatedly
  /// and mid-stream.
  virtual Status Flush(Channel* channel) = 0;

  /// Decodes one frame, appending the records it carries to `*out` in
  /// transmission order. Errors with Corruption on any validation failure;
  /// nothing is appended on error.
  virtual Status Decode(std::span<const uint8_t> frame,
                        std::vector<WireRecord>* out) = 0;

  /// Upper bound in bytes on the wire cost of one record of `type` with
  /// `dims` dimensions, including this codec's worst-case share of framing
  /// overhead. Exact for "frame"; variable-length codecs usually do much
  /// better — Channel::bytes_sent() is the realized cost.
  virtual size_t EncodedSizeBound(WireRecordType type, size_t dims) const = 0;

  /// The codec's registered family name ("frame", "delta", "batch", ...).
  virtual std::string_view name() const = 0;
};

/// Maps codec family names to codec factories.
///
/// Codec specs reuse the FilterSpec grammar — `family(key=value,...)` —
/// with the family naming a registered codec and the params interpreted by
/// its factory. The filter-specific keys (eps/dims/max_lag) are rejected.
/// Registration is not thread-safe; register codecs during startup.
/// MakeCodec/ListCodecs are const and safe to call concurrently once
/// registration has finished.
class CodecRegistry {
 public:
  /// Builds a codec from a parsed spec. The factory owns the
  /// interpretation of `spec.params` and must reject unknown keys
  /// (FilterSpec::ExpectParamsIn).
  using Factory =
      std::function<Result<std::unique_ptr<WireCodec>>(const FilterSpec& spec)>;

  /// An empty registry (no built-in codecs); see Global() and
  /// RegisterBuiltinWireCodecs().
  CodecRegistry() = default;

  /// The process-wide registry, with every built-in codec pre-registered.
  static CodecRegistry& Global();

  /// Adds a codec family. Errors with FailedPrecondition when the name is
  /// taken and InvalidArgument for an empty name or null factory.
  Status Register(std::string name, Factory factory);

  /// Instantiates `spec.family`. Errors with NotFound for an unregistered
  /// codec and InvalidArgument when the spec carries filter options
  /// (eps/dims/max_lag), which have no meaning for a codec.
  Result<std::unique_ptr<WireCodec>> MakeCodec(const FilterSpec& spec) const;

  /// Parses `spec_text` and instantiates the codec it names.
  Result<std::unique_ptr<WireCodec>> MakeCodec(std::string_view spec_text) const;

  /// Registered codec names, sorted.
  std::vector<std::string> ListCodecs() const;

  /// True when the codec family is registered.
  bool Contains(std::string_view name) const;

 private:
  std::map<std::string, Factory, std::less<>> factories_;
};

/// Registers one built-in codec on `registry`. Each function is defined in
/// its codec's own .cc file, so the spec-parameter parsing lives with the
/// frame format it configures.
void RegisterFrameWireCodec(CodecRegistry& registry);
void RegisterDeltaWireCodec(CodecRegistry& registry);
void RegisterBatchWireCodec(CodecRegistry& registry);

/// Registers every built-in codec. Global() has already done this; call it
/// on private registries that should start from the built-in set.
void RegisterBuiltinWireCodecs(CodecRegistry& registry);

/// The default wire format: a "frame" codec instance without a registry
/// lookup — what Transmitter/Receiver fall back to when no codec is
/// injected.
std::unique_ptr<WireCodec> MakeFrameWireCodec();

/// Parses `spec_text` and builds the codec via the global registry.
Result<std::unique_ptr<WireCodec>> MakeWireCodec(std::string_view spec_text);

}  // namespace plastream

#endif  // PLASTREAM_STREAM_WIRE_CODEC_H_
