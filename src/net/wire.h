#ifndef TPART_NET_WIRE_H_
#define TPART_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "runtime/channel.h"
#include "scheduler/push_plan.h"
#include "storage/record.h"

namespace tpart {

/// Compact binary wire format for everything that crosses a machine
/// boundary: forward-pushed record versions, cache pulls, storage reads,
/// write-backs, Calvin peer reads (runtime/channel.h Message), and sunk
/// push plans (scheduler/push_plan.h) for scheduler->machine distribution
/// in a real deployment. Integers are LEB128 varints (signed values
/// zigzag-coded); every encoded object starts with a format-version byte
/// so the format can evolve.
inline constexpr std::uint8_t kWireFormatVersion = 1;

// ---------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------

/// Appends primitive values to a byte string.
class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out) {}

  void PutU8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }

  void PutVarint(std::uint64_t v) {
    while (v >= 0x80) {
      out_->push_back(static_cast<char>(v | 0x80));
      v >>= 7;
    }
    out_->push_back(static_cast<char>(v));
  }

  void PutZigzag(std::int64_t v) {
    PutVarint((static_cast<std::uint64_t>(v) << 1) ^
              static_cast<std::uint64_t>(v >> 63));
  }

 private:
  std::string* out_;
};

/// Bounds-checked reader over an encoded byte string. Every getter
/// returns false on truncation instead of reading past the end.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool GetU8(std::uint8_t* v) {
    if (pos_ >= data_.size()) return false;
    *v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }

  bool GetVarint(std::uint64_t* v) {
    std::uint64_t out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size()) return false;
      const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
      out |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *v = out;
        return true;
      }
    }
    return false;  // > 10 bytes: malformed
  }

  bool GetZigzag(std::int64_t* v) {
    std::uint64_t raw;
    if (!GetVarint(&raw)) return false;
    *v = static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
    return true;
  }

  bool GetBytes(std::size_t n, std::string* out) {
    if (n > remaining()) return false;
    out->assign(data_.substr(pos_, n));
    pos_ += n;
    return true;
  }

  /// Zero-copy variant: a view into the underlying buffer, valid only
  /// while that buffer lives (batch decoding slices sub-messages out of
  /// one contiguous payload without copying).
  bool GetView(std::size_t n, std::string_view* out) {
    if (n > remaining()) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Record / Message / SinkPlan encoding
// ---------------------------------------------------------------------

void EncodeRecord(const Record& record, WireWriter& w);
bool DecodeRecord(WireReader& r, Record* record);

/// Transaction request on the wire (plan dissemination ships the specs of
/// each sunk round alongside the plan). node_weight travels as its IEEE
/// bit pattern; non-finite weights are rejected on decode.
void EncodeTxnSpec(const TxnSpec& spec, WireWriter& w);
bool DecodeTxnSpec(WireReader& r, TxnSpec* spec);

/// Serializes `msg` (without framing).
std::string EncodeMessage(const Message& msg);

/// Appends EncodeMessage's output to `*out` (which may already hold
/// data). Lets batch encoding reuse one buffer instead of allocating a
/// string per message.
void EncodeMessageTo(const Message& msg, std::string* out);

/// Parses a payload produced by EncodeMessage. Rejects unknown format
/// versions, out-of-range enum values, truncated input, and trailing
/// garbage.
Result<Message> DecodeMessage(std::string_view bytes);

/// Batched wire encode (the per-round frame of the hot-path refactor):
/// one payload carrying every message a sender emits to one destination
/// in one burst — version byte, message count, then length-prefixed
/// EncodeMessage entries in send order. The transport gives the whole
/// batch ONE link sequence number, so the reliability layer's resend and
/// dedupe unit (and therefore the resend window granularity) is the
/// round-batch, not the individual message.
std::string EncodeMessageBatch(const std::vector<Message>& msgs);

/// Parses an EncodeMessageBatch payload, enforcing the same strictness
/// as DecodeMessage on every entry plus the batch envelope itself.
Result<std::vector<Message>> DecodeMessageBatch(std::string_view bytes);

/// Serializes a sinking round's push plans (§3.4), or one machine's
/// slice of them (SliceSinkPlan).
std::string EncodeSinkPlan(const SinkPlan& plan);
Result<SinkPlan> DecodeSinkPlan(std::string_view bytes);

/// Splits one sunk round into per-machine kSinkPlan messages: entry m
/// carries machine m's TxnPlans, encoded once by EncodeSinkPlan, and
/// their specs, moved, in plan order (`specs[i]` is the spec of
/// `plan.txns[i]`). A machine with no plans in the round still gets an
/// empty slice: its epoch-reorder buffer, FIFO intake and epoch credit
/// need every round. The caller stamps term and trace context.
std::vector<Message> SliceSinkPlan(SinkPlan plan, std::vector<TxnSpec> specs,
                                   std::size_t num_machines);

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Frames are [u32 LE payload length][u32 LE FNV-1a checksum][payload];
/// the checksum catches corruption, the length bound catches garbage
/// headers before they trigger huge allocations.
inline constexpr std::size_t kFrameHeaderBytes = 8;
inline constexpr std::size_t kMaxFramePayloadBytes = 1u << 26;  // 64 MiB

std::uint32_t WireChecksum(std::string_view payload);

/// Appends one framed payload to `out`.
void AppendFrame(std::string_view payload, std::string* out);

/// Reassembles frames from an arbitrary-chunked byte stream (the TCP
/// receive path). Once a corrupt frame is seen the buffer stays in the
/// error state: a stream with a bad length or checksum cannot be resynced.
class FrameBuffer {
 public:
  void Append(std::string_view data) { buf_.append(data); }

  /// Next complete frame's payload; nullopt when more bytes are needed;
  /// error status on a corrupt stream.
  Result<std::optional<std::string>> Next();

  std::size_t buffered_bytes() const { return buf_.size() - off_; }

 private:
  std::string buf_;
  std::size_t off_ = 0;
  bool corrupt_ = false;
};

}  // namespace tpart

#endif  // TPART_NET_WIRE_H_
