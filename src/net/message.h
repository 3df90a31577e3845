#ifndef KALMANCAST_NET_MESSAGE_H_
#define KALMANCAST_NET_MESSAGE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace kc {

/// Wire-message kinds exchanged between a stream source and the server.
enum class MessageType : uint8_t {
  /// Source registration: carries the predictor's full initial state.
  kInit = 0,
  /// Precision-violation correction: carries the data the predictor needs
  /// to resynchronize (for the Kalman predictor, the raw observation both
  /// replicas fold in; for value caching, the new value).
  kCorrection = 1,
  /// Full predictor-state resynchronization (state + covariance). Larger
  /// than a correction; used for recovery and by the resync-policy
  /// ablation (E9).
  kFullSync = 2,
  /// Periodic liveness beacon with no payload; lets the server distinguish
  /// "suppressed because predictable" from "source died".
  kHeartbeat = 3,
  /// Server-to-source control: payload[0] is the new precision bound the
  /// source must adopt (budget reallocation pushed from the server).
  kSetBound = 4,
  /// Server-to-source control: the replica suspects it has desynchronized
  /// (wire-sequence gap or silence past the escalation threshold) and asks
  /// the source to re-anchor it. payload[0] is 1.0 if the replica is
  /// initialized (answer: FULL_SYNC) and 0.0 if it never saw INIT (answer:
  /// a fresh INIT). Sent with exponential backoff until a sync arrives.
  kResyncRequest = 5,
};

/// Number of MessageType values (for per-type counters).
inline constexpr size_t kNumMessageTypes = 6;

const char* MessageTypeName(MessageType type);

/// True for the four source-to-server kinds the agent stamps a dense
/// wire_seq (and hence a CausalFlowId) on; SET_BOUND / RESYNC_REQUEST are
/// downlink control and carry neither.
inline constexpr bool IsUplinkType(MessageType type) {
  return static_cast<uint8_t>(type) <=
         static_cast<uint8_t>(MessageType::kHeartbeat);
}

/// True iff `raw` is one of the six defined MessageType values. The enum
/// is backed by uint8_t, so casting an arbitrary byte first and asking
/// questions later is how a malformed frame turns into out-of-bounds
/// per-type counter indexing — validate, then cast.
inline constexpr bool IsValidMessageTypeByte(uint8_t raw) {
  return raw < kNumMessageTypes;
}

/// True iff `delta` is a bound a SET_BOUND may carry: finite and > 0.
/// NaN and +inf would switch the source's precision check off.
inline bool IsValidPushedBound(double delta) {
  return std::isfinite(delta) && delta > 0.0;
}

namespace wire {

/// Bytes an unsigned LEB128 varint needs for `v` (1..10).
inline constexpr size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// ZigZag-maps a signed 64-bit value onto unsigned so small-magnitude
/// values (positive or negative) get short varints.
inline constexpr uint64_t ZigZag(int64_t v) {
  // Written without shifting a signed value, so it is well-defined under
  // every standard mode UBSan checks.
  return (static_cast<uint64_t>(v) << 1) ^ (v < 0 ? ~uint64_t{0} : uint64_t{0});
}

inline constexpr int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (0 - (v & 1)));
}

/// Bytes a zigzag varint needs for signed `v`.
inline constexpr size_t SignedVarintSize(int64_t v) {
  return VarintSize(ZigZag(v));
}

}  // namespace wire

/// A wire message. The evaluation metric of the reproduced paper is
/// communication overhead, so SizeBytes() must be *exactly* the framed
/// binary encoding net/codec.h produces: a varint length prefix, then
/// zigzag-varint source_id, one type byte, zigzag-varint seq and
/// wire_seq, an 8-byte little-endian IEEE-754 timestamp, and 8 bytes per
/// payload double. Simulated channels charge SizeBytes(); socket
/// transports put those same bytes on a real wire — the byte-parity
/// contract pinned by tests/codec_test.cc.
struct Message {
  /// Body bytes of the smallest possible header (1-byte source_id, type,
  /// 1-byte seq, 1-byte wire_seq, 8-byte time); with its 1-byte length
  /// prefix the smallest whole frame is kMinBodyBytes + 1 = 13.
  static constexpr size_t kMinBodyBytes = 12;

  int32_t source_id = 0;
  MessageType type = MessageType::kCorrection;
  int64_t seq = 0;    ///< Sequence number of the triggering reading.
  /// Per-link message counter, stamped by the sender on every uplink
  /// message (INIT, CORRECTION, FULL_SYNC, HEARTBEAT alike). Unlike `seq`
  /// — which skips the suppressed readings between messages — wire_seq is
  /// dense, so a receiver can tell "nothing was sent" apart from
  /// "something was sent and lost": the gap signal recovery runs on.
  int64_t wire_seq = 0;
  /// Causal flow id stamped by the sender (CausalFlowId below); 0 when
  /// unset. Pure diagnostic metadata — it links the sender's decision
  /// trace span to the receiver's apply span — and is derivable from
  /// (source_id, wire_seq), so it is NOT charged by SizeBytes(): a real
  /// wire encoding would reconstruct it at the receiver.
  uint64_t flow_id = 0;
  double time = 0.0;  ///< Stream time of the triggering reading.
  std::vector<double> payload;

  /// Exact framed size on the wire: length prefix + header + payload.
  /// Value-dependent (varint header fields), so large seq/wire_seq/
  /// source_id values cost more bytes, exactly as they would on a real
  /// link. flow_id is NOT charged: the receiver reconstructs it from
  /// (source_id, wire_seq) — see CausalFlowId below.
  size_t SizeBytes() const {
    size_t body = wire::SignedVarintSize(source_id) + 1 +
                  wire::SignedVarintSize(seq) +
                  wire::SignedVarintSize(wire_seq) + 8 + 8 * payload.size();
    return wire::VarintSize(body) + body;
  }

  std::string ToString() const;
};

/// Deterministic causal id for one uplink message: source id in the high
/// word, dense wire sequence (+1 so a valid id is never 0) in the low.
/// Stamped by the agent at send time and carried into the replica's apply
/// span, stitching both ends of the message into one trace flow.
inline uint64_t CausalFlowId(int32_t source_id, int64_t wire_seq) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(source_id)) << 32) |
         static_cast<uint32_t>(wire_seq + 1);
}

}  // namespace kc

#endif  // KALMANCAST_NET_MESSAGE_H_
