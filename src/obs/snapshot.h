#ifndef KALMANCAST_OBS_SNAPSHOT_H_
#define KALMANCAST_OBS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace kc {
namespace obs {

/// Telemetry snapshots (docs/OBSERVABILITY.md, "Distributed telemetry"):
/// the compact binary unit a split deployment's client half ships to the
/// server so one scrape covers both processes. A snapshot carries the
/// client's metric rows (the delta the sender selects — typically rows
/// changed since the previous snapshot, each with its full current
/// value), health/audit summary strings, the retained trace-ring events,
/// the transport's send-timestamp log for one-way latency measurement,
/// and the client's current clock-offset estimate.
///
/// Wire shape: the same dialect as net/codec.h — canonical LEB128
/// varints, ZigZag for signed fields, raw IEEE-754 doubles little-endian
/// — so the decode hardening story is identical: EncodeSnapshot is the
/// only producer, DecodeSnapshot never trusts a byte.
///
///   snapshot   := magic:0x4B version:0x01 header rows events sends
///   header     := tick:svarint offset_ns:svarint uncertainty_ns:svarint
///                 health:string audit:string
///   rows       := count:varint row*
///   row        := name:string kind:u8 flags:u8 payload
///                 (kind 0 counter:svarint | kind 1 gauge:f64le |
///                  kind 2 nbounds:varint bound:f64le* count:svarint*
///                         (nbounds+1 counts) sum:f64le)
///   events     := count:varint (name:string start_ns:svarint
///                 duration_ns:svarint flow_id:varint depth:varint
///                 thread_index:varint)*
///   sends      := count:varint (flow_id:varint type:u8 send_ns:svarint)*
///   string     := len:varint byte*
///
/// flags bit 0 = wall_clock; other bits must be zero. A histogram row's
/// total count is derived from its bucket counts on decode, exactly as
/// the live registry derives it.
///
/// Error taxonomy mirrors the codec: kOutOfRange = the buffer ends
/// mid-field (a torn frame), kInvalidArgument = structurally malformed
/// bytes (bad magic, non-canonical varint, oversized declared lengths,
/// unknown kind, nonzero reserved flags). Either way `out` may be
/// partially written and must be discarded.

/// One trace-ring span crossing the process boundary. The same shape as
/// obs/trace.h TraceEvent, with the name by value — a remote process's
/// static strings do not travel as pointers.
struct SnapshotTraceEvent {
  std::string name;
  int64_t start_ns = 0;  ///< Sender's steady clock.
  int64_t duration_ns = 0;
  uint64_t flow_id = 0;
  uint32_t depth = 0;
  uint32_t thread_index = 0;
};

/// One transport send timestamp: when the client's uplink put a message
/// of `type` on the wire, on the client's steady clock. Joined against
/// the server's arrival log (by flow id, with the clock offset applied)
/// to measure true one-way wire latency.
struct WireSendRecord {
  uint64_t flow_id = 0;
  uint8_t type = 0;  ///< net MessageType raw value.
  int64_t send_ns = 0;
};

struct TelemetrySnapshot {
  int64_t tick = 0;  ///< Sender's stream tick when the snapshot was cut.
  /// Sender's estimate of (receiver_clock - sender_clock), nanoseconds.
  /// Lets the receiver rebase start_ns/send_ns into its own clock.
  int64_t clock_offset_ns = 0;
  /// Honest error bar on the offset (min-RTT/2); negative = no estimate
  /// yet, and the receiver must not trust offset-derived latencies.
  int64_t clock_uncertainty_ns = -1;
  std::string health_summary;
  std::string audit_summary;
  std::vector<MetricRow> rows;
  std::vector<SnapshotTraceEvent> trace_events;
  std::vector<WireSendRecord> send_log;
};

/// Decode-side sanity caps. EncodeSnapshot never exceeds them (callers
/// feeding bigger inputs get truncation at the source, not on the wire);
/// DecodeSnapshot rejects declared sizes beyond them before allocating.
inline constexpr size_t kMaxSnapshotStringBytes = 1 << 16;
inline constexpr size_t kMaxSnapshotRows = 1 << 16;
inline constexpr size_t kMaxSnapshotEvents = 1 << 16;
inline constexpr size_t kMaxSnapshotSends = 1 << 16;

/// Serializes `snapshot` onto the end of `out` (the buffer is not
/// cleared, so a transport header can precede it). Deterministic: the
/// bytes are a pure function of the snapshot's contents.
void EncodeSnapshot(const TelemetrySnapshot& snapshot,
                    std::vector<uint8_t>* out);

/// Parses exactly `size` bytes into `*out` (replacing its contents).
/// Trailing bytes after a well-formed snapshot are kInvalidArgument —
/// snapshots travel length-delimited, so slack means corruption.
Status DecodeSnapshot(const uint8_t* data, size_t size,
                      TelemetrySnapshot* out);

}  // namespace obs
}  // namespace kc

#endif  // KALMANCAST_OBS_SNAPSHOT_H_
