// Distributed-telemetry unit tests: the snapshot codec's round-trip and
// hardening contracts, the NTP-style clock-offset estimator, and the
// server-side merger (namespacing, latest-wins, wire-latency join, trace
// rebasing). These are the pieces split_deploy.cc composes over real
// sockets; tests/split_telemetry_test.cc covers that composition.

#include "obs/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/remote.h"

namespace kc {
namespace obs {
namespace {

TelemetrySnapshot MakeRichSnapshot() {
  TelemetrySnapshot s;
  s.tick = 1234;
  s.clock_offset_ns = -987654;
  s.clock_uncertainty_ns = 4321;
  s.health_summary = "client: ticks=1234 sources=3";
  s.audit_summary = "contained";

  MetricRow counter;
  counter.name = "kc.agent.sent";
  counter.kind = MetricKind::kCounter;
  counter.counter = 42;
  s.rows.push_back(counter);

  MetricRow gauge;
  gauge.name = "kc.net.clock_offset_us";
  gauge.kind = MetricKind::kGauge;
  gauge.wall_clock = true;
  gauge.gauge = -3.75;
  s.rows.push_back(gauge);

  MetricRow hist;
  hist.name = "kc.agent.innovation";
  hist.kind = MetricKind::kHistogram;
  hist.hist_bounds = {1.0, 2.0, 4.0};
  hist.hist_counts = {5, 0, 2, 1};  // Bounds + overflow.
  hist.hist_count = 8;
  hist.hist_sum = 13.5;
  s.rows.push_back(hist);

  SnapshotTraceEvent e;
  e.name = "agent.send";
  e.start_ns = 1000000;
  e.duration_ns = 2500;
  e.flow_id = 77;
  e.depth = 1;
  e.thread_index = 2;
  s.trace_events.push_back(e);

  WireSendRecord w;
  w.flow_id = 77;
  w.type = 1;
  w.send_ns = 1000100;
  s.send_log.push_back(w);
  return s;
}

void ExpectSnapshotsEqual(const TelemetrySnapshot& a,
                          const TelemetrySnapshot& b) {
  EXPECT_EQ(a.tick, b.tick);
  EXPECT_EQ(a.clock_offset_ns, b.clock_offset_ns);
  EXPECT_EQ(a.clock_uncertainty_ns, b.clock_uncertainty_ns);
  EXPECT_EQ(a.health_summary, b.health_summary);
  EXPECT_EQ(a.audit_summary, b.audit_summary);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    const MetricRow& x = a.rows[i];
    const MetricRow& y = b.rows[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.wall_clock, y.wall_clock);
    EXPECT_EQ(x.counter, y.counter);
    EXPECT_EQ(x.gauge, y.gauge);
    EXPECT_EQ(x.hist_bounds, y.hist_bounds);
    EXPECT_EQ(x.hist_counts, y.hist_counts);
    EXPECT_EQ(x.hist_count, y.hist_count);
    EXPECT_EQ(x.hist_sum, y.hist_sum);
  }
  ASSERT_EQ(a.trace_events.size(), b.trace_events.size());
  for (size_t i = 0; i < a.trace_events.size(); ++i) {
    EXPECT_EQ(a.trace_events[i].name, b.trace_events[i].name);
    EXPECT_EQ(a.trace_events[i].start_ns, b.trace_events[i].start_ns);
    EXPECT_EQ(a.trace_events[i].duration_ns, b.trace_events[i].duration_ns);
    EXPECT_EQ(a.trace_events[i].flow_id, b.trace_events[i].flow_id);
    EXPECT_EQ(a.trace_events[i].depth, b.trace_events[i].depth);
    EXPECT_EQ(a.trace_events[i].thread_index, b.trace_events[i].thread_index);
  }
  ASSERT_EQ(a.send_log.size(), b.send_log.size());
  for (size_t i = 0; i < a.send_log.size(); ++i) {
    EXPECT_EQ(a.send_log[i].flow_id, b.send_log[i].flow_id);
    EXPECT_EQ(a.send_log[i].type, b.send_log[i].type);
    EXPECT_EQ(a.send_log[i].send_ns, b.send_log[i].send_ns);
  }
}

// ------------------------------------------------------------- round trips

TEST(SnapshotCodecTest, RichSnapshotRoundTrips) {
  TelemetrySnapshot original = MakeRichSnapshot();
  std::vector<uint8_t> bytes;
  EncodeSnapshot(original, &bytes);
  TelemetrySnapshot decoded;
  Status s = DecodeSnapshot(bytes.data(), bytes.size(), &decoded);
  ASSERT_TRUE(s.ok()) << s;
  ExpectSnapshotsEqual(original, decoded);
}

TEST(SnapshotCodecTest, EmptySnapshotRoundTrips) {
  TelemetrySnapshot empty;
  std::vector<uint8_t> bytes;
  EncodeSnapshot(empty, &bytes);
  TelemetrySnapshot decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes.data(), bytes.size(), &decoded).ok());
  ExpectSnapshotsEqual(empty, decoded);
}

TEST(SnapshotCodecTest, LiveRegistryRoundTripsRowForRow) {
  MetricRegistry registry;
  registry.GetCounter("kc.a.sent")->Inc(17);
  registry.GetGauge("kc.b.level", /*wall_clock=*/true)->Set(2.25);
  Histogram* h = registry.GetHistogram("kc.c.latency_us",
                                       Buckets::Exponential(1.0, 2.0, 8),
                                       /*wall_clock=*/true);
  h->Record(0.5);
  h->Record(3.0);
  h->Record(1e9);  // Overflow bucket.

  TelemetrySnapshot snap;
  snap.rows = registry.Rows();
  std::vector<uint8_t> bytes;
  EncodeSnapshot(snap, &bytes);
  TelemetrySnapshot decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes.data(), bytes.size(), &decoded).ok());

  std::vector<MetricRow> expected = registry.Rows();
  ASSERT_EQ(decoded.rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(decoded.rows[i].name, expected[i].name);
    EXPECT_EQ(decoded.rows[i].kind, expected[i].kind);
    EXPECT_EQ(decoded.rows[i].wall_clock, expected[i].wall_clock)
        << expected[i].name;
    EXPECT_EQ(decoded.rows[i].counter, expected[i].counter);
    EXPECT_EQ(decoded.rows[i].gauge, expected[i].gauge);
    EXPECT_EQ(decoded.rows[i].hist_bounds, expected[i].hist_bounds);
    EXPECT_EQ(decoded.rows[i].hist_counts, expected[i].hist_counts);
    EXPECT_EQ(decoded.rows[i].hist_count, expected[i].hist_count);
    EXPECT_EQ(decoded.rows[i].hist_sum, expected[i].hist_sum);
  }
}

TEST(SnapshotCodecTest, EncodeAppendsWithoutClearing) {
  std::vector<uint8_t> bytes = {0xDE, 0xAD};
  EncodeSnapshot(TelemetrySnapshot(), &bytes);
  EXPECT_EQ(bytes[0], 0xDE);
  EXPECT_EQ(bytes[1], 0xAD);
  TelemetrySnapshot decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes.data() + 2, bytes.size() - 2, &decoded).ok());
}

TEST(SnapshotCodecTest, EncodingIsDeterministic) {
  std::vector<uint8_t> a;
  std::vector<uint8_t> b;
  EncodeSnapshot(MakeRichSnapshot(), &a);
  EncodeSnapshot(MakeRichSnapshot(), &b);
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------- decode hardening

TEST(SnapshotCodecTest, EveryTruncationIsOutOfRange) {
  std::vector<uint8_t> bytes;
  EncodeSnapshot(MakeRichSnapshot(), &bytes);
  // Chopping the buffer at every length must fail cleanly — and a torn
  // buffer (still structurally sane up to the cut) reports kOutOfRange.
  for (size_t n = 0; n < bytes.size(); ++n) {
    TelemetrySnapshot decoded;
    Status s = DecodeSnapshot(bytes.data(), n, &decoded);
    ASSERT_FALSE(s.ok()) << "length " << n;
    EXPECT_TRUE(s.code() == StatusCode::kOutOfRange ||
                s.code() == StatusCode::kInvalidArgument)
        << "length " << n << ": " << s;
  }
}

TEST(SnapshotCodecTest, TrailingBytesAreInvalid) {
  std::vector<uint8_t> bytes;
  EncodeSnapshot(MakeRichSnapshot(), &bytes);
  bytes.push_back(0x00);
  TelemetrySnapshot decoded;
  EXPECT_EQ(DecodeSnapshot(bytes.data(), bytes.size(), &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotCodecTest, BadMagicAndVersionRejected) {
  std::vector<uint8_t> bytes;
  EncodeSnapshot(TelemetrySnapshot(), &bytes);
  TelemetrySnapshot decoded;

  std::vector<uint8_t> wrong_magic = bytes;
  wrong_magic[0] = 0x4C;
  EXPECT_EQ(
      DecodeSnapshot(wrong_magic.data(), wrong_magic.size(), &decoded).code(),
      StatusCode::kInvalidArgument);

  std::vector<uint8_t> wrong_version = bytes;
  wrong_version[1] = 0x02;
  EXPECT_EQ(DecodeSnapshot(wrong_version.data(), wrong_version.size(),
                           &decoded)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotCodecTest, NonCanonicalVarintRejected) {
  // magic version tick=0 — but tick encoded as a padded two-byte varint
  // (0x80 0x00), which decodes to 0 yet is not the canonical encoding.
  std::vector<uint8_t> bytes = {0x4B, 0x01, 0x80, 0x00};
  TelemetrySnapshot decoded;
  EXPECT_EQ(DecodeSnapshot(bytes.data(), bytes.size(), &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotCodecTest, ReservedRowFlagsRejected) {
  TelemetrySnapshot snap;
  MetricRow row;
  row.name = "kc.x";
  row.kind = MetricKind::kCounter;
  row.counter = 1;
  snap.rows.push_back(row);
  std::vector<uint8_t> bytes;
  EncodeSnapshot(snap, &bytes);
  // The flags byte trails "kc.x" kind — find it and set a reserved bit.
  // Layout after header: rows count varint, then len=4 "kc.x" kind flags.
  const uint8_t* name = reinterpret_cast<const uint8_t*>("kc.x");
  auto it = std::search(bytes.begin(), bytes.end(), name, name + 4);
  ASSERT_NE(it, bytes.end());
  size_t flags_at = static_cast<size_t>(it - bytes.begin()) + 4 + 1;
  bytes[flags_at] |= 0x80;
  TelemetrySnapshot decoded;
  EXPECT_EQ(DecodeSnapshot(bytes.data(), bytes.size(), &decoded).code(),
            StatusCode::kInvalidArgument);
  // An unknown kind byte is rejected the same way.
  bytes[flags_at] &= static_cast<uint8_t>(~0x80);
  bytes[flags_at - 1] = 7;
  EXPECT_EQ(DecodeSnapshot(bytes.data(), bytes.size(), &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotCodecTest, OversizedDeclaredCountsRejectedBeforeAllocating) {
  // magic version tick offset uncertainty health="" audit="" then a rows
  // count far over kMaxSnapshotRows. The decoder must reject on the
  // declared size, not trust it and allocate.
  std::vector<uint8_t> bytes = {0x4B, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00};
  uint64_t huge = static_cast<uint64_t>(kMaxSnapshotRows) + 1;
  while (huge >= 0x80) {
    bytes.push_back(static_cast<uint8_t>(huge) | 0x80);
    huge >>= 7;
  }
  bytes.push_back(static_cast<uint8_t>(huge));
  TelemetrySnapshot decoded;
  EXPECT_EQ(DecodeSnapshot(bytes.data(), bytes.size(), &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotCodecTest, GarbageBuffersNeverDecode) {
  // Deterministic pseudo-garbage: none of these buffers carry the magic +
  // version prefix with a structurally valid body, so every decode must
  // fail (and under ASan, fail without touching bad memory).
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes(static_cast<size_t>(trial % 64) + 1);
    for (uint8_t& b : bytes) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<uint8_t>(state >> 33);
    }
    bytes[0] = 0x4B;  // Let it past the magic so the body parser runs.
    if (bytes.size() > 1) bytes[1] = 0x01;
    TelemetrySnapshot decoded;
    Status s = DecodeSnapshot(bytes.data(), bytes.size(), &decoded);
    // A tiny buffer can accidentally be a valid empty snapshot; anything
    // that parses must then round-trip to the same bytes.
    if (s.ok()) {
      std::vector<uint8_t> re;
      EncodeSnapshot(decoded, &re);
      EXPECT_EQ(re, bytes) << "trial " << trial;
    }
  }
}

// ------------------------------------------------------ clock offset math

TEST(ClockOffsetTest, MinimumRttSampleWins) {
  ClockOffsetEstimator est;
  EXPECT_FALSE(est.has_estimate());
  EXPECT_EQ(est.uncertainty_ns(), -1);

  // A slow, queue-distorted round trip: rtt 10ms, apparent offset 1ms.
  est.AddSample(/*t0=*/0, /*t1=*/10000000, /*peer=*/6000000);
  ASSERT_TRUE(est.has_estimate());
  EXPECT_EQ(est.offset_ns(), 1000000);
  EXPECT_EQ(est.uncertainty_ns(), 5000000);

  // A fast probe: rtt 100us, true offset 250us. It wins and tightens the
  // error bar to rtt/2 = 50us.
  est.AddSample(/*t0=*/20000000, /*t1=*/20100000, /*peer=*/20300000);
  EXPECT_EQ(est.offset_ns(), 250000);
  EXPECT_EQ(est.uncertainty_ns(), 50000);

  // A later slower probe does not dethrone the minimum-RTT winner.
  est.AddSample(/*t0=*/40000000, /*t1=*/41000000, /*peer=*/99000000);
  EXPECT_EQ(est.offset_ns(), 250000);
  EXPECT_EQ(est.samples(), 3);
}

TEST(ClockOffsetTest, NonMonotonicSamplesIgnored) {
  ClockOffsetEstimator est;
  est.AddSample(/*t0=*/1000, /*t1=*/500, /*peer=*/0);  // t1 < t0.
  EXPECT_FALSE(est.has_estimate());
  EXPECT_EQ(est.samples(), 0);
}

TEST(ClockOffsetTest, WindowForgetsStaleMinimum) {
  ClockOffsetEstimator est(/*window=*/4);
  // One excellent early sample...
  est.AddSample(0, 10, 1005);  // rtt 10, offset 1000.
  EXPECT_EQ(est.offset_ns(), 1000);
  // ...then enough worse samples to evict it from the ring.
  for (int i = 1; i <= 4; ++i) {
    int64_t t0 = i * 1000;
    est.AddSample(t0, t0 + 100, t0 + 2050);  // rtt 100, offset 2000.
  }
  EXPECT_EQ(est.offset_ns(), 2000);
  EXPECT_EQ(est.uncertainty_ns(), 50);
}

// ------------------------------------------------------------- the merger

TEST(RemoteMergerTest, NamespacesAndFoldsKcPrefix) {
  RemoteTelemetryMerger merger;
  TelemetrySnapshot snap;
  snap.tick = 7;
  MetricRow row;
  row.name = "kc.agent.sent";
  row.kind = MetricKind::kCounter;
  row.counter = 5;
  snap.rows.push_back(row);
  row.name = "custom.metric";
  row.counter = 9;
  snap.rows.push_back(row);
  merger.Absorb(snap);

  std::vector<MetricRow> merged = merger.MergedRows({});
  ASSERT_EQ(merged.size(), 2u);
  // "kc." folds into the namespace; a bare name is prefixed whole.
  EXPECT_EQ(merged[0].name, "kc.remote.client.agent.sent");
  EXPECT_EQ(merged[0].counter, 5);
  EXPECT_EQ(merged[1].name, "kc.remote.client.custom.metric");
  EXPECT_EQ(merged[1].counter, 9);
  EXPECT_EQ(merger.last_tick(), 7);
}

TEST(RemoteMergerTest, RemoteRowsAreLatestWinsNotSums) {
  RemoteTelemetryMerger merger;
  TelemetrySnapshot snap;
  MetricRow row;
  row.name = "kc.agent.sent";
  row.kind = MetricKind::kCounter;
  row.counter = 5;
  snap.rows.push_back(row);
  merger.Absorb(snap);
  snap.rows[0].counter = 12;  // Cumulative registry state, not a delta.
  merger.Absorb(snap);

  std::vector<MetricRow> merged = merger.MergedRows({});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].counter, 12);
  EXPECT_EQ(merger.snapshots_absorbed(), 2);
}

TEST(RemoteMergerTest, MergedRowsInterleaveSortedWithLocal) {
  RemoteTelemetryMerger merger;
  TelemetrySnapshot snap;
  MetricRow row;
  row.name = "kc.agent.sent";
  row.kind = MetricKind::kCounter;
  row.counter = 1;
  snap.rows.push_back(row);
  merger.Absorb(snap);

  MetricRow local_a;
  local_a.name = "kc.replica.applied";
  local_a.kind = MetricKind::kCounter;
  local_a.counter = 3;
  MetricRow local_b;
  local_b.name = "kc.zzz";
  local_b.kind = MetricKind::kCounter;
  std::vector<MetricRow> merged =
      merger.MergedRows({std::move(local_b), std::move(local_a)});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].name, "kc.remote.client.agent.sent");
  EXPECT_EQ(merged[1].name, "kc.replica.applied");
  EXPECT_EQ(merged[2].name, "kc.zzz");
}

TEST(RemoteMergerTest, WireLatencyJoinMatchesAndRebases) {
  RemoteTelemetryMerger::Options options;
  options.type_name = [](uint8_t type) {
    return std::string("T") + std::to_string(type);
  };
  RemoteTelemetryMerger merger(options);
  MetricRegistry registry;
  merger.BindMetrics(&registry);

  // Remote clock runs 1ms behind: offset (local - remote) = +1ms. A send
  // stamped 5.000ms remote arriving 6.250ms local is a 250us flight.
  merger.RecordArrival(/*flow_id=*/42, /*type=*/1, /*arrival_ns=*/6250000);
  merger.RecordArrival(/*flow_id=*/43, /*type=*/1, /*arrival_ns=*/6500000);

  TelemetrySnapshot snap;
  snap.clock_offset_ns = 1000000;
  snap.clock_uncertainty_ns = 10000;
  WireSendRecord send;
  send.flow_id = 42;
  send.type = 1;
  send.send_ns = 5000000;
  snap.send_log.push_back(send);
  send.flow_id = 99;  // No arrival recorded: the wire genuinely lost it.
  snap.send_log.push_back(send);
  merger.Absorb(snap);

  EXPECT_EQ(merger.latency_matched(), 1);
  EXPECT_EQ(merger.latency_unmatched(), 1);
  std::vector<MetricRow> rows = registry.Rows();
  bool found = false;
  for (const MetricRow& r : rows) {
    if (r.name != "kc.net.wire_latency_us.T1") continue;
    found = true;
    EXPECT_TRUE(r.wall_clock);
    EXPECT_EQ(r.hist_count, 1);
    EXPECT_DOUBLE_EQ(r.hist_sum, 250.0);  // 250us flight.
  }
  EXPECT_TRUE(found);
}

TEST(RemoteMergerTest, DuplicateArrivalFirstWins) {
  RemoteTelemetryMerger merger;
  MetricRegistry registry;
  merger.BindMetrics(&registry);
  merger.RecordArrival(7, 1, 1000);
  merger.RecordArrival(7, 1, 999999);  // Duplicate: not the wire latency.

  TelemetrySnapshot snap;
  snap.clock_offset_ns = 0;
  snap.clock_uncertainty_ns = 0;
  WireSendRecord send;
  send.flow_id = 7;
  send.type = 1;
  send.send_ns = 400;
  snap.send_log.push_back(send);
  merger.Absorb(snap);

  EXPECT_EQ(merger.latency_matched(), 1);
  for (const MetricRow& r : registry.Rows()) {
    if (r.name.rfind("kc.net.wire_latency_us.", 0) == 0) {
      EXPECT_DOUBLE_EQ(r.hist_sum, 0.6);  // (1000 - 400) ns = 0.6us.
    }
  }
}

TEST(RemoteMergerTest, RemoteTraceEventsRebaseAndTagPid) {
  RemoteTelemetryMerger merger;
  TelemetrySnapshot snap;
  snap.clock_offset_ns = 500000;
  snap.clock_uncertainty_ns = 1000;
  SnapshotTraceEvent e;
  e.name = "agent.send";
  e.start_ns = 1000;
  e.duration_ns = 20;
  e.flow_id = 11;
  e.depth = 1;
  e.thread_index = 3;
  snap.trace_events.push_back(e);
  merger.Absorb(snap);

  std::vector<TraceEvent> events = merger.RemoteTraceEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "agent.send");
  EXPECT_EQ(events[0].start_ns, 501000);  // Rebased into the local clock.
  EXPECT_EQ(events[0].duration_ns, 20);
  EXPECT_EQ(events[0].flow_id, 11u);
  EXPECT_EQ(events[0].pid, 1u);
  EXPECT_EQ(events[0].thread_index, 3u);

  // The ring is cumulative: a later snapshot replaces, never appends.
  snap.trace_events[0].start_ns = 2000;
  merger.Absorb(snap);
  events = merger.RemoteTraceEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start_ns, 502000);
}

TEST(RemoteMergerTest, BoundInstrumentsTrackAbsorbs) {
  RemoteTelemetryMerger merger;
  MetricRegistry registry;
  merger.BindMetrics(&registry);

  TelemetrySnapshot snap;
  snap.tick = 3;
  snap.clock_offset_ns = 2000;
  snap.clock_uncertainty_ns = 500;
  snap.health_summary = "client: ok";
  merger.Absorb(snap);

  EXPECT_EQ(merger.clock_offset_ns(), 2000);
  EXPECT_EQ(merger.clock_uncertainty_ns(), 500);
  EXPECT_EQ(merger.health_summary(), "client: ok");
  bool saw_snapshots = false;
  for (const MetricRow& r : registry.Rows()) {
    if (r.name == "kc.remote.snapshots") {
      saw_snapshots = true;
      EXPECT_EQ(r.counter, 1);
    }
  }
  EXPECT_TRUE(saw_snapshots);
}

}  // namespace
}  // namespace obs
}  // namespace kc
