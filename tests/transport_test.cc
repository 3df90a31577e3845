// SocketChannel loopback tests: the real UDP/TCP transport must honor the
// same send/advance contract, the same byte accounting, and the same
// recovery behaviour as the simulated Channel — that is what lets every
// experiment in the suite speak for a deployed system.

#include "net/transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <vector>

#include <chrono>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/status.h"
#include "fleet/sharded_fleet.h"
#include "net/channel.h"
#include "net/codec.h"
#include "net/message.h"
#include "server/split_deploy.h"
#include "streams/generators.h"
#include "suppression/agent.h"
#include "suppression/policies.h"
#include "suppression/replica.h"

namespace kc {
namespace {

Message MakeMessage(MessageType type, int64_t seq, size_t payload_doubles) {
  Message msg;
  msg.source_id = 5;
  msg.type = type;
  msg.seq = seq;
  msg.wire_seq = seq;
  msg.time = static_cast<double>(seq) * 0.25;
  if (IsUplinkType(type)) {
    msg.flow_id = CausalFlowId(msg.source_id, msg.wire_seq);
  }
  msg.payload.assign(payload_doubles, 3.5);
  return msg;
}

Reading MakeReading(int64_t seq, double value) {
  Reading r;
  r.seq = seq;
  r.time = static_cast<double>(seq);
  r.value = Vector({value});
  return r;
}

KalmanPredictor::Config TestKalman() {
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.1, 0.5);
  config.sync_mode = KalmanPredictor::SyncMode::kMeasurement;
  return config;
}

struct UdpPair {
  std::unique_ptr<SocketChannel> rx;
  std::unique_ptr<SocketChannel> tx;
};

UdpPair MakeUdpPair() {
  auto rx = SocketChannel::UdpBind("127.0.0.1", 0);
  EXPECT_TRUE(rx.ok()) << rx.status();
  auto tx = SocketChannel::UdpConnect("127.0.0.1", (*rx)->port());
  EXPECT_TRUE(tx.ok()) << tx.status();
  return {std::move(*rx), std::move(*tx)};
}

struct TcpPair {
  std::unique_ptr<TcpListener> listener;
  std::unique_ptr<SocketChannel> client;
  std::unique_ptr<SocketChannel> server;
};

TcpPair MakeTcpPair() {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok()) << listener.status();
  auto client = SocketChannel::TcpConnect("127.0.0.1", (*listener)->port());
  EXPECT_TRUE(client.ok()) << client.status();
  auto server = (*listener)->Accept(/*timeout_ms=*/2000);
  EXPECT_TRUE(server.ok()) << server.status();
  return {std::move(*listener), std::move(*client), std::move(*server)};
}

/// Polls `rx` until `expected` messages have been delivered (bounded wait;
/// loopback is fast but asynchronous).
void DrainUntil(SocketChannel* rx, int64_t expected) {
  for (int i = 0; i < 200 && rx->stats().messages_delivered < expected; ++i) {
    rx->Poll(/*timeout_ms=*/25);
  }
}

TEST(UdpTransportTest, RoundTripWithBothEndAccounting) {
  UdpPair link = MakeUdpPair();
  std::vector<Message> got;
  link.rx->SetReceiver([&got](const Message& m) { got.push_back(m); });

  std::vector<Message> sent;
  for (int64_t i = 0; i < 50; ++i) {
    Message m = MakeMessage(MessageType::kCorrection, i, 2);
    sent.push_back(m);
    ASSERT_TRUE(link.tx->Send(m).ok());
  }
  DrainUntil(link.rx.get(), 50);

  ASSERT_EQ(got.size(), sent.size());
  int64_t expected_bytes = 0;
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].seq, sent[i].seq);
    EXPECT_EQ(got[i].wire_seq, sent[i].wire_seq);
    EXPECT_EQ(got[i].type, sent[i].type);
    EXPECT_EQ(got[i].flow_id, sent[i].flow_id) << "reconstructed flow id";
    EXPECT_EQ(got[i].payload, sent[i].payload);
    expected_bytes += static_cast<int64_t>(sent[i].SizeBytes());
  }
  // The parity contract: sender books == simulated-channel send books,
  // receiver books mirror them exactly on a lossless loopback.
  EXPECT_EQ(link.tx->stats().messages_sent, 50);
  EXPECT_EQ(link.tx->stats().bytes_sent, expected_bytes);
  EXPECT_EQ(link.rx->stats().messages_delivered, 50);
  EXPECT_EQ(link.rx->stats().bytes_delivered, expected_bytes);
  size_t corr = static_cast<size_t>(MessageType::kCorrection);
  EXPECT_EQ(link.tx->stats().by_type_bytes_sent[corr], expected_bytes);
  EXPECT_EQ(link.rx->stats().by_type_bytes_delivered[corr], expected_bytes);
  EXPECT_EQ(link.rx->frames_rejected(), 0);
}

TEST(UdpTransportTest, SendOnReceiveOnlyChannelFailsCleanly) {
  UdpPair link = MakeUdpPair();
  Status s = link.rx->Send(MakeMessage(MessageType::kHeartbeat, 0, 0));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(link.rx->stats().messages_sent, 0);
}

TEST(UdpTransportTest, GarbageAndTruncatedDatagramsRejectedNotFatal) {
  UdpPair link = MakeUdpPair();
  int delivered = 0;
  link.rx->SetReceiver([&delivered](const Message&) { ++delivered; });

  // Raw socket lobbing junk at the receiver's port.
  int junk_fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(junk_fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(link.rx->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);

  uint8_t junk[32];
  std::memset(junk, 0xEE, sizeof(junk));
  ASSERT_GT(::sendto(junk_fd, junk, sizeof(junk), 0,
                     reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // A truncated-but-valid-prefix frame: the length prefix promises more
  // body than the datagram carries.
  std::vector<uint8_t> frame =
      codec::Encode(MakeMessage(MessageType::kFullSync, 9, 4));
  ASSERT_GT(::sendto(junk_fd, frame.data(), frame.size() - 10, 0,
                     reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(junk_fd);

  // A good frame after the junk must still get through.
  ASSERT_TRUE(link.tx->Send(MakeMessage(MessageType::kCorrection, 1, 1)).ok());
  DrainUntil(link.rx.get(), 1);

  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.rx->frames_rejected(), 2);
  EXPECT_EQ(link.rx->stats().messages_delivered, 1);
  EXPECT_TRUE(link.rx->last_error().ok());
}

TEST(TcpTransportTest, FullDuplexRoundTrip) {
  TcpPair link = MakeTcpPair();
  std::vector<int64_t> at_server, at_client;
  link.server->SetReceiver(
      [&at_server](const Message& m) { at_server.push_back(m.seq); });
  link.client->SetReceiver(
      [&at_client](const Message& m) { at_client.push_back(m.seq); });

  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        link.client->Send(MakeMessage(MessageType::kResyncRequest, i, 1))
            .ok());
    ASSERT_TRUE(
        link.server->Send(MakeMessage(MessageType::kSetBound, 100 + i, 1))
            .ok());
  }
  DrainUntil(link.server.get(), 20);
  DrainUntil(link.client.get(), 20);

  ASSERT_EQ(at_server.size(), 20u);
  ASSERT_EQ(at_client.size(), 20u);
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(at_server[i], i);          // Stream order preserved.
    EXPECT_EQ(at_client[i], 100 + i);
  }
  EXPECT_EQ(link.client->stats().bytes_sent,
            link.server->stats().bytes_delivered);
  EXPECT_EQ(link.server->stats().bytes_sent,
            link.client->stats().bytes_delivered);
}

TEST(TcpTransportTest, ReassemblesFragmentedFrames) {
  TcpPair link = MakeTcpPair();
  std::vector<Message> got;
  link.server->SetReceiver([&got](const Message& m) { got.push_back(m); });

  // Two frames dribbled across the stream one byte at a time, straddling
  // every possible boundary the reassembler must handle.
  std::vector<uint8_t> bytes;
  codec::EncodeFrame(MakeMessage(MessageType::kSetBound, 7, 3), &bytes);
  codec::EncodeFrame(MakeMessage(MessageType::kResyncRequest, 8, 0), &bytes);
  for (uint8_t b : bytes) {
    ASSERT_EQ(::send(link.client->fd(), &b, 1, 0), 1);
    link.server->Poll(/*timeout_ms=*/5);
  }
  DrainUntil(link.server.get(), 2);

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].seq, 7);
  EXPECT_EQ(got[0].payload.size(), 3u);
  EXPECT_EQ(got[1].seq, 8);
  EXPECT_TRUE(link.server->last_error().ok());
}

TEST(TcpTransportTest, GarbageOnStreamPoisonsConnection) {
  TcpPair link = MakeTcpPair();
  link.server->SetReceiver([](const Message&) {});

  // One good frame, then bytes that cannot start a frame (body_len far
  // over the cap). Stream framing is unrecoverable from that point.
  ASSERT_TRUE(
      link.client->Send(MakeMessage(MessageType::kSetBound, 1, 1)).ok());
  uint8_t junk[16];
  std::memset(junk, 0xFF, sizeof(junk));
  ASSERT_EQ(::send(link.client->fd(), junk, sizeof(junk), 0),
            static_cast<ssize_t>(sizeof(junk)));

  DrainUntil(link.server.get(), 1);
  for (int i = 0; i < 20 && link.server->last_error().ok(); ++i) {
    link.server->Poll(/*timeout_ms=*/25);
  }

  EXPECT_EQ(link.server->stats().messages_delivered, 1);
  EXPECT_FALSE(link.server->last_error().ok());
  EXPECT_TRUE(link.server->peer_closed());
  EXPECT_GE(link.server->frames_rejected(), 1);
  // A poisoned channel refuses further sends with its error.
  EXPECT_FALSE(link.server->Send(MakeMessage(MessageType::kSetBound, 2, 0))
                   .ok());
}

TEST(TcpTransportTest, TickBarriersBypassAccounting) {
  TcpPair link = MakeTcpPair();
  std::vector<int64_t> ticks;
  link.client->SetTickSink([&ticks](int64_t t) { ticks.push_back(t); });
  std::vector<int64_t> seqs;
  link.client->SetReceiver([&seqs](const Message& m) { seqs.push_back(m.seq); });

  ASSERT_TRUE(link.server->SendTickBarrier(41).ok());
  ASSERT_TRUE(link.server->Send(MakeMessage(MessageType::kSetBound, 9, 1)).ok());
  ASSERT_TRUE(link.server->SendTickBarrier(42).ok());
  DrainUntil(link.client.get(), 1);
  for (int i = 0; i < 20 && ticks.size() < 2; ++i) {
    link.client->Poll(/*timeout_ms=*/25);
  }

  EXPECT_EQ(ticks, (std::vector<int64_t>{41, 42}));
  EXPECT_EQ(seqs, (std::vector<int64_t>{9}));
  // Barriers are transport metadata: neither end's NetworkStats moved
  // for them.
  EXPECT_EQ(link.server->stats().messages_sent, 1);
  EXPECT_EQ(link.client->stats().messages_delivered, 1);
  EXPECT_EQ(link.server->stats().bytes_sent,
            link.client->stats().bytes_delivered);
  // And UDP channels refuse them.
  UdpPair udp = MakeUdpPair();
  EXPECT_EQ(udp.tx->SendTickBarrier(1).code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Telemetry control plane: the uncharged escape frames distributed
// telemetry rides on (clock probes, snapshots, black-box pulls).

TEST(TcpTransportTest, ClockPingAutoPongRoundTrip) {
  TcpPair link = MakeTcpPair();
  link.server->SetReceiver([](const Message&) {});
  std::vector<std::pair<int64_t, int64_t>> pongs;
  link.client->SetClockPongSink([&pongs](int64_t t0, int64_t peer_ns) {
    pongs.emplace_back(t0, peer_ns);
  });

  // The transport answers pings itself (no application drain in the
  // round trip, so queueing delay cannot masquerade as clock offset).
  ASSERT_TRUE(link.client->SendClockPing(123456789).ok());
  for (int i = 0; i < 40 && pongs.empty(); ++i) {
    link.server->Poll(/*timeout_ms=*/25);
    link.client->Poll(/*timeout_ms=*/25);
  }
  ASSERT_EQ(pongs.size(), 1u);
  EXPECT_EQ(pongs[0].first, 123456789);  // t0 echoed for RTT pairing.
  EXPECT_GT(pongs[0].second, 0);         // The peer's clock reading.

  // The whole exchange is transport metadata: neither side's books moved.
  EXPECT_EQ(link.client->stats().messages_sent, 0);
  EXPECT_EQ(link.client->stats().bytes_sent, 0);
  EXPECT_EQ(link.client->stats().messages_delivered, 0);
  EXPECT_EQ(link.server->stats().messages_sent, 0);
  EXPECT_EQ(link.server->stats().messages_delivered, 0);
}

TEST(TcpTransportTest, SnapshotFramesDeliverBytesUncharged) {
  TcpPair link = MakeTcpPair();
  std::vector<std::vector<uint8_t>> got;
  link.server->SetSnapshotSink([&got](const uint8_t* data, size_t size) {
    got.emplace_back(data, data + size);
  });

  std::vector<uint8_t> payload = {0x4B, 0x01, 0x00, 0xFF, 0x80, 0x7F};
  ASSERT_TRUE(
      link.client->SendTelemetrySnapshot(payload.data(), payload.size()).ok());
  for (int i = 0; i < 40 && got.empty(); ++i) {
    link.server->Poll(/*timeout_ms=*/25);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);  // Opaque to the transport, byte-exact.
  EXPECT_EQ(link.client->stats().messages_sent, 0);
  EXPECT_EQ(link.server->stats().messages_delivered, 0);
  EXPECT_EQ(link.server->stats().bytes_delivered, 0);

  // Degenerate sizes are refused at the send API, not on the wire.
  EXPECT_EQ(link.client->SendTelemetrySnapshot(payload.data(), 0).code(),
            StatusCode::kInvalidArgument);
  // And UDP channels have no control stream to carry them.
  UdpPair udp = MakeUdpPair();
  EXPECT_EQ(
      udp.tx->SendTelemetrySnapshot(payload.data(), payload.size()).code(),
      StatusCode::kFailedPrecondition);
}

TEST(TcpTransportTest, BlackboxPullRoundTrip) {
  TcpPair link = MakeTcpPair();
  // Server asks; client answers with the flight-recorder dump.
  std::vector<int64_t> requests;
  link.client->SetBlackboxRequestSink(
      [&requests](int64_t source_id) { requests.push_back(source_id); });
  std::vector<std::pair<int64_t, std::string>> dumps;
  link.server->SetBlackboxDumpSink(
      [&dumps](int64_t source_id, std::string dump) {
        dumps.emplace_back(source_id, std::move(dump));
      });

  ASSERT_TRUE(link.server->SendBlackboxRequest(42).ok());
  for (int i = 0; i < 40 && requests.empty(); ++i) {
    link.client->Poll(/*timeout_ms=*/25);
  }
  ASSERT_EQ(requests, (std::vector<int64_t>{42}));
  ASSERT_TRUE(link.client->SendBlackboxDump(42, "ring: tick 7 SUPPRESS").ok());
  for (int i = 0; i < 40 && dumps.empty(); ++i) {
    link.server->Poll(/*timeout_ms=*/25);
  }
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].first, 42);
  EXPECT_EQ(dumps[0].second, "ring: tick 7 SUPPRESS");
  // An empty dump still travels (the id alone is the 8-byte payload).
  ASSERT_TRUE(link.client->SendBlackboxDump(7, "").ok());
  for (int i = 0; i < 40 && dumps.size() < 2; ++i) {
    link.server->Poll(/*timeout_ms=*/25);
  }
  ASSERT_EQ(dumps.size(), 2u);
  EXPECT_EQ(dumps[1].first, 7);
  EXPECT_TRUE(dumps[1].second.empty());
  EXPECT_EQ(link.server->stats().messages_sent, 0);
  EXPECT_EQ(link.server->stats().messages_delivered, 0);
}

TEST(TcpTransportTest, TornEscapeFrameReassemblesByteByByte) {
  TcpPair link = MakeTcpPair();
  std::vector<std::vector<uint8_t>> got;
  link.server->SetSnapshotSink([&got](const uint8_t* data, size_t size) {
    got.emplace_back(data, data + size);
  });

  // A snapshot escape frame: 0x00 0x11 len:u64le payload. Trickle it one
  // byte at a time; the stream parser must wait for the whole frame and
  // fire the sink exactly once.
  std::vector<uint8_t> payload = {0xAA, 0xBB, 0xCC};
  std::vector<uint8_t> frame = {0x00, 0x11};
  uint64_t len = payload.size();
  for (int i = 0; i < 8; ++i) {
    frame.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  for (size_t i = 0; i < frame.size(); ++i) {
    ASSERT_EQ(::send(link.client->fd(), frame.data() + i, 1, 0), 1);
    link.server->Poll(/*timeout_ms=*/10);
    if (i + 1 < frame.size()) {
      EXPECT_TRUE(got.empty()) << "fired after " << i + 1 << " bytes";
    }
  }
  for (int i = 0; i < 40 && got.empty(); ++i) {
    link.server->Poll(/*timeout_ms=*/25);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_TRUE(link.server->last_error().ok());
}

TEST(TcpTransportTest, OversizedEscapePayloadPoisonsStream) {
  TcpPair link = MakeTcpPair();
  link.server->SetReceiver([](const Message&) {});
  // A declared payload over the 4 MiB cap cannot be skipped (stream
  // framing is lost), so the connection is poisoned on the header alone.
  std::vector<uint8_t> frame = {0x00, 0x11};
  uint64_t len = (4u << 20) + 1;
  for (int i = 0; i < 8; ++i) {
    frame.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
  ASSERT_EQ(::send(link.client->fd(), frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  for (int i = 0; i < 40 && link.server->last_error().ok(); ++i) {
    link.server->Poll(/*timeout_ms=*/25);
  }
  EXPECT_FALSE(link.server->last_error().ok());
  EXPECT_GE(link.server->frames_rejected(), 1);
}

TEST(TcpTransportTest, UnknownEscapeOpcodePoisonsStream) {
  TcpPair link = MakeTcpPair();
  link.server->SetReceiver([](const Message&) {});
  uint8_t frame[10] = {0x00, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::send(link.client->fd(), frame, sizeof(frame), 0),
            static_cast<ssize_t>(sizeof(frame)));
  for (int i = 0; i < 40 && link.server->last_error().ok(); ++i) {
    link.server->Poll(/*timeout_ms=*/25);
  }
  EXPECT_FALSE(link.server->last_error().ok());
}

TEST(UdpTransportTest, MalformedEscapeDatagramsRejectedNotFatal) {
  UdpPair link = MakeUdpPair();
  std::vector<Message> got;
  link.rx->SetReceiver([&got](const Message& m) { got.push_back(m); });

  // Truncated escape header, unknown opcode, and a variable frame whose
  // size disagrees with its declared length — each is one rejected
  // datagram, none is fatal (datagram framing self-heals).
  const uint8_t torn[5] = {0x00, 0x02, 1, 2, 3};
  ASSERT_EQ(::send(link.tx->fd(), torn, sizeof(torn), 0), 5);
  const uint8_t unknown[10] = {0x00, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::send(link.tx->fd(), unknown, sizeof(unknown), 0), 10);
  uint8_t short_pong[10] = {0x00, 0x10, 16, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::send(link.tx->fd(), short_pong, sizeof(short_pong), 0), 10);
  for (int i = 0; i < 40 && link.rx->frames_rejected() < 3; ++i) {
    link.rx->Poll(/*timeout_ms=*/25);
  }
  EXPECT_EQ(link.rx->frames_rejected(), 3);
  EXPECT_TRUE(link.rx->last_error().ok());

  // The channel still delivers real traffic afterwards.
  ASSERT_TRUE(link.tx->Send(MakeMessage(MessageType::kCorrection, 1, 1)).ok());
  DrainUntil(link.rx.get(), 1);
  EXPECT_EQ(got.size(), 1u);
}

TEST(UdpTransportTest, SendTimestampLogRecordsFlowStampedSends) {
  UdpPair link = MakeUdpPair();
  link.rx->SetReceiver([](const Message&) {});
  link.tx->EnableSendTimestampLog(/*capacity=*/4);

  // Six flow-stamped uplink sends against a capacity of four: the two
  // oldest records are evicted and counted, the rest drain in order.
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        link.tx->Send(MakeMessage(MessageType::kCorrection, i, 1)).ok());
  }
  // Control traffic without a flow id is never logged.
  ASSERT_TRUE(link.tx->Send(MakeMessage(MessageType::kSetBound, 9, 1)).ok());

  std::vector<obs::WireSendRecord> records;
  link.tx->DrainSendTimestamps(&records);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(link.tx->send_log_dropped(), 2);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].flow_id,
              CausalFlowId(5, static_cast<int64_t>(i) + 2));
    EXPECT_EQ(records[i].type,
              static_cast<uint8_t>(MessageType::kCorrection));
    EXPECT_GT(records[i].send_ns, 0);
    if (i > 0) {
      EXPECT_GE(records[i].send_ns, records[i - 1].send_ns);
    }
  }
  // Draining empties the log; the next drain returns nothing new.
  link.tx->DrainSendTimestamps(&records);
  EXPECT_EQ(records.size(), 4u);
}

// ---------------------------------------------------------------------------
// Backend parity: the same agent workload over a simulated Channel and
// over a socket pair must produce identical NetworkStats books and an
// identical replica state.

TEST(BackendParityTest, SimulatedAndSocketBooksAgree) {
  Channel sim;  // Lossless, zero latency: the protocol's home turf.
  UdpPair sock = MakeUdpPair();

  ServerReplica sim_replica(0, std::make_unique<KalmanPredictor>(TestKalman()));
  ServerReplica sock_replica(0,
                             std::make_unique<KalmanPredictor>(TestKalman()));
  sim.SetReceiver([&sim_replica](const Message& m) {
    Status s = sim_replica.OnMessage(m);
    ASSERT_TRUE(s.ok()) << s;
  });
  sock.rx->SetReceiver([&sock_replica](const Message& m) {
    Status s = sock_replica.OnMessage(m);
    ASSERT_TRUE(s.ok()) << s;
  });

  AgentConfig agent_config;
  agent_config.delta = 0.4;
  agent_config.heartbeat_every = 5;
  agent_config.full_sync_every = 7;
  SourceAgent sim_agent(0, std::make_unique<KalmanPredictor>(TestKalman()),
                        agent_config, &sim);
  SourceAgent sock_agent(0, std::make_unique<KalmanPredictor>(TestKalman()),
                         agent_config, sock.tx.get());

  Rng rng(314);
  double value = 0.0;
  for (int64_t t = 0; t < 400; ++t) {
    value += rng.Gaussian(0.0, 0.4);
    Reading r = MakeReading(t, value);
    sim_replica.Tick();
    sock_replica.Tick();
    ASSERT_TRUE(sim_agent.Offer(r).ok());
    ASSERT_TRUE(sock_agent.Offer(r).ok());
    // The simulated channel delivers inside Send; match that timing by
    // draining the loopback before the next tick (lossless, so every
    // sent message arrives).
    DrainUntil(sock.rx.get(), sock.tx->stats().messages_sent);
  }

  // Identical decisions on both backends...
  EXPECT_EQ(sock_agent.stats().corrections, sim_agent.stats().corrections);
  EXPECT_EQ(sock_agent.stats().suppressed, sim_agent.stats().suppressed);
  // ...identical send-side books...
  const NetworkStats& a = sim.stats();
  const NetworkStats& b = sock.tx->stats();
  EXPECT_EQ(b.messages_sent, a.messages_sent);
  EXPECT_EQ(b.bytes_sent, a.bytes_sent);
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    EXPECT_EQ(b.by_type_sent[i], a.by_type_sent[i]) << "type " << i;
    EXPECT_EQ(b.by_type_bytes_sent[i], a.by_type_bytes_sent[i]) << "type "
                                                                << i;
  }
  // ...identical delivery books on the lossless loopback...
  const NetworkStats& d = sock.rx->stats();
  EXPECT_EQ(d.messages_delivered, a.messages_delivered);
  EXPECT_EQ(d.bytes_delivered, a.bytes_delivered);
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    EXPECT_EQ(d.by_type[i], a.by_type[i]) << "type " << i;
    EXPECT_EQ(d.by_type_bytes_delivered[i], a.by_type_bytes_delivered[i])
        << "type " << i;
  }
  // ...and an identical replica at the end of it.
  ASSERT_TRUE(sim_replica.initialized());
  ASSERT_TRUE(sock_replica.initialized());
  EXPECT_EQ(sock_replica.messages_applied(), sim_replica.messages_applied());
  EXPECT_EQ(sock_replica.Value()[0], sim_replica.Value()[0]);
}

// ---------------------------------------------------------------------------
// The headline e2e: genuine kernel-level UDP loss (socket buffer overflow)
// must drive the PR 4 recovery protocol across a real TCP control link.

TEST(RecoveryOverSocketsTest, RealDropsTriggerResyncAndHeal) {
  UdpPair uplink = MakeUdpPair();
  // Shrink the receive buffer so an undrained burst genuinely overflows
  // in the kernel — real loss, not injected loss.
  ASSERT_TRUE(uplink.rx->SetRecvBufferBytes(2048).ok());
  TcpPair control = MakeTcpPair();

  ServerReplica replica(0, std::make_unique<KalmanPredictor>(TestKalman()));
  ReplicaRecoveryConfig recovery;
  recovery.enabled = true;
  recovery.max_gap_events = 1;
  recovery.backoff_initial_ticks = 2;
  recovery.backoff_max_ticks = 8;
  replica.SetRecovery(recovery);
  uplink.rx->SetReceiver([&replica](const Message& m) {
    Status s = replica.OnMessage(m);
    (void)s;  // CORRECTION-before-resync is expected under loss.
  });
  replica.SetControlSender([&control](const Message& m) {
    Status s = control.server->Send(m);
    (void)s;
  });

  AgentConfig agent_config;
  agent_config.delta = 1e-6;  // Every reading ships: maximal burst rate.
  SourceAgent agent(0, std::make_unique<KalmanPredictor>(TestKalman()),
                    agent_config, uplink.tx.get());
  control.client->SetReceiver([&agent](const Message& m) {
    Status s = agent.OnControl(m);
    ASSERT_TRUE(s.ok()) << s;
  });

  Rng rng(77);
  double value = 0.0;
  int64_t seq = 0;
  auto step = [&](bool drain_uplink) {
    value += rng.Gaussian(0.0, 1.0);
    replica.Tick();
    if (drain_uplink) uplink.rx->Poll(/*timeout_ms=*/2);
    control.client->AdvanceTick();
    ASSERT_TRUE(agent.Offer(MakeReading(seq, value)).ok());
    ++seq;
  };

  // Phase 1: healthy lockstep.
  for (int i = 0; i < 30; ++i) step(/*drain_uplink=*/true);
  ASSERT_TRUE(replica.initialized());
  ASSERT_FALSE(replica.desynced());

  // Phase 2: the receiver stalls while the source keeps bursting — the
  // tiny kernel buffer overflows and datagrams are genuinely dropped.
  for (int i = 0; i < 400; ++i) step(/*drain_uplink=*/false);

  // Phase 3: the receiver comes back; gap detection must fire, a resync
  // must cross the TCP control link, and the replica must heal.
  bool saw_desync = false;
  for (int i = 0; i < 100; ++i) {
    step(/*drain_uplink=*/true);
    saw_desync = saw_desync || replica.desynced();
    if (saw_desync && !replica.desynced()) break;
  }

  EXPECT_LT(uplink.rx->stats().messages_delivered,
            uplink.tx->stats().messages_sent)
      << "the kernel should have dropped datagrams";
  EXPECT_GT(replica.gaps(), 0) << "wire-seq gap detection";
  EXPECT_TRUE(saw_desync);
  EXPECT_GT(replica.resyncs_requested(), 0);
  EXPECT_GT(agent.stats().resyncs_served, 0)
      << "RESYNC_REQUEST crossed the real TCP control link";
  EXPECT_FALSE(replica.desynced()) << "replica healed after FULL_SYNC";
  EXPECT_TRUE(uplink.rx->last_error().ok());
}


// ---------------------------------------------------------------------------
// Fleet transport seam: a ShardedFleet whose uplinks are real UDP loopback
// sockets must keep books identical to the simulated backend.
// ---------------------------------------------------------------------------

// A Channel whose wire is a kernel UDP loopback socket pair. The fleet's
// Config::uplink_factory seam sees an ordinary Channel; every message
// actually crosses a datagram socket. Books are read from the outer
// (Channel) accounting seam only — the inner SocketChannels' own books
// are unused.
class UdpLoopbackChannel final : public Channel {
 public:
  static std::unique_ptr<UdpLoopbackChannel> Make() {
    auto rx = SocketChannel::UdpBind("127.0.0.1", 0);
    EXPECT_TRUE(rx.ok()) << rx.status();
    auto tx = SocketChannel::UdpConnect("127.0.0.1", (*rx)->port());
    EXPECT_TRUE(tx.ok()) << tx.status();
    return std::unique_ptr<UdpLoopbackChannel>(
        new UdpLoopbackChannel(std::move(*tx), std::move(*rx)));
  }

  Status Send(const Message& msg) override {
    if (!has_receiver()) {
      return Status::FailedPrecondition("channel has no receiver");
    }
    AccountSend(msg);
    return tx_->Send(msg);
  }

  void AdvanceTick() override { rx_->Poll(/*timeout_ms=*/0); }

  /// Loopback delivery is same-process but still asynchronous relative
  /// to the fleet's step loop: wait out the last datagrams in flight.
  void DrainAll() {
    for (int i = 0;
         i < 400 && stats().messages_delivered < stats().messages_sent; ++i) {
      rx_->Poll(/*timeout_ms=*/5);
    }
  }

 private:
  UdpLoopbackChannel(std::unique_ptr<SocketChannel> tx,
                     std::unique_ptr<SocketChannel> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {
    rx_->SetReceiver([this](const Message& msg) { Deliver(msg); });
  }

  std::unique_ptr<SocketChannel> tx_;
  std::unique_ptr<SocketChannel> rx_;
};

void AddSeamSources(ShardedFleet& fleet, int n) {
  for (int i = 0; i < n; ++i) {
    RandomWalkGenerator::Config walk;
    walk.start = 5.0 * i;
    walk.step_sigma = 0.2 + 0.05 * (i % 4);
    fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                    std::make_unique<KalmanPredictor>(TestKalman()),
                    /*delta=*/0.4 + 0.1 * (i % 3));
  }
}

TEST(FleetSocketSeamTest, ShardedFleetBooksMatchSimulatedBackend) {
  constexpr int kSources = 8;
  constexpr size_t kTicks = 200;
  ShardedFleet::Config base;
  base.agent_base.heartbeat_every = 5;
  base.agent_base.full_sync_every = 16;

  ShardedFleet sim(base);

  ShardedFleet::Config sock_config = base;
  std::vector<UdpLoopbackChannel*> links;
  sock_config.uplink_factory =
      [&links](int32_t, const Channel::Config&) -> std::unique_ptr<Channel> {
    auto link = UdpLoopbackChannel::Make();
    links.push_back(link.get());
    return link;
  };
  ShardedFleet sock(sock_config);

  AddSeamSources(sim, kSources);
  AddSeamSources(sock, kSources);
  ASSERT_TRUE(sim.Run(kTicks).ok());
  ASSERT_TRUE(sock.Run(kTicks).ok());
  for (UdpLoopbackChannel* link : links) link->DrainAll();

  // Agent decisions depend only on local state here (no recovery, no
  // control feedback), so the send books must match message for message
  // and byte for byte; after the drain the delivery books must too.
  NetworkStats sim_net = sim.TotalNetworkStats();
  NetworkStats sock_net = sock.TotalNetworkStats();
  EXPECT_GT(sock_net.messages_sent, 0);
  EXPECT_EQ(sim_net.SentLine(), sock_net.SentLine());
  EXPECT_EQ(sim_net.DeliveredLine(), sock_net.DeliveredLine());
}

// ---------------------------------------------------------------------------
// Split-process deployment drivers (in one process, two roles on two
// threads): the client's send books and the server's delivery books must
// agree exactly on a lossless loopback.
// ---------------------------------------------------------------------------

struct SplitRun {
  StatusOr<SplitClientReport> client = Status::Internal("not run");
  StatusOr<SplitServerReport> server = Status::Internal("not run");
};

/// Runs both split halves over loopback, the server on its own thread.
SplitRun RunSplitPair(const SplitConfig& config,
                      const GeneratorFactory& make_generator,
                      const PredictorFactory& make_predictor) {
  SplitRun run;
  std::thread server(
      [&] { run.server = RunSplitServer(config, make_predictor); });
  // The server needs a moment to listen; connection-refused retries are
  // harmless (the client fails before sending anything).
  for (int attempt = 0; attempt < 100; ++attempt) {
    run.client = RunSplitClient(config, make_generator, make_predictor);
    if (run.client.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.join();
  return run;
}

std::unique_ptr<StreamGenerator> SplitWalk(int32_t id) {
  RandomWalkGenerator::Config walk;
  walk.start = 5.0 * id;
  walk.step_sigma = 0.25;
  return std::make_unique<RandomWalkGenerator>(walk);
}

TEST(SplitDeployTest, ClientAndServerBooksAgreeOverLoopback) {
  SplitConfig config;
  config.host = "127.0.0.1";
  config.port = 39117;
  config.ticks = 60;
  config.num_sources = 3;
  config.deltas = {0.3, 0.5, 0.7};
  config.agent_base.heartbeat_every = 5;
  config.agent_base.full_sync_every = 16;
  config.accept_timeout_ms = 10000;

  auto make_predictor = [](int32_t) -> std::unique_ptr<Predictor> {
    return std::make_unique<KalmanPredictor>(TestKalman());
  };

  SplitRun run = RunSplitPair(config, SplitWalk, make_predictor);
  ASSERT_TRUE(run.client.ok()) << run.client.status();
  ASSERT_TRUE(run.server.ok()) << run.server.status();
  const SplitClientReport& client_report = *run.client;
  const SplitServerReport& server_report = *run.server;

  EXPECT_EQ(server_report.ticks, 60);
  EXPECT_EQ(server_report.initialized, 3);
  EXPECT_EQ(server_report.frames_rejected, 0);
  EXPECT_GT(client_report.uplink.messages_sent, 0);
  // Lossless loopback under lockstep flow control: delivery books equal
  // send books, count for count and byte for byte, per type.
  const NetworkStats& sent = client_report.uplink;
  const NetworkStats& got = server_report.uplink;
  EXPECT_EQ(sent.messages_sent, got.messages_delivered);
  EXPECT_EQ(sent.bytes_sent, got.bytes_delivered);
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    EXPECT_EQ(sent.by_type_sent[i], got.by_type[i]) << "type " << i;
    EXPECT_EQ(sent.by_type_bytes_sent[i], got.by_type_bytes_delivered[i])
        << "type " << i;
  }
}

// The split server answers exactly what the in-process fleet answers: the
// same seed, agent config, bounds, generators and predictors over a
// lossless loopback leave every replica in the same state, so the mean
// answer agrees to the bit.
TEST(SplitDeployTest, ServerAnswersMatchInProcessFleet) {
  SplitConfig config;
  config.host = "127.0.0.1";
  config.port = 39118;
  config.ticks = 80;
  config.num_sources = 5;
  config.seed = 7;
  config.deltas = {0.3, 0.4, 0.5, 0.6, 0.7};
  config.agent_base.heartbeat_every = 5;
  config.agent_base.full_sync_every = 16;
  config.accept_timeout_ms = 10000;
  // Drifting sources under a state-sync constant-velocity Kalman
  // predictor: every replica tick moves the answer, so it depends on the
  // tick count and on where each correction lands relative to the tick.
  auto make_generator = [](int32_t id) -> std::unique_ptr<StreamGenerator> {
    LinearDriftGenerator::Config drift;
    drift.start = 2.0 * id;
    drift.slope = 0.1 + 0.05 * id;
    drift.wobble_sigma = 0.1;
    return std::make_unique<LinearDriftGenerator>(drift);
  };
  auto make_predictor = [](int32_t) -> std::unique_ptr<Predictor> {
    KalmanPredictor::Config kf;
    kf.model = MakeConstantVelocityModel(1.0, 0.01, 0.05);
    return std::make_unique<KalmanPredictor>(kf);
  };

  SplitRun run = RunSplitPair(config, make_generator, make_predictor);
  ASSERT_TRUE(run.client.ok()) << run.client.status();
  ASSERT_TRUE(run.server.ok()) << run.server.status();
  ASSERT_EQ(run.server->uplink.messages_delivered,
            run.client->uplink.messages_sent);

  ShardedFleet::Config fleet_config;
  fleet_config.seed = config.seed;
  fleet_config.agent_base = config.agent_base;
  ShardedFleet fleet(fleet_config);
  for (int32_t id = 0; id < config.num_sources; ++id) {
    fleet.AddSource(make_generator(id), make_predictor(id),
                    config.deltas[static_cast<size_t>(id)]);
  }
  ASSERT_TRUE(fleet.Run(config.ticks).ok());

  int32_t initialized = 0;
  double sum = 0.0;
  for (int32_t id = 0; id < config.num_sources; ++id) {
    const ServerReplica* replica = fleet.server().replica(id);
    ASSERT_NE(replica, nullptr);
    if (!replica->initialized()) continue;
    ++initialized;
    sum += replica->Value()[0];
  }
  ASSERT_GT(initialized, 0);
  EXPECT_EQ(run.server->initialized, initialized);
  EXPECT_EQ(run.server->ticks, fleet.server().ticks());
  // Bit-equal, not near: the same operations in the same order.
  EXPECT_EQ(run.server->mean_value, sum / initialized);
  EXPECT_EQ(run.client->uplink.SentLine(),
            fleet.TotalNetworkStats().SentLine());
  // The client is the fleet's source half: its agents decide exactly as
  // the in-process agents do.
  int64_t corrections = 0;
  int64_t suppressed = 0;
  int64_t resyncs_served = 0;
  for (int32_t id = 0; id < config.num_sources; ++id) {
    const AgentStats& stats = fleet.agent(id).stats();
    corrections += stats.corrections;
    suppressed += stats.suppressed;
    resyncs_served += stats.resyncs_served;
  }
  EXPECT_GT(corrections, 0);
  EXPECT_GT(suppressed, 0);
  EXPECT_EQ(run.client->corrections, corrections);
  EXPECT_EQ(run.client->suppressed, suppressed);
  EXPECT_EQ(run.client->resyncs_served, resyncs_served);
}

}  // namespace
}  // namespace kc
