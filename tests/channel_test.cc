#include "net/channel.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/fault.h"
#include "net/message.h"

namespace kc {
namespace {

Message MakeMessage(size_t payload_doubles) {
  Message msg;
  msg.source_id = 3;
  msg.type = MessageType::kCorrection;
  msg.seq = 10;
  msg.time = 1.5;
  msg.payload.assign(payload_doubles, 1.0);
  return msg;
}

TEST(MessageTest, SizeModel) {
  // Exact framed encoding: 1-byte length prefix + body of 1-byte zigzag
  // varints for source_id=3, seq=10, wire_seq=0, the type byte, the
  // 8-byte timestamp, and 8 bytes per payload double.
  EXPECT_EQ(MakeMessage(0).SizeBytes(), 13u);
  EXPECT_EQ(MakeMessage(3).SizeBytes(), 13u + 24u);
}

TEST(MessageTest, SizeModelIsValueDependent) {
  // Varint header fields: large sequence numbers cost more bytes on the
  // wire, and SizeBytes() tracks that exactly (the codec parity contract
  // in tests/codec_test.cc pins SizeBytes == encoded size).
  Message small = MakeMessage(0);
  Message large = MakeMessage(0);
  large.seq = int64_t{1} << 40;
  large.wire_seq = -(int64_t{1} << 40);
  EXPECT_GT(large.SizeBytes(), small.SizeBytes());
}

TEST(MessageTest, TypeNames) {
  EXPECT_STREQ(MessageTypeName(MessageType::kInit), "INIT");
  EXPECT_STREQ(MessageTypeName(MessageType::kCorrection), "CORRECTION");
  EXPECT_STREQ(MessageTypeName(MessageType::kFullSync), "FULL_SYNC");
  EXPECT_STREQ(MessageTypeName(MessageType::kHeartbeat), "HEARTBEAT");
}

TEST(MessageTest, ToStringMentionsEssentials) {
  std::string s = MakeMessage(2).ToString();
  EXPECT_NE(s.find("CORRECTION"), std::string::npos);
  EXPECT_NE(s.find("src=3"), std::string::npos);
}

TEST(ChannelTest, RequiresReceiver) {
  Channel channel;
  EXPECT_FALSE(channel.Send(MakeMessage(1)).ok());
}

TEST(ChannelTest, DeliversAndCounts) {
  Channel channel;
  int delivered = 0;
  channel.SetReceiver([&delivered](const Message&) { ++delivered; });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(channel.Send(MakeMessage(2)).ok());
  }
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(channel.stats().messages_sent, 5);
  EXPECT_EQ(channel.stats().messages_delivered, 5);
  EXPECT_EQ(channel.stats().messages_dropped, 0);
  EXPECT_EQ(channel.stats().bytes_sent,
            5 * static_cast<int64_t>(MakeMessage(2).SizeBytes()));
  EXPECT_EQ(channel.stats().by_type[static_cast<size_t>(
                MessageType::kCorrection)],
            5);
}

TEST(ChannelTest, LossDropsApproximatelyAtRate) {
  Channel::Config config;
  config.loss_prob = 0.3;
  config.seed = 7;
  Channel channel(config);
  int delivered = 0;
  channel.SetReceiver([&delivered](const Message&) { ++delivered; });
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(channel.Send(MakeMessage(1)).ok());
  }
  EXPECT_EQ(channel.stats().messages_sent, n);
  EXPECT_EQ(channel.stats().messages_dropped + channel.stats().messages_delivered,
            n);
  double drop_rate =
      static_cast<double>(channel.stats().messages_dropped) / n;
  EXPECT_NEAR(drop_rate, 0.3, 0.03);
  EXPECT_EQ(delivered, channel.stats().messages_delivered);
}

TEST(ChannelTest, BytesSentChargedEvenWhenDropped) {
  Channel::Config config;
  config.loss_prob = 1.0;
  Channel channel(config);
  channel.SetReceiver([](const Message&) { FAIL() << "must not deliver"; });
  ASSERT_TRUE(channel.Send(MakeMessage(2)).ok());
  EXPECT_GT(channel.stats().bytes_sent, 0);
  EXPECT_EQ(channel.stats().bytes_delivered, 0);
}

TEST(ChannelTest, ResetStatsClears) {
  Channel channel;
  channel.SetReceiver([](const Message&) {});
  ASSERT_TRUE(channel.Send(MakeMessage(1)).ok());
  channel.ResetStats();
  EXPECT_EQ(channel.stats().messages_sent, 0);
  EXPECT_EQ(channel.stats().bytes_sent, 0);
}

TEST(ChannelTest, LossDecidedAtSendTimeUnderLatency) {
  // Loss is decided when the message is offered to the link, not at
  // delivery: a dropped message must never enter the pending queue, and
  // AdvanceTick must never deliver it later.
  Channel::Config config;
  config.loss_prob = 1.0;
  config.latency_ticks = 2;
  Channel channel(config);
  channel.SetReceiver([](const Message&) { FAIL() << "must not deliver"; });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(channel.Send(MakeMessage(1)).ok());
  }
  EXPECT_EQ(channel.in_flight(), 0u) << "dropped messages must not be queued";
  for (int i = 0; i < 5; ++i) channel.AdvanceTick();
  EXPECT_EQ(channel.stats().messages_sent, 4);
  EXPECT_EQ(channel.stats().messages_dropped, 4);
  EXPECT_EQ(channel.stats().messages_delivered, 0);
  EXPECT_EQ(channel.stats().bytes_delivered, 0);
}

TEST(ChannelTest, PartialLossWithLatencyAccountsExactly) {
  Channel::Config config;
  config.loss_prob = 0.4;
  config.latency_ticks = 3;
  config.seed = 11;
  Channel channel(config);
  int delivered = 0;
  channel.SetReceiver([&delivered](const Message&) { ++delivered; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(channel.Send(MakeMessage(1)).ok());
    channel.AdvanceTick();
  }
  // Drain the transit window.
  for (int i = 0; i < 3; ++i) channel.AdvanceTick();
  EXPECT_EQ(channel.in_flight(), 0u);
  EXPECT_EQ(channel.stats().messages_sent, n);
  EXPECT_EQ(channel.stats().messages_delivered + channel.stats().messages_dropped,
            n);
  EXPECT_EQ(delivered, channel.stats().messages_delivered);
  EXPECT_GT(channel.stats().messages_dropped, 0);
  EXPECT_GT(channel.stats().messages_delivered, 0);
  EXPECT_EQ(channel.stats().bytes_delivered,
            channel.stats().messages_delivered *
                static_cast<int64_t>(MakeMessage(1).SizeBytes()));
}

TEST(NetworkStatsTest, ToStringMentionsCounts) {
  Channel channel;
  channel.SetReceiver([](const Message&) {});
  ASSERT_TRUE(channel.Send(MakeMessage(1)).ok());
  std::string s = channel.stats().ToString();
  EXPECT_NE(s.find("sent=1"), std::string::npos);
}

TEST(NetworkStatsTest, ToStringReportsDeliveredBytesAndPerType) {
  // Regression: ToString used to print bytes_sent under the ambiguous
  // label "bytes=" and omit bytes_delivered (the number the paper's
  // overhead metric uses) and the per-type breakdown entirely.
  Channel channel;
  channel.SetReceiver([](const Message&) {});
  ASSERT_TRUE(channel.Send(MakeMessage(2)).ok());
  std::string s = channel.stats().ToString();
  EXPECT_NE(s.find("bytes_sent=29"), std::string::npos) << s;
  EXPECT_NE(s.find("bytes_delivered=29"), std::string::npos) << s;
  EXPECT_NE(s.find("CORRECTION:1"), std::string::npos) << s;
}

TEST(NetworkStatsTest, ToStringPerTypeOrderIsSentDeliveredDropped) {
  // Regression: the per-type breakdown printed delivered/sent/dropped
  // while the documented format is sent/delivered/dropped, so a fully
  // lossy channel read as "0 lost" and vice versa.
  Channel::Config config;
  config.loss_prob = 1.0;
  Channel channel(config);
  channel.SetReceiver([](const Message&) { FAIL() << "must not deliver"; });
  ASSERT_TRUE(channel.Send(MakeMessage(1)).ok());
  std::string s = channel.stats().ToString();
  EXPECT_NE(s.find("CORRECTION:1/0/1"), std::string::npos) << s;
  EXPECT_EQ(s.find("CORRECTION:0/1/1"), std::string::npos) << s;
}

TEST(FaultTest, DisabledFaultsPreserveLegacyDrawSequence) {
  // A config with every fault off must consume exactly the RNG draws the
  // pre-fault channel did, or seeds stop reproducing old experiments.
  Channel::Config plain;
  plain.loss_prob = 0.3;
  plain.seed = 99;
  Channel::Config with_model = plain;
  with_model.faults = FaultConfig();  // Explicit but all-off.
  Channel a(plain);
  Channel b(with_model);
  a.SetReceiver([](const Message&) {});
  b.SetReceiver([](const Message&) {});
  for (int i = 0; i < 500; ++i) {
    Message m = MakeMessage(1);
    m.seq = i;
    ASSERT_TRUE(a.Send(m).ok());
    ASSERT_TRUE(b.Send(m).ok());
  }
  EXPECT_EQ(a.stats().messages_dropped, b.stats().messages_dropped);
  EXPECT_EQ(a.stats().messages_delivered, b.stats().messages_delivered);
}

TEST(FaultTest, DuplicationDeliversExactCopyAndBalances) {
  Channel::Config config;
  config.faults.duplicate_prob = 0.5;
  config.seed = 5;
  Channel channel(config);
  std::vector<int64_t> seqs;
  channel.SetReceiver([&seqs](const Message& m) { seqs.push_back(m.seq); });
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    Message m = MakeMessage(1);
    m.seq = i;
    ASSERT_TRUE(channel.Send(m).ok());
  }
  const NetworkStats& s = channel.stats();
  EXPECT_GT(s.messages_duplicated, 0);
  EXPECT_NEAR(static_cast<double>(s.messages_duplicated) / n, 0.5, 0.05);
  // Invariant: delivered = sent - dropped + duplicated.
  EXPECT_EQ(s.messages_delivered,
            s.messages_sent - s.messages_dropped + s.messages_duplicated);
  // Zero latency: the copy lands immediately behind the original.
  int64_t dup_pairs = 0;
  for (size_t i = 1; i < seqs.size(); ++i) {
    if (seqs[i] == seqs[i - 1]) ++dup_pairs;
  }
  EXPECT_EQ(dup_pairs, s.messages_duplicated);
  std::string str = s.ToString();
  EXPECT_NE(str.find("faults=["), std::string::npos) << str;
}

TEST(FaultTest, BurstLossMatchesGilbertElliottStationaryRate) {
  // enter=0.05, exit=0.25 => stationary bad fraction 0.05/0.30 = 1/6;
  // burst_loss_prob=1.0 drops everything sent in the bad state.
  Channel::Config config;
  config.faults.burst_enter_prob = 0.05;
  config.faults.burst_exit_prob = 0.25;
  config.faults.burst_loss_prob = 1.0;
  config.seed = 17;
  Channel channel(config);
  channel.SetReceiver([](const Message&) {});
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(channel.Send(MakeMessage(1)).ok());
  }
  const NetworkStats& s = channel.stats();
  EXPECT_EQ(s.burst_drops, s.messages_dropped);  // No independent loss here.
  double rate = static_cast<double>(s.burst_drops) / n;
  EXPECT_NEAR(rate, 1.0 / 6.0, 0.03);
  // Bursts are bursty: drops must cluster, i.e. far fewer distinct bursts
  // than dropped messages (mean burst length 1/exit = 4).
  EXPECT_EQ(s.messages_delivered + s.messages_dropped, s.messages_sent);
}

TEST(FaultTest, ReorderingIsObservedAndBounded) {
  Channel::Config config;
  config.latency_ticks = 1;
  config.faults.reorder_prob = 0.3;
  config.faults.reorder_max_ticks = 3;
  config.seed = 23;
  Channel channel(config);
  std::vector<int64_t> arrival_order;
  std::vector<int64_t> arrival_tick;
  int64_t now = 0;
  channel.SetReceiver([&](const Message& m) {
    arrival_order.push_back(m.seq);
    arrival_tick.push_back(now);
  });
  const int n = 1000;
  std::vector<int64_t> sent_tick(n);
  for (int i = 0; i < n; ++i) {
    Message m = MakeMessage(1);
    m.seq = i;
    sent_tick[i] = now;
    ASSERT_TRUE(channel.Send(m).ok());
    ++now;
    channel.AdvanceTick();
  }
  for (int i = 0; i < 4; ++i) {
    ++now;
    channel.AdvanceTick();
  }
  ASSERT_EQ(channel.in_flight(), 0u);
  ASSERT_EQ(arrival_order.size(), static_cast<size_t>(n));
  EXPECT_GT(channel.stats().messages_reordered, 0);
  // Out-of-order delivery actually happened...
  int64_t inversions = 0;
  for (size_t i = 1; i < arrival_order.size(); ++i) {
    if (arrival_order[i] < arrival_order[i - 1]) ++inversions;
  }
  EXPECT_GT(inversions, 0);
  // ...but every message arrived within latency + reorder_max ticks.
  for (size_t i = 0; i < arrival_order.size(); ++i) {
    int64_t seq = arrival_order[i];
    int64_t transit = arrival_tick[i] - sent_tick[seq];
    EXPECT_GE(transit, 1) << "seq " << seq;
    EXPECT_LE(transit, 1 + 3) << "seq " << seq;
  }
}

TEST(FaultTest, PartitionDropsSendsAndDrainsHeldMessagesOnClose) {
  // Window covers channel ticks [5, 8): sends inside vanish; messages
  // already in flight are held and drain on the first tick after close.
  Channel::Config config;
  config.latency_ticks = 2;
  config.faults.partition_start = 5;
  config.faults.partition_length = 3;
  Channel channel(config);
  std::vector<int64_t> arrival_seq;
  std::vector<int64_t> arrival_tick;
  int64_t now = 0;
  channel.SetReceiver([&](const Message& m) {
    arrival_seq.push_back(m.seq);
    arrival_tick.push_back(now);
  });
  for (int t = 0; t < 10; ++t) {
    Message m = MakeMessage(1);
    m.seq = t;
    ASSERT_TRUE(channel.Send(m).ok());
    ++now;
    channel.AdvanceTick();
  }
  for (int i = 0; i < 3; ++i) {
    ++now;
    channel.AdvanceTick();
  }
  const NetworkStats& s = channel.stats();
  // Sends at ticks 5, 6, 7 were inside the window.
  EXPECT_EQ(s.partition_drops, 3);
  EXPECT_EQ(s.messages_dropped, 3);
  EXPECT_EQ(s.messages_delivered, 7);
  EXPECT_EQ(channel.in_flight(), 0u);
  // Seqs 3 and 4 (due ticks 5 and 6, inside the window) were held and
  // drained together on tick 8, in send order.
  for (size_t i = 0; i < arrival_seq.size(); ++i) {
    if (arrival_seq[i] == 3 || arrival_seq[i] == 4) {
      EXPECT_EQ(arrival_tick[i], 8) << "seq " << arrival_seq[i];
    }
  }
  for (size_t i = 1; i < arrival_seq.size(); ++i) {
    EXPECT_LT(arrival_seq[i - 1], arrival_seq[i]) << "send order preserved";
  }
}

TEST(FaultTest, RepeatingPartitionWindows) {
  FaultConfig faults;
  faults.partition_start = 10;
  faults.partition_length = 2;
  faults.partition_every = 5;
  EXPECT_FALSE(faults.InPartition(9));
  EXPECT_TRUE(faults.InPartition(10));
  EXPECT_TRUE(faults.InPartition(11));
  EXPECT_FALSE(faults.InPartition(12));
  EXPECT_TRUE(faults.InPartition(15));
  EXPECT_TRUE(faults.InPartition(16));
  EXPECT_FALSE(faults.InPartition(17));
  EXPECT_FALSE(faults.InPartition(0));  // Before the first window.
}

TEST(FaultTest, SameSeedSameFaultsBitIdentical) {
  auto run = [] {
    Channel::Config config;
    config.loss_prob = 0.1;
    config.latency_ticks = 1;
    config.faults.burst_enter_prob = 0.02;
    config.faults.burst_exit_prob = 0.2;
    config.faults.burst_loss_prob = 0.9;
    config.faults.duplicate_prob = 0.1;
    config.faults.reorder_prob = 0.2;
    config.faults.reorder_max_ticks = 2;
    config.faults.partition_start = 40;
    config.faults.partition_length = 5;
    config.faults.partition_every = 100;
    config.seed = 77;
    Channel channel(config);
    std::vector<int64_t> order;
    channel.SetReceiver([&order](const Message& m) { order.push_back(m.seq); });
    for (int i = 0; i < 500; ++i) {
      Message m = MakeMessage(1);
      m.seq = i;
      EXPECT_TRUE(channel.Send(m).ok());
      channel.AdvanceTick();
    }
    for (int i = 0; i < 4; ++i) channel.AdvanceTick();
    return std::make_pair(order, channel.stats());
  };
  auto [order1, stats1] = run();
  auto [order2, stats2] = run();
  EXPECT_EQ(order1, order2);
  EXPECT_EQ(stats1.messages_dropped, stats2.messages_dropped);
  EXPECT_EQ(stats1.messages_duplicated, stats2.messages_duplicated);
  EXPECT_EQ(stats1.messages_reordered, stats2.messages_reordered);
  EXPECT_EQ(stats1.burst_drops, stats2.burst_drops);
  EXPECT_EQ(stats1.partition_drops, stats2.partition_drops);
}

TEST(SharedLinkTest, ReproducesOneChannelPerSource) {
  // Two sources on one link (AddSource) against a Channel each: the same
  // draws, partition windows on each source's own clock (source 1 joins
  // at tick 7), delivery in send order per source, and books that are
  // the merge of the per-source ones.
  Channel::Config config;
  config.loss_prob = 0.1;
  config.latency_ticks = 1;
  config.faults.burst_enter_prob = 0.05;
  config.faults.burst_exit_prob = 0.3;
  config.faults.burst_loss_prob = 0.8;
  config.faults.duplicate_prob = 0.1;
  config.faults.reorder_prob = 0.2;
  config.faults.reorder_max_ticks = 3;
  config.faults.partition_start = 20;
  config.faults.partition_length = 4;
  config.faults.partition_every = 50;
  const uint64_t seeds[2] = {101, 202};
  constexpr int kJoin = 7;

  Channel shared(config);
  std::vector<int64_t> shared_seen[2];
  shared.SetReceiver([&shared_seen](const Message& m) {
    shared_seen[m.source_id].push_back(m.seq);
  });
  std::unique_ptr<Channel> own[2];
  std::vector<int64_t> own_seen[2];
  for (int32_t id = 0; id < 2; ++id) {
    config.seed = seeds[id];
    own[id] = std::make_unique<Channel>(config);
    own[id]->SetReceiver(
        [&own_seen, id](const Message& m) { own_seen[id].push_back(m.seq); });
  }
  shared.AddSource(0, seeds[0]);
  for (int t = 0; t < 300; ++t) {
    if (t == kJoin) shared.AddSource(1, seeds[1]);
    for (int32_t id = 0; id < 2; ++id) {
      if (id == 1 && t < kJoin) continue;
      Message m = MakeMessage(1);
      m.source_id = id;
      m.seq = t;
      ASSERT_TRUE(shared.Send(m).ok());
      ASSERT_TRUE(own[id]->Send(m).ok());
    }
    shared.AdvanceTick();
    own[0]->AdvanceTick();
    if (t >= kJoin) own[1]->AdvanceTick();
  }
  NetworkStats merged;
  for (int32_t id = 0; id < 2; ++id) {
    EXPECT_EQ(shared_seen[id], own_seen[id]) << "source " << id;
    merged.Merge(own[id]->stats());
  }
  EXPECT_GT(merged.partition_drops, 0);
  EXPECT_GT(merged.burst_drops, 0);
  EXPECT_GT(merged.messages_duplicated, 0);
  EXPECT_GT(merged.messages_reordered, 0);
  EXPECT_EQ(shared.stats().ToString(), merged.ToString());
  EXPECT_EQ(shared.in_flight(), own[0]->in_flight() + own[1]->in_flight());
}

TEST(SharedLinkTest, FaultFreeLinkHasNoDrawState) {
  // A lossless zero-latency link delivers inside Send and AdvanceTick
  // has nothing to do; AddSource is a no-op.
  Channel channel;
  channel.AddSource(5, 99);
  std::vector<int64_t> seen;
  channel.SetReceiver([&seen](const Message& m) { seen.push_back(m.seq); });
  EXPECT_EQ(channel.stats().messages_sent, 0);
  for (int i = 0; i < 3; ++i) {
    Message m = MakeMessage(1);
    m.seq = i;
    ASSERT_TRUE(channel.Send(m).ok());
    EXPECT_EQ(seen.size(), static_cast<size_t>(i + 1));
    channel.AdvanceTick();
  }
  EXPECT_EQ(channel.in_flight(), 0u);
  EXPECT_EQ(channel.stats().messages_delivered, 3);
}

TEST(NetworkStatsTest, MergeSumsShardLocalStats) {
  // Two shard-local channels; the fleet-wide view merges on read.
  Channel::Config lossy;
  lossy.loss_prob = 1.0;
  Channel a(lossy);
  Channel b;
  a.SetReceiver([](const Message&) {});
  b.SetReceiver([](const Message&) {});
  ASSERT_TRUE(a.Send(MakeMessage(1)).ok());
  ASSERT_TRUE(a.Send(MakeMessage(1)).ok());
  ASSERT_TRUE(b.Send(MakeMessage(3)).ok());

  NetworkStats merged;
  merged.Merge(a.stats());
  merged.Merge(b.stats());
  EXPECT_EQ(merged.messages_sent, 3);
  EXPECT_EQ(merged.messages_dropped, 2);
  EXPECT_EQ(merged.messages_delivered, 1);
  EXPECT_EQ(merged.bytes_sent,
            2 * static_cast<int64_t>(MakeMessage(1).SizeBytes()) +
                static_cast<int64_t>(MakeMessage(3).SizeBytes()));
  EXPECT_EQ(merged.bytes_delivered,
            static_cast<int64_t>(MakeMessage(3).SizeBytes()));
  EXPECT_EQ(merged.by_type[static_cast<size_t>(MessageType::kCorrection)], 1);
}

}  // namespace
}  // namespace kc
