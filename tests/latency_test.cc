// Tests for channel latency simulation and the replica's sequencing guard.

#include <gtest/gtest.h>

#include "fleet/link.h"
#include "fleet/sharded_server.h"
#include "net/channel.h"
#include "server/server.h"
#include "streams/generators.h"
#include "suppression/policies.h"
#include "suppression/replica.h"

namespace kc {
namespace {

Message MakeMsg(int64_t seq) {
  Message msg;
  msg.source_id = 0;
  msg.type = MessageType::kCorrection;
  msg.seq = seq;
  msg.payload = {1.0, static_cast<double>(seq)};
  return msg;
}

TEST(LatencyChannelTest, ZeroLatencyDeliversInline) {
  Channel channel;
  int delivered = 0;
  channel.SetReceiver([&delivered](const Message&) { ++delivered; });
  ASSERT_TRUE(channel.Send(MakeMsg(1)).ok());
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(channel.in_flight(), 0u);
}

TEST(LatencyChannelTest, DelaysDeliveryByConfiguredTicks) {
  Channel::Config config;
  config.latency_ticks = 3;
  Channel channel(config);
  int delivered = 0;
  channel.SetReceiver([&delivered](const Message&) { ++delivered; });
  ASSERT_TRUE(channel.Send(MakeMsg(1)).ok());
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(channel.in_flight(), 1u);
  channel.AdvanceTick();
  channel.AdvanceTick();
  EXPECT_EQ(delivered, 0);
  channel.AdvanceTick();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(channel.in_flight(), 0u);
}

TEST(LatencyChannelTest, PreservesSendOrder) {
  Channel::Config config;
  config.latency_ticks = 2;
  Channel channel(config);
  std::vector<int64_t> seen;
  channel.SetReceiver([&seen](const Message& m) { seen.push_back(m.seq); });
  ASSERT_TRUE(channel.Send(MakeMsg(1)).ok());
  channel.AdvanceTick();
  ASSERT_TRUE(channel.Send(MakeMsg(2)).ok());
  channel.AdvanceTick();  // Delivers 1.
  channel.AdvanceTick();  // Delivers 2.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 1);
  EXPECT_EQ(seen[1], 2);
}

TEST(LatencyChannelTest, StatsCountDeliveryNotSend) {
  Channel::Config config;
  config.latency_ticks = 5;
  Channel channel(config);
  channel.SetReceiver([](const Message&) {});
  ASSERT_TRUE(channel.Send(MakeMsg(1)).ok());
  EXPECT_EQ(channel.stats().messages_sent, 1);
  EXPECT_EQ(channel.stats().messages_delivered, 0);
  for (int i = 0; i < 5; ++i) channel.AdvanceTick();
  EXPECT_EQ(channel.stats().messages_delivered, 1);
}

TEST(ReplicaGuardTest, IgnoresOutOfOrderMessages) {
  ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.seq = 0;
  init.payload = {1.0, 5.0};
  ASSERT_TRUE(replica.OnMessage(init).ok());

  Message newer = MakeMsg(10);
  ASSERT_TRUE(replica.OnMessage(newer).ok());
  EXPECT_DOUBLE_EQ(replica.Value()[0], 10.0);

  Message stale = MakeMsg(4);  // Arrives late; must be dropped.
  ASSERT_TRUE(replica.OnMessage(stale).ok());
  EXPECT_DOUBLE_EQ(replica.Value()[0], 10.0);
  EXPECT_EQ(replica.messages_ignored(), 1);
  EXPECT_EQ(replica.last_heard_seq(), 10);
}

TEST(LatencyLinkTest, LatencyDegradesButDoesNotBreakTracking) {
  RandomWalkGenerator::Config walk;
  walk.step_sigma = 0.3;

  LinkConfig lossless;
  lossless.ticks = 5000;
  lossless.delta = 1.0;
  lossless.seed = 3;

  RandomWalkGenerator stream_a(walk);
  ValueCachePredictor proto_a;
  LinkReport instant = RunLink(stream_a, proto_a, lossless);

  LinkConfig delayed = lossless;
  delayed.channel.latency_ticks = 5;
  RandomWalkGenerator stream_b(walk);
  ValueCachePredictor proto_b;
  LinkReport lagged = RunLink(stream_b, proto_b, delayed);

  // Same number of corrections are *sent* (the client's decisions don't
  // depend on latency)...
  EXPECT_EQ(lagged.messages, instant.messages);
  // ...but the server's view lags during transit, so errors and apparent
  // contract violations appear.
  EXPECT_GT(lagged.err_vs_target.max(), instant.err_vs_target.max());
  EXPECT_GT(lagged.contract_violations, 0);
  // Yet tracking remains bounded: roughly delta + latency * typical step.
  EXPECT_LT(lagged.err_vs_target.max(), 1.0 + 5 * 4 * walk.step_sigma);
}

TEST(StalenessTest, ServerFlagsSilentSources) {
  ShardedServer server;
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  server.SetStalenessLimit(10);

  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.seq = 0;
  init.payload = {0.5, 1.0};
  ASSERT_TRUE(server.OnMessage(init).ok());
  EXPECT_FALSE(server.IsStale(0));

  QuerySpec spec;
  spec.kind = AggregateKind::kValue;
  spec.sources = {0};
  ASSERT_TRUE(server.AddQuery("v", spec).ok());

  for (int i = 0; i < 10; ++i) server.Tick();
  EXPECT_FALSE(server.IsStale(0));  // Exactly at the limit: not yet stale.
  auto fresh = server.Evaluate("v");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->stale);

  server.Tick();  // Now beyond the limit.
  EXPECT_TRUE(server.IsStale(0));
  auto stale = server.Evaluate("v");
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->stale);
  EXPECT_NE(stale->ToString().find("STALE"), std::string::npos);

  // A heartbeat refreshes liveness.
  Message hb;
  hb.source_id = 0;
  hb.type = MessageType::kHeartbeat;
  hb.seq = 1;
  ASSERT_TRUE(server.OnMessage(hb).ok());
  EXPECT_FALSE(server.IsStale(0));
}

TEST(EvaluateDueTest, RespectsEveryCadence) {
  ShardedServer server;
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.seq = 0;
  init.payload = {0.5, 1.0};
  ASSERT_TRUE(server.OnMessage(init).ok());

  QuerySpec every1;
  every1.kind = AggregateKind::kValue;
  every1.sources = {0};
  QuerySpec every5 = every1;
  every5.every = 5;
  ASSERT_TRUE(server.AddQuery("fast", every1).ok());
  ASSERT_TRUE(server.AddQuery("slow", every5).ok());

  int fast_evals = 0, slow_evals = 0;
  for (int t = 0; t < 20; ++t) {
    server.Tick();
    for (const QueryResult& r : server.EvaluateDue()) {
      if (r.name == "fast") ++fast_evals;
      if (r.name == "slow") ++slow_evals;
    }
  }
  EXPECT_EQ(fast_evals, 20);
  EXPECT_EQ(slow_evals, 4);
}

TEST(EvaluateDueTest, UnevaluableQueriesRetry) {
  ShardedServer server;
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  QuerySpec spec;
  spec.kind = AggregateKind::kValue;
  spec.sources = {0};
  spec.every = 5;
  ASSERT_TRUE(server.AddQuery("v", spec).ok());

  // Source not initialized: nothing is due-able, but the query must not
  // be marked as evaluated.
  server.Tick();
  EXPECT_TRUE(server.EvaluateDue().empty());

  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.seq = 0;
  init.payload = {0.5, 1.0};
  ASSERT_TRUE(server.OnMessage(init).ok());
  server.Tick();
  EXPECT_EQ(server.EvaluateDue().size(), 1u);  // Fires as soon as possible.
}

}  // namespace
}  // namespace kc
