// Tests for the server-to-source control downlink (SET_BOUND push).

#include <limits>

#include <gtest/gtest.h>

#include "fleet/sharded_fleet.h"
#include "net/channel.h"
#include "server/allocation.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace kc {
namespace {

Message SetBound(int32_t source, double delta) {
  Message msg;
  msg.source_id = source;
  msg.type = MessageType::kSetBound;
  msg.payload = {delta};
  return msg;
}

TEST(AgentControlTest, SetBoundUpdatesDelta) {
  Channel channel;
  channel.SetReceiver([](const Message&) {});
  AgentConfig config;
  config.delta = 1.0;
  SourceAgent agent(3, std::make_unique<ValueCachePredictor>(), config,
                    &channel);
  ASSERT_TRUE(agent.OnControl(SetBound(3, 2.5)).ok());
  EXPECT_DOUBLE_EQ(agent.delta(), 2.5);
}

TEST(AgentControlTest, RejectsBadControl) {
  Channel channel;
  channel.SetReceiver([](const Message&) {});
  AgentConfig config;
  SourceAgent agent(3, std::make_unique<ValueCachePredictor>(), config,
                    &channel);
  EXPECT_FALSE(agent.OnControl(SetBound(4, 1.0)).ok());  // Wrong source.
  EXPECT_FALSE(agent.OnControl(SetBound(3, -1.0)).ok()); // Bad bound.
  EXPECT_FALSE(agent.OnControl(SetBound(3, 0.0)).ok());
  Message empty;
  empty.source_id = 3;
  empty.type = MessageType::kSetBound;
  EXPECT_FALSE(agent.OnControl(empty).ok());             // No payload.
  Message wrong_type;
  wrong_type.source_id = 3;
  wrong_type.type = MessageType::kCorrection;
  EXPECT_FALSE(agent.OnControl(wrong_type).ok());
}

TEST(AgentControlTest, RejectsNonFiniteSetBound) {
  // NaN passed the old `<= 0` test and switched the precision check off:
  // over a ramp the agent then sent nothing after its INIT while the
  // server's answer drifted arbitrarily far.
  Channel channel;
  int64_t sent = 0;
  channel.SetReceiver([&sent](const Message&) { ++sent; });
  AgentConfig config;
  config.delta = 1.0;
  SourceAgent agent(3, std::make_unique<ValueCachePredictor>(), config,
                    &channel);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(agent.OnControl(SetBound(3, bad)).code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_DOUBLE_EQ(agent.delta(), 1.0);
  }
  for (int64_t t = 0; t < 200; ++t) {
    Reading r;
    r.seq = t;
    r.time = static_cast<double>(t);
    r.value = Vector{1.5 * static_cast<double>(t)};
    ASSERT_TRUE(agent.Offer(r).ok());
  }
  EXPECT_EQ(sent, 200);  // Every ramp step violates delta = 1.
}

TEST(ServerControlTest, PushBoundRequiresSinkAndValidArgs) {
  StreamServer server;
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  EXPECT_FALSE(server.PushBound(0, 1.0).ok());  // No sink.
  server.SetControlSink([](const Message&) { return Status::Ok(); });
  EXPECT_FALSE(server.PushBound(99, 1.0).ok());  // Unknown source.
  EXPECT_FALSE(server.PushBound(0, 0.0).ok());   // Non-positive bound.
  EXPECT_FALSE(server.PushBound(0, std::numeric_limits<double>::quiet_NaN())
                   .ok());
  EXPECT_FALSE(
      server.PushBound(0, std::numeric_limits<double>::infinity()).ok());
  EXPECT_TRUE(server.PushBound(0, 1.0).ok());
}

TEST(FleetControlTest, PushedBoundReachesAgentAndThenReplica) {
  ShardedFleet fleet;
  RandomWalkGenerator::Config walk;
  walk.step_sigma = 1.0;  // Chatty: corrections come quickly.
  fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                  std::make_unique<ValueCachePredictor>(), 0.5);
  ASSERT_TRUE(fleet.Run(5).ok());
  EXPECT_DOUBLE_EQ(fleet.agent(0).delta(), 0.5);

  ASSERT_TRUE(fleet.server().PushBound(0, 3.0).ok());
  EXPECT_DOUBLE_EQ(fleet.agent(0).delta(), 3.0);  // Synchronous downlink.
  EXPECT_EQ(fleet.TotalControlNetworkStats().messages_sent, 1);

  // The replica still reports the old bound until the next data message
  // confirms it (the contract is never overstated)...
  const ServerReplica* replica = fleet.server().replica(0);
  ASSERT_NE(replica, nullptr);
  EXPECT_DOUBLE_EQ(replica->bound(), 0.5);

  // ...and adopts the new bound with the next correction.
  ASSERT_TRUE(fleet.Run(200).ok());
  EXPECT_DOUBLE_EQ(replica->bound(), 3.0);
}

TEST(FleetControlTest, ServerDrivenReallocationLoop) {
  // The full server-side loop: archive -> (observed message counts) ->
  // adaptive allocator -> PushBound. No SetDelta back door.
  ShardedFleet fleet;
  const double sigmas[2] = {0.1, 2.0};
  for (int i = 0; i < 2; ++i) {
    RandomWalkGenerator::Config walk;
    walk.step_sigma = sigmas[i];
    fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                    std::make_unique<ValueCachePredictor>(), 1.0);
  }
  AdaptiveAllocator allocator(2.0, 2);
  std::vector<int64_t> last = {0, 0};
  for (int window = 0; window < 10; ++window) {
    ASSERT_TRUE(fleet.Run(300).ok());
    std::vector<int64_t> delta_msgs(2);
    for (int32_t id = 0; id < 2; ++id) {
      int64_t now = fleet.MessagesOf(id);
      delta_msgs[static_cast<size_t>(id)] = now - last[static_cast<size_t>(id)];
      last[static_cast<size_t>(id)] = now;
    }
    allocator.Rebalance(delta_msgs);
    for (int32_t id = 0; id < 2; ++id) {
      ASSERT_TRUE(fleet.server()
                      .PushBound(id, allocator.deltas()[static_cast<size_t>(id)])
                      .ok());
    }
  }
  // Budget flowed to the volatile source, entirely via the control path.
  EXPECT_GT(fleet.agent(1).delta(), 2.0 * fleet.agent(0).delta());
  EXPECT_EQ(fleet.TotalControlNetworkStats().messages_sent, 20);
}

}  // namespace
}  // namespace kc
