#ifndef KALMANCAST_NET_FAULT_H_
#define KALMANCAST_NET_FAULT_H_

#include <cstdint>
#include <string>

#include "common/rng.h"

namespace kc {

/// Fault model for a simulated link: Gilbert–Elliott burst loss,
/// duplication, bounded reordering, and scheduled partition windows.
///
/// All randomness is drawn from the source's stream on its Channel
/// (seeded through the `(seed, id)` scheme in server/simulation.h), and a
/// feature draws only when it is enabled, so (a) sharded runs remain
/// bit-identical for any thread count and (b) a config with every fault
/// off reproduces the exact pre-fault draw sequence. Partition windows are a pure function
/// of (config, tick) and consume no randomness at all.
struct FaultConfig {
  /// Gilbert–Elliott two-state burst loss. Each Send first evolves the
  /// chain (good --enter--> bad, bad --exit--> good), then, in the bad
  /// state, drops with `burst_loss_prob`. The channel's independent
  /// `loss_prob` still applies in both states, so the classic GE
  /// good-state residual loss is `Channel::Config::loss_prob`.
  double burst_enter_prob = 0.0;
  double burst_exit_prob = 0.0;
  double burst_loss_prob = 0.0;

  /// Probability a delivered message is duplicated: the copy is enqueued
  /// immediately behind the original with the same due tick, so the
  /// receiver sees an exact back-to-back duplicate.
  double duplicate_prob = 0.0;

  /// Probability a delivered message is delayed by an extra
  /// Uniform{1..reorder_max_ticks} ticks, letting later sends overtake it
  /// (bounded reordering). Requires the driver to call AdvanceTick().
  double reorder_prob = 0.0;
  int64_t reorder_max_ticks = 0;

  /// Scheduled partition windows: while the link is partitioned, new
  /// sends vanish (counted as partition drops) and in-flight messages are
  /// held, draining on the first tick after the window closes. A window
  /// covers ticks [partition_start, partition_start + partition_length);
  /// with partition_every > 0 it repeats with that period. partition_start
  /// < 0 disables partitions.
  int64_t partition_start = -1;
  int64_t partition_length = 0;
  int64_t partition_every = 0;

  bool burst_enabled() const {
    return burst_enter_prob > 0.0 && burst_loss_prob > 0.0;
  }
  bool reorder_enabled() const {
    return reorder_prob > 0.0 && reorder_max_ticks > 0;
  }
  bool partitions_enabled() const {
    return partition_start >= 0 && partition_length > 0;
  }
  /// True if any fault dimension is configured on.
  bool any_enabled() const {
    return burst_enabled() || duplicate_prob > 0.0 || reorder_enabled() ||
           partitions_enabled();
  }

  /// True if `tick` falls inside a partition window.
  bool InPartition(int64_t tick) const;
};

/// Per-message fault decisions for one Channel::Send.
struct SendFaults {
  bool burst_drop = false;     ///< Dropped by the GE bad state.
  bool duplicate = false;      ///< Deliver a second copy.
  int64_t extra_delay = 0;     ///< Reordering delay in ticks (0 = none).
};

/// Rolls one message's faults under `config`, evolving the source's
/// Gilbert–Elliott chain `*in_burst`. Draws from `rng` only for features
/// the config enables, in a fixed order (burst transition, burst loss,
/// duplication, reordering).
SendFaults RollFaults(const FaultConfig& config, Rng& rng, bool* in_burst);

}  // namespace kc

#endif  // KALMANCAST_NET_FAULT_H_
