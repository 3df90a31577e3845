#include "net/fault.h"

namespace kc {

bool FaultConfig::InPartition(int64_t tick) const {
  if (!partitions_enabled() || tick < partition_start) return false;
  int64_t offset = tick - partition_start;
  if (partition_every > 0) offset %= partition_every;
  return offset < partition_length;
}

SendFaults RollFaults(const FaultConfig& config, Rng& rng, bool* in_burst) {
  SendFaults faults;
  if (config.burst_enabled()) {
    // Evolve the chain first so a burst can start on this very message.
    if (*in_burst) {
      if (rng.Bernoulli(config.burst_exit_prob)) *in_burst = false;
    } else {
      if (rng.Bernoulli(config.burst_enter_prob)) *in_burst = true;
    }
    if (*in_burst && rng.Bernoulli(config.burst_loss_prob)) {
      faults.burst_drop = true;
      return faults;  // A dropped message can't be duplicated/reordered.
    }
  }
  if (config.duplicate_prob > 0.0 && rng.Bernoulli(config.duplicate_prob)) {
    faults.duplicate = true;
  }
  if (config.reorder_enabled() && rng.Bernoulli(config.reorder_prob)) {
    faults.extra_delay = rng.UniformInt(1, config.reorder_max_ticks);
  }
  return faults;
}

}  // namespace kc
