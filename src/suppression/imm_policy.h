#ifndef KALMANCAST_SUPPRESSION_IMM_POLICY_H_
#define KALMANCAST_SUPPRESSION_IMM_POLICY_H_

#include <optional>
#include <vector>

#include "kalman/imm.h"
#include "suppression/predictor.h"

namespace kc {

namespace obs {
class Counter;
}  // namespace obs

/// Dual interacting-multiple-model predictor: the suppression protocol
/// over an IMM bank (e.g. a quiet low-Q mode and a maneuvering high-Q
/// mode of the same state space).
///
/// Where the adaptive single filter re-learns Q over a window, the IMM
/// re-weights pre-built mode hypotheses within a few ticks — faster on
/// streams that flip between behavioural modes. Client side runs a
/// private IMM over every measurement; corrections ship the complete IMM
/// state (mode probabilities + every member filter's moments), making
/// the contract exact against the combined estimate.
class ImmPredictor : public Predictor {
 public:
  struct Config {
    /// Mode models; all must share state and observation dimensions.
    std::vector<StateSpaceModel> models;
    /// Markov mode-transition matrix (rows sum to 1).
    Matrix transition;
    /// Prior mode probabilities (sums to 1).
    Vector initial_prob;
    double init_var = 100.0;
  };

  explicit ImmPredictor(Config config);

  void Init(const Reading& first) override;
  void Tick() override;
  Status ObserveLocal(const Reading& measured) override;
  Vector Target() const override;
  Vector Predict() const override;
  std::vector<double> EncodeCorrection(const Reading& measured) const override;
  Status ApplyCorrection(int64_t seq, double time,
                         const std::vector<double>& payload) override;
  std::vector<double> EncodeFullState() const override;
  Status ApplyFullState(const std::vector<double>& payload) override;
  /// Registers kc.imm.model_switches (dominant private-bank mode changes)
  /// on the arena and mirrors the event onto it.
  void BindMetrics(obs::MetricRegistry* registry) override;
  std::unique_ptr<Predictor> Clone() const override;
  std::string name() const override { return "imm"; }
  size_t dims() const override { return config_.models.front().obs_dim(); }

  const Imm& private_imm() const;
  const Imm& shadow_imm() const;

  /// Times the private bank's most-probable mode changed (source side).
  int64_t model_switches() const { return model_switches_; }

 private:
  Imm BuildImm(const Reading& first) const;
  /// Index of the private bank's most probable mode (first wins ties).
  int DominantMode() const;

  Config config_;
  std::optional<Imm> shadow_;
  std::optional<Imm> private_;
  int last_mode_ = -1;
  int64_t model_switches_ = 0;
  obs::Counter* switch_counter_ = nullptr;
};

/// Convenience: a scalar quiet/maneuver two-mode IMM predictor over
/// random-walk dynamics. `quiet_var`/`loud_var` are the two process
/// variances; `obs_var` the shared observation noise; `sticky` the
/// self-transition probability.
std::unique_ptr<Predictor> MakeTwoModeImmPredictor(double quiet_var,
                                                   double loud_var,
                                                   double obs_var,
                                                   double sticky = 0.97);

}  // namespace kc

#endif  // KALMANCAST_SUPPRESSION_IMM_POLICY_H_
