#ifndef KALMANCAST_SUPPRESSION_PREDICTOR_H_
#define KALMANCAST_SUPPRESSION_PREDICTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/vector.h"
#include "streams/reading.h"

namespace kc {

class FilterPoolSet;

namespace obs {
class MetricRegistry;
}  // namespace obs

/// A deterministic prediction procedure replicated at the stream source and
/// at the server — the paper's "cached dynamic procedure".
///
/// Protocol contract: two Predictor replicas that (1) start from the same
/// Init() reading, (2) receive the same Tick() cadence, and (3) apply the
/// same sequence of ApplyCorrection()/ApplyFullState() payloads MUST
/// produce bit-identical Predict() outputs. Every implementation is pure
/// and deterministic; all randomness lives in the streams, never here.
///
/// Per-tick usage at the source: Tick(); ObserveWithDistance(measured)
/// (ObserveLocal plus |Target() - Predict()|); if that distance exceeds
/// delta, ship EncodeCorrection() and apply it locally. At the server:
/// Tick() each tick; apply payloads as they arrive. Predict() is then
/// always within delta of Target() — the value the contract protects — on
/// a lossless channel.
///
/// Target() is the raw measurement for memoryless policies; for the
/// state-sync Kalman policy it is the client's *filtered* estimate, which
/// is the paper's semantics (the client filters noisy data locally and the
/// server predicts that clean signal without the client's involvement).
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Initializes from the stream's first reading (both replicas receive it
  /// via the INIT message).
  virtual void Init(const Reading& first) = 0;

  /// Advances the procedure's clock by one stream tick.
  virtual void Tick() = 0;

  /// Source side only: folds the tick's measurement into private state
  /// (e.g. the client's own filter). Fails if the private model cannot
  /// take it (a filter whose update failed). Default: remembers the
  /// reading so Target() can return it.
  virtual Status ObserveLocal(const Reading& measured) {
    last_observed_ = measured;
    return Status::Ok();
  }

  /// ObserveLocal(measured), then `*distance` = ||Target() - Predict()||_inf:
  /// the figure the source's suppression decision compares with delta. A
  /// policy may override it to produce both in one pass, with the same
  /// bits as this default.
  virtual Status ObserveWithDistance(const Reading& measured,
                                     double* distance) {
    KC_RETURN_IF_ERROR(ObserveLocal(measured));
    *distance = MaxAbsDiff(Target(), Predict());
    return Status::Ok();
  }

  /// The value the precision contract protects. Default: the most recent
  /// measurement passed to ObserveLocal().
  virtual Vector Target() const { return last_observed_.value; }

  /// Current prediction of the source's observed value.
  virtual Vector Predict() const = 0;

  /// Builds the correction payload for a violating measurement
  /// (source side). Must not mutate state.
  virtual std::vector<double> EncodeCorrection(const Reading& measured) const = 0;

  /// Applies a correction payload (identical call on both replicas).
  /// `seq`/`time` identify the triggering reading.
  virtual Status ApplyCorrection(int64_t seq, double time,
                                 const std::vector<double>& payload) = 0;

  /// Serializes complete internal state (source side; larger than a
  /// correction). Default: unsupported.
  virtual std::vector<double> EncodeFullState() const { return {}; }

  /// Restores complete internal state. Default: unsupported.
  virtual Status ApplyFullState(const std::vector<double>& /*payload*/) {
    return Status::Unimplemented("full-state sync not supported");
  }

  /// Binds the predictor's internal event counters (outlier gate fires,
  /// filter resets, model switches, ...) to a metric arena. Optional:
  /// implementations that expose no internals ignore it. Must never
  /// change predictive behaviour — metrics observe the protocol, they are
  /// not part of it.
  virtual void BindMetrics(obs::MetricRegistry* /*registry*/) {}

  /// Normalized innovation squared (nu' S^-1 nu) of the most recent
  /// ObserveLocal() reading against the policy's private model, or a
  /// negative value when the policy has no consistency statistic
  /// (memoryless policies, measurement-sync mode, before Init). The
  /// filter-health watchdog feeds on this; like BindMetrics it observes
  /// the protocol without being part of it.
  virtual double LastNis() const { return -1.0; }

  /// Readings rejected by an internal outlier gate so far (0 if the
  /// policy has no gate). Lets the serving path log gate fires without
  /// knowing the concrete policy.
  virtual int64_t OutliersRejected() const { return 0; }

  /// The pool set whose batched sweep (FilterPoolSet::PredictAll) does
  /// this predictor's time update, or null when only Tick() does it.
  /// Whether anything sweeps that set every tick is its owner's to say: on
  /// a set nobody sweeps, Tick() still catches the slot up itself.
  virtual const FilterPoolSet* time_update_pools() const { return nullptr; }

  /// Fresh, un-Init()ed replica with the same configuration. This is how
  /// the server constructs its twin of a source's predictor.
  virtual std::unique_ptr<Predictor> Clone() const = 0;

  /// Policy name for reports ("kalman", "value_cache", ...).
  virtual std::string name() const = 0;

  /// Dimensionality of the predicted observation.
  virtual size_t dims() const = 0;

 protected:
  /// Backing store for the default ObserveLocal()/Target().
  Reading last_observed_;
};

}  // namespace kc

#endif  // KALMANCAST_SUPPRESSION_PREDICTOR_H_
