#ifndef KALMANCAST_OBS_HEALTH_H_
#define KALMANCAST_OBS_HEALTH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/health_state.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace kc {
namespace obs {

/// The filter-health watchdog (docs/OBSERVABILITY.md, "Filter health"):
/// answers the question metrics alone cannot — *is this source's filter
/// still statistically consistent with what the stream is doing?*
///
/// Three deterministic detectors per source, each evaluated on a fixed
/// window so the verdict is a pure function of the simulated history:
///
///  - **NIS consistency.** Every accepted reading yields a normalized
///    innovation squared (nu' S^-1 nu), which for a well-modeled filter
///    is chi-square with obs_dim degrees of freedom. The watchdog sums
///    `nis_window` consecutive samples and compares against the
///    two-sided chi-square band with nis_window * obs_dim dof (bounds
///    from src/common/chisq, computed once at registration). A
///    mis-modeled stream (e.g. wrong process noise) lands far outside
///    the band window after window.
///  - **Protocol rates.** Resync storms and suppression-rate collapse
///    over `rate_window_ticks` are the protocol-level symptom of the
///    same disease; either breaching its configured limit trips the
///    detector.
///  - **Precision audit.** The precision auditor (obs/audit.h) closes an
///    SLO window every `slo_window_ticks` and reports whether any
///    sampled answer escaped its bound. This is the only detector that
///    observes the contract *directly* rather than statistically.
///
/// Each detector runs the same streak machine: one breached window
/// escalates OK -> SUSPECT, `windows_to_diverge` consecutive breaches
/// escalate to DIVERGED, `windows_to_recover` consecutive clean windows
/// drop back to OK. The source's state is the max of the detectors.
///
/// Threading follows the arena model: one HealthMonitor per shard,
/// ForSource() is the registering cold path, the On*() feeds are the
/// lock- and allocation-free hot path with a single writer (the thread
/// stepping that source's shard).

struct HealthConfig {
  /// NIS samples per consistency window.
  size_t nis_window = 32;
  /// Two-sided coverage of the chi-square acceptance band. 0.999 means a
  /// well-modeled stream breaches a window with probability 1e-3.
  double nis_confidence = 0.999;
  /// Consecutive breached windows (either detector) before DIVERGED.
  int windows_to_diverge = 3;
  /// Consecutive clean windows before a breached detector returns to OK.
  int windows_to_recover = 2;
  /// Ticks per protocol-rate window.
  int64_t rate_window_ticks = 256;
  /// Resync requests per tick above which the rate detector breaches.
  /// <= 0 disables the resync-rate check.
  double max_resync_rate = 0.02;
  /// Suppression ratio (suppressed / decisions over the rate window)
  /// below which the rate detector breaches. <= 0 disables.
  double min_suppression_rate = 0.0;
};

/// Called on a worsening transition (OK->SUSPECT, *->DIVERGED) — the
/// hook that triggers an automatic black-box dump.
using HealthAnomalySink =
    std::function<void(int32_t source_id, HealthState from, HealthState to)>;

class HealthMonitor;

/// One source's watchdog state. Obtain via HealthMonitor::ForSource();
/// feed from the serving path (single writer).
class SourceHealth {
 public:
  /// Advances the rate window by one tick; evaluates it on the boundary.
  void OnTick();
  /// Feeds one NIS sample; negative values (predictor has none) are
  /// ignored. Evaluates the window once `nis_window` samples are in.
  void OnNis(double nis);
  /// Feeds one suppression decision.
  void OnDecision(bool suppressed);
  /// Feeds one replica-issued resync request.
  void OnResync();
  /// Feeds one completed precision-audit SLO window (breached = any
  /// containment violation inside it; see obs/audit.h). Runs the same
  /// streak machine as the other detectors; the source verdict is the max
  /// of all three. The auditor calls this on its window boundaries, so a
  /// contract breach the statistics miss still trips the watchdog.
  void OnAuditWindow(bool breached);

  HealthState state() const { return state_; }
  int32_t source_id() const { return source_id_; }
  int64_t nis_windows() const { return nis_windows_; }
  int64_t nis_breaches() const { return nis_breaches_; }
  int64_t rate_breaches() const { return rate_breaches_; }
  int64_t audit_breaches() const { return audit_breaches_; }
  /// Mean per-sample NIS of the last completed window (0 before the
  /// first completes). A healthy stream hovers near obs_dim.
  double last_window_mean_nis() const { return last_window_mean_nis_; }
  /// Acceptance band for the windowed NIS *sum* (diagnostics).
  double nis_sum_lo() const { return nis_sum_lo_; }
  double nis_sum_hi() const { return nis_sum_hi_; }

 private:
  friend class HealthMonitor;
  SourceHealth(HealthMonitor* owner, int32_t source_id, size_t obs_dim);

  void EvaluateNisWindow();
  void EvaluateRateWindow();
  /// Applies a window verdict to one detector's streak machine.
  static HealthState StepDetector(HealthState current, bool breached,
                                  int* breach_streak, int* clean_streak,
                                  const HealthConfig& config);
  /// Recomputes the combined state; fires transition bookkeeping.
  void Recombine(double detail);

  HealthMonitor* owner_;
  int32_t source_id_;
  size_t obs_dim_;
  SourceRecorder* recorder_ = nullptr;  ///< Optional transition log.

  // NIS detector.
  double nis_sum_lo_ = 0.0;
  double nis_sum_hi_ = 0.0;
  double nis_sum_ = 0.0;
  size_t nis_count_ = 0;
  HealthState nis_state_ = HealthState::kOk;
  int nis_breach_streak_ = 0;
  int nis_clean_streak_ = 0;
  int64_t nis_windows_ = 0;
  int64_t nis_breaches_ = 0;
  double last_window_mean_nis_ = 0.0;

  // Rate detector.
  int64_t ticks_in_window_ = 0;
  int64_t resyncs_in_window_ = 0;
  int64_t decisions_in_window_ = 0;
  int64_t suppressed_in_window_ = 0;
  HealthState rate_state_ = HealthState::kOk;
  int rate_breach_streak_ = 0;
  int rate_clean_streak_ = 0;
  int64_t rate_breaches_ = 0;

  // Audit detector (fed by the precision auditor's SLO windows).
  HealthState audit_state_ = HealthState::kOk;
  int audit_breach_streak_ = 0;
  int audit_clean_streak_ = 0;
  int64_t audit_breaches_ = 0;

  HealthState state_ = HealthState::kOk;
  int64_t tick_ = 0;  ///< Ticks seen (stamps transition events).
};

/// One watchdog arena: source id -> SourceHealth. One per shard (plus
/// one per StreamServer outside the fleet).
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig config = HealthConfig());
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Cold path: registers the source (computing its chi-square band) on
  /// first use. `obs_dim` is the predictor's observation dimension.
  SourceHealth* ForSource(int32_t source_id, size_t obs_dim);

  const SourceHealth* Find(int32_t source_id) const;

  /// Non-creating mutable lookup (nullptr if the source is unknown).
  /// For binders — the precision auditor — that must not register a
  /// source without knowing its true obs_dim.
  SourceHealth* FindMutable(int32_t source_id);

  /// kOk for unknown sources (mirrors StreamServer::IsDesynced).
  HealthState StateOf(int32_t source_id) const;

  /// Registered source ids, ascending.
  std::vector<int32_t> SourceIds() const;

  /// Registers kc.health.* metrics in `registry`.
  void BindMetrics(MetricRegistry* registry);

  /// Transition events (HEALTH_*) for each source get recorded into the
  /// matching ring of `recorder`. Applies to current and future sources.
  void BindRecorder(FlightRecorder* recorder);

  /// Installed sink fires on every worsening transition.
  void SetAnomalySink(HealthAnomalySink sink);

  /// Deterministic per-source summary, ascending id order.
  std::string SummaryText() const;

  /// One source's summary line (empty if unknown).
  std::string SummaryLine(int32_t source_id) const;

  const HealthConfig& config() const { return config_; }

 private:
  friend class SourceHealth;
  /// Transition bookkeeping: state-count gauges, counters, anomaly sink.
  void OnTransition(int32_t source_id, HealthState from, HealthState to);
  void UpdateStateGauges();

  HealthConfig config_;
  mutable std::mutex mu_;  ///< Guards the map, not the per-source state.
  std::map<int32_t, std::unique_ptr<SourceHealth>> sources_;
  FlightRecorder* recorder_ = nullptr;
  HealthAnomalySink anomaly_sink_;

  // Per-state population (single writer; exported as gauges).
  int64_t num_ok_ = 0;
  int64_t num_suspect_ = 0;
  int64_t num_diverged_ = 0;

  Counter* nis_windows_metric_ = nullptr;   ///< kc.health.nis_windows
  Counter* nis_breaches_metric_ = nullptr;  ///< kc.health.nis_breaches
  Counter* rate_breaches_metric_ = nullptr; ///< kc.health.rate_breaches
  Counter* audit_breaches_metric_ = nullptr; ///< kc.health.audit_breaches
  Counter* transitions_metric_ = nullptr;   ///< kc.health.transitions
  Gauge* ok_gauge_ = nullptr;               ///< kc.health.sources_ok
  Gauge* suspect_gauge_ = nullptr;          ///< kc.health.sources_suspect
  Gauge* diverged_gauge_ = nullptr;         ///< kc.health.sources_diverged
};

}  // namespace obs
}  // namespace kc

#endif  // KALMANCAST_OBS_HEALTH_H_
