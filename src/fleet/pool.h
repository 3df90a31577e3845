#ifndef KALMANCAST_FLEET_POOL_H_
#define KALMANCAST_FLEET_POOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "kalman/adaptive.h"
#include "kalman/kalman_filter.h"
#include "kalman/model.h"
#include "linalg/batch_kernels.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "suppression/policies.h"
#include "suppression/predictor.h"

namespace kc {

namespace obs {
class Counter;
class MetricRegistry;
}  // namespace obs

/// Structure-of-arrays storage for many Kalman filters that share one
/// (model, update form, adaptive config). Instead of each source owning a
/// heap-scattered KalmanFilter — whose ~7 KB of model + workspace
/// matrices dominate the per-tick cache traffic at fleet scale — a pool
/// keeps every filter's mutable state (x, P) in two contiguous slabs and
/// shares a single model and scratch workspace across all slots.
///
/// Adaptive pools (constructed with an AdaptiveConfig; adapt_q only —
/// adapt_r re-estimates R per filter and stays on the per-object path)
/// give each slot its own fixed-size adaptive-Q state: its Q matrix in a
/// third lane-interleaved slab with P's addressing, a RingSize()-entry
/// NIS ring, an update count and the cumulative Q scale. The sweep then
/// adds each lane's own Q (the batch kernel's LaneQ variant), and
/// AdaptSlot runs the same AdaptQAfterUpdate the per-object
/// AdaptiveNoiseEstimator runs, so a pooled adaptive filter stays
/// bit-identical to a per-object one. ResetSlot and Release restore the
/// base Q; slots that never call AdaptSlot keep it.
///
/// Slab layout (AoSoA): slots are grouped into blocks of
/// batch::kLanes (4); element e of slot s lives at
/// xs_[(block*dim + e)*kLanes + lane] with block = s/4, lane = s%4, and
/// P entry (r, c) at ps_[(block*dim*dim + r*dim + c)*kLanes + lane].
/// One SIMD register load at an element's address therefore picks up the
/// *same* element of four adjacent slots — the lane-per-slot layout the
/// batched predict sweep (linalg/batch_kernels.h) vectorizes over. The
/// layout is fixed (independent of whether SIMD is compiled in or
/// enabled), so serialized state and test fixtures never depend on the
/// instruction set.
///
/// Bit-identity contract: every per-slot operation executes the *same*
/// destination-passing kernel sequence as KalmanFilter::Predict/Update
/// (src/kalman/kalman_filter.cc), and the vectorized sweep executes that
/// sequence per lane without reordering anything within a slot — so a
/// pooled filter's state is bit-identical to a per-object filter fed the
/// same inputs whether the sweep ran scalar, vectorized, chunked across
/// threads, or slot-at-a-time. Pooling is a memory-layout change, never a
/// numerical one (see docs/PERF.md for the full argument).
///
/// Slot lifecycle: Acquire() -> ResetSlot() -> {PredictAll / PredictSlot /
/// UpdateSlot / GateSlot ...} -> Release(). Release zeroes x and P before
/// returning the slot to the free list, so a later Acquire for a
/// re-registered source id can never observe a previous tenant's state.
/// The free list is a min-heap: Acquire always reuses the lowest-indexed
/// free slot, so long-lived pools stay dense at the front of the slabs
/// and re-acquired slots land next to live ones (slab locality) instead
/// of wherever the most recent release happened to be.
///
/// Threading: a pool is single-writer for slot lifecycle and per-slot
/// operations, like the shard that owns it. The *sweep* may be chunked:
/// disjoint block ranges (SweepBlocks) touch disjoint slab memory and
/// only shared read-only model data, so different threads may sweep
/// different ranges of the same pool concurrently — that is how
/// ShardedServer::SweepPools parallelizes one big pool across the
/// ThreadPool (slots are mutually independent, so any chunking yields
/// the same bits).
class FilterPool {
 public:
  /// Invalid slot sentinel.
  static constexpr int32_t kNoSlot = -1;
  /// Slots per block (SIMD lanes of the batched predict kernel).
  static constexpr size_t kLanes = batch::kLanes;

  /// `adaptive` (adapt_r unset) makes this an adaptive pool.
  FilterPool(StateSpaceModel model, KalmanFilter::UpdateForm form,
             std::optional<AdaptiveConfig> adaptive = std::nullopt);

  /// True if this pool stores filters for exactly this (model, form,
  /// adaptive config).
  bool Matches(const StateSpaceModel& model, KalmanFilter::UpdateForm form,
               const std::optional<AdaptiveConfig>& adaptive) const;

  /// Claims a slot (reusing the lowest-indexed freed one when available)
  /// and records the owning source id for diagnostics. The slot starts
  /// zeroed; call ResetSlot before filtering with it.
  int32_t Acquire(int32_t owner_id);

  /// Returns a slot to the free list, zeroing x and P so the next tenant
  /// can never observe stale state (id-reuse hygiene).
  void Release(int32_t slot);

  /// (Re)initializes a slot's state and covariance and clears its predict
  /// epoch and diagnostics — the pooled equivalent of constructing a
  /// fresh KalmanFilter. In an adaptive pool it also restores the base Q
  /// and empties the NIS ring (a fresh AdaptiveNoiseEstimator).
  void ResetSlot(int32_t slot, const Vector& x0, const Matrix& p0);

  // --- Batched tick kernels -------------------------------------------

  /// Advances every active slot one time update (one sweep over the
  /// slabs) and bumps the pool's sweep epoch. Returns the number of slots
  /// advanced. Equivalent to BeginSweep() + SweepBlocks(0, num_blocks()).
  size_t PredictAll();

  /// Starts a sweep: advances the pool-level sweep counter that every
  /// active slot's predict epoch is measured against. Call once per
  /// sweep, then cover every block via SweepBlocks (in any chunking).
  void BeginSweep();

  /// Runs the time update on every active slot in blocks
  /// [begin_block, end_block), using the vectorized batch kernel (or its
  /// scalar twin when SIMD is off). Returns slots advanced. Disjoint
  /// ranges may run on different threads concurrently; blocks with no
  /// active slots cost one mask-byte test.
  size_t SweepBlocks(size_t begin_block, size_t end_block);

  /// Blocks the slabs currently span (including dead ones, skipped by
  /// their zero activity mask).
  size_t num_blocks() const { return block_mask_.size(); }

  // --- Per-slot operations (same kernels, one slot at a time) ---------

  /// One time update: x <- F x, P <- F P F^T + Q. Bumps the predict epoch.
  void PredictSlot(int32_t slot);

  /// Runs time updates until the slot's predict epoch reaches `epoch`.
  /// No-op if a batched sweep already advanced it there — this is how
  /// pooled predictors stay correct whether or not a batched sweep is
  /// driving the pool (standalone use never calls PredictAll).
  void PredictSlotUpTo(int32_t slot, int64_t epoch);

  /// Measurement update with observation z; identical kernel sequence to
  /// KalmanFilter::Update, including the Joseph/standard covariance forms
  /// and the NIS diagnostic (LastNisOf). Fails without modifying state if
  /// z has the wrong dimension or S is not positive definite.
  Status UpdateSlot(int32_t slot, const Vector& z);

  /// Adaptive pools only: the adaptation step that follows a successful
  /// UpdateSlot, fed that update's NIS — AdaptiveNoiseEstimator::
  /// AfterUpdate's Q half, on the slot's own Q and NIS ring.
  void AdaptSlot(int32_t slot);

  /// Innovation gate statistic: NIS of z against the slot's predicted
  /// observation, computed exactly as KalmanPredictor's gate does.
  /// Returns a negative value if S fails to factor (gate inconclusive);
  /// never mutates state.
  double GateSlot(int32_t slot, const Vector& z);

  // --- Accessors -------------------------------------------------------

  /// The slot's state / covariance, gathered out of the lane-interleaved
  /// slab (by value; inline small-buffer storage, so no heap traffic for
  /// the dim <= 8 envelope).
  Vector StateOf(int32_t slot) const;
  Matrix CovarianceOf(int32_t slot) const;
  /// Expected observation H x (value-identical to
  /// KalmanFilter::PredictObservation).
  Vector PredictObservationOf(int32_t slot) const;
  /// NIS of the slot's most recent successful UpdateSlot (0 before any).
  double LastNisOf(int32_t slot) const { return last_nis_[slot]; }
  /// The Q the slot's time update adds: its own in an adaptive pool, the
  /// model's otherwise.
  Matrix ProcessNoiseOf(int32_t slot) const;
  /// Adaptive pools: Q scale applied since the slot's last ResetSlot.
  double CumulativeQScaleOf(int32_t slot) const { return q_scale_[slot]; }
  /// Time updates applied since the slot's last ResetSlot. Stored as an
  /// offset from the pool-level sweep counter, so a batched sweep
  /// advances every active slot's epoch with a single counter increment
  /// instead of a per-slot write.
  int64_t PredictEpochOf(int32_t slot) const {
    return sweep_count_ + epoch_base_[slot];
  }
  int32_t OwnerOf(int32_t slot) const { return owner_[slot]; }
  bool IsActive(int32_t slot) const {
    return slot >= 0 && static_cast<size_t>(slot) < size_ &&
           (block_mask_[static_cast<size_t>(slot) / kLanes] &
            (1u << (static_cast<size_t>(slot) % kLanes))) != 0;
  }

  /// Flattens (x, P) as KalmanFilter::SerializeState does: x's entries
  /// followed by P's rows.
  std::vector<double> SerializeSlot(int32_t slot) const;
  /// Restores (x, P) from SerializeSlot/SerializeState output.
  Status DeserializeSlot(int32_t slot, const std::vector<double>& payload);
  /// Overwrites x only (state-sync corrections), leaving P in place and
  /// re-symmetrizing it — behaviorally identical to the per-object path,
  /// which round-trips the unchanged P through DeserializeState.
  Status OverwriteStateOf(int32_t slot, const std::vector<double>& payload);

  const StateSpaceModel& model() const { return model_; }
  KalmanFilter::UpdateForm form() const { return form_; }
  const std::optional<AdaptiveConfig>& adaptive() const { return adaptive_; }
  size_t state_dim() const { return model_.state_dim(); }
  size_t obs_dim() const { return model_.obs_dim(); }
  /// Slots currently in use / ever allocated.
  size_t num_active() const { return num_active_; }
  size_t capacity() const { return size_; }

  /// Toggles the vectorized sweep kernel at runtime (on by default). Both
  /// settings produce identical bits — this is a bench/test knob, plus
  /// the escape hatch KC_SIMD=OFF builds pin in CI.
  void set_simd(bool on) { simd_ = on; }
  bool simd() const { return simd_; }

 private:
  /// Shared scratch, one per pool (not per filter): the same temporaries
  /// KalmanFilter::Workspace holds, plus gather targets for the slot
  /// being operated on, reshaped once and fully overwritten on every use.
  /// Used only by single-writer per-slot operations — the chunked sweep
  /// needs no workspace at all (the batch kernel lives in registers).
  struct Workspace {
    Vector x, fx, hx, nu, knu, sinv_nu;
    Matrix p, q, tmp1, s, l, ph_t, kt, k, kh, i_kh, j1, krk;
  };

  // Lane-addressing helpers (see the class comment for the layout).
  double* XBlock(size_t block) { return xs_.data() + block * dim_ * kLanes; }
  double* PBlock(size_t block) {
    return ps_.data() + block * dim_ * dim_ * kLanes;
  }
  double& XAt(int32_t slot, size_t e) {
    return xs_[((static_cast<size_t>(slot) / kLanes) * dim_ + e) * kLanes +
               static_cast<size_t>(slot) % kLanes];
  }
  double XAt(int32_t slot, size_t e) const {
    return xs_[((static_cast<size_t>(slot) / kLanes) * dim_ + e) * kLanes +
               static_cast<size_t>(slot) % kLanes];
  }
  double& PAt(int32_t slot, size_t r, size_t c) {
    return ps_[((static_cast<size_t>(slot) / kLanes) * dim_ * dim_ +
                r * dim_ + c) *
                   kLanes +
               static_cast<size_t>(slot) % kLanes];
  }
  double PAt(int32_t slot, size_t r, size_t c) const {
    return ps_[((static_cast<size_t>(slot) / kLanes) * dim_ * dim_ +
                r * dim_ + c) *
                   kLanes +
               static_cast<size_t>(slot) % kLanes];
  }
  /// Q(r, c) of an adaptive pool's slot; same addressing as PAt.
  double& QAt(int32_t slot, size_t r, size_t c) {
    return qs_[((static_cast<size_t>(slot) / kLanes) * dim_ * dim_ +
                r * dim_ + c) *
                   kLanes +
               static_cast<size_t>(slot) % kLanes];
  }
  double QAt(int32_t slot, size_t r, size_t c) const {
    return qs_[((static_cast<size_t>(slot) / kLanes) * dim_ * dim_ +
                r * dim_ + c) *
                   kLanes +
               static_cast<size_t>(slot) % kLanes];
  }
  /// The `q` argument of the block kernel for `block`: the block's Q slab
  /// in an adaptive pool, the shared model Q otherwise.
  const double* QArg(size_t block) const {
    return adaptive_ ? qs_.data() + block * dim_ * dim_ * kLanes
                     : model_.q.data().data();
  }

  /// Gather / scatter one slot's (x, P) between the slabs and dense
  /// Vector/Matrix scratch (pure copies: bit-preserving by definition).
  void LoadSlotInto(int32_t slot, Vector* x, Matrix* p) const;
  void StoreSlotFrom(int32_t slot, const Vector& x, const Matrix& p);
  /// In-place strided Symmetrize of a slot's P, same operation order as
  /// Matrix::Symmetrize.
  void SymmetrizeSlotCov(int32_t slot);

  /// The time-update kernels on one slot, without epoch bookkeeping:
  /// a single-lane-mask call of the same block kernel the sweep uses.
  void PredictRaw(int32_t slot);
  /// Scalar fallback for dims beyond the specialized kernels
  /// (dim > batch::kMaxDim — never pooled by MakePooledPredictor, but
  /// FilterPool itself stays fully functional): gather, run the scalar
  /// kernel sequence in `ws`, scatter.
  void PredictScalarSlot(int32_t slot, Workspace* ws);
  /// Appends one zeroed block to the slabs and bookkeeping arrays (base
  /// Q and empty rings for an adaptive pool).
  void GrowBlock();
  /// Adaptive pools: restores the slot's base Q and empties its ring.
  void ResetAdaptiveState(int32_t slot);

  StateSpaceModel model_;
  KalmanFilter::UpdateForm form_;
  std::optional<AdaptiveConfig> adaptive_;
  size_t dim_;  ///< model_.state_dim(), cached for lane addressing.
  /// Vector kernel (null if dim > 8); the LaneQ variant in adaptive pools.
  batch::PredictBlockFn simd_fn_;
  batch::PredictBlockFn portable_fn_;  ///< Scalar-lane twin (ditto).
  bool simd_ = true;

  // AoSoA slabs + per-slot bookkeeping, sized in whole blocks.
  std::vector<double> xs_;
  std::vector<double> ps_;
  std::vector<uint8_t> block_mask_;  ///< Bit l set = slot 4b+l active.
  std::vector<int32_t> owner_;       ///< Source id, kNoSlot when free.
  std::vector<int64_t> epoch_base_;  ///< Epoch offset from sweep_count_.
  std::vector<double> last_nis_;     ///< Last UpdateSlot NIS.
  // Adaptive pools only (empty otherwise): per-slot adaptive-Q state.
  std::vector<double> qs_;            ///< Q slab, lane-interleaved like ps_.
  std::vector<double> nis_ring_;      ///< ring_size_ entries per slot.
  std::vector<size_t> updates_seen_;  ///< Adapted updates since reset.
  std::vector<double> q_scale_;       ///< Cumulative Q scale.
  size_t ring_size_ = 0;
  std::vector<int32_t> free_;        ///< Min-heap of released slots.
  size_t size_ = 0;  ///< Slots ever created (<= blocks * kLanes).
  size_t num_active_ = 0;
  int64_t sweep_count_ = 0;  ///< Batched sweeps since construction.

  Workspace ws_;
};

/// The per-shard collection of filter pools: one FilterPool per distinct
/// (model, update form, adaptive config) among the shard's pooled
/// sources, so adaptive and plain sources never share a pool. PoolFor returns
/// a stable pointer (pools are never destroyed before the set), and
/// PredictAll sweeps every pool in creation order — the batched tick the
/// sharded server runs at the top of each shard tick. The set also
/// interns predictor configs (InternConfig) so a million pooled sources
/// share one Config allocation per distinct configuration instead of
/// carrying ~2 KB of model copies each.
class FilterPoolSet {
 public:
  /// The pool for this (model, form, adaptive config), created on first
  /// use. Pointers stay valid for the set's lifetime.
  FilterPool* PoolFor(const StateSpaceModel& model,
                      KalmanFilter::UpdateForm form,
                      const std::optional<AdaptiveConfig>& adaptive =
                          std::nullopt);

  /// Batched tick: PredictAll on every pool, in creation order. Returns
  /// total slots advanced.
  size_t PredictAll();

  size_t num_pools() const { return pools_.size(); }
  /// Pool by creation index (stable; for sweep drivers that chunk across
  /// pools, see ShardedServer::SweepPools).
  FilterPool* pool(size_t index) { return pools_[index].get(); }
  size_t num_active() const;

  /// Applies to every pool, current and future (PoolFor inherits it).
  void set_simd(bool on);
  bool simd() const { return simd_; }

  /// Returns a shared, deduplicated copy of `config`: configs comparing
  /// equal (model matrices and all behavioral knobs) map to one
  /// allocation. A KalmanPredictor::Config embeds four model matrices —
  /// ~2 KB even for a scalar model — and every pooled predictor used to
  /// carry its own copy; at fleet scale those copies were gigabytes of
  /// cold, duplicated heap that the tick had to walk around. The adaptive
  /// config is part of the key.
  std::shared_ptr<const KalmanPredictor::Config> InternConfig(
      const KalmanPredictor::Config& config);

 private:
  std::vector<std::unique_ptr<FilterPool>> pools_;
  std::vector<std::shared_ptr<const KalmanPredictor::Config>> configs_;
  bool simd_ = true;
};

/// Drop-in pooled replacement for a KalmanPredictor (plain or adapt_q
/// adaptive): the same dual-filter suppression protocol (shadow + private,
/// sync modes, outlier gate, serialization formats, metric names), with
/// both filters living as slots in a shared FilterPool instead of owning
/// KalmanFilter objects. With an adaptive config the private slot adapts
/// its own Q after every successful update, exactly where the per-object
/// predictor runs its AdaptiveNoiseEstimator; the shadow never adapts.
/// Every ObserveLocal/ApplyCorrection/... is bit-identical to the
/// per-object KalmanPredictor fed the same inputs (pinned by
/// tests/pool_test.cc), so the fleet can substitute one for the other
/// freely.
///
/// Predict epochs: Tick() and ObserveLocal() advance per-predictor tick
/// counters and ask the pool to catch the slot up (PredictSlotUpTo). When
/// the owning shard runs FilterPoolSet::PredictAll once per tick, the
/// catch-up is a no-op and the time updates happen in the batched sweep;
/// without a sweep (standalone use, unit tests) the catch-up does the
/// predicts itself. Either way each slot sees exactly one time update per
/// protocol tick.
///
/// The private filter's slot is materialized lazily at first use: a
/// server-side replica clone never observes locally, so its private slot
/// is never created and the batched sweep never wastes a time update on
/// state nobody reads.
class PooledKalmanPredictor : public Predictor {
 public:
  /// `pools` must outlive the predictor (the sharded server's pool sets
  /// outlive its shards' replicas by member order). The config is
  /// interned through `pools` so clones and same-configured predictors
  /// share one copy.
  PooledKalmanPredictor(KalmanPredictor::Config config, FilterPoolSet* pools);
  PooledKalmanPredictor(std::shared_ptr<const KalmanPredictor::Config> config,
                        FilterPoolSet* pools);
  ~PooledKalmanPredictor() override;

  void Init(const Reading& first) override;
  void Tick() override;
  void ObserveLocal(const Reading& measured) override;
  Vector Target() const override;
  Vector Predict() const override;
  std::vector<double> EncodeCorrection(const Reading& measured) const override;
  Status ApplyCorrection(int64_t seq, double time,
                         const std::vector<double>& payload) override;
  std::vector<double> EncodeFullState() const override;
  Status ApplyFullState(const std::vector<double>& payload) override;
  void BindMetrics(obs::MetricRegistry* registry) override;
  double LastNis() const override { return last_nis_; }
  int64_t OutliersRejected() const override { return outliers_rejected_; }
  std::unique_ptr<Predictor> Clone() const override;
  /// Same names as KalmanPredictor: pooling is invisible to reports.
  std::string name() const override;
  size_t dims() const override { return config_->model.obs_dim(); }

  const KalmanPredictor::Config& config() const { return *config_; }
  /// The pool backing this predictor (nullptr before Init).
  const FilterPool* pool() const { return pool_; }
  int32_t shadow_slot() const { return shadow_slot_; }
  int32_t private_slot() const { return private_slot_; }

 private:
  /// Arena counter handles, cached at bind time; null until BindMetrics.
  struct Metrics {
    obs::Counter* outliers_rejected = nullptr;
    obs::Counter* forced_accepts = nullptr;
    obs::Counter* filter_resets = nullptr;
  };

  /// Materializes the private slot from the Init reading if it is still
  /// pending (state-sync modes only).
  void EnsurePrivateSlot();
  void ReleaseSlots();

  std::shared_ptr<const KalmanPredictor::Config> config_;
  FilterPoolSet* pools_;
  FilterPool* pool_ = nullptr;  ///< Resolved at first Init.
  Metrics metrics_;
  int32_t shadow_slot_ = FilterPool::kNoSlot;
  int32_t private_slot_ = FilterPool::kNoSlot;
  /// True between Init and the first private-slot use (lazy acquisition).
  bool private_pending_ = false;
  /// The Init reading's value, kept so a pending private slot can be
  /// materialized with the same x0/P0 Init would have used.
  Vector init_value_;
  double gate_threshold_ = 0.0;  ///< Chi-squared NIS cutoff (0 = no gate).
  int consecutive_rejects_ = 0;
  int64_t outliers_rejected_ = 0;
  double last_nis_ = -1.0;
  int64_t shadow_ticks_ = 0;   ///< Tick() calls since Init.
  int64_t private_ticks_ = 0;  ///< ObserveLocal() calls since Init.
  /// Reusable payload -> Vector scratch for measurement-sync corrections.
  Vector z_scratch_;
};

/// If `prototype` is a poolable KalmanPredictor — plain or adapting only Q
/// (per-slot Q lives in the pool) and within the inline state_dim/obs_dim
/// <= 8 envelope — returns a pooled equivalent backed by `pools`. Returns
/// nullptr when the prototype must stay on the virtual per-object path
/// (EKF/IMM-style predictors, adapt_r configs, whose R re-estimation
/// needs a per-filter R and innovation history, oversized models).
std::unique_ptr<Predictor> MakePooledPredictor(const Predictor& prototype,
                                               FilterPoolSet* pools);

}  // namespace kc

#endif  // KALMANCAST_FLEET_POOL_H_
