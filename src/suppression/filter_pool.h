#ifndef KALMANCAST_SUPPRESSION_FILTER_POOL_H_
#define KALMANCAST_SUPPRESSION_FILTER_POOL_H_

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

namespace kc {

/// Structure-of-arrays storage for many Kalman filters that share one
/// (model, update form, adaptive config). Instead of each source owning a
/// heap-scattered KalmanFilter — whose ~7 KB of model + workspace
/// matrices dominate the per-tick cache traffic at fleet scale — a pool
/// keeps every filter's mutable state (x, P) in two contiguous slabs and
/// shares a single model and scratch workspace across all slots.
///
/// Adaptive pools (constructed with an AdaptiveConfig) give each slot its
/// own fixed-size adaptive state: its Q matrix in a third lane-interleaved
/// slab with P's addressing, a RingSize()-entry NIS ring, an update count
/// and the cumulative Q scale. With adapt_r a slot also owns its R, in a
/// slab interleaved by lane the same way (obs_dim x obs_dim), a ring of
/// RingSize() innovation outer products and its last innovation. The
/// sweep adds each lane's own Q (the batch kernel's LaneQ variant),
/// UpdateSlot and GateSlot use the slot's own R, and AdaptSlot runs the
/// same AdaptQAfterUpdate and AdaptRAfterUpdate the reference
/// AdaptiveNoiseEstimator runs, so a pooled adaptive filter stays
/// bit-identical to a KalmanFilter adapted by that estimator. ResetSlot
/// and Release restore the base Q and R and empty the rings; slots that
/// never call AdaptSlot keep them.
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
/// pooled filter's state is bit-identical to a KalmanFilter fed the same
/// inputs whether the sweep ran scalar, vectorized, chunked across
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

  /// `adaptive` makes this an adaptive pool.
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
  /// (and R) and empties the rings (a fresh AdaptiveNoiseEstimator).
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
  /// UpdateSlot, fed that update's NIS (and, with adapt_r, its innovation
  /// and the posterior covariance) — AdaptiveNoiseEstimator::AfterUpdate
  /// on the slot's own Q, R and rings.
  void AdaptSlot(int32_t slot);

  /// Innovation gate statistic: NIS of z against the slot's predicted
  /// observation (what KalmanPredictor's outlier gate tests).
  /// Returns a negative value if S fails to factor (gate inconclusive);
  /// never mutates state.
  double GateSlot(int32_t slot, const Vector& z);

  // --- Accessors -------------------------------------------------------

  /// The slot's state / covariance, gathered out of the lane-interleaved
  /// slab (by value; inline small-buffer storage, so no heap traffic for
  /// dims <= 8).
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
  /// The R the slot's measurement update uses: its own in an adapt_r
  /// pool, the model's otherwise.
  Matrix MeasurementNoiseOf(int32_t slot) const;
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
  /// re-symmetrizing it — behaviorally identical to a KalmanFilter
  /// round-tripping the unchanged P through DeserializeState.
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
    Matrix p, q, r, tmp1, s, l, ph_t, kt, k, kh, i_kh, j1, krk;
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
  /// R(r, c) of an adapt_r pool's slot; PAt's addressing over obs_dim.
  double& RAt(int32_t slot, size_t r, size_t c) {
    return rs_[((static_cast<size_t>(slot) / kLanes) * obs_dim_ * obs_dim_ +
                r * obs_dim_ + c) *
                   kLanes +
               static_cast<size_t>(slot) % kLanes];
  }
  double RAt(int32_t slot, size_t r, size_t c) const {
    return rs_[((static_cast<size_t>(slot) / kLanes) * obs_dim_ * obs_dim_ +
                r * obs_dim_ + c) *
                   kLanes +
               static_cast<size_t>(slot) % kLanes];
  }
  /// The R an update or gate of `slot` adds to S: gathered into ws_.r in
  /// an adapt_r pool, the model's otherwise.
  const Matrix& RFor(int32_t slot);
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
  /// (dim > batch::kMaxDim): gather, run the scalar kernel sequence in
  /// `ws`, scatter.
  void PredictScalarSlot(int32_t slot, Workspace* ws);
  /// Appends one zeroed block to the slabs and bookkeeping arrays (base
  /// Q, R and empty rings for an adaptive pool).
  void GrowBlock();
  /// Adaptive pools: restores the slot's base Q (and R) and empties its
  /// rings.
  void ResetAdaptiveState(int32_t slot);
  bool adapt_r() const { return adaptive_ && adaptive_->adapt_r; }

  StateSpaceModel model_;
  KalmanFilter::UpdateForm form_;
  std::optional<AdaptiveConfig> adaptive_;
  size_t dim_;      ///< model_.state_dim(), cached for lane addressing.
  size_t obs_dim_;  ///< model_.obs_dim(), ditto.
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
  // adapt_r pools only (empty otherwise): per-slot adaptive-R state.
  std::vector<double> rs_;          ///< R slab, lane-interleaved like qs_.
  std::vector<double> outer_ring_;  ///< ring_size_ outer products per slot.
  std::vector<double> innovation_;  ///< Last UpdateSlot nu, obs_dim per slot.
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

}  // namespace kc

#endif  // KALMANCAST_SUPPRESSION_FILTER_POOL_H_
