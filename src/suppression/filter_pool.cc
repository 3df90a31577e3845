#include "suppression/filter_pool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>

#include "linalg/decomp.h"
#include "linalg/kernels.h"

namespace kc {

// ---------------------------------------------------------------- FilterPool

FilterPool::FilterPool(StateSpaceModel model, KalmanFilter::UpdateForm form,
                       std::optional<AdaptiveConfig> adaptive)
    : model_(std::move(model)),
      form_(form),
      adaptive_(std::move(adaptive)),
      dim_(model_.state_dim()),
      obs_dim_(model_.obs_dim()),
      simd_fn_(batch::SimdPredictFn(dim_, adaptive_.has_value())),
      portable_fn_(batch::PortablePredictFn(dim_, adaptive_.has_value())) {
  assert(model_.Validate().ok());
  if (adaptive_) ring_size_ = adaptive_->RingSize();
}

bool FilterPool::Matches(const StateSpaceModel& model,
                         KalmanFilter::UpdateForm form,
                         const std::optional<AdaptiveConfig>& adaptive) const {
  return form == form_ && adaptive == adaptive_ && model.f == model_.f &&
         model.q == model_.q && model.h == model_.h && model.r == model_.r;
}

void FilterPool::GrowBlock() {
  xs_.resize(xs_.size() + dim_ * kLanes, 0.0);
  ps_.resize(ps_.size() + dim_ * dim_ * kLanes, 0.0);
  block_mask_.push_back(0);
  owner_.resize(owner_.size() + kLanes, kNoSlot);
  epoch_base_.resize(epoch_base_.size() + kLanes, 0);
  last_nis_.resize(last_nis_.size() + kLanes, 0.0);
  if (adaptive_) {
    for (size_t i = 0; i < dim_ * dim_; ++i) {
      qs_.insert(qs_.end(), kLanes, model_.q.data()[i]);
    }
    nis_ring_.resize(nis_ring_.size() + ring_size_ * kLanes, 0.0);
    updates_seen_.resize(updates_seen_.size() + kLanes, 0);
    q_scale_.resize(q_scale_.size() + kLanes, 1.0);
  }
  if (adapt_r()) {
    for (size_t i = 0; i < obs_dim_ * obs_dim_; ++i) {
      rs_.insert(rs_.end(), kLanes, model_.r.data()[i]);
    }
    outer_ring_.resize(
        outer_ring_.size() + ring_size_ * obs_dim_ * obs_dim_ * kLanes, 0.0);
    innovation_.resize(innovation_.size() + obs_dim_ * kLanes, 0.0);
  }
}

void FilterPool::ResetAdaptiveState(int32_t slot) {
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = 0; c < dim_; ++c) QAt(slot, r, c) = model_.q(r, c);
  }
  if (adapt_r()) {
    for (size_t r = 0; r < obs_dim_; ++r) {
      for (size_t c = 0; c < obs_dim_; ++c) RAt(slot, r, c) = model_.r(r, c);
    }
  }
  // Ring entries past updates_seen are never read, so no clearing needed.
  updates_seen_[slot] = 0;
  q_scale_[slot] = 1.0;
}

const Matrix& FilterPool::RFor(int32_t slot) {
  if (!adapt_r()) return model_.r;
  ws_.r = MeasurementNoiseOf(slot);
  return ws_.r;
}

int32_t FilterPool::Acquire(int32_t owner_id) {
  int32_t slot;
  if (!free_.empty()) {
    // Min-heap pop: always reuse the lowest-indexed freed slot, keeping
    // active slots packed toward the front of the slabs (slab locality
    // for the sweep) regardless of release order.
    std::pop_heap(free_.begin(), free_.end(), std::greater<int32_t>());
    slot = free_.back();
    free_.pop_back();
  } else {
    if (size_ == block_mask_.size() * kLanes) GrowBlock();
    slot = static_cast<int32_t>(size_++);
  }
  block_mask_[static_cast<size_t>(slot) / kLanes] |=
      static_cast<uint8_t>(1u << (static_cast<size_t>(slot) % kLanes));
  owner_[slot] = owner_id;
  // Effective epoch = sweep_count_ + epoch_base_, so "epoch 0 now" is an
  // offset of -sweep_count_ (sweeps before this slot existed don't count).
  epoch_base_[slot] = -sweep_count_;
  last_nis_[slot] = 0.0;
  ++num_active_;
  return slot;
}

void FilterPool::Release(int32_t slot) {
  assert(IsActive(slot));
  // Zero on free: a re-registered source id acquiring this slot later
  // must never observe the previous tenant's state or covariance — and
  // the batch kernel computes on (then discards) inactive lanes, which
  // must hold finite values.
  for (size_t e = 0; e < dim_; ++e) XAt(slot, e) = 0.0;
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = 0; c < dim_; ++c) PAt(slot, r, c) = 0.0;
  }
  block_mask_[static_cast<size_t>(slot) / kLanes] &=
      static_cast<uint8_t>(~(1u << (static_cast<size_t>(slot) % kLanes)));
  owner_[slot] = kNoSlot;
  epoch_base_[slot] = 0;
  last_nis_[slot] = 0.0;
  if (adaptive_) ResetAdaptiveState(slot);
  --num_active_;
  free_.push_back(slot);
  std::push_heap(free_.begin(), free_.end(), std::greater<int32_t>());
}

void FilterPool::ResetSlot(int32_t slot, const Vector& x0, const Matrix& p0) {
  assert(IsActive(slot));
  assert(x0.size() == dim_);
  assert(p0.rows() == dim_ && p0.cols() == dim_);
  StoreSlotFrom(slot, x0, p0);
  epoch_base_[slot] = -sweep_count_;
  last_nis_[slot] = 0.0;
  if (adaptive_) ResetAdaptiveState(slot);
}

void FilterPool::LoadSlotInto(int32_t slot, Vector* x, Matrix* p) const {
  x->ResizeUninit(dim_);
  p->ResizeUninit(dim_, dim_);
  for (size_t e = 0; e < dim_; ++e) (*x)[e] = XAt(slot, e);
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = 0; c < dim_; ++c) (*p)(r, c) = PAt(slot, r, c);
  }
}

void FilterPool::StoreSlotFrom(int32_t slot, const Vector& x,
                               const Matrix& p) {
  for (size_t e = 0; e < dim_; ++e) XAt(slot, e) = x[e];
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = 0; c < dim_; ++c) PAt(slot, r, c) = p(r, c);
  }
}

void FilterPool::SymmetrizeSlotCov(int32_t slot) {
  // Same op order as Matrix::Symmetrize, on the strided slab entries.
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = r + 1; c < dim_; ++c) {
      double avg = 0.5 * (PAt(slot, r, c) + PAt(slot, c, r));
      PAt(slot, r, c) = avg;
      PAt(slot, c, r) = avg;
    }
  }
}

void FilterPool::PredictScalarSlot(int32_t slot, Workspace* ws) {
  // Same kernel sequence as KalmanFilter::Predict, on gathered slab
  // entries: the pooled time update is bit-identical to KalmanFilter's
  // (and to the batch kernel, which runs this sequence per lane).
  LoadSlotInto(slot, &ws->x, &ws->p);
  MultiplyInto(model_.f, ws->x, &ws->fx);
  ws->x = ws->fx;
  SandwichInto(model_.f, ws->p, &ws->tmp1, &ws->j1);
  if (adaptive_) {
    ws->q = ProcessNoiseOf(slot);
    AddInto(ws->j1, ws->q, &ws->p);
  } else {
    AddInto(ws->j1, model_.q, &ws->p);
  }
  ws->p.Symmetrize();
  StoreSlotFrom(slot, ws->x, ws->p);
}

void FilterPool::PredictRaw(int32_t slot) {
  batch::PredictBlockFn fn = simd_ ? simd_fn_ : portable_fn_;
  if (fn != nullptr) {
    // Single-lane-mask call of the very kernel the sweep uses: computes
    // all four lanes, stores one — bit-identical to a sweep over this
    // block by construction.
    const size_t block = static_cast<size_t>(slot) / kLanes;
    fn(model_.f.data().data(), QArg(block), XBlock(block), PBlock(block),
       1u << (static_cast<size_t>(slot) % kLanes));
    return;
  }
  PredictScalarSlot(slot, &ws_);
}

void FilterPool::PredictSlot(int32_t slot) {
  assert(IsActive(slot));
  PredictRaw(slot);
  ++epoch_base_[slot];
}

void FilterPool::PredictSlotUpTo(int32_t slot, int64_t epoch) {
  assert(IsActive(slot));
  while (PredictEpochOf(slot) < epoch) {
    PredictRaw(slot);
    ++epoch_base_[slot];
  }
}

void FilterPool::BeginSweep() { ++sweep_count_; }

size_t FilterPool::SweepBlocks(size_t begin_block, size_t end_block) {
  // The batched tick: a linear walk over whole blocks, vectorized lane-
  // per-slot. Slots are mutually independent, so neither sweep order nor
  // chunking across threads can affect any slot's state; blocks with no
  // active slots cost one mask test. Thread-safe for disjoint ranges:
  // only block-local slab memory (an adaptive pool's Q slab included) and
  // shared read-only model data are touched (no pool workspace).
  batch::PredictBlockFn fn = simd_ ? simd_fn_ : portable_fn_;
  size_t advanced = 0;
  if (fn != nullptr) {
    const double* f = model_.f.data().data();
    for (size_t b = begin_block; b < end_block; ++b) {
      unsigned mask = block_mask_[b];
      if (mask == 0) continue;
      fn(f, QArg(b), XBlock(b), PBlock(b), mask);
      advanced += static_cast<size_t>(std::popcount(mask));
    }
  } else {
    // dim > batch::kMaxDim: scalar per-slot fallback. Stack-local scratch
    // keeps concurrent chunk sweeps off the shared workspace.
    Workspace ws;
    for (size_t b = begin_block; b < end_block; ++b) {
      unsigned mask = block_mask_[b];
      if (mask == 0) continue;
      for (size_t l = 0; l < kLanes; ++l) {
        if ((mask & (1u << l)) == 0) continue;
        PredictScalarSlot(static_cast<int32_t>(b * kLanes + l), &ws);
        ++advanced;
      }
    }
  }
  return advanced;
}

size_t FilterPool::PredictAll() {
  BeginSweep();
  return SweepBlocks(0, num_blocks());
}

Status FilterPool::UpdateSlot(int32_t slot, const Vector& z) {
  assert(IsActive(slot));
  // Same kernel sequence as KalmanFilter::Update (minus the log-likelihood
  // diagnostic, which nothing on the pooled path reads): bit-identical
  // state, covariance, and NIS. Gather, update, scatter — a failed update
  // returns before the scatter, leaving the slot untouched.
  if (z.size() != model_.obs_dim()) {
    return Status::InvalidArgument("observation dimension mismatch");
  }
  LoadSlotInto(slot, &ws_.x, &ws_.p);
  const Matrix& h = model_.h;
  const Matrix& r = RFor(slot);
  MultiplyInto(h, ws_.x, &ws_.hx);
  SubInto(z, ws_.hx, &ws_.nu);

  SandwichInto(h, ws_.p, &ws_.tmp1, &ws_.s);
  ws_.s += r;
  ws_.s.Symmetrize();
  if (!Cholesky::FactorInto(ws_.s, &ws_.l)) {
    return Status::FailedPrecondition("innovation covariance not PD");
  }

  // Gain K = P H^T S^{-1}; computed as solve(S, H P)^T to stay factored.
  MultiplyTransposedInto(ws_.p, h, &ws_.ph_t);
  TransposeInto(ws_.ph_t, &ws_.tmp1);
  Cholesky::SolveInto(ws_.l, ws_.tmp1, &ws_.kt);
  TransposeInto(ws_.kt, &ws_.k);

  MultiplyInto(ws_.k, ws_.nu, &ws_.knu);
  ws_.x += ws_.knu;

  MultiplyInto(ws_.k, h, &ws_.kh);
  IdentityMinusInto(ws_.kh, &ws_.i_kh);
  if (form_ == KalmanFilter::UpdateForm::kJoseph) {
    SandwichInto(ws_.i_kh, ws_.p, &ws_.tmp1, &ws_.j1);
    SandwichInto(ws_.k, r, &ws_.tmp1, &ws_.krk);
    AddInto(ws_.j1, ws_.krk, &ws_.p);
  } else {
    MultiplyInto(ws_.i_kh, ws_.p, &ws_.j1);
    ws_.p = ws_.j1;
  }
  ws_.p.Symmetrize();

  Cholesky::SolveInto(ws_.l, ws_.nu, &ws_.sinv_nu);
  last_nis_[slot] = ws_.nu.Dot(ws_.sinv_nu);
  if (adapt_r()) {
    std::copy_n(ws_.nu.data().data(), obs_dim_,
                innovation_.data() + static_cast<size_t>(slot) * obs_dim_);
  }
  StoreSlotFrom(slot, ws_.x, ws_.p);
  return Status::Ok();
}

void FilterPool::AdaptSlot(int32_t slot) {
  assert(adaptive_.has_value());
  assert(IsActive(slot));
  const auto s = static_cast<size_t>(slot);
  AdaptQAfterUpdate(*adaptive_, last_nis_[s], obs_dim_, dim_,
                    {nis_ring_.data() + s * ring_size_, &updates_seen_[s],
                     &q_scale_[s], &QAt(slot, 0, 0), /*q_stride=*/kLanes});
  if (!adaptive_->adapt_r) return;
  LoadSlotInto(slot, &ws_.x, &ws_.p);
  ws_.nu.ResizeUninit(obs_dim_);
  std::copy_n(innovation_.data() + s * obs_dim_, obs_dim_,
              ws_.nu.data().data());
  AdaptRAfterUpdate(
      *adaptive_, ws_.nu, model_.h, ws_.p, updates_seen_[s],
      {outer_ring_.data() + s * ring_size_ * obs_dim_ * obs_dim_,
       &RAt(slot, 0, 0), /*r_stride=*/kLanes});
}

double FilterPool::GateSlot(int32_t slot, const Vector& z) {
  assert(IsActive(slot));
  // The innovation gate: nu = z - H x; S = H P H^T + R (with the slot's
  // R), as KalmanFilter::InnovationCovariance forms it; NIS =
  // nu' S^{-1} nu via the Cholesky factor. Read-only: gathers, never
  // scatters.
  LoadSlotInto(slot, &ws_.x, &ws_.p);
  MultiplyInto(model_.h, ws_.x, &ws_.hx);
  SubInto(z, ws_.hx, &ws_.nu);
  SandwichInto(model_.h, ws_.p, &ws_.tmp1, &ws_.s);
  ws_.s += RFor(slot);
  ws_.s.Symmetrize();
  if (!Cholesky::FactorInto(ws_.s, &ws_.l)) return -1.0;
  Cholesky::SolveInto(ws_.l, ws_.nu, &ws_.sinv_nu);
  return ws_.nu.Dot(ws_.sinv_nu);
}

Vector FilterPool::StateOf(int32_t slot) const {
  assert(IsActive(slot));
  Vector x;
  x.ResizeUninit(dim_);
  for (size_t e = 0; e < dim_; ++e) x[e] = XAt(slot, e);
  return x;
}

Matrix FilterPool::CovarianceOf(int32_t slot) const {
  assert(IsActive(slot));
  Matrix p;
  p.ResizeUninit(dim_, dim_);
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = 0; c < dim_; ++c) p(r, c) = PAt(slot, r, c);
  }
  return p;
}

Matrix FilterPool::ProcessNoiseOf(int32_t slot) const {
  assert(IsActive(slot));
  if (!adaptive_) return model_.q;
  Matrix q;
  q.ResizeUninit(dim_, dim_);
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = 0; c < dim_; ++c) q(r, c) = QAt(slot, r, c);
  }
  return q;
}

Matrix FilterPool::MeasurementNoiseOf(int32_t slot) const {
  assert(IsActive(slot));
  if (!adapt_r()) return model_.r;
  Matrix r;
  r.ResizeUninit(obs_dim_, obs_dim_);
  for (size_t i = 0; i < obs_dim_; ++i) {
    for (size_t j = 0; j < obs_dim_; ++j) r(i, j) = RAt(slot, i, j);
  }
  return r;
}

Vector FilterPool::PredictObservationOf(int32_t slot) const {
  assert(IsActive(slot));
  return model_.h * StateOf(slot);
}

std::vector<double> FilterPool::SerializeSlot(int32_t slot) const {
  assert(IsActive(slot));
  std::vector<double> buf;
  buf.reserve(dim_ + dim_ * dim_);
  for (size_t e = 0; e < dim_; ++e) buf.push_back(XAt(slot, e));
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = 0; c < dim_; ++c) buf.push_back(PAt(slot, r, c));
  }
  return buf;
}

Status FilterPool::DeserializeSlot(int32_t slot,
                                   const std::vector<double>& payload) {
  assert(IsActive(slot));
  const size_t n = dim_;
  if (payload.size() != n + n * n) {
    return Status::InvalidArgument("serialized state has wrong size");
  }
  for (size_t e = 0; e < n; ++e) XAt(slot, e) = payload[e];
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) PAt(slot, r, c) = payload[n + r * n + c];
  }
  SymmetrizeSlotCov(slot);
  return Status::Ok();
}

Status FilterPool::OverwriteStateOf(int32_t slot,
                                    const std::vector<double>& payload) {
  assert(IsActive(slot));
  if (payload.size() != dim_) {
    return Status::InvalidArgument("state payload has wrong size");
  }
  for (size_t e = 0; e < dim_; ++e) XAt(slot, e) = payload[e];
  // A KalmanFilter round-trips the unchanged P through DeserializeState,
  // whose final Symmetrize we replicate for exact behavioral equivalence.
  SymmetrizeSlotCov(slot);
  return Status::Ok();
}

// ------------------------------------------------------------- FilterPoolSet

FilterPool* FilterPoolSet::PoolFor(
    const StateSpaceModel& model, KalmanFilter::UpdateForm form,
    const std::optional<AdaptiveConfig>& adaptive) {
  // Linear scan: a deployment has a handful of distinct models, not
  // thousands, and PoolFor runs only at source registration.
  for (auto& pool : pools_) {
    if (pool->Matches(model, form, adaptive)) return pool.get();
  }
  pools_.push_back(std::make_unique<FilterPool>(model, form, adaptive));
  pools_.back()->set_simd(simd_);
  return pools_.back().get();
}

size_t FilterPoolSet::PredictAll() {
  size_t advanced = 0;
  for (auto& pool : pools_) advanced += pool->PredictAll();
  return advanced;
}

size_t FilterPoolSet::num_active() const {
  size_t total = 0;
  for (const auto& pool : pools_) total += pool->num_active();
  return total;
}

void FilterPoolSet::set_simd(bool on) {
  simd_ = on;
  for (auto& pool : pools_) pool->set_simd(on);
}

std::shared_ptr<const KalmanPredictor::Config> FilterPoolSet::InternConfig(
    const KalmanPredictor::Config& config) {
  for (const auto& interned : configs_) {
    const KalmanPredictor::Config& c = *interned;
    if (c.sync_mode == config.sync_mode && c.init_var == config.init_var &&
        c.adaptive == config.adaptive &&
        c.update_form == config.update_form &&
        c.outlier_gate_prob == config.outlier_gate_prob &&
        c.outlier_gate_limit == config.outlier_gate_limit &&
        c.model.f == config.model.f && c.model.q == config.model.q &&
        c.model.h == config.model.h && c.model.r == config.model.r) {
      return interned;
    }
  }
  configs_.push_back(std::make_shared<const KalmanPredictor::Config>(config));
  return configs_.back();
}

}  // namespace kc
