#include "net/channel.h"

#include <optional>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/strings.h"
#include "obs/trace.h"

namespace kc {

void NetworkStats::Merge(const NetworkStats& other) {
  messages_sent += other.messages_sent;
  messages_delivered += other.messages_delivered;
  messages_dropped += other.messages_dropped;
  bytes_sent += other.bytes_sent;
  bytes_delivered += other.bytes_delivered;
  messages_duplicated += other.messages_duplicated;
  messages_reordered += other.messages_reordered;
  burst_drops += other.burst_drops;
  partition_drops += other.partition_drops;
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    by_type[i] += other.by_type[i];
    by_type_sent[i] += other.by_type_sent[i];
    by_type_dropped[i] += other.by_type_dropped[i];
    by_type_bytes_sent[i] += other.by_type_bytes_sent[i];
    by_type_bytes_delivered[i] += other.by_type_bytes_delivered[i];
  }
}

std::string NetworkStats::ToString() const {
  std::ostringstream os;
  os << "sent=" << messages_sent << " delivered=" << messages_delivered
     << " dropped=" << messages_dropped << " bytes_sent=" << bytes_sent
     << " bytes_delivered=" << bytes_delivered << " by_type=[";
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    if (i > 0) os << " ";
    // sent/delivered/dropped per kind; sent - delivered - dropped is the
    // count still in flight on a latency channel.
    os << MessageTypeName(static_cast<MessageType>(i)) << ":"
       << by_type_sent[i] << "/" << by_type[i] << "/" << by_type_dropped[i];
  }
  os << "] bytes_by_type=[";
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    if (i > 0) os << " ";
    // sent/delivered bytes per kind, charged from the same encoded-frame
    // size model on every backend.
    os << MessageTypeName(static_cast<MessageType>(i)) << ":"
       << by_type_bytes_sent[i] << "/" << by_type_bytes_delivered[i];
  }
  os << "]";
  if (messages_duplicated > 0 || messages_reordered > 0 || burst_drops > 0 ||
      partition_drops > 0) {
    os << " faults=[dup=" << messages_duplicated
       << " reorder=" << messages_reordered << " burst_drop=" << burst_drops
       << " partition_drop=" << partition_drops << "]";
  }
  return os.str();
}

namespace {

std::string BooksLine(const char* verb, int64_t messages, int64_t bytes,
                      const int64_t counts[], const int64_t byte_counts[]) {
  std::ostringstream os;
  os << verb << "=" << messages << " bytes=" << bytes << " by_type=[";
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    if (i > 0) os << " ";
    os << MessageTypeName(static_cast<MessageType>(i)) << ":" << counts[i]
       << "/" << byte_counts[i];
  }
  os << "]";
  return os.str();
}

}  // namespace

std::string NetworkStats::SentLine() const {
  return BooksLine("sent", messages_sent, bytes_sent, by_type_sent,
                   by_type_bytes_sent);
}

std::string NetworkStats::DeliveredLine() const {
  return BooksLine("delivered", messages_delivered, bytes_delivered, by_type,
                   by_type_bytes_delivered);
}

/// Arena counter handles and the books they mirror.
struct Channel::Book {
  /// Cached at bind time so the hot path performs no registry lookups.
  struct Metrics {
    obs::Counter* messages_sent = nullptr;
    obs::Counter* messages_delivered = nullptr;
    obs::Counter* messages_dropped = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* bytes_delivered = nullptr;
    obs::Counter* sent_by_type[kNumMessageTypes] = {};
    obs::Counter* delivered_by_type[kNumMessageTypes] = {};
    obs::Counter* dropped_by_type[kNumMessageTypes] = {};
    obs::Counter* bytes_sent_by_type[kNumMessageTypes] = {};
    obs::Counter* bytes_delivered_by_type[kNumMessageTypes] = {};
    /// kc.net.faults.* — registered only when faults are configured, the
    /// only links on which fault events happen.
    obs::Counter* duplicates = nullptr;
    obs::Counter* reorders = nullptr;
    obs::Counter* burst_drops = nullptr;
    obs::Counter* partition_drops = nullptr;
  };

  /// Counts one fault event in `stat` and its kc.net.faults.* mirror.
  void CountFault(int64_t NetworkStats::*stat, obs::Counter* Metrics::*mirror) {
    ++(stats.*stat);
    if (metrics != nullptr) (metrics.get()->*mirror)->Inc();
  }

  NetworkStats stats;
  std::unique_ptr<Metrics> metrics;  ///< Null until BindMetrics.
};

namespace {

/// True if a send can consume randomness or be partitioned: the only
/// configs that need a per-source draw stream.
bool CanDraw(const Channel::Config& c) {
  return c.loss_prob > 0.0 || c.faults.any_enabled();
}

/// One source's draw stream: its loss and fault dice, and the link tick
/// at which its own clock started (partition windows are scheduled on
/// the source's ticks).
struct Lane {
  Rng rng;
  int64_t start;
  bool in_burst = false;  ///< Gilbert–Elliott chain state.
};

}  // namespace

/// Everything a link needs only when it can draw or delay.
struct Channel::DrawState {
  struct Pending {
    int64_t due_tick;
    const Lane* lane;  ///< Null on a link that cannot draw.
    Message msg;
  };

  explicit DrawState(const Config& c) : config(c) {
    if (CanDraw(config)) own.emplace(Rng(config.seed), 0);
  }

  /// The stream `source_id`'s messages draw from; null when the config
  /// cannot draw.
  Lane* LaneFor(int32_t source_id) {
    auto it = lanes.find(source_id);
    if (it != lanes.end()) return &it->second;
    return own.has_value() ? &*own : nullptr;
  }
  /// True if `lane`'s source is inside a partition window now.
  bool Partitioned(const Lane* lane) const {
    return lane != nullptr && config.faults.InPartition(now - lane->start);
  }

  Config config;
  int64_t now = 0;
  std::optional<Lane> own;
  std::unordered_map<int32_t, Lane> lanes;  ///< Sources sharing the link.
  std::vector<Pending> pending;             ///< In send order.
  std::vector<Message> due;                 ///< DeliverDue scratch.
};

Channel::Channel() : Channel(Config()) {}

Channel::Channel(Config config) {
  if (CanDraw(config) || config.latency_ticks > 0) {
    draw_ = std::make_unique<DrawState>(config);
  }
}

Channel::~Channel() = default;

void Channel::AddSource(int32_t source_id, uint64_t seed) {
  if (draw_ == nullptr || !CanDraw(draw_->config)) return;
  draw_->lanes.try_emplace(source_id, Rng(seed), draw_->now);
}

size_t Channel::in_flight() const {
  return draw_ != nullptr ? draw_->pending.size() : 0;
}

const NetworkStats& Channel::stats() const {
  static const NetworkStats kNoTraffic;
  return book_ != nullptr ? book_->stats : kNoTraffic;
}

void Channel::ResetStats() {
  if (book_ != nullptr) book_->stats.Reset();
}

Channel::Book& Channel::book() {
  if (book_ == nullptr) book_ = std::make_unique<Book>();
  return *book_;
}

void Channel::BindMetrics(obs::MetricRegistry* registry) {
  if (registry == nullptr) {
    if (book_ != nullptr) book_->metrics.reset();
    return;
  }
  auto m = std::make_unique<Book::Metrics>();
  m->messages_sent = registry->GetCounter("kc.net.messages_sent");
  m->messages_delivered = registry->GetCounter("kc.net.messages_delivered");
  m->messages_dropped = registry->GetCounter("kc.net.messages_dropped");
  m->bytes_sent = registry->GetCounter("kc.net.bytes_sent");
  m->bytes_delivered = registry->GetCounter("kc.net.bytes_delivered");
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    const char* type = MessageTypeName(static_cast<MessageType>(i));
    m->sent_by_type[i] =
        registry->GetCounter(StrFormat("kc.net.sent.%s", type));
    m->delivered_by_type[i] =
        registry->GetCounter(StrFormat("kc.net.delivered.%s", type));
    m->dropped_by_type[i] =
        registry->GetCounter(StrFormat("kc.net.dropped.%s", type));
    m->bytes_sent_by_type[i] =
        registry->GetCounter(StrFormat("kc.net.bytes_sent.%s", type));
    m->bytes_delivered_by_type[i] =
        registry->GetCounter(StrFormat("kc.net.bytes_delivered.%s", type));
  }
  if (draw_ != nullptr && draw_->config.faults.any_enabled()) {
    // Registered only on channels with a fault model, so fault-free
    // deployments export exactly the pre-fault metric inventory.
    m->duplicates = registry->GetCounter("kc.net.faults.duplicates");
    m->reorders = registry->GetCounter("kc.net.faults.reorders");
    m->burst_drops = registry->GetCounter("kc.net.faults.burst_drops");
    m->partition_drops = registry->GetCounter("kc.net.faults.partition_drops");
  }
  book().metrics = std::move(m);
}

void Channel::ChargeDrop(size_t type) {
  Book& b = book();
  ++b.stats.messages_dropped;
  ++b.stats.by_type_dropped[type];
  if (b.metrics != nullptr) {
    b.metrics->messages_dropped->Inc();
    b.metrics->dropped_by_type[type]->Inc();
  }
}

void Channel::AccountSend(const Message& msg) {
  Book& b = book();
  size_t type = static_cast<size_t>(msg.type);
  int64_t bytes = static_cast<int64_t>(msg.SizeBytes());
  ++b.stats.messages_sent;
  b.stats.bytes_sent += bytes;
  ++b.stats.by_type_sent[type];
  b.stats.by_type_bytes_sent[type] += bytes;
  if (b.metrics != nullptr) {
    b.metrics->messages_sent->Inc();
    b.metrics->bytes_sent->Inc(bytes);
    b.metrics->sent_by_type[type]->Inc();
    b.metrics->bytes_sent_by_type[type]->Inc(bytes);
  }
}

void Channel::AccountDrop(const Message& msg) {
  ChargeDrop(static_cast<size_t>(msg.type));
}

Status Channel::Send(const Message& msg) {
  KC_TRACE_SCOPE("net.send");
  if (!receiver_) {
    return Status::FailedPrecondition("channel has no receiver");
  }
  AccountSend(msg);
  if (draw_ == nullptr) {
    Deliver(msg);
    return Status::Ok();
  }
  DrawState& d = *draw_;
  Book& b = *book_;
  size_t type = static_cast<size_t>(msg.type);
  Lane* lane = d.LaneFor(msg.source_id);
  SendFaults faults;
  if (lane != nullptr) {
    if (d.Partitioned(lane)) {
      // The link is severed: the datagram vanishes. (In-flight messages
      // queued before the window opened are held, not dropped — see
      // AdvanceTick.) No RNG draw: partitions are schedule-driven.
      b.CountFault(&NetworkStats::partition_drops,
                   &Book::Metrics::partition_drops);
      ChargeDrop(type);
      return Status::Ok();
    }
    faults = RollFaults(d.config.faults, lane->rng, &lane->in_burst);
    if (faults.burst_drop) {
      b.CountFault(&NetworkStats::burst_drops, &Book::Metrics::burst_drops);
      ChargeDrop(type);
      return Status::Ok();
    }
    if (d.config.loss_prob > 0.0 && lane->rng.Bernoulli(d.config.loss_prob)) {
      ChargeDrop(type);
      return Status::Ok();  // Silently lost, as on a real datagram link.
    }
  }
  if (faults.duplicate) {
    b.CountFault(&NetworkStats::messages_duplicated,
                 &Book::Metrics::duplicates);
  }
  if (faults.extra_delay > 0) {
    b.CountFault(&NetworkStats::messages_reordered, &Book::Metrics::reorders);
  }
  int64_t delay = d.config.latency_ticks + faults.extra_delay;
  int copies = faults.duplicate ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    if (delay > 0) {
      d.pending.push_back({d.now + delay, lane, msg});
    } else {
      Deliver(msg);
    }
  }
  return Status::Ok();
}

void Channel::AdvanceTick() {
  if (draw_ == nullptr) return;
  ++draw_->now;
  DeliverDue();
}

void Channel::DeliverDue() {
  DrawState& d = *draw_;
  if (d.pending.empty()) return;
  // With reordering, due ticks are not monotone along the queue, and a
  // partitioned source's due messages are held until its window closes:
  // collect every deliverable message in send order (stable), keep the
  // rest. Delivery happens after the scan so a receiver that triggers
  // further sends never sees a half-updated queue.
  std::vector<Message> due;
  due.swap(d.due);
  size_t kept = 0;
  for (size_t i = 0; i < d.pending.size(); ++i) {
    DrawState::Pending& p = d.pending[i];
    if (p.due_tick <= d.now && !d.Partitioned(p.lane)) {
      due.push_back(std::move(p.msg));
    } else {
      if (kept != i) d.pending[kept] = std::move(p);
      ++kept;
    }
  }
  d.pending.erase(d.pending.begin() + static_cast<std::ptrdiff_t>(kept),
                  d.pending.end());
  for (const Message& msg : due) Deliver(msg);
  due.clear();
  d.due.swap(due);
}

void Channel::Deliver(const Message& msg) {
  Book& b = book();
  size_t type = static_cast<size_t>(msg.type);
  int64_t bytes = static_cast<int64_t>(msg.SizeBytes());
  ++b.stats.messages_delivered;
  b.stats.bytes_delivered += bytes;
  ++b.stats.by_type[type];
  b.stats.by_type_bytes_delivered[type] += bytes;
  if (b.metrics != nullptr) {
    b.metrics->messages_delivered->Inc();
    b.metrics->bytes_delivered->Inc(bytes);
    b.metrics->delivered_by_type[type]->Inc();
    b.metrics->bytes_delivered_by_type[type]->Inc(bytes);
  }
  if (receiver_) receiver_(msg);
}

}  // namespace kc
