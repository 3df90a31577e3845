#include "obs/snapshot.h"

#include <cstring>

namespace kc {
namespace obs {

namespace {

constexpr uint8_t kSnapshotMagic = 0x4B;  // 'K'
constexpr uint8_t kSnapshotVersion = 0x01;
constexpr uint8_t kFlagWallClock = 0x01;
constexpr size_t kMaxVarintBytes = 10;

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> (sizeof(int64_t) * 8 - 1));
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void AppendVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

void AppendSignedVarint(int64_t v, std::vector<uint8_t>* out) {
  AppendVarint(ZigZag(v), out);
}

void AppendDoubleLe(double v, std::vector<uint8_t>* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "64-bit doubles required");
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

void AppendString(const std::string& s, std::vector<uint8_t>* out) {
  // The decode-side cap is a hard contract; truncate at the source so a
  // pathological summary string cannot produce an undecodable snapshot.
  size_t n = s.size() < kMaxSnapshotStringBytes ? s.size()
                                                : kMaxSnapshotStringBytes;
  AppendVarint(n, out);
  out->insert(out->end(), s.begin(), s.begin() + static_cast<ptrdiff_t>(n));
}

/// Hardened cursor over untrusted bytes. Every Read* reports kOutOfRange
/// when the buffer ends mid-field and kInvalidArgument on structural
/// garbage, mirroring net/codec.cc.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t off = 0;

  Status ReadByte(uint8_t* out) {
    if (off >= size) return Status::OutOfRange("snapshot truncated");
    *out = data[off++];
    return Status::Ok();
  }

  Status ReadVarint(uint64_t* out) {
    uint64_t value = 0;
    size_t shift = 0;
    size_t start = off;
    while (true) {
      if (off >= size) return Status::OutOfRange("snapshot truncated");
      if (off - start >= kMaxVarintBytes) {
        return Status::InvalidArgument("snapshot varint too long");
      }
      uint8_t byte = data[off++];
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    // Canonical-form check: one value, one encoding (a padded varint is
    // forgery or corruption, never this encoder's output).
    if (off - start != VarintSize(value)) {
      return Status::InvalidArgument("non-canonical snapshot varint");
    }
    *out = value;
    return Status::Ok();
  }

  Status ReadSignedVarint(int64_t* out) {
    uint64_t raw = 0;
    KC_RETURN_IF_ERROR(ReadVarint(&raw));
    *out = UnZigZag(raw);
    return Status::Ok();
  }

  Status ReadDoubleLe(double* out) {
    if (size - off < 8 || off > size) {
      return Status::OutOfRange("snapshot truncated");
    }
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(data[off + static_cast<size_t>(i)])
              << (8 * i);
    }
    off += 8;
    std::memcpy(out, &bits, sizeof(*out));
    return Status::Ok();
  }

  Status ReadString(std::string* out) {
    uint64_t len = 0;
    KC_RETURN_IF_ERROR(ReadVarint(&len));
    if (len > kMaxSnapshotStringBytes) {
      return Status::InvalidArgument("snapshot string too long");
    }
    if (size - off < len) return Status::OutOfRange("snapshot truncated");
    out->assign(reinterpret_cast<const char*>(data + off),
                static_cast<size_t>(len));
    off += static_cast<size_t>(len);
    return Status::Ok();
  }
};

void AppendRow(const MetricRow& row, std::vector<uint8_t>* out) {
  AppendString(row.name, out);
  out->push_back(static_cast<uint8_t>(row.kind));
  out->push_back(row.wall_clock ? kFlagWallClock : 0);
  switch (row.kind) {
    case MetricKind::kCounter:
      AppendSignedVarint(row.counter, out);
      break;
    case MetricKind::kGauge:
      AppendDoubleLe(row.gauge, out);
      break;
    case MetricKind::kHistogram: {
      size_t nbounds = row.hist_bounds.size() < Buckets::kMaxBounds
                           ? row.hist_bounds.size()
                           : Buckets::kMaxBounds;
      AppendVarint(nbounds, out);
      for (size_t i = 0; i < nbounds; ++i) {
        AppendDoubleLe(row.hist_bounds[i], out);
      }
      // Exactly nbounds + 1 counts (overflow last); a short source row
      // pads with zeros so the wire shape is always self-consistent.
      for (size_t i = 0; i <= nbounds; ++i) {
        AppendSignedVarint(i < row.hist_counts.size() ? row.hist_counts[i]
                                                      : 0,
                           out);
      }
      AppendDoubleLe(row.hist_sum, out);
      break;
    }
  }
}

Status ReadRow(Reader* r, MetricRow* row) {
  KC_RETURN_IF_ERROR(r->ReadString(&row->name));
  uint8_t kind = 0;
  uint8_t flags = 0;
  KC_RETURN_IF_ERROR(r->ReadByte(&kind));
  KC_RETURN_IF_ERROR(r->ReadByte(&flags));
  if (kind > static_cast<uint8_t>(MetricKind::kHistogram)) {
    return Status::InvalidArgument("unknown snapshot metric kind");
  }
  if ((flags & ~kFlagWallClock) != 0) {
    return Status::InvalidArgument("nonzero reserved snapshot row flags");
  }
  row->kind = static_cast<MetricKind>(kind);
  row->wall_clock = (flags & kFlagWallClock) != 0;
  switch (row->kind) {
    case MetricKind::kCounter:
      KC_RETURN_IF_ERROR(r->ReadSignedVarint(&row->counter));
      break;
    case MetricKind::kGauge:
      KC_RETURN_IF_ERROR(r->ReadDoubleLe(&row->gauge));
      break;
    case MetricKind::kHistogram: {
      uint64_t nbounds = 0;
      KC_RETURN_IF_ERROR(r->ReadVarint(&nbounds));
      if (nbounds > Buckets::kMaxBounds) {
        return Status::InvalidArgument("snapshot histogram too wide");
      }
      row->hist_bounds.resize(static_cast<size_t>(nbounds));
      for (double& b : row->hist_bounds) {
        KC_RETURN_IF_ERROR(r->ReadDoubleLe(&b));
      }
      row->hist_counts.resize(static_cast<size_t>(nbounds) + 1);
      row->hist_count = 0;
      for (int64_t& c : row->hist_counts) {
        KC_RETURN_IF_ERROR(r->ReadSignedVarint(&c));
        row->hist_count += c;
      }
      KC_RETURN_IF_ERROR(r->ReadDoubleLe(&row->hist_sum));
      break;
    }
  }
  return Status::Ok();
}

}  // namespace

void EncodeSnapshot(const TelemetrySnapshot& snapshot,
                    std::vector<uint8_t>* out) {
  out->push_back(kSnapshotMagic);
  out->push_back(kSnapshotVersion);
  AppendSignedVarint(snapshot.tick, out);
  AppendSignedVarint(snapshot.clock_offset_ns, out);
  AppendSignedVarint(snapshot.clock_uncertainty_ns, out);
  AppendString(snapshot.health_summary, out);
  AppendString(snapshot.audit_summary, out);

  size_t nrows = snapshot.rows.size() < kMaxSnapshotRows ? snapshot.rows.size()
                                                         : kMaxSnapshotRows;
  AppendVarint(nrows, out);
  for (size_t i = 0; i < nrows; ++i) AppendRow(snapshot.rows[i], out);

  size_t nevents = snapshot.trace_events.size() < kMaxSnapshotEvents
                       ? snapshot.trace_events.size()
                       : kMaxSnapshotEvents;
  AppendVarint(nevents, out);
  for (size_t i = 0; i < nevents; ++i) {
    const SnapshotTraceEvent& e = snapshot.trace_events[i];
    AppendString(e.name, out);
    AppendSignedVarint(e.start_ns, out);
    AppendSignedVarint(e.duration_ns, out);
    AppendVarint(e.flow_id, out);
    AppendVarint(e.depth, out);
    AppendVarint(e.thread_index, out);
  }

  size_t nsends = snapshot.send_log.size() < kMaxSnapshotSends
                      ? snapshot.send_log.size()
                      : kMaxSnapshotSends;
  AppendVarint(nsends, out);
  for (size_t i = 0; i < nsends; ++i) {
    const WireSendRecord& s = snapshot.send_log[i];
    AppendVarint(s.flow_id, out);
    out->push_back(s.type);
    AppendSignedVarint(s.send_ns, out);
  }
}

Status DecodeSnapshot(const uint8_t* data, size_t size,
                      TelemetrySnapshot* out) {
  *out = TelemetrySnapshot();
  Reader r{data, size};
  uint8_t magic = 0;
  uint8_t version = 0;
  KC_RETURN_IF_ERROR(r.ReadByte(&magic));
  KC_RETURN_IF_ERROR(r.ReadByte(&version));
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("bad snapshot magic");
  }
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  KC_RETURN_IF_ERROR(r.ReadSignedVarint(&out->tick));
  KC_RETURN_IF_ERROR(r.ReadSignedVarint(&out->clock_offset_ns));
  KC_RETURN_IF_ERROR(r.ReadSignedVarint(&out->clock_uncertainty_ns));
  KC_RETURN_IF_ERROR(r.ReadString(&out->health_summary));
  KC_RETURN_IF_ERROR(r.ReadString(&out->audit_summary));

  uint64_t nrows = 0;
  KC_RETURN_IF_ERROR(r.ReadVarint(&nrows));
  if (nrows > kMaxSnapshotRows) {
    return Status::InvalidArgument("snapshot declares too many rows");
  }
  out->rows.resize(static_cast<size_t>(nrows));
  for (MetricRow& row : out->rows) {
    KC_RETURN_IF_ERROR(ReadRow(&r, &row));
  }

  uint64_t nevents = 0;
  KC_RETURN_IF_ERROR(r.ReadVarint(&nevents));
  if (nevents > kMaxSnapshotEvents) {
    return Status::InvalidArgument("snapshot declares too many trace events");
  }
  out->trace_events.resize(static_cast<size_t>(nevents));
  for (SnapshotTraceEvent& e : out->trace_events) {
    KC_RETURN_IF_ERROR(r.ReadString(&e.name));
    KC_RETURN_IF_ERROR(r.ReadSignedVarint(&e.start_ns));
    KC_RETURN_IF_ERROR(r.ReadSignedVarint(&e.duration_ns));
    uint64_t raw = 0;
    KC_RETURN_IF_ERROR(r.ReadVarint(&e.flow_id));
    KC_RETURN_IF_ERROR(r.ReadVarint(&raw));
    e.depth = static_cast<uint32_t>(raw);
    KC_RETURN_IF_ERROR(r.ReadVarint(&raw));
    e.thread_index = static_cast<uint32_t>(raw);
  }

  uint64_t nsends = 0;
  KC_RETURN_IF_ERROR(r.ReadVarint(&nsends));
  if (nsends > kMaxSnapshotSends) {
    return Status::InvalidArgument("snapshot declares too many send records");
  }
  out->send_log.resize(static_cast<size_t>(nsends));
  for (WireSendRecord& s : out->send_log) {
    KC_RETURN_IF_ERROR(r.ReadVarint(&s.flow_id));
    KC_RETURN_IF_ERROR(r.ReadByte(&s.type));
    KC_RETURN_IF_ERROR(r.ReadSignedVarint(&s.send_ns));
  }

  if (r.off != size) {
    return Status::InvalidArgument("trailing bytes after snapshot");
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace kc
