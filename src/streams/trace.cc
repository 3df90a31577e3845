#include "streams/trace.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace kc {

std::vector<Sample> Materialize(StreamGenerator& gen, size_t count,
                                uint64_t seed) {
  gen.Reset(seed);
  std::vector<Sample> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(gen.Next());
  return out;
}

Status SaveTraceCsv(const std::string& path, const std::vector<Sample>& trace) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open for write: " + path);
  size_t dims = trace.empty() ? 1 : trace.front().truth.value.size();
  out << "seq,time";
  for (size_t d = 0; d < dims; ++d) out << ",truth_" << d;
  for (size_t d = 0; d < dims; ++d) out << ",meas_" << d;
  out << "\n";
  out.precision(17);
  for (const Sample& s : trace) {
    out << s.truth.seq << "," << s.truth.time;
    for (size_t d = 0; d < dims; ++d) out << "," << s.truth.value[d];
    for (size_t d = 0; d < dims; ++d) out << "," << s.measured.value[d];
    out << "\n";
  }
  if (!out) return Status::DataLoss("write failed: " + path);
  return Status::Ok();
}

StatusOr<std::vector<Sample>> LoadTraceCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::string line;
  if (!std::getline(in, line)) return Status::DataLoss("empty trace: " + path);

  // Infer dimensionality from the header: columns beyond seq,time split
  // evenly between truth and measurement.
  std::vector<std::string> header = Split(line, ',');
  if (header.size() < 4 || (header.size() - 2) % 2 != 0) {
    return Status::DataLoss("malformed trace header: " + path);
  }
  size_t dims = (header.size() - 2) / 2;

  std::vector<Sample> trace;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    std::vector<std::string> fields = Split(line, ',');
    if (fields.size() != 2 + 2 * dims) {
      return Status::DataLoss(StrFormat("bad field count at line %zu", line_no));
    }
    Sample s;
    auto seq = ParseInt64(fields[0]);
    auto time = ParseDouble(fields[1]);
    if (!seq.ok() || !time.ok()) {
      return Status::DataLoss(StrFormat("bad seq/time at line %zu", line_no));
    }
    // Resampling turns the time span into a sample count; an infinite or
    // NaN timestamp has no such count.
    if (!std::isfinite(*time)) {
      return Status::DataLoss(
          StrFormat("non-finite time at line %zu", line_no));
    }
    s.truth.seq = *seq;
    s.truth.time = *time;
    s.truth.value = Vector(dims);
    s.measured = s.truth;
    for (size_t d = 0; d < dims; ++d) {
      auto tv = ParseDouble(fields[2 + d]);
      auto mv = ParseDouble(fields[2 + dims + d]);
      if (!tv.ok() || !mv.ok()) {
        return Status::DataLoss(StrFormat("bad value at line %zu", line_no));
      }
      s.truth.value[d] = *tv;
      s.measured.value[d] = *mv;
    }
    trace.push_back(std::move(s));
  }
  // A replay needs at least one sample to stand for the stream.
  if (trace.empty()) return Status::DataLoss("trace has no samples: " + path);
  return trace;
}

ReplayGenerator::ReplayGenerator(std::vector<Sample> trace, std::string name)
    : trace_(std::move(trace)), name_(std::move(name)) {
  assert(!trace_.empty());
}

Sample ReplayGenerator::Next() {
  if (pos_ < trace_.size()) return trace_[pos_++];
  return trace_.back();
}

void ReplayGenerator::Reset(uint64_t /*seed*/) { pos_ = 0; }

size_t ReplayGenerator::dims() const {
  return trace_.front().truth.value.size();
}

std::unique_ptr<StreamGenerator> ReplayGenerator::Clone() const {
  return std::make_unique<ReplayGenerator>(trace_, name_);
}

}  // namespace kc
