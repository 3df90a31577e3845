#ifndef KALMANCAST_STREAMS_TRACE_H_
#define KALMANCAST_STREAMS_TRACE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "streams/generator.h"

namespace kc {

/// Materializes `count` samples from a generator (which is Reset(seed)
/// first) into a trace.
std::vector<Sample> Materialize(StreamGenerator& gen, size_t count,
                                uint64_t seed);

/// Writes a trace as CSV: header then one row per sample
/// (seq,time,truth_0..truth_{d-1},meas_0..meas_{d-1}).
Status SaveTraceCsv(const std::string& path, const std::vector<Sample>& trace);

/// Reads a trace written by SaveTraceCsv (or any CSV with the same layout,
/// which is how real-world traces are dropped into the benchmark suite).
/// DataLoss for a trace with no samples or a non-finite time.
StatusOr<std::vector<Sample>> LoadTraceCsv(const std::string& path);

/// Generator that replays a materialized trace. Next() past the end clamps
/// to the final sample (streams never "run out" mid-experiment); Reset
/// rewinds to the start (the seed is ignored — traces are already fixed).
class ReplayGenerator : public StreamGenerator {
 public:
  ReplayGenerator(std::vector<Sample> trace, std::string name);

  Sample Next() override;
  void Reset(uint64_t seed) override;
  size_t dims() const override;
  std::string name() const override { return name_; }
  std::unique_ptr<StreamGenerator> Clone() const override;

  size_t size() const { return trace_.size(); }
  bool exhausted() const { return pos_ >= trace_.size(); }

 private:
  std::vector<Sample> trace_;
  std::string name_;
  size_t pos_ = 0;
};

}  // namespace kc

#endif  // KALMANCAST_STREAMS_TRACE_H_
