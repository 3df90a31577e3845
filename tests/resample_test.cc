#include "streams/resample.h"

#include <gtest/gtest.h>

#include "streams/generators.h"
#include "streams/trace.h"

namespace kc {
namespace {

Sample At(double time, double truth, double measured) {
  Sample s;
  s.truth.time = time;
  s.truth.value = Vector{truth};
  s.measured.time = time;
  s.measured.value = Vector{measured};
  return s;
}

TEST(ResampleTest, ValidatesInputs) {
  EXPECT_FALSE(ResampleTrace({}, 1.0).ok());
  EXPECT_FALSE(ResampleTrace({At(0, 1, 1)}, 1.0).ok());
  EXPECT_FALSE(ResampleTrace({At(0, 1, 1), At(1, 2, 2)}, 0.0).ok());
  EXPECT_FALSE(ResampleTrace({At(1, 1, 1), At(1, 2, 2)}, 1.0).ok());
  EXPECT_FALSE(ResampleTrace({At(2, 1, 1), At(1, 2, 2)}, 1.0).ok());
}

TEST(ResampleTest, RejectsGridBeyondCap) {
  // A ~3000 s trace: dt = 1e-300 makes the point count overflow to inf
  // (once truncated to a single sample), and dt = 1e-6 asks for 3e9
  // samples (once an out-of-memory abort).
  std::vector<Sample> trace = {At(0.0, 0.0, 0.0), At(1500.0, 1.0, 1.0),
                               At(2999.0, 2.0, 2.0)};
  auto overflow = ResampleTrace(trace, 1e-300);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  auto huge = ResampleTrace(trace, 1e-6);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
  // The cap itself: a span of kMaxResampleGridPoints steps would need one
  // point more than allowed.
  std::vector<Sample> span = {At(0.0, 0.0, 0.0),
                              At(kMaxResampleGridPoints, 1.0, 1.0)};
  EXPECT_FALSE(ResampleTrace(span, 1.0).ok());
}

TEST(ResampleTest, InterpolatesLinearly) {
  std::vector<Sample> trace = {At(0.0, 0.0, 10.0), At(4.0, 8.0, 18.0)};
  auto out = ResampleTrace(trace, 1.0);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 5u);
  for (size_t k = 0; k < 5; ++k) {
    EXPECT_EQ((*out)[k].truth.seq, static_cast<int64_t>(k));
    EXPECT_DOUBLE_EQ((*out)[k].truth.time, static_cast<double>(k));
    EXPECT_DOUBLE_EQ((*out)[k].truth.scalar(), 2.0 * static_cast<double>(k));
    EXPECT_DOUBLE_EQ((*out)[k].measured.scalar(),
                     10.0 + 2.0 * static_cast<double>(k));
  }
}

TEST(ResampleTest, HandlesIrregularInput) {
  std::vector<Sample> trace = {At(0.0, 0.0, 0.0), At(0.7, 7.0, 7.0),
                               At(3.1, 31.0, 31.0), At(3.3, 33.0, 33.0)};
  auto out = ResampleTrace(trace, 1.0);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);  // t = 0, 1, 2, 3.
  // The underlying signal is value = 10*t throughout.
  for (size_t k = 0; k < out->size(); ++k) {
    EXPECT_NEAR((*out)[k].truth.scalar(), 10.0 * static_cast<double>(k), 1e-9);
  }
}

TEST(ResampleTest, UpsamplesAndDownsamples) {
  std::vector<Sample> trace = {At(0.0, 0.0, 0.0), At(10.0, 10.0, 10.0)};
  auto up = ResampleTrace(trace, 0.5);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up->size(), 21u);
  auto down = ResampleTrace(trace, 5.0);
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down->size(), 3u);
  EXPECT_DOUBLE_EQ((*down)[1].truth.scalar(), 5.0);
}

TEST(ResampleTest, MultiDimensional) {
  Sample a;
  a.truth.time = 0.0;
  a.truth.value = Vector{0.0, 100.0};
  a.measured = a.truth;
  Sample b;
  b.truth.time = 2.0;
  b.truth.value = Vector{2.0, 104.0};
  b.measured = b.truth;
  auto out = ResampleTrace({a, b}, 1.0);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_DOUBLE_EQ((*out)[1].truth.value[0], 1.0);
  EXPECT_DOUBLE_EQ((*out)[1].truth.value[1], 102.0);
}

TEST(DropNonMonotonicTest, RemovesBackwardsAndDuplicateTimes) {
  std::vector<Sample> trace = {At(0, 1, 1), At(1, 2, 2), At(1, 3, 3),
                               At(0.5, 4, 4), At(2, 5, 5)};
  size_t dropped = 0;
  auto cleaned = DropNonMonotonic(trace, &dropped);
  EXPECT_EQ(dropped, 2u);
  ASSERT_EQ(cleaned.size(), 3u);
  EXPECT_DOUBLE_EQ(cleaned[2].truth.time, 2.0);
  EXPECT_DOUBLE_EQ(cleaned[2].truth.scalar(), 5.0);
}

TEST(DropNonMonotonicTest, CleanInputUntouched) {
  std::vector<Sample> trace = {At(0, 1, 1), At(1, 2, 2)};
  size_t dropped = 9;
  auto cleaned = DropNonMonotonic(trace, &dropped);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(cleaned.size(), 2u);
}

TEST(ResampleTest, EndToEndWithReplay) {
  // Clean + resample + replay: the adoption pipeline for real exports.
  std::vector<Sample> messy = {At(0.0, 0.0, 0.1), At(0.9, 9.0, 9.2),
                               At(0.9, 9.5, 9.5), At(2.2, 22.0, 21.8),
                               At(3.0, 30.0, 30.1)};
  auto cleaned = DropNonMonotonic(messy);
  auto uniform = ResampleTrace(cleaned, 1.0);
  ASSERT_TRUE(uniform.ok());
  ReplayGenerator replay(*uniform, "cleaned");
  replay.Reset(0);
  Sample first = replay.Next();
  EXPECT_DOUBLE_EQ(first.truth.time, 0.0);
  EXPECT_EQ(replay.dims(), 1u);
}

}  // namespace
}  // namespace kc
