#include "streams/trace.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "streams/generators.h"
#include "streams/noise.h"

namespace kc {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(MaterializeTest, CountAndDeterminism) {
  RandomWalkGenerator gen(RandomWalkGenerator::Config{});
  auto a = Materialize(gen, 100, 42);
  auto b = Materialize(gen, 100, 42);
  ASSERT_EQ(a.size(), 100u);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].truth.value == b[i].truth.value);
  }
}

TEST(TraceCsvTest, RoundTripScalar) {
  NoiseConfig noise;
  noise.gaussian_sigma = 0.5;
  NoisyStream gen(
      std::make_unique<RandomWalkGenerator>(RandomWalkGenerator::Config{}),
      noise);
  auto trace = Materialize(gen, 64, 7);
  std::string path = TempPath("scalar_trace.csv");
  ASSERT_TRUE(SaveTraceCsv(path, trace).ok());

  auto loaded = LoadTraceCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ((*loaded)[i].truth.seq, trace[i].truth.seq);
    EXPECT_DOUBLE_EQ((*loaded)[i].truth.time, trace[i].truth.time);
    EXPECT_DOUBLE_EQ((*loaded)[i].truth.scalar(), trace[i].truth.scalar());
    EXPECT_DOUBLE_EQ((*loaded)[i].measured.scalar(), trace[i].measured.scalar());
  }
  std::remove(path.c_str());
}

TEST(TraceCsvTest, RoundTripPlanar) {
  Vehicle2DGenerator gen(Vehicle2DGenerator::Config{});
  auto trace = Materialize(gen, 32, 3);
  std::string path = TempPath("planar_trace.csv");
  ASSERT_TRUE(SaveTraceCsv(path, trace).ok());
  auto loaded = LoadTraceCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 32u);
  EXPECT_EQ((*loaded)[0].truth.value.size(), 2u);
  EXPECT_DOUBLE_EQ((*loaded)[10].truth.value[1], trace[10].truth.value[1]);
  std::remove(path.c_str());
}

TEST(TraceCsvTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(LoadTraceCsv(TempPath("does_not_exist.csv")).ok());
}

TEST(TraceCsvTest, LoadRejectsMalformedHeader) {
  std::string path = TempPath("bad_header.csv");
  {
    std::ofstream out(path);
    out << "seq,time,only_one_value\n";
  }
  EXPECT_FALSE(LoadTraceCsv(path).ok());
  std::remove(path.c_str());
}

TEST(TraceCsvTest, LoadRejectsBadRow) {
  std::string path = TempPath("bad_row.csv");
  {
    std::ofstream out(path);
    out << "seq,time,truth_0,meas_0\n";
    out << "0,0.0,1.0\n";  // Missing a field.
  }
  EXPECT_FALSE(LoadTraceCsv(path).ok());
  std::remove(path.c_str());
}

TEST(TraceCsvTest, LoadRejectsNonNumeric) {
  std::string path = TempPath("bad_value.csv");
  {
    std::ofstream out(path);
    out << "seq,time,truth_0,meas_0\n";
    out << "0,0.0,abc,1.0\n";
  }
  EXPECT_FALSE(LoadTraceCsv(path).ok());
  std::remove(path.c_str());
}

TEST(TraceCsvTest, LoadRejectsHeaderOnly) {
  // A replay of zero samples has no stream to stand for.
  std::string path = TempPath("header_only.csv");
  {
    std::ofstream out(path);
    out << "seq,time,truth_0,meas_0\n";
  }
  auto loaded = LoadTraceCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(TraceCsvTest, LoadRejectsNonFiniteTime) {
  std::string path = TempPath("inf_time.csv");
  for (const char* time : {"inf", "-inf", "nan"}) {
    {
      std::ofstream out(path);
      out << "seq,time,truth_0,meas_0\n";
      out << "0,0.0,1.0,1.0\n";
      out << "1," << time << ",2.0,2.0\n";
    }
    auto loaded = LoadTraceCsv(path);
    ASSERT_FALSE(loaded.ok()) << time;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << time;
  }
  std::remove(path.c_str());
}

TEST(ReplayGeneratorTest, ReplaysExactly) {
  RandomWalkGenerator gen(RandomWalkGenerator::Config{});
  auto trace = Materialize(gen, 50, 5);
  ReplayGenerator replay(trace, "walk_replay");
  EXPECT_EQ(replay.name(), "walk_replay");
  EXPECT_EQ(replay.size(), 50u);
  replay.Reset(0);
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(replay.Next().truth.value == trace[i].truth.value);
  }
}

TEST(ReplayGeneratorTest, ClampsAtEnd) {
  RandomWalkGenerator gen(RandomWalkGenerator::Config{});
  auto trace = Materialize(gen, 5, 5);
  ReplayGenerator replay(trace, "short");
  replay.Reset(0);
  for (int i = 0; i < 5; ++i) replay.Next();
  EXPECT_TRUE(replay.exhausted());
  EXPECT_TRUE(replay.Next().truth.value == trace.back().truth.value);
}

TEST(ReplayGeneratorTest, ResetRewinds) {
  RandomWalkGenerator gen(RandomWalkGenerator::Config{});
  auto trace = Materialize(gen, 10, 5);
  ReplayGenerator replay(trace, "rewind");
  replay.Reset(0);
  double first = replay.Next().truth.scalar();
  replay.Next();
  replay.Reset(123);  // Seed ignored for replays.
  EXPECT_DOUBLE_EQ(replay.Next().truth.scalar(), first);
}

TEST(ReplayGeneratorTest, DimsFromTrace) {
  Vehicle2DGenerator gen(Vehicle2DGenerator::Config{});
  ReplayGenerator replay(Materialize(gen, 4, 1), "veh");
  EXPECT_EQ(replay.dims(), 2u);
}

}  // namespace
}  // namespace kc
