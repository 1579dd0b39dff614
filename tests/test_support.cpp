// Unit tests for the support layer: RNG determinism, statistics,
// serialization round-trips and golden bytes, whole-file reads,
// create-once file publication, and the ring log.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "support/fs_atomic.h"
#include "support/result.h"
#include "support/ring_log.h"
#include "support/rng.h"
#include "support/serialize.h"
#include "support/stats.h"

namespace iris {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.range(3, 6);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedPickRespectsWeights) {
  Rng rng(17);
  const std::array<double, 3> weights = {0.0, 1.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.weighted_pick(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  EXPECT_NE(parent.next(), child.next());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 0.001);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 2, 3}), 2.5);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
}

TEST(Stats, BoxplotSummary) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto box = boxplot(xs);
  EXPECT_DOUBLE_EQ(box.min, 1.0);
  EXPECT_DOUBLE_EQ(box.median, 5.0);
  EXPECT_DOUBLE_EQ(box.max, 9.0);
  EXPECT_EQ(box.n, 9u);
  EXPECT_GT(box.q3, box.q1);
}

TEST(Stats, PercentageFit) {
  EXPECT_DOUBLE_EQ(percentage_fit(92.1, 100.0), 92.1);
  EXPECT_DOUBLE_EQ(percentage_fit(0.0, 100.0), 0.0);
}

TEST(Stats, PercentageDecrease) {
  EXPECT_NEAR(percentage_decrease(62.61, 0.22), 99.6, 0.1);
  EXPECT_NEAR(percentage_decrease(0.47, 0.27), 42.5, 0.5);
}

TEST(Stats, RankSumDetectsSeparation) {
  std::vector<double> a, b;
  for (int i = 0; i < 15; ++i) {
    a.push_back(1.0 + i * 0.01);
    b.push_back(10.0 + i * 0.01);
  }
  EXPECT_LT(rank_sum_p_value(a, b), 0.05);
}

TEST(Stats, RankSumSameDistributionNotSignificant) {
  std::vector<double> a, b;
  Rng rng(31);
  for (int i = 0; i < 15; ++i) {
    a.push_back(rng.uniform());
    b.push_back(rng.uniform());
  }
  EXPECT_GT(rank_sum_p_value(a, b), 0.05);
}

TEST(Serialize, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0x12345678);
  w.u64(0xDEADBEEFCAFEBABEULL);
  w.str("hello");

  ByteReader r(w.data());
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0xCDEF);
  EXPECT_EQ(r.u32().value(), 0x12345678u);
  EXPECT_EQ(r.u64().value(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x0A0B0C0D);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x0D);
  EXPECT_EQ(w.data()[3], 0x0A);
}

TEST(Serialize, TruncatedReadFails) {
  const std::vector<std::uint8_t> bytes = {1, 2};
  ByteReader r(bytes);
  EXPECT_FALSE(r.u32().ok());
}

TEST(Serialize, WriterGoldenBytes) {
  // The seed-DB wire format: little-endian fixed widths, u32-prefixed
  // strings. Pinned byte for byte so no writer rewrite can drift.
  ByteWriter w;
  w.u16(0xBEEF);
  w.u32(0x01020304);
  w.u64(0x1122334455667788ULL);
  w.str("IRIS");
  w.str("");
  const std::vector<std::uint8_t> golden = {
      0xEF, 0xBE,                                      // u16
      0x04, 0x03, 0x02, 0x01,                          // u32
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64
      0x04, 0x00, 0x00, 0x00, 'I',  'R',  'I',  'S',   // str
      0x00, 0x00, 0x00, 0x00,                          // empty str
  };
  EXPECT_EQ(w.data(), golden);

  // reserve() sizes the buffer without writing anything.
  ByteWriter reserved;
  reserved.reserve(golden.size());
  EXPECT_EQ(reserved.size(), 0u);
  reserved.bytes(golden);
  EXPECT_EQ(reserved.data(), golden);
}

TEST(Serialize, TruncationAtEveryWidthIsErrorOne) {
  // A read one byte short of its width fails with the stream's
  // truncation error, for every primitive and for both halves of str().
  const std::vector<std::uint8_t> bytes(8, 0xAA);
  const std::span<const std::uint8_t> all(bytes);
  const auto expect_truncated = [](const Error& error) {
    EXPECT_EQ(error.code, 1);
    EXPECT_EQ(error.message, "truncated byte stream");
  };
  for (const std::size_t width : {1u, 2u, 4u, 8u}) {
    ByteReader r(all.first(width - 1));
    switch (width) {
      case 1: expect_truncated(r.u8().error()); break;
      case 2: expect_truncated(r.u16().error()); break;
      case 4: expect_truncated(r.u32().error()); break;
      default: expect_truncated(r.u64().error()); break;
    }
  }
  ByteReader short_prefix(all.first(3));
  expect_truncated(short_prefix.str().error());
  const std::vector<std::uint8_t> short_body = {5, 0, 0, 0, 'a', 'b', 'c', 'd'};
  ByteReader body(short_body);
  expect_truncated(body.str().error());
}

TEST(Serialize, Fnv1aIsStable) {
  const std::array<std::uint8_t, 3> data = {'a', 'b', 'c'};
  EXPECT_EQ(fnv1a(data), fnv1a(data));
  const std::array<std::uint8_t, 3> other = {'a', 'b', 'd'};
  EXPECT_NE(fnv1a(data), fnv1a(other));
}

std::filesystem::path support_scratch(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / ("iris-" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ReadFileBytes, ReadsExactBytesOfSmallEmptyAndMultiPageFiles) {
  const auto dir = support_scratch("read-file-bytes");
  std::vector<std::uint8_t> big(3 * 4096 + 17);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 7);
  for (const auto& payload :
       {std::vector<std::uint8_t>{}, std::vector<std::uint8_t>{1, 2, 3}, big}) {
    ASSERT_TRUE(write_file_atomic(dir, "f.bin", payload).ok());
    const auto back = read_file_bytes(dir / "f.bin");
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value(), payload);
  }
}

TEST(ReadFileBytes, MissingFileIsErrorFortyOne) {
  const auto dir = support_scratch("read-file-missing");
  const auto r = read_file_bytes(dir / "absent");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, 41);
  EXPECT_EQ(r.error().sys_errno, ENOENT);
}

TEST(ReadFileBytes, DirectoryIsAnErrorValueNotAnAbort) {
  // A stream read of a directory throws std::ios_base::failure from
  // filebuf::underflow; the reader must return an error value instead.
  const auto dir = support_scratch("read-file-dir");
  const auto r = read_file_bytes(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, 41);
  EXPECT_EQ(r.error().sys_errno, EISDIR);
}

/// Names in `dir` that start with a dot: leftover temp files.
std::vector<std::string> dot_files(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.starts_with(".")) names.push_back(std::move(name));
  }
  return names;
}

TEST(CreateFileAtomic, CreatesAnAbsentFileWhole) {
  const auto dir = support_scratch("create-absent");
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  const auto created = create_file_atomic(dir, "f.bin", payload);
  ASSERT_TRUE(created.ok()) << created.error().message;
  EXPECT_TRUE(created.value());
  EXPECT_EQ(read_file_bytes(dir / "f.bin").value(), payload);
  EXPECT_TRUE(dot_files(dir).empty());
}

TEST(CreateFileAtomic, ReportsAnExistingFileAndLeavesItsBytes) {
  const auto dir = support_scratch("create-existing");
  const std::vector<std::uint8_t> first = {1, 2, 3};
  ASSERT_TRUE(write_file_atomic(dir, "f.bin", first).ok());
  const std::vector<std::uint8_t> second = {9, 9, 9, 9, 9};
  const auto created = create_file_atomic(dir, "f.bin", second);
  ASSERT_TRUE(created.ok()) << created.error().message;
  EXPECT_FALSE(created.value());
  EXPECT_EQ(read_file_bytes(dir / "f.bin").value(), first);
  EXPECT_TRUE(dot_files(dir).empty());
}

TEST(CreateFileAtomic, MissingDirectoryIsAnIoError) {
  const auto dir = support_scratch("create-no-dir");
  const std::vector<std::uint8_t> payload = {1};
  const auto created = create_file_atomic(dir / "absent", "f.bin", payload);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.error().sys_errno, ENOENT);
  EXPECT_TRUE(dot_files(dir).empty());
}

TEST(CreateFileAtomic, ExactlyOneOfEightRacingThreadsCreates) {
  const auto dir = support_scratch("create-race");
  constexpr std::size_t kThreads = 8;
  // 1 = created, 0 = found the file, -1 = error.
  std::vector<int> outcome(kThreads, -1);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<std::uint8_t> payload(4096,
                                              static_cast<std::uint8_t>(t));
      while (!go.load()) std::this_thread::yield();
      const auto created = create_file_atomic(dir, "race.bin", payload);
      if (created.ok()) outcome[t] = created.value() ? 1 : 0;
    });
  }
  go.store(true);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(std::count(outcome.begin(), outcome.end(), 1), 1);
  EXPECT_EQ(std::count(outcome.begin(), outcome.end(), 0),
            static_cast<std::ptrdiff_t>(kThreads) - 1);
  const auto winner = static_cast<std::size_t>(
      std::find(outcome.begin(), outcome.end(), 1) - outcome.begin());
  ASSERT_LT(winner, kThreads);
  EXPECT_EQ(read_file_bytes(dir / "race.bin").value(),
            std::vector<std::uint8_t>(4096, static_cast<std::uint8_t>(winner)));
  EXPECT_TRUE(dot_files(dir).empty());
}

TEST(Result, ValueAndError) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  Result<int> err(Error{3, "boom"});
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, 3);
  EXPECT_EQ(err.value_or(9), 9);
}

TEST(Result, VoidSpecialization) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  Status err(Error{1, "x"});
  EXPECT_FALSE(err.ok());
}

TEST(RingLog, AppendAndGrep) {
  RingLog log(8);
  log.append(LogLevel::kInfo, 1, "hello world");
  log.append(LogLevel::kError, 2, "bad RIP for mode 0");
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(log.contains("bad RIP"));
  EXPECT_FALSE(log.contains("no such"));
  EXPECT_EQ(log.grep("bad RIP").size(), 1u);
}

TEST(RingLog, CapacityBound) {
  RingLog log(4);
  for (int i = 0; i < 100; ++i) {
    log.append(LogLevel::kDebug, i, "entry " + std::to_string(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_TRUE(log.contains("entry 99"));
  EXPECT_FALSE(log.contains("entry 1 "));
}

TEST(RingLog, LevelFilteredContains) {
  RingLog log;
  log.append(LogLevel::kDebug, 1, "needle");
  EXPECT_TRUE(log.contains("needle", LogLevel::kDebug));
  EXPECT_FALSE(log.contains("needle", LogLevel::kError));
}

}  // namespace
}  // namespace iris
