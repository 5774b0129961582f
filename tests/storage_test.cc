// Tests for the storage module's CRC32 and the durable historical answer
// store: answer records on a PartitionLog (storage/response_store.h) —
// round-trips, time-range loads, rotation, torn-tail recovery, and
// corruption detection through the answer codec.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <atomic>

#include <unistd.h>

#include "storage/crc32.h"
#include "aggregator/historical.h"
#include "storage/partition_log.h"
#include "storage/response_store.h"

namespace privapprox::storage {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    // ctest runs each TEST in its own process concurrently: the directory
    // name must be unique across processes, not just within one.
    static std::atomic<int> counter{0};
    std::random_device rd;
    path_ = fs::temp_directory_path() /
            ("privapprox_log_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + "_" + std::to_string(rd()));
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

BitVector MakeAnswer(size_t bits, size_t set_bit) {
  BitVector answer(bits);
  answer.Set(set_bit, true);
  return answer;
}

// ------------------------------------------------------------------ CRC32

TEST(Crc32Test, KnownVectors) {
  // Standard check value: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char data[] = "privacy-preserving stream analytics";
  const uint32_t whole = Crc32(data, sizeof(data) - 1);
  uint32_t incremental = Crc32(data, 10);
  incremental = Crc32Update(incremental, data + 10, sizeof(data) - 1 - 10);
  EXPECT_EQ(incremental, whole);
}

TEST(Crc32Test, DetectsBitFlips) {
  uint8_t buffer[64];
  for (size_t i = 0; i < sizeof(buffer); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 7);
  }
  const uint32_t original = Crc32(buffer, sizeof(buffer));
  buffer[13] ^= 0x20;
  EXPECT_NE(Crc32(buffer, sizeof(buffer)), original);
}

// ------------------------------------------------ historical answer log

constexpr char kFirstSegment[] = "seg-00000000000000000000.log";

PartitionLogOptions SegmentBytes(uint64_t max_segment_bytes) {
  PartitionLogOptions options;
  options.max_segment_bytes = max_segment_bytes;
  return options;
}

ResponseStore LoadAll(const PartitionLog& log) {
  return LoadRange(log, INT64_MIN, INT64_MAX);
}

TEST(SegmentLogTest, AppendAndLoadRoundTrip) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  for (int64_t ts = 0; ts < 100; ++ts) {
    // 11 bits: the bit count is not a multiple of 8 and must survive.
    AppendAnswer(log, ts, MakeAnswer(11, static_cast<size_t>(ts % 11)));
  }
  EXPECT_EQ(log.end_offset(), 100u);
  const ResponseStore store = LoadAll(log);
  ASSERT_EQ(store.size(), 100u);
  const auto range = store.Range(0, 100);
  EXPECT_TRUE(range[42]->answer.Get(42 % 11));
  EXPECT_EQ(range[42]->answer.size(), 11u);
  EXPECT_EQ(range[42]->answer, MakeAnswer(11, 42 % 11));
}

TEST(SegmentLogTest, TimeRangeFilter) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  for (int64_t ts = 0; ts < 50; ++ts) {
    AppendAnswer(log, ts * 10, MakeAnswer(4, 0));
  }
  // [from, to): the lower edge is kept, the upper edge is not.
  const ResponseStore store = LoadRange(log, 100, 200);
  ASSERT_EQ(store.size(), 10u);
  const auto range = store.Range(INT64_MIN, INT64_MAX);
  EXPECT_EQ(range.front()->timestamp_ms, 100);
  EXPECT_EQ(range.back()->timestamp_ms, 190);
  EXPECT_EQ(LoadRange(log, 101, 110).size(), 0u);
  EXPECT_EQ(LoadRange(log, 490, 491).size(), 1u);
  EXPECT_EQ(LoadRange(log, 1000, 2000).size(), 0u);
}

TEST(SegmentLogTest, RotatesSegments) {
  TempDir dir;
  PartitionLog log(dir.path(), SegmentBytes(512));  // tiny: force rotation
  for (int64_t ts = 0; ts < 200; ++ts) {
    AppendAnswer(log, ts, MakeAnswer(64, 1));
  }
  EXPECT_GT(log.num_segments(), 3u);
  EXPECT_EQ(LoadAll(log).size(), 200u);
}

TEST(SegmentLogTest, ReopenResumesAppending) {
  TempDir dir;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (int64_t ts = 0; ts < 30; ++ts) {
      AppendAnswer(log, ts, MakeAnswer(8, 2));
    }
  }
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 30u);
  for (int64_t ts = 30; ts < 60; ++ts) {
    AppendAnswer(log, ts, MakeAnswer(8, 2));
  }
  EXPECT_EQ(LoadAll(log).size(), 60u);
}

TEST(SegmentLogTest, RecoversFromTornTail) {
  TempDir dir;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (int64_t ts = 0; ts < 10; ++ts) {
      AppendAnswer(log, ts, MakeAnswer(16, 3));
    }
  }
  // Simulate a crash mid-append: chop the last 5 bytes.
  const fs::path segment = dir.path() / kFirstSegment;
  fs::resize_file(segment, fs::file_size(segment) - 5);
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 9u);  // last record truncated away
  // And the log is writable again.
  AppendAnswer(log, 100, MakeAnswer(16, 3));
  EXPECT_EQ(LoadAll(log).size(), 10u);
}

TEST(SegmentLogTest, DetectsCorruptionInTornTailByCrc) {
  TempDir dir;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (int64_t ts = 0; ts < 5; ++ts) {
      AppendAnswer(log, ts, MakeAnswer(16, 1));
    }
  }
  // Flip a byte inside the LAST record's answer bytes.
  {
    std::fstream f(dir.path() / kFirstSegment,
                   std::ios::binary | std::ios::in | std::ios::out);
    char byte;
    f.seekg(-1, std::ios::end);
    f.get(byte);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(byte ^ 0xFF));
  }
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 4u);  // corrupt tail record dropped
  EXPECT_EQ(LoadAll(log).size(), 4u);
}

TEST(SegmentLogTest, RejectsCorruptionInSealedSegment) {
  TempDir dir;
  {
    PartitionLog log(dir.path(), SegmentBytes(256));
    for (int64_t ts = 0; ts < 100; ++ts) {
      AppendAnswer(log, ts, MakeAnswer(64, 5));
    }
    ASSERT_GT(log.num_segments(), 1u);
  }
  // Corrupt the FIRST (sealed) segment: unrecoverable.
  {
    std::fstream f(dir.path() / kFirstSegment,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);
    f.put('\xFF');
    f.put('\xFF');
  }
  EXPECT_THROW(PartitionLog(dir.path(), PartitionLogOptions{}),
               SegmentLogError);
}

TEST(SegmentLogTest, EmptyDirectoryIsValid) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 0u);
  EXPECT_EQ(LoadAll(log).size(), 0u);
}

TEST(SegmentLogTest, BatchAnalyticsOverLoadedStore) {
  // End-to-end: durable log -> LoadRange -> HistoricalAnalytics.
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  BitVector yes(2), no(2);
  yes.Set(0, true);
  no.Set(1, true);
  for (int i = 0; i < 70; ++i) {
    AppendAnswer(log, i, yes);
  }
  for (int i = 70; i < 100; ++i) {
    AppendAnswer(log, i, no);
  }
  const ResponseStore store = LoadRange(log, 0, 100);
  core::ExecutionParams params;
  params.randomization = {1.0, 0.5};
  const aggregator::HistoricalAnalytics analytics(store, params, 100);
  Xoshiro256 rng(1);
  const core::QueryResult result =
      analytics.Run(0, 100, aggregator::BatchQueryBudget{1.0}, rng, 2);
  EXPECT_NEAR(result.buckets[0].estimate.value, 70.0, 1e-9);
  EXPECT_NEAR(result.buckets[1].estimate.value, 30.0, 1e-9);
}

TEST(SegmentLogTest, LoadRangeRejectsRecordsThatAreNotAnswers) {
  // A partition log holding other records (here: 3 payload bytes under a
  // key claiming 64 bits) is not a historical store.
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  const uint8_t payload[] = {1, 2, 3};
  log.Append(/*key=*/64, /*timestamp_ms=*/0, payload);
  EXPECT_THROW(LoadAll(log), SegmentLogError);
}

}  // namespace
}  // namespace privapprox::storage
