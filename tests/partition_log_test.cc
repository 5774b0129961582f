// Tests for the generic durable partition log (storage/partition_log.h):
// framing round-trips, segment rotation and replay, fsync policy
// accounting, recovery invariants (torn tails, sealed-segment corruption,
// offset continuity), watermark retention, the directory lock, and a
// crash-point harness that truncates the log at every byte boundary of its
// final record.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "storage/partition_log.h"

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
            ("privapprox_plog_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + "_" + std::to_string(rd()));
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<uint8_t> Payload(uint64_t seed, size_t len) {
  std::vector<uint8_t> payload(len);
  for (size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<uint8_t>((seed * 31 + i * 7) & 0xFF);
  }
  return payload;
}

struct ReplayedRecord {
  uint64_t offset;
  uint64_t key;
  int64_t timestamp_ms;
  std::vector<uint8_t> payload;
};

std::vector<ReplayedRecord> ReplayAll(const PartitionLog& log) {
  std::vector<ReplayedRecord> records;
  log.Replay([&](uint64_t offset, uint64_t key, int64_t timestamp_ms,
                 std::span<const uint8_t> payload) {
    records.push_back(ReplayedRecord{
        offset, key, timestamp_ms,
        std::vector<uint8_t>(payload.begin(), payload.end())});
  });
  return records;
}

// Small segments so a handful of appends spans several files. Each record
// is 24 bytes of framing plus its payload.
PartitionLogOptions SmallSegments(uint64_t max_bytes = 128) {
  PartitionLogOptions options;
  options.max_segment_bytes = max_bytes;
  return options;
}

size_t CountSegmentFiles(const fs::path& dir) {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("seg-") && name.ends_with(".log")) {
      ++n;
    }
  }
  return n;
}

// -------------------------------------------------------------- fsync API

TEST(FsyncPolicyTest, ParseAndNameRoundTrip) {
  for (const auto policy :
       {FsyncPolicy::kNever, FsyncPolicy::kOnRotate,
        FsyncPolicy::kEveryNRecords, FsyncPolicy::kAlways}) {
    EXPECT_EQ(ParseFsyncPolicy(FsyncPolicyName(policy)), policy);
  }
  EXPECT_THROW(ParseFsyncPolicy("sometimes"), SegmentLogError);
  EXPECT_THROW(ParseFsyncPolicy(""), SegmentLogError);
}

// ---------------------------------------------------------------- basics

TEST(PartitionLogTest, AppendAssignsSequentialOffsets) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.base_offset(), 0u);
  EXPECT_EQ(log.end_offset(), 0u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(log.Append(i, static_cast<int64_t>(1000 + i),
                         Payload(i, 20)),
              i);
  }
  EXPECT_EQ(log.end_offset(), 10u);
  EXPECT_EQ(log.num_segments(), 1u);
  const PartitionLogStats stats = log.stats();
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.bytes, 10u * (24 + 20));
  EXPECT_EQ(stats.recovered_records, 0u);
  EXPECT_EQ(stats.truncated_tails, 0u);
}

TEST(PartitionLogTest, ReplayRoundTripAcrossSegments) {
  TempDir dir;
  PartitionLog log(dir.path(), SmallSegments());
  const size_t n = 20;
  for (uint64_t i = 0; i < n; ++i) {
    log.Append(i * 3, static_cast<int64_t>(i), Payload(i, 10 + i % 5));
  }
  ASSERT_GE(log.num_segments(), 3u) << "test needs multiple segments";

  const std::vector<ReplayedRecord> records = ReplayAll(log);
  ASSERT_EQ(records.size(), n);
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(records[i].offset, i);
    EXPECT_EQ(records[i].key, i * 3);
    EXPECT_EQ(records[i].timestamp_ms, static_cast<int64_t>(i));
    EXPECT_EQ(records[i].payload, Payload(i, 10 + i % 5));
  }
}

TEST(PartitionLogTest, ReopenRecoversAndContinuesOffsets) {
  TempDir dir;
  {
    PartitionLog log(dir.path(), SmallSegments());
    for (uint64_t i = 0; i < 12; ++i) {
      log.Append(i, 7, Payload(i, 16));
    }
  }
  PartitionLog log(dir.path(), SmallSegments());
  EXPECT_EQ(log.end_offset(), 12u);
  EXPECT_EQ(log.stats().recovered_records, 12u);
  EXPECT_EQ(log.stats().truncated_tails, 0u);
  // New appends continue the pre-crash numbering.
  EXPECT_EQ(log.Append(99, 7, Payload(99, 16)), 12u);
  const std::vector<ReplayedRecord> records = ReplayAll(log);
  ASSERT_EQ(records.size(), 13u);
  EXPECT_EQ(records.back().key, 99u);
}

// ------------------------------------------------------ recovery invariants

TEST(PartitionLogTest, TornTailInNewestSegmentIsTruncated) {
  TempDir dir;
  std::string newest;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (uint64_t i = 0; i < 5; ++i) {
      log.Append(i, 0, Payload(i, 32));
    }
    newest = "seg-00000000000000000000.log";
  }
  // Chop the last 10 bytes: the final record loses part of its body.
  const fs::path path = dir.path() / newest;
  fs::resize_file(path, fs::file_size(path) - 10);

  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 4u);
  EXPECT_EQ(log.stats().truncated_tails, 1u);
  EXPECT_EQ(log.stats().recovered_records, 4u);
  EXPECT_EQ(ReplayAll(log).size(), 4u);
  // The torn bytes are gone from disk, so a second open is clean.
  EXPECT_EQ(fs::file_size(path), 4u * (24 + 32));
}

TEST(PartitionLogTest, CorruptRecordInSealedSegmentThrows) {
  TempDir dir;
  {
    PartitionLog log(dir.path(), SmallSegments());
    for (uint64_t i = 0; i < 20; ++i) {
      log.Append(i, 0, Payload(i, 16));
    }
    ASSERT_GE(log.num_segments(), 2u);
  }
  // Flip one payload byte in the OLDEST segment — a sealed segment must
  // parse end to end, so recovery refuses rather than dropping history.
  const fs::path path = dir.path() / "seg-00000000000000000000.log";
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(30);
  file.put('\xFF');
  file.close();

  EXPECT_THROW(PartitionLog(dir.path(), SmallSegments()), SegmentLogError);
}

TEST(PartitionLogTest, TornTailInSealedSegmentThrows) {
  TempDir dir;
  std::string sealed;
  {
    PartitionLog log(dir.path(), SmallSegments());
    for (uint64_t i = 0; i < 20; ++i) {
      log.Append(i, 0, Payload(i, 16));
    }
    ASSERT_GE(log.num_segments(), 3u);
    sealed = "seg-00000000000000000000.log";
  }
  // A truncated non-newest segment is indistinguishable from lost history:
  // its record count no longer meets the next segment's base offset.
  const fs::path path = dir.path() / sealed;
  fs::resize_file(path, fs::file_size(path) - 5);

  EXPECT_THROW(PartitionLog(dir.path(), SmallSegments()), SegmentLogError);
}

TEST(PartitionLogTest, MissingMiddleSegmentThrows) {
  TempDir dir;
  std::vector<std::string> names;
  {
    PartitionLog log(dir.path(), SmallSegments());
    for (uint64_t i = 0; i < 20; ++i) {
      log.Append(i, 0, Payload(i, 16));
    }
    ASSERT_GE(log.num_segments(), 3u);
  }
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("seg-")) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  fs::remove(dir.path() / names[1]);

  EXPECT_THROW(PartitionLog(dir.path(), SmallSegments()), SegmentLogError);
}

TEST(PartitionLogTest, EmptyActiveSegmentAfterRotationRecovers) {
  TempDir dir;
  uint64_t end = 0;
  {
    PartitionLog log(dir.path(), SmallSegments());
    for (uint64_t i = 0; i < 8; ++i) {
      log.Append(i, 0, Payload(i, 16));
    }
    end = log.end_offset();
  }
  // Simulate a crash between rotation's file creation and the first append
  // into it: an empty active segment whose base is the current end offset.
  char name[40];
  std::snprintf(name, sizeof(name), "seg-%020llu.log",
                static_cast<unsigned long long>(end));
  std::ofstream(dir.path() / name, std::ios::binary).flush();

  PartitionLog log(dir.path(), SmallSegments());
  EXPECT_EQ(log.end_offset(), end);
  EXPECT_EQ(log.stats().truncated_tails, 0u);
  EXPECT_EQ(log.Append(42, 0, Payload(42, 16)), end);
}

// Truncate the log at EVERY byte boundary of the final record: recovery
// must always succeed, keeping all full records and counting exactly one
// torn tail for any cut strictly inside the record.
TEST(PartitionLogTest, CrashPointHarnessEveryByteOfFinalRecord) {
  TempDir master;
  const size_t n = 6;
  const size_t payload_len = 24;
  const uint64_t record_bytes = 24 + payload_len;
  {
    PartitionLog log(master.path(), PartitionLogOptions{});
    for (uint64_t i = 0; i < n; ++i) {
      log.Append(i, static_cast<int64_t>(i), Payload(i, payload_len));
    }
  }
  const std::string name = "seg-00000000000000000000.log";
  const uint64_t file_size = fs::file_size(master.path() / name);
  ASSERT_EQ(file_size, n * record_bytes);
  const uint64_t last_start = file_size - record_bytes;

  for (uint64_t cut = last_start; cut <= file_size; ++cut) {
    TempDir scratch;
    fs::create_directories(scratch.path());
    fs::copy_file(master.path() / name, scratch.path() / name);
    fs::resize_file(scratch.path() / name, cut);

    PartitionLog log(scratch.path(), PartitionLogOptions{});
    if (cut == file_size) {
      EXPECT_EQ(log.end_offset(), n) << "cut=" << cut;
      EXPECT_EQ(log.stats().truncated_tails, 0u) << "cut=" << cut;
    } else {
      EXPECT_EQ(log.end_offset(), n - 1) << "cut=" << cut;
      EXPECT_EQ(log.stats().truncated_tails, cut == last_start ? 0u : 1u)
          << "cut=" << cut;
    }
    // Whatever survived must replay cleanly and accept new appends.
    const uint64_t next = log.end_offset();
    EXPECT_EQ(ReplayAll(log).size(), next);
    EXPECT_EQ(log.Append(77, 0, Payload(77, payload_len)), next);
  }
}

// ---------------------------------------------------------------- retention

TEST(PartitionLogTest, TrimBelowDeletesExactlyConsumedSegments) {
  TempDir dir;
  PartitionLog log(dir.path(), SmallSegments());
  for (uint64_t i = 0; i < 20; ++i) {
    log.Append(i, 0, Payload(i, 16));
  }
  ASSERT_GE(log.num_segments(), 3u);
  const size_t before = log.num_segments();

  // Watermark below the first segment's end: nothing is deletable.
  EXPECT_EQ(log.TrimBelow(1), 0u);
  EXPECT_EQ(log.num_segments(), before);

  // Watermark at 20 (everything consumed): every sealed segment goes, the
  // active segment survives even though it is fully consumed.
  const size_t removed = log.TrimBelow(20);
  EXPECT_EQ(removed, before - 1);
  EXPECT_EQ(log.num_segments(), 1u);
  EXPECT_GT(log.base_offset(), 0u);
  EXPECT_EQ(log.end_offset(), 20u);
  EXPECT_EQ(CountSegmentFiles(dir.path()), 1u);

  // Appends continue, and a reopen sees the trimmed base.
  EXPECT_EQ(log.Append(42, 0, Payload(42, 16)), 20u);
  const uint64_t base = log.base_offset();
  log.Sync();
  EXPECT_EQ(ReplayAll(log).front().offset, base);
}

TEST(PartitionLogTest, ReopenAfterTrimKeepsBaseOffset) {
  TempDir dir;
  uint64_t base = 0;
  {
    PartitionLog log(dir.path(), SmallSegments());
    for (uint64_t i = 0; i < 20; ++i) {
      log.Append(i, 0, Payload(i, 16));
    }
    log.TrimBelow(20);
    base = log.base_offset();
    ASSERT_GT(base, 0u);
  }
  PartitionLog log(dir.path(), SmallSegments());
  EXPECT_EQ(log.base_offset(), base);
  EXPECT_EQ(log.end_offset(), 20u);
  EXPECT_EQ(log.Append(1, 0, Payload(1, 16)), 20u);
}

// ------------------------------------------------------------ fsync policy

TEST(PartitionLogTest, FsyncAlwaysSyncsEveryAppend) {
  TempDir dir;
  PartitionLogOptions options;
  options.fsync = FsyncPolicy::kAlways;
  PartitionLog log(dir.path(), options);
  for (uint64_t i = 0; i < 5; ++i) {
    log.Append(i, 0, Payload(i, 16));
  }
  EXPECT_EQ(log.stats().fsyncs, 5u);
}

TEST(PartitionLogTest, FsyncEveryNSyncsInBatches) {
  TempDir dir;
  PartitionLogOptions options;
  options.fsync = FsyncPolicy::kEveryNRecords;
  options.fsync_every_n = 4;
  PartitionLog log(dir.path(), options);
  for (uint64_t i = 0; i < 10; ++i) {
    log.Append(i, 0, Payload(i, 16));
  }
  EXPECT_EQ(log.stats().fsyncs, 2u);  // after records 4 and 8
}

TEST(PartitionLogTest, FsyncNeverNeverSyncs) {
  TempDir dir;
  PartitionLog log(dir.path(), SmallSegments());
  for (uint64_t i = 0; i < 20; ++i) {
    log.Append(i, 0, Payload(i, 16));
  }
  EXPECT_EQ(log.stats().fsyncs, 0u);
  log.Sync();  // explicit sync works under any policy
  EXPECT_EQ(log.stats().fsyncs, 1u);
}

// ------------------------------------------------------------------ locking

TEST(PartitionLogTest, SecondOpenOfLiveDirectoryThrows) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_THROW(PartitionLog(dir.path(), PartitionLogOptions{}),
               SegmentLogError);
  // The lock dies with the first instance.
  log.Append(1, 0, Payload(1, 16));
}

TEST(PartitionLogTest, LockReleasesWithInstance) {
  TempDir dir;
  { PartitionLog log(dir.path(), PartitionLogOptions{}); }
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 0u);
}

TEST(DirLockTest, ExclusiveWithinProcess) {
  TempDir dir;
  fs::create_directories(dir.path());
  DirLock first;
  first.Acquire(dir.path(), "test");
  EXPECT_TRUE(first.held());
  DirLock second;
  EXPECT_THROW(second.Acquire(dir.path(), "test"), SegmentLogError);
  first.Release();
  second.Acquire(dir.path(), "test");
  EXPECT_TRUE(second.held());
}

}  // namespace
}  // namespace privapprox::storage
