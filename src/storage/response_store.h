// The historical store of joined randomized answers (§3.3.1).
//
// ResponseStore is the in-memory, time-ordered working set that historical
// analytics runs over. The durable store is a storage::PartitionLog of
// answer records — key = the answer's bit count, timestamp = event time,
// payload = the answer's bytes — so it shares the broker's CRC framing,
// torn-tail recovery, rotation and directory lock. AppendAnswer writes one
// record; LoadRange replays the log into a ResponseStore.

#ifndef PRIVAPPROX_STORAGE_RESPONSE_STORE_H_
#define PRIVAPPROX_STORAGE_RESPONSE_STORE_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "storage/partition_log.h"

namespace privapprox::storage {

class ResponseStore {
 public:
  void Append(int64_t timestamp_ms, const BitVector& answer);

  size_t size() const { return entries_.size(); }

  struct Entry {
    int64_t timestamp_ms;
    BitVector answer;
  };
  // Entries with timestamp in [from_ms, to_ms).
  std::vector<const Entry*> Range(int64_t from_ms, int64_t to_ms) const;

 private:
  std::vector<Entry> entries_;  // append order == time order
};

// Appends one answer record to a durable historical log.
void AppendAnswer(PartitionLog& log, int64_t timestamp_ms,
                  const BitVector& answer);

// Replays `log` and keeps the answers with timestamp in [from_ms, to_ms).
// Throws SegmentLogError on a record whose payload length disagrees with
// its bit count (a log that does not hold answers).
ResponseStore LoadRange(const PartitionLog& log, int64_t from_ms,
                        int64_t to_ms);

}  // namespace privapprox::storage

#endif  // PRIVAPPROX_STORAGE_RESPONSE_STORE_H_
