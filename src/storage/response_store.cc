#include "storage/response_store.h"

#include <string>

namespace privapprox::storage {

void ResponseStore::Append(int64_t timestamp_ms, const BitVector& answer) {
  entries_.push_back(Entry{timestamp_ms, answer});
}

std::vector<const ResponseStore::Entry*> ResponseStore::Range(
    int64_t from_ms, int64_t to_ms) const {
  std::vector<const Entry*> out;
  for (const Entry& entry : entries_) {
    if (entry.timestamp_ms >= from_ms && entry.timestamp_ms < to_ms) {
      out.push_back(&entry);
    }
  }
  return out;
}

void AppendAnswer(PartitionLog& log, int64_t timestamp_ms,
                  const BitVector& answer) {
  log.Append(answer.size(), timestamp_ms, answer.bytes());
}

ResponseStore LoadRange(const PartitionLog& log, int64_t from_ms,
                        int64_t to_ms) {
  ResponseStore store;
  log.Replay([&](uint64_t offset, uint64_t num_bits, int64_t timestamp_ms,
                 std::span<const uint8_t> payload) {
    if ((num_bits + 7) / 8 != payload.size()) {
      throw SegmentLogError("record " + std::to_string(offset) + " in " +
                            log.directory().string() +
                            " is not an answer: " + std::to_string(num_bits) +
                            " bits in " + std::to_string(payload.size()) +
                            " bytes");
    }
    if (timestamp_ms >= from_ms && timestamp_ms < to_ms) {
      store.Append(timestamp_ms,
                   BitVector::FromBytes(
                       std::vector<uint8_t>(payload.begin(), payload.end()),
                       num_bits));
    }
  });
  return store;
}

}  // namespace privapprox::storage
