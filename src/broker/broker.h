// The broker: topic management. Producing and consuming go through the
// span-first transport::MessageBus contract (transport/message_bus.h) —
// InProcessBus wraps a Broker directly; TcpBusClient reaches one in another
// process. The produce/poll method families that used to live here
// (owning, batched, and view-based triplets) collapsed into that single
// contract; what remains below is the topic registry.

#ifndef PRIVAPPROX_BROKER_BROKER_H_
#define PRIVAPPROX_BROKER_BROKER_H_

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "broker/topic.h"

namespace privapprox::broker {

// Broker-wide durability: every topic created after EnableDurability spills
// its partitions to <data_dir>/<topic name>/p<k>, and RecoverTopics
// re-creates (and replays) every topic a previous incarnation left there.
struct BrokerDurability {
  std::filesystem::path data_dir;
  storage::PartitionLogOptions log;
};

class Broker {
 public:
  // Turns on durable spill for every topic created from now on. Must be
  // called before any topic exists (std::logic_error otherwise) — a broker
  // whose topics straddle the durability boundary could not recover
  // coherently.
  void EnableDurability(BrokerDurability durability);
  bool durable() const;

  // Re-creates every topic found under the durability data_dir — directory
  // name = topic name, partition count = number of p<k> subdirectories —
  // replaying each partition's log into memory. Topics that already exist
  // in this broker are skipped. Returns the names recovered (sorted).
  // std::logic_error if durability is not enabled.
  std::vector<std::string> RecoverTopics();

  // privapprox_storage_* sources summed over every durable topic (all zero
  // when durability is off). Collection-time only.
  DurableStats durable_stats() const;

  // Creates a topic; throws if it exists.
  Topic& CreateTopic(const std::string& name, size_t num_partitions);

  // Returns the topic, creating it if absent. An existing topic must have
  // the same partition count (std::invalid_argument otherwise). Used where
  // two producers legitimately share one topic — a standby proxy routes
  // into its primary's outbound topic so the aggregator's n-source join is
  // untouched by failover.
  Topic& EnsureTopic(const std::string& name, size_t num_partitions);

  bool HasTopic(const std::string& name) const;
  Topic& GetTopic(const std::string& name);
  const Topic& GetTopic(const std::string& name) const;

  std::vector<std::string> TopicNames() const;

 private:
  // Requires mu_ held.
  std::unique_ptr<Topic> MakeTopic(const std::string& name,
                                   size_t num_partitions) const;

  mutable std::mutex mu_;
  std::optional<BrokerDurability> durability_;
  std::map<std::string, std::unique_ptr<Topic>> topics_;
};

}  // namespace privapprox::broker

#endif  // PRIVAPPROX_BROKER_BROKER_H_
