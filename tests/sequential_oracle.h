// The sequential reference PrivApproxSystem::RunEpoch is pinned against.
//
// Wires client::Client, proxy::Proxy and aggregator::Aggregator over one
// InProcessBus by hand and runs each epoch as four barriered phases on the
// calling thread, in the order a socket deployment runs them
// (deploy/fleet_driver.cc):
//
//   1. every client answers, in client-id order, into one epoch arena;
//   2. Proxy::Receive per (query, proxy) lane, shares in client-id order;
//   3. Proxy::ForwardLanes on every proxy;
//   4. Aggregator::Drain.
//
// No threads, no shard batches, one aggregator join shard, no fault
// routing, no metrics registry, no budget cap. Topic names, partition
// counts and the announcement path match PrivApproxSystem, so a streaming
// run at any worker count, channel depth and shard count must reproduce
// this oracle's fired windows, EpochStats and per-topic record/byte
// counters bit for bit (tests/parallel_epoch_test.cc).

#ifndef PRIVAPPROX_TESTS_SEQUENTIAL_ORACLE_H_
#define PRIVAPPROX_TESTS_SEQUENTIAL_ORACLE_H_

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "broker/broker.h"
#include "client/client.h"
#include "common/arena.h"
#include "core/query.h"
#include "core/query_wire.h"
#include "proxy/proxy.h"
#include "system/system.h"
#include "transport/inproc_bus.h"

namespace privapprox::reference {

class SequentialOracle {
 public:
  // Reads num_clients, num_proxies, seed, confidence, invert_answers and
  // queries; every pipeline, aggregator-shard, fault and metrics option is
  // ignored.
  explicit SequentialOracle(const system::SystemConfig& config) {
    for (size_t j = 0; j < config.num_proxies; ++j) {
      proxies_.push_back(std::make_unique<proxy::Proxy>(
          proxy::ProxyConfig{j, /*num_partitions=*/4}, bus_));
    }
    for (size_t i = 0; i < config.num_clients; ++i) {
      client::ClientConfig client_config;
      client_config.client_id = i;
      client_config.num_proxies = config.num_proxies;
      client_config.seed = config.seed;
      client_config.invert_answers = config.invert_answers;
      clients_.push_back(std::make_unique<client::Client>(client_config));
    }
    aggregator::AggregatorConfig agg_config;
    agg_config.num_proxies = config.num_proxies;
    agg_config.population = config.num_clients;
    agg_config.confidence = config.confidence;
    agg_config.answers_inverted = config.invert_answers;
    aggregator_ = std::make_unique<aggregator::Aggregator>(
        agg_config, bus_, [this](const aggregator::WindowedResult& result) {
          results_.push_back(result);
        });
    for (const system::SystemConfig::QuerySpec& spec : config.queries) {
      SubmitQuery(spec.query, spec.params);
    }
  }

  client::Client& client(size_t index) { return *clients_[index]; }
  broker::Broker& broker() { return broker_; }

  // Announces through every proxy's query topics (client i learns from
  // proxy i mod n), then opens the query's lanes.
  void SubmitQuery(const core::Query& query,
                   const core::ExecutionParams& params) {
    const std::vector<uint8_t> announcement =
        core::SerializeAnnouncement(core::QueryAnnouncement{query, params});
    for (auto& proxy : proxies_) {
      proxy->AnnounceQuery(announcement, /*timestamp_ms=*/0);
      proxy->ForwardQueries();
    }
    for (size_t j = 0; j < proxies_.size(); ++j) {
      transport::BusConsumer consumer(bus_, proxies_[j]->query_out_topic());
      std::vector<broker::RecordView> records;
      while (consumer.PollInto(64, records) != 0) {
      }
      const std::span<const uint8_t> last = records.back().bytes();
      const std::vector<uint8_t> bytes(last.begin(), last.end());
      for (size_t i = j; i < clients_.size(); i += proxies_.size()) {
        clients_[i]->OnAnnouncement(bytes);
      }
    }
    aggregator::QueryLaneOptions lane;
    for (auto& proxy : proxies_) {
      proxy->EnsureLane(query.query_id);
      lane.source_topics.push_back(proxy->lane_out_topic(query.query_id));
    }
    aggregator_->RegisterQuery(query, params, std::move(lane));
    qids_.push_back(query.query_id);
    std::sort(qids_.begin(), qids_.end());
  }

  system::EpochStats RunEpoch(int64_t now_ms) {
    const size_t num_proxies = proxies_.size();
    const size_t num_queries = qids_.size();
    system::EpochStats stats;
    // lanes[k * num_proxies + j]: query k's shares for proxy j.
    std::vector<std::vector<broker::ProduceView>> lanes(num_queries *
                                                        num_proxies);
    std::vector<crypto::ShareView> views(num_queries * num_proxies);
    std::vector<uint64_t> answered;
    for (auto& client : clients_) {
      client->AnswerSubscribedInto(now_ms, arena_, views, answered);
      for (const uint64_t qid : answered) {
        const size_t k = static_cast<size_t>(
            std::lower_bound(qids_.begin(), qids_.end(), qid) - qids_.begin());
        ++stats.participants;
        for (size_t j = 0; j < num_proxies; ++j) {
          const crypto::ShareView& view = views[k * num_proxies + j];
          lanes[k * num_proxies + j].push_back(
              broker::ProduceView{view.message_id, view.bytes(), now_ms});
        }
      }
    }
    stats.shares_sent = stats.participants * num_proxies;
    for (size_t k = 0; k < num_queries; ++k) {
      for (size_t j = 0; j < num_proxies; ++j) {
        proxies_[j]->Receive(qids_[k], lanes[k * num_proxies + j]);
      }
    }
    arena_.Reset();
    for (auto& proxy : proxies_) {
      stats.shares_forwarded += proxy->ForwardLanes();
    }
    const uint64_t malformed_before = aggregator_->malformed_dropped();
    stats.shares_consumed = aggregator_->Drain();
    stats.malformed_dropped =
        aggregator_->malformed_dropped() - malformed_before;
    return stats;
  }

  void AdvanceWatermark(int64_t watermark_ms) {
    aggregator_->AdvanceWatermark(watermark_ms);
  }
  void Flush() { aggregator_->Flush(); }
  std::vector<aggregator::WindowedResult> TakeResults() {
    std::vector<aggregator::WindowedResult> out = std::move(results_);
    results_.clear();
    return out;
  }

 private:
  broker::Broker broker_;
  transport::InProcessBus bus_{broker_};
  std::vector<std::unique_ptr<proxy::Proxy>> proxies_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::unique_ptr<aggregator::Aggregator> aggregator_;
  std::vector<aggregator::WindowedResult> results_;
  std::vector<uint64_t> qids_;  // ascending
  EpochArena arena_;
};

}  // namespace privapprox::reference

#endif  // PRIVAPPROX_TESTS_SEQUENTIAL_ORACLE_H_
