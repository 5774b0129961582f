#include "deploy/fleet_driver.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "broker/broker.h"
#include "core/query_wire.h"
#include "crypto/xor_cipher.h"
#include "deploy/result_wire.h"
#include "transport/message_bus.h"
#include "transport/wire.h"

namespace privapprox::deploy {

FleetDriver::FleetDriver(FleetDriverConfig config)
    : config_(std::move(config)),
      budget_manager_(core::BudgetManagerConfig{config_.max_epsilon_zk,
                                                config_.downsample_to_fit,
                                                config_.min_sampling_fraction}) {
  if (config_.num_clients == 0) {
    throw std::invalid_argument("FleetDriver: need >= 1 client");
  }
  if (config_.proxies.size() < 2) {
    throw std::invalid_argument("FleetDriver: need >= 2 proxies");
  }

  transport::TransportCounters counters;
  counters.reconnects = &registry_.GetCounter(
      "privapprox_transport_reconnects_total",
      "Daemon re-dials after the first established connection");
  counters.bytes_in = &registry_.GetCounter(
      "privapprox_transport_bytes_in_total", "Bytes received from daemons");
  counters.bytes_out = &registry_.GetCounter(
      "privapprox_transport_bytes_out_total", "Bytes sent to daemons");
  counters.frames_in = &registry_.GetCounter(
      "privapprox_transport_frames_in_total", "Response frames received");
  counters.frames_out = &registry_.GetCounter(
      "privapprox_transport_frames_out_total", "Request frames sent");
  proxy_buses_.reserve(config_.proxies.size());
  for (const Endpoint& endpoint : config_.proxies) {
    transport::TcpBusClientConfig client_config;
    client_config.host = endpoint.host;
    client_config.port = endpoint.port;
    client_config.counters = counters;
    proxy_buses_.push_back(
        std::make_unique<transport::TcpBusClient>(client_config));
  }
  transport::TcpBusClientConfig agg_config;
  agg_config.host = config_.aggregator.host;
  agg_config.port = config_.aggregator.port;
  agg_config.counters = counters;
  aggregator_bus_ = std::make_unique<transport::TcpBusClient>(agg_config);

  clients_.reserve(config_.num_clients);
  for (size_t i = 0; i < config_.num_clients; ++i) {
    client::ClientConfig client_config;
    client_config.client_id = i;
    client_config.num_proxies = config_.proxies.size();
    client_config.seed = config_.seed;
    client_config.invert_answers = config_.invert_answers;
    clients_.push_back(std::make_unique<client::Client>(client_config));
  }
}

FleetDriver::~FleetDriver() = default;

core::ExecutionParams FleetDriver::SubmitQuery(
    const core::Query& query, const core::ExecutionParams& params) {
  params.Validate();
  if (!query.VerifySignature()) {
    throw std::invalid_argument("FleetDriver: query signature invalid");
  }
  if (active_.count(query.query_id) != 0) {
    throw std::invalid_argument("FleetDriver: query id already submitted");
  }
  const core::BudgetAdmission admission =
      budget_manager_.Admit(query.query_id, params);
  try {
    const std::string qid = std::to_string(query.query_id);
    const size_t num_proxies = proxy_buses_.size();
    const std::vector<uint8_t> announcement = core::SerializeAnnouncement(
        core::QueryAnnouncement{query, admission.params});

    ActiveQuery active;
    active.params = admission.params;
    active.lane_in_topics.reserve(num_proxies);
    std::vector<uint8_t> qid_payload;
    transport::PutU64(query.query_id, qid_payload);
    for (size_t j = 0; j < num_proxies; ++j) {
      const std::string prefix = "proxy" + std::to_string(j);
      proxy_buses_[j]->Control("ensure_lane", qid_payload);
      active.lane_in_topics.push_back(prefix + ".q" + qid + ".in");
      // Attach to the daemon-created topics (EnsureTopic validates that
      // both sides agree on the partition count).
      proxy_buses_[j]->EnsureTopic(prefix + ".query.in", 1);
      const broker::ProduceView view{/*key=*/0, announcement,
                                     /*timestamp_ms=*/0};
      proxy_buses_[j]->Produce(prefix + ".query.in",
                               std::span<const broker::ProduceView>(&view, 1));
      proxy_buses_[j]->Control("forward_queries", {});
    }
    // Deliver the forwarded announcement to each proxy's client cohort —
    // client i subscribes via proxy i mod n, like the in-process system.
    for (size_t j = 0; j < num_proxies; ++j) {
      transport::BusConsumer consumer(*proxy_buses_[j],
                                      "proxy" + std::to_string(j) +
                                          ".query.out");
      std::vector<broker::RecordView> records;
      while (consumer.PollInto(64, records) != 0) {
      }
      if (records.empty()) {
        throw std::logic_error("FleetDriver: query distribution failed");
      }
      const broker::RecordView& last = records.back();
      const std::vector<uint8_t> bytes(last.payload,
                                       last.payload + last.payload_len);
      for (size_t i = j; i < clients_.size(); i += num_proxies) {
        clients_[i]->OnAnnouncement(bytes);
      }
    }
    aggregator_bus_->Control("register_query", announcement);
    active_.emplace(query.query_id, std::move(active));
  } catch (...) {
    budget_manager_.Release(query.query_id);
    throw;
  }
  return admission.params;
}

FleetEpochStats FleetDriver::RunEpoch(int64_t now_ms) {
  if (active_.empty()) {
    throw std::logic_error("FleetDriver::RunEpoch: no query submitted");
  }
  const size_t num_clients = clients_.size();
  const size_t num_proxies = proxy_buses_.size();
  const size_t num_queries = active_.size();
  std::vector<const ActiveQuery*> lanes;
  lanes.reserve(num_queries);
  for (const auto& [qid, active] : active_) {
    lanes.push_back(&active);
  }

  // Answer sequentially in client-id order: the canonical share order the
  // in-process streaming epoch is pinned to (DESIGN.md §6j). All share records
  // live in the epoch arena until every lane batch has been produced.
  FleetEpochStats stats;
  std::vector<std::vector<std::vector<broker::ProduceView>>> batches(
      num_queries);
  for (auto& per_proxy : batches) {
    per_proxy.resize(num_proxies);
  }
  std::vector<crypto::ShareView> views(num_queries * num_proxies);
  std::vector<uint64_t> answered_qids;
  for (size_t i = 0; i < num_clients; ++i) {
    clients_[i]->AnswerSubscribedInto(now_ms, arena_, views, answered_qids);
    size_t k = 0;
    auto it = active_.begin();
    for (const uint64_t qid : answered_qids) {
      while (it->first != qid) {
        ++it;
        ++k;
      }
      ++stats.participants;
      for (size_t j = 0; j < num_proxies; ++j) {
        const crypto::ShareView& view = views[k * num_proxies + j];
        batches[k][j].push_back(
            broker::ProduceView{view.message_id, view.bytes(), now_ms});
      }
    }
  }
  stats.shares_sent =
      static_cast<uint64_t>(stats.participants) * num_proxies;

  // Produce each (query, proxy) lane's shares in answer order, chunked to
  // bound frame size — chunking splits a batch, never reorders it.
  const size_t chunk = std::max<size_t>(1, config_.produce_chunk_records);
  for (size_t k = 0; k < num_queries; ++k) {
    for (size_t j = 0; j < num_proxies; ++j) {
      const std::vector<broker::ProduceView>& batch = batches[k][j];
      const std::string& topic = lanes[k]->lane_in_topics[j];
      for (size_t begin = 0; begin < batch.size(); begin += chunk) {
        const size_t len = std::min(chunk, batch.size() - begin);
        proxy_buses_[j]->Produce(
            topic,
            std::span<const broker::ProduceView>(&batch[begin], len));
      }
    }
  }
  arena_.Reset();

  // Chaos seams: every produce above is acked (and, on a durable fleet with
  // fsync=always, on disk) before after_produce_hook fires, and everything
  // below is an idempotent RPC.
  if (config_.after_produce_hook) {
    config_.after_produce_hook();
  }

  for (size_t j = 0; j < num_proxies; ++j) {
    const std::vector<uint8_t> reply =
        ControlWithRetry(*proxy_buses_[j], "forward_lanes", {});
    transport::WireReader reader(reply);
    stats.shares_forwarded += reader.TakeU64();
  }

  if (config_.before_drain_hook) {
    config_.before_drain_hook();
  }

  {
    const std::vector<uint8_t> reply =
        ControlWithRetry(*aggregator_bus_, "drain", {});
    transport::WireReader reader(reply);
    stats.shares_consumed = reader.TakeU64();
  }
  return stats;
}

std::vector<uint8_t> FleetDriver::ControlWithRetry(
    transport::TcpBusClient& bus, const std::string& verb,
    std::span<const uint8_t> payload) {
  for (size_t attempt = 0;; ++attempt) {
    try {
      return bus.Control(verb, payload);
    } catch (const std::exception&) {
      if (attempt >= config_.control_retries) {
        throw;
      }
      // The client re-dials on the next call (with its own backoff window),
      // so the retry itself is the recovery wait.
    }
  }
}

uint64_t FleetDriver::AdvanceRetention() {
  // source_offsets response: u32 n, n x {string topic, u32 k, k x u64}.
  const std::vector<uint8_t> reply =
      ControlWithRetry(*aggregator_bus_, "source_offsets", {});
  transport::WireReader reader(reply);
  // Regroup by hosting proxy: topic "proxy<j>.q<QID>.out" belongs to
  // proxy_buses_[j]. Payload format to each proxy mirrors the response.
  std::vector<std::vector<uint8_t>> payloads(proxy_buses_.size());
  std::vector<uint32_t> counts(proxy_buses_.size(), 0);
  const uint32_t num_topics = reader.TakeU32();
  for (uint32_t i = 0; i < num_topics; ++i) {
    const std::string topic = reader.TakeString();
    const uint32_t num_parts = reader.TakeU32();
    size_t owner = proxy_buses_.size();
    for (size_t j = 0; j < proxy_buses_.size(); ++j) {
      const std::string prefix = "proxy" + std::to_string(j) + ".";
      if (topic.compare(0, prefix.size(), prefix) == 0) {
        owner = j;
        break;
      }
    }
    if (owner == proxy_buses_.size()) {
      throw std::logic_error("FleetDriver::AdvanceRetention: unroutable " +
                             topic);
    }
    ++counts[owner];
    transport::PutString(topic, payloads[owner]);
    transport::PutU32(num_parts, payloads[owner]);
    for (uint32_t p = 0; p < num_parts; ++p) {
      transport::PutU64(reader.TakeU64(), payloads[owner]);
    }
  }
  uint64_t deleted = 0;
  for (size_t j = 0; j < proxy_buses_.size(); ++j) {
    std::vector<uint8_t> payload;
    transport::PutU32(counts[j], payload);
    payload.insert(payload.end(), payloads[j].begin(), payloads[j].end());
    const std::vector<uint8_t> proxy_reply =
        ControlWithRetry(*proxy_buses_[j], "advance_watermark", payload);
    transport::WireReader proxy_reader(proxy_reply);
    deleted += proxy_reader.TakeU64();
  }
  return deleted;
}

std::string FleetDriver::ProxySnapshotText(size_t proxy_index) {
  const std::vector<uint8_t> reply =
      ControlWithRetry(*proxy_buses_.at(proxy_index), "snapshot_offsets", {});
  return std::string(reply.begin(), reply.end());
}

std::string FleetDriver::AggregatorSnapshotText() {
  const std::vector<uint8_t> reply =
      ControlWithRetry(*aggregator_bus_, "snapshot_offsets", {});
  return std::string(reply.begin(), reply.end());
}

void FleetDriver::AdvanceWatermark(int64_t watermark_ms) {
  std::vector<uint8_t> payload;
  transport::PutU64(static_cast<uint64_t>(watermark_ms), payload);
  ControlWithRetry(*aggregator_bus_, "advance_watermark", payload);
}

void FleetDriver::Flush() {
  ControlWithRetry(*aggregator_bus_, "flush", {});
}

std::vector<aggregator::WindowedResult> FleetDriver::TakeResults() {
  return DeserializeResults(
      ControlWithRetry(*aggregator_bus_, "take_results", {}));
}

std::string FleetDriver::ProxyMetricsText(size_t proxy_index) {
  const std::vector<uint8_t> reply =
      proxy_buses_.at(proxy_index)->Control("metrics", {});
  return std::string(reply.begin(), reply.end());
}

std::string FleetDriver::AggregatorMetricsText() {
  const std::vector<uint8_t> reply = aggregator_bus_->Control("metrics", {});
  return std::string(reply.begin(), reply.end());
}

}  // namespace privapprox::deploy
