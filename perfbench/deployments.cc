#include "deployments.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "broker/broker.h"
#include "core/query_wire.h"
#include "proxy/proxy.h"
#include "storage/partition_log.h"
#include "system/system.h"
#include "transport/inproc_bus.h"
#include "transport/message_bus.h"

namespace perfbench {

namespace pa = privapprox;

std::vector<pa::core::Query> WorkloadQueries() {
  return {pa::core::QueryBuilder()
              .WithId(1)
              .WithSql("SELECT speed FROM vehicle")
              .WithAnswerFormat(
                  pa::core::AnswerFormat::UniformNumeric(0, 100, 10, true))
              .WithFrequencyMs(kEpochMs)
              .WithWindowMs(1000)
              .WithSlideMs(1000)
              .Build(),
          pa::core::QueryBuilder()
              .WithId(2)
              .WithSql("SELECT AVG(fare) FROM vehicle")
              .WithAnswerFormat(
                  pa::core::AnswerFormat::UniformNumeric(0, 50, 5, true))
              .WithFrequencyMs(kEpochMs)
              .WithWindowMs(kRetainMs)
              .WithSlideMs(1000)
              .Build()};
}

pa::core::ExecutionParams WorkloadParams() {
  pa::core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  return params;
}

void CreateTables(pa::client::Client& client) {
  client.database().CreateTable("vehicle", {"speed", "fare"});
}

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

void Ingest(pa::client::Client& client, uint64_t seed, uint64_t epoch) {
  const uint64_t h =
      SplitMix64(SplitMix64(seed ^ (client.id() * 0x100000001B3ULL)) + epoch);
  // speed in [0, 110) km/h reaches Q1's overflow bucket; fare in [0, 60).
  const double speed = static_cast<double>(h % 11000) / 100.0;
  const double fare = static_cast<double>((h >> 32) % 6000) / 100.0;
  const int64_t tick = TickMs(epoch);
  pa::localdb::Table& table = client.database().GetTable("vehicle");
  table.Insert(tick - kEpochMs / 2,
               {pa::localdb::Value(speed), pa::localdb::Value(fare)});
  table.EvictBefore(tick - kRetainMs);
}

double PromSum(const std::string& text, const std::string& name) {
  double sum = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) != 0 || line.size() <= name.size() ||
        (line[name.size()] != ' ' && line[name.size()] != '{')) {
      continue;
    }
    sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return sum;
}

namespace {

class InprocSystem final : public Deployment {
 public:
  explicit InprocSystem(uint64_t seed) : system_(Config(seed)) {
    for (size_t i = 0; i < kClients; ++i) {
      CreateTables(system_.client(i));
    }
    for (const pa::core::Query& query : WorkloadQueries()) {
      system_.SubmitQuery(query, WorkloadParams());
    }
  }

  const char* track() const override { return "deployment"; }
  pa::client::Client& client(size_t index) override {
    return system_.client(index);
  }
  EpochCounts RunEpoch(int64_t now_ms, uint64_t /*epoch*/) override {
    const pa::system::EpochStats stats = system_.RunEpoch(now_ms);
    return EpochCounts{stats.participants, stats.shares_sent,
                       stats.shares_forwarded, stats.shares_consumed,
                       stats.malformed_dropped};
  }
  std::vector<pa::aggregator::WindowedResult> Fire(
      int64_t watermark_ms) override {
    system_.AdvanceWatermark(watermark_ms);
    return system_.TakeResults();
  }

 private:
  static pa::system::SystemConfig Config(uint64_t seed) {
    pa::system::SystemConfig config;
    config.num_clients = kClients;
    config.num_proxies = kProxies;
    config.seed = seed;
    config.pipeline.mode = pa::system::EpochPipelineMode::kStreaming;
    config.pipeline.num_worker_threads = 2;
    return config;
  }

  pa::system::PrivApproxSystem system_;
};

}  // namespace

std::unique_ptr<Deployment> MakeInprocSystem(uint64_t seed) {
  return std::make_unique<InprocSystem>(seed);
}

SerialPipeline::SerialPipeline(uint64_t seed, int64_t join_timeout_ms,
                               Tracer& tracer)
    : tracer_(tracer), bus_(broker_) {
  for (size_t j = 0; j < kProxies; ++j) {
    pa::proxy::ProxyConfig config;
    config.proxy_index = j;
    config.num_partitions = 4;
    proxies_.push_back(std::make_unique<pa::proxy::Proxy>(config, bus_));
  }
  for (size_t i = 0; i < kClients; ++i) {
    pa::client::ClientConfig config;
    config.client_id = i;
    config.num_proxies = kProxies;
    config.seed = seed;
    clients_.push_back(std::make_unique<pa::client::Client>(config));
    CreateTables(*clients_.back());
  }
  pa::aggregator::AggregatorConfig agg_config;
  agg_config.num_proxies = kProxies;
  agg_config.population = kClients;
  agg_config.join_timeout_ms = join_timeout_ms;
  aggregator_ = std::make_unique<pa::aggregator::Aggregator>(
      agg_config, bus_, [this](const pa::aggregator::WindowedResult& r) {
        results_.push_back(r);
      });
  for (const pa::core::Query& query : WorkloadQueries()) {
    Submit(query, WorkloadParams());
  }
}

EpochCounts SerialPipeline::RunEpoch(int64_t now_ms, uint64_t epoch) {
  const size_t nq = qids_.size();
  EpochCounts counts;
  // batches[k * kProxies + j]: query k's shares for proxy j, client order.
  std::vector<std::vector<pa::broker::ProduceView>> batches(nq * kProxies);
  std::vector<pa::crypto::ShareView> views(nq * kProxies);
  std::vector<uint64_t> answered;
  {
    ScopedSpan span(tracer_, track(), "client.answer", epoch);
    for (auto& client : clients_) {
      client->AnswerSubscribedInto(now_ms, arena_, views, answered);
      size_t k = 0;
      for (const uint64_t qid : answered) {
        while (qids_[k] != qid) {
          ++k;
        }
        ++counts.participants;
        for (size_t j = 0; j < kProxies; ++j) {
          const pa::crypto::ShareView& view = views[k * kProxies + j];
          batches[k * kProxies + j].push_back(
              pa::broker::ProduceView{view.message_id, view.bytes(),
                                      now_ms});
          share_bytes_ += view.size;
        }
      }
    }
  }
  counts.sent = counts.participants * kProxies;
  for (size_t k = 0; k < nq; ++k) {
    for (size_t j = 0; j < kProxies; ++j) {
      ScopedSpan span(tracer_, track(), "proxy.receive", epoch);
      proxies_[j]->Receive(qids_[k], batches[k * kProxies + j]);
    }
  }
  arena_.Reset();
  for (auto& proxy : proxies_) {
    ScopedSpan span(tracer_, track(), "proxy.forward", epoch);
    counts.forwarded += proxy->ForwardLanes();
  }
  const uint64_t malformed_before = aggregator_->malformed_dropped();
  {
    ScopedSpan span(tracer_, track(), "aggregator.drain", epoch);
    counts.consumed = aggregator_->Drain();
  }
  counts.malformed = aggregator_->malformed_dropped() - malformed_before;
  return counts;
}

std::vector<pa::aggregator::WindowedResult> SerialPipeline::Fire(
    int64_t watermark_ms) {
  aggregator_->AdvanceWatermark(watermark_ms);
  std::vector<pa::aggregator::WindowedResult> fired;
  fired.swap(results_);
  return fired;
}

// PrivApproxSystem::SubmitQuery without the budget manager (the workload
// has no cap, so admission returns the parameters unchanged): the
// announcement travels through each proxy's query topics to its cohort.
void SerialPipeline::Submit(const pa::core::Query& query,
                            const pa::core::ExecutionParams& params) {
  const std::vector<uint8_t> announcement = pa::core::SerializeAnnouncement(
      pa::core::QueryAnnouncement{query, params});
  for (size_t j = 0; j < kProxies; ++j) {
    proxies_[j]->AnnounceQuery(announcement, /*timestamp_ms=*/0);
    proxies_[j]->ForwardQueries();
    pa::transport::BusConsumer consumer(bus_,
                                        proxies_[j]->query_out_topic());
    std::vector<pa::broker::RecordView> records;
    while (consumer.PollInto(64, records) != 0) {
    }
    if (records.empty()) {
      throw std::logic_error("serial pipeline: query distribution failed");
    }
    const pa::broker::RecordView& last = records.back();
    const std::vector<uint8_t> bytes(last.payload,
                                     last.payload + last.payload_len);
    for (size_t i = j; i < clients_.size(); i += kProxies) {
      clients_[i]->OnAnnouncement(bytes);
    }
    proxies_[j]->EnsureLane(query.query_id);
  }
  pa::aggregator::QueryLaneOptions lane;
  for (auto& proxy : proxies_) {
    lane.source_topics.push_back(proxy->lane_out_topic(query.query_id));
  }
  aggregator_->RegisterQuery(query, params, std::move(lane));
  qids_.push_back(query.query_id);
}

TcpDeployment::TcpDeployment(TcpOptions options, Tracer& tracer)
    : options_(std::move(options)), tracer_(tracer) {
  proxy_ports_.assign(kProxies, 0);
  LaunchDaemons();

  pa::deploy::FleetDriverConfig config;
  config.num_clients = kClients;
  config.seed = options_.seed;
  for (const uint16_t port : proxy_ports_) {
    config.proxies.push_back(pa::deploy::Endpoint{"127.0.0.1", port});
  }
  config.aggregator = pa::deploy::Endpoint{"127.0.0.1", aggregator_port_};
  // The hooks cut RunEpoch into its three wire phases for the trace.
  config.after_produce_hook = [this] {
    tracer_.End(open_span_);
    open_span_ = tracer_.Begin(track(), "proxy.forward_lanes", epoch_);
  };
  config.before_drain_hook = [this] {
    tracer_.End(open_span_);
    open_span_ = tracer_.Begin(track(), "aggregator.drain_rpc", epoch_);
  };
  fleet_ = std::make_unique<pa::deploy::FleetDriver>(config);
  for (size_t i = 0; i < kClients; ++i) {
    CreateTables(fleet_->client(i));
  }
  for (const pa::core::Query& query : WorkloadQueries()) {
    fleet_->SubmitQuery(query, WorkloadParams());
  }
}

void TcpDeployment::LaunchDaemons() {
  pa::storage::PartitionLogOptions log;
  log.fsync = pa::storage::FsyncPolicy::kOnRotate;
  const std::filesystem::path root(options_.data_root);
  for (size_t j = 0; j < kProxies; ++j) {
    pa::deploy::ProxyDaemonConfig config;
    config.proxy_index = j;
    config.port = proxy_ports_[j];
    if (durable()) {
      config.data_dir = (root / ("proxyd" + std::to_string(j))).string();
      config.log = log;
    }
    proxies_.push_back(std::make_unique<pa::deploy::ProxyDaemon>(config));
    proxies_.back()->Start();
    proxy_ports_[j] = proxies_.back()->port();
  }
  pa::deploy::AggregatorDaemonConfig config;
  for (const uint16_t port : proxy_ports_) {
    config.proxies.push_back(pa::deploy::Endpoint{"127.0.0.1", port});
  }
  config.population = kClients;
  config.port = aggregator_port_;
  if (durable()) {
    config.data_dir = (root / "aggregatord").string();
    config.log = log;
  }
  aggregator_ = std::make_unique<pa::deploy::AggregatorDaemon>(config);
  aggregator_->Start();
  aggregator_port_ = aggregator_->port();
}

EpochCounts TcpDeployment::RunEpoch(int64_t now_ms, uint64_t epoch) {
  epoch_ = epoch;
  open_span_ = tracer_.Begin(track(), "fleet.answer_produce", epoch);
  const pa::deploy::FleetEpochStats stats = fleet_->RunEpoch(now_ms);
  tracer_.End(open_span_);
  open_span_ = -1;
  return EpochCounts{stats.participants, stats.shares_sent,
                     stats.shares_forwarded, stats.shares_consumed, 0};
}

std::vector<pa::aggregator::WindowedResult> TcpDeployment::Fire(
    int64_t watermark_ms) {
  fleet_->AdvanceWatermark(watermark_ms);
  return fleet_->TakeResults();
}

double TcpDeployment::ProxyStorageBytes() {
  const std::vector<std::string> texts = DaemonMetricsTexts();
  double sum = 0;
  for (size_t j = 0; j < kProxies; ++j) {
    sum += PromSum(texts[j], "privapprox_storage_bytes");
  }
  return sum;
}

uint64_t TcpDeployment::AfterEpoch() {
  if (!durable()) {
    return 0;
  }
  if (tracer_.enabled()) {
    storage_written_ += static_cast<uint64_t>(
        std::max(0.0, ProxyStorageBytes() - storage_live_));
  }
  const uint64_t deleted = fleet_->AdvanceRetention();
  if (tracer_.enabled()) {
    storage_live_ = ProxyStorageBytes();
  }
  return deleted;
}

void TcpDeployment::RestartDaemons() {
  aggregator_.reset();
  proxies_.clear();
  LaunchDaemons();
  // The driver's sockets still point at the dead daemons: the first call on
  // each fails and drops it, the next one re-dials.
  for (int attempt = 0;; ++attempt) {
    try {
      DaemonMetricsTexts();
      return;
    } catch (const std::exception&) {
      if (attempt >= 2 * static_cast<int>(kProxies + 1)) {
        throw;
      }
    }
  }
}

std::vector<std::string> TcpDeployment::DaemonMetricsTexts() {
  std::vector<std::string> texts;
  for (size_t j = 0; j < kProxies; ++j) {
    texts.push_back(fleet_->ProxyMetricsText(j));
  }
  texts.push_back(fleet_->AggregatorMetricsText());
  return texts;
}

}  // namespace perfbench
