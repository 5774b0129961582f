#include "system/system.h"

#include "common/channel.h"
#include "common/simd_dispatch.h"
#include "core/query_wire.h"

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

namespace privapprox::system {

namespace {

// Times one pipeline stage into an optional histogram and, when tracing is
// on, records it as a timeline span. Reads the clock only when at least one
// sink is active, so disabled metrics keep the hot path clock-free.
class StageScope {
 public:
  StageScope(const char* name, metrics::Histogram* hist,
             metrics::EpochTimeline& timeline)
      : name_(name),
        hist_(hist),
        timeline_(timeline.enabled() ? &timeline : nullptr) {
    if (hist_ != nullptr || timeline_ != nullptr) {
      start_ns_ = metrics::EpochTimeline::NowNs();
    }
  }
  ~StageScope() {
    if (hist_ == nullptr && timeline_ == nullptr) {
      return;
    }
    const int64_t end_ns = metrics::EpochTimeline::NowNs();
    if (hist_ != nullptr) {
      hist_->Observe(static_cast<uint64_t>(end_ns - start_ns_));
    }
    if (timeline_ != nullptr) {
      timeline_->Record(name_, start_ns_, end_ns);
    }
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  const char* name_;
  metrics::Histogram* hist_;
  metrics::EpochTimeline* timeline_;
  int64_t start_ns_ = 0;
};

}  // namespace

PrivApproxSystem::PrivApproxSystem(SystemConfig config)
    : config_(std::move(config)),
      timeline_(config_.metrics.timeline),
      budget_manager_(core::BudgetManagerConfig{
          config_.budget.max_epsilon_zk, config_.budget.downsample_to_fit,
          config_.budget.min_sampling_fraction}),
      historical_rng_(config_.seed ^ 0xA5A5A5A5ULL) {
  if (config_.num_clients == 0) {
    throw std::invalid_argument("PrivApproxSystem: need >= 1 client");
  }
  if (config_.num_proxies < 2) {
    throw std::invalid_argument("PrivApproxSystem: need >= 2 proxies");
  }

  // Durability must precede every topic: the proxies below create theirs in
  // their constructors, and a recovered topic must replay before anything
  // attaches to it.
  if (!config_.broker.data_dir.empty()) {
    broker_.EnableDurability(
        {config_.broker.data_dir, config_.broker.log});
    broker_.RecoverTopics();
  }

  // The crypto hot path's SIMD tier, decided once per process
  // (PRIVAPPROX_SIMD override; common/simd_dispatch.h) — surfaced so bench
  // artifacts and scrapes record which kernels produced the numbers.
  registry_
      .GetGauge("privapprox_simd_isa",
                "Active SIMD dispatch tier for the ChaCha20/XOR hot path "
                "(1 = the labeled ISA is active)",
                {{"isa", simd::IsaName(simd::ActiveIsa())}})
      .Set(1);

  // Always-on core counters: EpochStats is a per-epoch delta of these.
  counters_.epochs = &registry_.GetCounter(
      "privapprox_epochs_total", "Answering epochs run");
  counters_.participants = &registry_.GetCounter(
      "privapprox_participants_total",
      "(client, query) pairs that passed the sampling coin, summed over "
      "epochs");
  counters_.shares_sent = &registry_.GetCounter(
      "privapprox_shares_sent_total", "Client -> proxy share messages");
  counters_.shares_forwarded = &registry_.GetCounter(
      "privapprox_shares_forwarded_total",
      "Shares moved proxy inbound -> outbound");
  counters_.shares_consumed = &registry_.GetCounter(
      "privapprox_shares_consumed_total",
      "Records consumed by the aggregator (including malformed)");
  counters_.malformed = &registry_.GetCounter(
      "privapprox_malformed_dropped_total",
      "Records dropped as undecodable (truncated share or garbage "
      "plaintext)");
  if (config_.metrics.enabled) {
    const std::string stage_help =
        "Stage latency in nanoseconds (one observation per stage execution)";
    stage_ns_.answer_shard_ns = &registry_.GetHistogram(
        "privapprox_stage_ns", stage_help, {{"stage", "answer_shard"}});
    stage_ns_.proxy_forward_ns = &registry_.GetHistogram(
        "privapprox_stage_ns", stage_help, {{"stage", "proxy_forward"}});
    stage_ns_.agg_consume_ns = &registry_.GetHistogram(
        "privapprox_stage_ns", stage_help, {{"stage", "agg_consume"}});
    stage_ns_.epoch_ns = &registry_.GetHistogram(
        "privapprox_stage_ns", stage_help, {{"stage", "epoch"}});
  }

  const size_t threads =
      config_.pipeline.num_worker_threads != 0
          ? config_.pipeline.num_worker_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  pool_ = std::make_unique<ThreadPool>(threads);

  proxies_.reserve(config_.num_proxies);
  for (size_t i = 0; i < config_.num_proxies; ++i) {
    proxy::ProxyConfig proxy_config;
    proxy_config.proxy_index = i;
    proxy_config.num_partitions = 4;
    const metrics::Labels labels{{"proxy", std::to_string(i)}};
    proxy_config.received_total = &registry_.GetCounter(
        "privapprox_proxy_received_total",
        "Records accepted into each proxy's inbound topic", labels);
    proxy_config.forwarded_total = &registry_.GetCounter(
        "privapprox_proxy_forwarded_total",
        "Records each proxy moved inbound -> outbound", labels);
    if (config_.metrics.enabled) {
      proxy_config.forward_ns = &registry_.GetHistogram(
          "privapprox_proxy_forward_ns",
          "Per-call proxy forward latency in nanoseconds", labels);
    }
    proxies_.push_back(
        std::make_unique<proxy::Proxy>(proxy_config, bus_));
  }

  if (config_.fault.has_value()) {
    const fault::FaultPlan& plan = *config_.fault;
    plan.Validate();
    fault_counters_.shares_dropped = &registry_.GetCounter(
        "privapprox_fault_shares_dropped_total",
        "Shares dropped in transit by the fault injector");
    fault_counters_.shares_corrupted = &registry_.GetCounter(
        "privapprox_fault_shares_corrupted_total",
        "Shares truncated below the MID header by the fault injector");
    fault_counters_.shares_duplicated = &registry_.GetCounter(
        "privapprox_fault_shares_duplicated_total",
        "Shares delivered twice by the fault injector");
    fault_counters_.shares_delayed = &registry_.GetCounter(
        "privapprox_fault_shares_delayed_total",
        "Shares deferred to the next epoch by the degraded link");
    fault_counters_.forward_timeouts = &registry_.GetCounter(
        "privapprox_fault_forward_timeouts_total",
        "Client -> proxy forward attempts that timed out");
    fault_counters_.proxy_crashes = &registry_.GetCounter(
        "privapprox_fault_proxy_crashes_total",
        "Proxy-epochs spent crashed (restart at the next epoch)");
    fault_counters_.lost_mids = &registry_.GetCounter(
        "privapprox_fault_lost_mids_total",
        "Distinct (query, MID) pairs the injector knows can never join");
    fault_counters_.retries = &registry_.GetCounter(
        "privapprox_recovery_retries_total",
        "Forward attempts retried after a timeout");
    fault_counters_.failovers = &registry_.GetCounter(
        "privapprox_recovery_failovers_total",
        "Shares delivered via a standby proxy after retries were exhausted");
    fault_counters_.late_delivered = &registry_.GetCounter(
        "privapprox_recovery_late_delivered_total",
        "Deferred shares replayed at the start of a later epoch");
    fault_counters_.backoff_ms = &registry_.GetHistogram(
        "privapprox_recovery_backoff_ms",
        "Simulated retry backoff per timed-out forward in milliseconds");
    // Standbys exist only for plans that can time a forward out — an
    // always-reachable plan must not alter the broker topic set.
    const bool standby = plan.standby_proxies && plan.CanTimeOut();
    if (standby) {
      standby_proxies_.reserve(config_.num_proxies);
      for (size_t i = 0; i < config_.num_proxies; ++i) {
        proxy::ProxyConfig standby_config;
        standby_config.proxy_index = i;
        standby_config.num_partitions = 4;
        standby_config.topic_prefix = "standby" + std::to_string(i);
        standby_config.out_topic = proxies_[i]->out_topic();
        // Lane outbound topics must also be the primary's, so failover
        // shares land in the per-query streams the aggregator joins.
        standby_config.out_prefix = "proxy" + std::to_string(i);
        const metrics::Labels labels{{"proxy", std::to_string(i)}};
        standby_config.received_total = &registry_.GetCounter(
            "privapprox_standby_received_total",
            "Records accepted into each standby proxy's inbound topic",
            labels);
        standby_config.forwarded_total = &registry_.GetCounter(
            "privapprox_standby_forwarded_total",
            "Records each standby proxy moved inbound -> outbound", labels);
        standby_proxies_.push_back(
            std::make_unique<proxy::Proxy>(standby_config, bus_));
      }
    }
    injector_ = std::make_unique<fault::FaultInjector>(plan, fault_counters_,
                                                       standby);
  }

  metrics::Counter* client_answers = nullptr;
  metrics::Counter* client_skips = nullptr;
  if (config_.metrics.enabled) {
    client_answers = &registry_.GetCounter(
        "privapprox_client_answers_total",
        "Client (query, epoch) pairs answered (sampling coin heads)");
    client_skips = &registry_.GetCounter(
        "privapprox_client_skips_total",
        "Client (query, epoch) pairs skipped (sampling coin tails)");
  }
  clients_.reserve(config_.num_clients);
  for (size_t i = 0; i < config_.num_clients; ++i) {
    client::ClientConfig client_config;
    client_config.client_id = i;
    client_config.num_proxies = config_.num_proxies;
    client_config.seed = config_.seed;
    client_config.invert_answers = config_.invert_answers;
    client_config.answers_total = client_answers;
    client_config.skips_total = client_skips;
    clients_.push_back(std::make_unique<client::Client>(client_config));
  }

  // The aggregator coordinator exists from construction; queries add lanes
  // to it as they are submitted.
  aggregator::AggregatorConfig agg_config;
  agg_config.num_proxies = config_.num_proxies;
  agg_config.population = clients_.size();
  agg_config.confidence = config_.confidence;
  agg_config.answers_inverted = config_.invert_answers;
  agg_config.num_shards = config_.aggregator.num_shards != 0
                              ? config_.aggregator.num_shards
                              : pool_->num_threads();
  agg_config.pool = pool_.get();
  agg_config.malformed_total = counters_.malformed;
  if (injector_ != nullptr) {
    agg_config.track_fault_losses = true;
    agg_config.expired_mids_total = &registry_.GetCounter(
        "privapprox_fault_expired_mids_total",
        "Incomplete join groups expired at the watermark");
  }
  if (config_.metrics.enabled) {
    agg_config.decode_ns = &registry_.GetHistogram(
        "privapprox_agg_decode_ns",
        "Aggregator poll+decode pass latency in nanoseconds");
    agg_config.join_ns = &registry_.GetHistogram(
        "privapprox_agg_join_ns",
        "Aggregator join feed pass latency in nanoseconds");
    agg_config.window_ns = &registry_.GetHistogram(
        "privapprox_agg_window_ns",
        "Window fire (de-bias + error estimation) latency in nanoseconds");
  }
  aggregator_ = std::make_unique<aggregator::Aggregator>(
      agg_config, bus_,
      [this](const aggregator::WindowedResult& result) {
        results_.push_back(result);
      });
  if (config_.historical.enabled) {
    if (!config_.historical.dir.empty()) {
      historical_log_ = std::make_unique<storage::PartitionLog>(
          config_.historical.dir, storage::PartitionLogOptions{});
    }
    aggregator_->set_answer_tap(
        [this](int64_t timestamp_ms, const BitVector& answer) {
          if (historical_log_ != nullptr) {
            storage::AppendAnswer(*historical_log_, timestamp_ms, answer);
          } else {
            historical_store_.Append(timestamp_ms, answer);
          }
        });
  }

  if (config_.metrics.enabled) {
    // Exposition-time collector: pulls broker topic counters and slab
    // occupancy into gauges, so the broker hot path never touches the
    // registry.
    registry_.AddCollector([this] {
      for (const std::string& name : broker_.TopicNames()) {
        const broker::Topic& topic =
            static_cast<const broker::Broker&>(broker_).GetTopic(name);
        const metrics::Labels labels{{"topic", name}};
        const broker::TopicMetrics m = topic.metrics();
        registry_
            .GetGauge("privapprox_topic_records_in",
                      "Records appended to the topic", labels)
            .Set(static_cast<int64_t>(m.records_in));
        registry_
            .GetGauge("privapprox_topic_records_out",
                      "Records read from the topic", labels)
            .Set(static_cast<int64_t>(m.records_out));
        registry_
            .GetGauge("privapprox_topic_bytes_in",
                      "Payload bytes appended to the topic", labels)
            .Set(static_cast<int64_t>(m.bytes_in));
        registry_
            .GetGauge("privapprox_topic_bytes_out",
                      "Payload bytes read from the topic", labels)
            .Set(static_cast<int64_t>(m.bytes_out));
        const broker::SlabStats slabs = topic.slab_stats();
        registry_
            .GetGauge("privapprox_topic_slab_allocated_bytes",
                      "Slab bytes allocated for the topic's payloads", labels)
            .Set(static_cast<int64_t>(slabs.allocated_bytes));
        registry_
            .GetGauge("privapprox_topic_slab_used_bytes",
                      "Slab bytes holding payload data", labels)
            .Set(static_cast<int64_t>(slabs.used_bytes));
      }
      if (broker_.durable()) {
        const broker::DurableStats s = broker_.durable_stats();
        registry_
            .GetGauge("privapprox_storage_segments",
                      "Live log segments, all durable topics")
            .Set(static_cast<int64_t>(s.segments));
        registry_
            .GetGauge("privapprox_storage_bytes",
                      "Bytes held in live log segments")
            .Set(static_cast<int64_t>(s.bytes));
        registry_
            .GetGauge("privapprox_storage_fsyncs",
                      "fsync calls issued by partition logs")
            .Set(static_cast<int64_t>(s.fsyncs));
        registry_
            .GetGauge("privapprox_storage_recovered_records",
                      "Records replayed from disk at startup")
            .Set(static_cast<int64_t>(s.recovered_records));
        registry_
            .GetGauge("privapprox_storage_truncated_tails",
                      "Torn record tails truncated during recovery")
            .Set(static_cast<int64_t>(s.truncated_tails));
      }
    });
  }

  for (const SystemConfig::QuerySpec& spec : config_.queries) {
    SubmitQuery(spec.query, spec.params);
  }
}

PrivApproxSystem::~PrivApproxSystem() = default;

core::ExecutionParams PrivApproxSystem::SubmitQuery(
    const core::Query& query, const core::QueryBudget& budget,
    double expected_yes_fraction) {
  const core::BudgetInitializer initializer;
  const core::ExecutionParams params = initializer.Convert(
      budget,
      core::PopulationInfo{clients_.size(), expected_yes_fraction});
  return SubmitQuery(query, params);
}

core::ExecutionParams PrivApproxSystem::SubmitQuery(
    const core::Query& query, const core::ExecutionParams& params) {
  params.Validate();
  if (!query.VerifySignature()) {
    throw std::invalid_argument("PrivApproxSystem: query signature invalid");
  }
  if (active_.count(query.query_id) != 0) {
    throw std::invalid_argument(
        "PrivApproxSystem: query id already submitted");
  }

  // Admission: the budget manager may down-sample `s` to fit the fleet cap
  // (or refuse the query outright). Everything downstream — announcement,
  // estimator, ledger — uses the admitted parameters.
  const core::BudgetAdmission admission =
      budget_manager_.Admit(query.query_id, params);
  try {
    // Submission phase (§3.1): the announcement travels aggregator -> proxy
    // query topics -> clients as opaque bytes; every client re-parses and
    // re-verifies it locally.
    DistributeAnnouncement(query, admission.params,
                           "query distribution failed");

    // Per-(query, proxy) lanes on every primary and standby, plus the
    // aggregator lane consuming them.
    for (auto& proxy : proxies_) {
      proxy->EnsureLane(query.query_id);
    }
    for (auto& standby : standby_proxies_) {
      standby->EnsureLane(query.query_id);
    }
    aggregator::QueryLaneOptions lane;
    lane.source_topics.reserve(proxies_.size());
    for (auto& proxy : proxies_) {
      lane.source_topics.push_back(proxy->lane_out_topic(query.query_id));
    }
    ActiveQuery active;
    active.query = query;
    active.params = admission.params;
    if (config_.metrics.enabled) {
      const std::string qid = std::to_string(query.query_id);
      const metrics::Labels query_labels{{"query", qid}};
      active.participants_total = &registry_.GetCounter(
          "privapprox_query_participants_total",
          "Clients that passed this query's sampling coin, summed over "
          "epochs",
          query_labels);
      active.shares_sent_total = &registry_.GetCounter(
          "privapprox_query_shares_sent_total",
          "Client -> proxy share messages for this query", query_labels);
      for (size_t s = 0; s < aggregator_->num_shards(); ++s) {
        const metrics::Labels labels = {{"query", qid},
                                        {"shard", std::to_string(s)}};
        lane.shard_shares_total.push_back(&registry_.GetCounter(
            "privapprox_agg_shard_shares_total",
            "Shares routed to this aggregator join shard", labels));
        lane.shard_joined_total.push_back(&registry_.GetCounter(
            "privapprox_agg_shard_joined_total",
            "Answers completed by this aggregator join shard", labels));
      }
      lane.shard_imbalance_milli = &registry_.GetGauge(
          "privapprox_agg_shard_imbalance_milli",
          "Max-shard routed shares over the per-shard mean, x1000 "
          "(1000 = perfectly balanced)",
          query_labels);
    }
    aggregator_->RegisterQuery(query, admission.params, std::move(lane));
    active_.emplace(query.query_id, std::move(active));
  } catch (...) {
    budget_manager_.Release(query.query_id);
    throw;
  }
  return admission.params;
}

core::ExecutionParams PrivApproxSystem::UpdateParams(
    uint64_t query_id, const core::ExecutionParams& params) {
  ActiveQuery& active = GetActive(query_id, "UpdateParams");
  params.Validate();
  // Re-price atomically: on refusal the previous registration (and the
  // parameters every client runs with) stays untouched.
  const core::BudgetAdmission admission =
      budget_manager_.Update(query_id, params);
  DistributeAnnouncement(active.query, admission.params,
                         "parameter update failed");
  aggregator_->UpdateParams(query_id, admission.params);
  active.params = admission.params;
  return admission.params;
}

core::ExecutionParams PrivApproxSystem::UpdateParams(
    const core::ExecutionParams& params) {
  return UpdateParams(SingleActive("UpdateParams").query.query_id, params);
}

std::vector<uint64_t> PrivApproxSystem::query_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(active_.size());
  for (const auto& [qid, active] : active_) {
    ids.push_back(qid);
  }
  return ids;
}

const core::ExecutionParams& PrivApproxSystem::query_params(
    uint64_t query_id) const {
  const auto it = active_.find(query_id);
  if (it == active_.end()) {
    throw std::logic_error(
        "PrivApproxSystem::query_params: unknown query id");
  }
  return it->second.params;
}

PrivApproxSystem::ActiveQuery& PrivApproxSystem::GetActive(
    uint64_t query_id, const char* caller) {
  const auto it = active_.find(query_id);
  if (it == active_.end()) {
    throw std::logic_error(std::string("PrivApproxSystem::") + caller +
                           ": unknown query id");
  }
  return it->second;
}

const PrivApproxSystem::ActiveQuery& PrivApproxSystem::SingleActive(
    const char* caller) const {
  if (active_.empty()) {
    throw std::logic_error(std::string("PrivApproxSystem::") + caller +
                           ": no active query");
  }
  if (active_.size() != 1) {
    throw std::logic_error(std::string("PrivApproxSystem::") + caller +
                           ": ambiguous with multiple queries; pass a "
                           "query id");
  }
  return active_.begin()->second;
}

void PrivApproxSystem::DistributeAnnouncement(
    const core::Query& query, const core::ExecutionParams& params,
    const char* failure_what) {
  const std::vector<uint8_t> announcement =
      core::SerializeAnnouncement(core::QueryAnnouncement{query, params});
  for (auto& proxy : proxies_) {
    proxy->AnnounceQuery(announcement, /*timestamp_ms=*/0);
    proxy->ForwardQueries();
  }
  for (size_t p = 0; p < proxies_.size(); ++p) {
    transport::BusConsumer consumer(bus_,
                                    proxies_[p]->query_out_topic());
    std::vector<broker::RecordView> records;
    while (consumer.PollInto(64, records) != 0) {
    }
    if (records.empty()) {
      throw std::logic_error(std::string("PrivApproxSystem: ") +
                             failure_what);
    }
    // The freshest announcement on the topic is the one just published.
    const broker::RecordView& last = records.back();
    const std::vector<uint8_t> bytes(last.payload,
                                     last.payload + last.payload_len);
    for (size_t i = p; i < clients_.size(); i += proxies_.size()) {
      clients_[i]->OnAnnouncement(bytes);
    }
  }
}

EpochStats PrivApproxSystem::RunEpoch(int64_t now_ms) {
  if (active_.empty()) {
    throw std::logic_error("PrivApproxSystem::RunEpoch: no query submitted");
  }
  const uint64_t participants_before = counters_.participants->Value();
  const uint64_t sent_before = counters_.shares_sent->Value();
  const uint64_t forwarded_before = counters_.shares_forwarded->Value();
  const uint64_t consumed_before = counters_.shares_consumed->Value();
  const uint64_t malformed_before = counters_.malformed->Value();
  struct FaultSnapshot {
    uint64_t dropped = 0, corrupted = 0, duplicated = 0, delayed = 0;
    uint64_t timeouts = 0, crashes = 0, lost = 0;
    uint64_t retries = 0, failovers = 0, late = 0;
  };
  const auto snapshot_faults = [this] {
    FaultSnapshot s;
    if (injector_ != nullptr) {
      s.dropped = fault_counters_.shares_dropped->Value();
      s.corrupted = fault_counters_.shares_corrupted->Value();
      s.duplicated = fault_counters_.shares_duplicated->Value();
      s.delayed = fault_counters_.shares_delayed->Value();
      s.timeouts = fault_counters_.forward_timeouts->Value();
      s.crashes = fault_counters_.proxy_crashes->Value();
      s.lost = fault_counters_.lost_mids->Value();
      s.retries = fault_counters_.retries->Value();
      s.failovers = fault_counters_.failovers->Value();
      s.late = fault_counters_.late_delivered->Value();
    }
    return s;
  };
  const FaultSnapshot fault_before = snapshot_faults();
  {
    StageScope epoch_scope("epoch", stage_ns_.epoch_ns, timeline_);
    if (injector_ != nullptr) {
      ReplayDeferredShares();
      for (size_t j = 0; j < proxies_.size(); ++j) {
        if (injector_->ProxyCrashes(epoch_index_, j)) {
          fault_counters_.proxy_crashes->Increment();
        }
      }
    }
    RunEpochStreaming(now_ms);
  }
  if (injector_ != nullptr) {
    // Hand the epoch's unjoinable (query, MID) pairs to each query's lane
    // so every window covering now_ms widens its error bound (paper Eq. 2
    // with the lost answers removed from the effective sample). The drain
    // is sorted by (QID, MID), so one pass groups per lane.
    const std::vector<std::pair<uint64_t, uint64_t>> lost =
        injector_->TakeLostMids();
    std::vector<uint64_t> mids;
    for (size_t i = 0; i < lost.size();) {
      const uint64_t qid = lost[i].first;
      mids.clear();
      for (; i < lost.size() && lost[i].first == qid; ++i) {
        mids.push_back(lost[i].second);
      }
      aggregator_->NoteFaultLostMids(qid, mids, now_ms);
    }
  }
  ++epoch_index_;
  counters_.epochs->Increment();
  EpochStats stats;
  stats.participants = static_cast<size_t>(counters_.participants->Value() -
                                           participants_before);
  stats.shares_sent = counters_.shares_sent->Value() - sent_before;
  stats.shares_forwarded =
      counters_.shares_forwarded->Value() - forwarded_before;
  stats.shares_consumed = counters_.shares_consumed->Value() - consumed_before;
  stats.malformed_dropped = counters_.malformed->Value() - malformed_before;
  if (injector_ != nullptr) {
    const FaultSnapshot after = snapshot_faults();
    stats.fault_shares_dropped = after.dropped - fault_before.dropped;
    stats.fault_shares_corrupted = after.corrupted - fault_before.corrupted;
    stats.fault_shares_duplicated = after.duplicated - fault_before.duplicated;
    stats.fault_shares_delayed = after.delayed - fault_before.delayed;
    stats.fault_forward_timeouts = after.timeouts - fault_before.timeouts;
    stats.fault_proxy_crashes = after.crashes - fault_before.crashes;
    stats.fault_lost_mids = after.lost - fault_before.lost;
    stats.recovery_retries = after.retries - fault_before.retries;
    stats.recovery_failovers = after.failovers - fault_before.failovers;
    stats.recovery_late_delivered = after.late - fault_before.late;
  }
  return stats;
}

// Delivers the shares the degraded link held back, at the start of the next
// epoch: they land at the head of each lane's inbound topic (before this
// epoch's shards) with their original event time, so the proxies forward
// them first and the join sees them in the same order at any worker count.
// The deferred buffer is sorted by (proxy, QID, MID), so one pass batches
// per lane; each record is a QID-tagged frame whose tag is stripped back
// off here — lane topics carry plain <MID, payload> records.
void PrivApproxSystem::ReplayDeferredShares() {
  const std::vector<fault::DeferredShare> deferred = injector_->TakeDeferred();
  std::vector<broker::ProduceView> batch;
  for (size_t i = 0; i < deferred.size();) {
    const size_t proxy = deferred[i].proxy;
    const uint64_t qid = deferred[i].query_id;
    batch.clear();
    for (; i < deferred.size() && deferred[i].proxy == proxy &&
           deferred[i].query_id == qid;
         ++i) {
      const core::TaggedShareView tagged =
          core::ParseTaggedShare(deferred[i].record);
      batch.push_back(broker::ProduceView{deferred[i].message_id,
                                          tagged.lane_record,
                                          deferred[i].timestamp_ms});
    }
    proxies_[proxy]->Receive(qid, batch);
  }
}

namespace {

constexpr size_t kDefaultStreamShardSize = 1024;

// One contiguous client range to answer, tagged with its position in the
// epoch's shard sequence.
struct ShardTask {
  uint64_t seq = 0;
  size_t begin = 0;
  size_t end = 0;
};

// One shard's shares for one (query, proxy) lane: primary-bound records
// plus the ones failed over to the proxy's standby (empty without a fault
// plan).
struct LaneRecords {
  std::vector<broker::ProduceView> records;
  std::vector<broker::ProduceView> standby;
};

// One shard's shares for one proxy across every query lane (indexed like
// the system's ascending QID list), still tagged with the shard sequence so
// the proxy stage can restore client-id append order. The batch shares
// ownership of the arena holding the encoded share records: each view
// points into it, and when the last proxy's batch for a shard is dropped
// (after its records were copied into broker slabs) the arena resets and
// returns to the pool — so backpressure from the bounded channels also
// bounds the number of live arenas.
struct TaggedBatch {
  uint64_t seq = 0;
  std::vector<LaneRecords> lanes;
  ArenaRef arena;
};

// "Proxy `source` forwarded shard `seq` on query `query_id`'s lane; consume
// exactly these counts per outbound partition."
struct ShardNotice {
  uint64_t query_id = 0;
  size_t source = 0;
  uint64_t seq = 0;
  std::vector<uint32_t> partition_counts;
};

}  // namespace

// The epoch: client answering, proxy forwarding and aggregator join as
// producer→transform→consumer stages over bounded channels.
//
//   [main] --ShardTask--> [answer xW] --TaggedBatch--> [proxy j x1] (n of
//   them) --ShardNotice--> [aggregator x1]
//
// A shard's batch reaches its proxies the moment its clients finish
// answering; each proxy appends + forwards every query lane while later
// shards are still being answered; the aggregator decodes and joins
// forwarded batches as notices arrive. Determinism: per-proxy reorder
// buffers replay batches in shard order (so lane topic logs stay in
// client-id order, as a sequential client loop would append them), and each
// aggregator lane's reorder buffer feeds its MID join in (shard, source)
// order (see Aggregator::ConsumeShardBatch).
void PrivApproxSystem::RunEpochStreaming(int64_t now_ms) {
  const size_t num_clients = clients_.size();
  const size_t num_proxies = proxies_.size();
  const std::vector<uint64_t> qids = query_ids();
  const size_t num_queries = qids.size();
  const size_t shard_size = config_.pipeline.shard_size != 0
                                ? config_.pipeline.shard_size
                                : kDefaultStreamShardSize;
  const size_t depth = std::max<size_t>(1, config_.pipeline.depth);
  const size_t answer_workers = pool_->num_threads();

  Channel<ShardTask> tasks(depth);
  std::vector<std::unique_ptr<Channel<TaggedBatch>>> to_proxy;
  to_proxy.reserve(num_proxies);
  for (size_t j = 0; j < num_proxies; ++j) {
    to_proxy.push_back(std::make_unique<Channel<TaggedBatch>>(depth));
  }
  Channel<ShardNotice> notices(depth * num_proxies * num_queries);
  if (config_.metrics.enabled) {
    // Backpressure visibility: high-watermark of each channel's depth.
    const std::string help = "Channel depth high-watermark (shard batches)";
    tasks.set_depth_gauge(&registry_.GetGauge("privapprox_channel_depth_hwm",
                                              help, {{"channel", "tasks"}}));
    for (size_t j = 0; j < num_proxies; ++j) {
      to_proxy[j]->set_depth_gauge(&registry_.GetGauge(
          "privapprox_channel_depth_hwm", help,
          {{"channel", "to_proxy" + std::to_string(j)}}));
    }
    notices.set_depth_gauge(&registry_.GetGauge(
        "privapprox_channel_depth_hwm", help, {{"channel", "notices"}}));
  }

  // Consumer stage: single worker — each lane's join and window state are
  // sequential by design.
  Stage<ShardNotice> aggregator_stage(
      notices, 1, [&](ShardNotice&& notice) {
        StageScope scope("agg_consume", stage_ns_.agg_consume_ns, timeline_);
        counters_.shares_consumed->Increment(aggregator_->ConsumeShardBatch(
            notice.query_id, notice.source, notice.seq,
            notice.partition_counts));
      });

  // Per-proxy forward stages: one worker each (a proxy owns its lane
  // consumer offsets). Answer workers finish shards out of order, so each
  // stage reorders to shard order before appending — keeping every lane's
  // inbound topic in client-id order at any worker count.
  // The reorder map is small: tasks are handed out in shard order, so at
  // most ~(answer workers + channel depth) shards are in flight.
  std::vector<std::unique_ptr<Stage<TaggedBatch>>> proxy_stages;
  proxy_stages.reserve(num_proxies);
  for (size_t j = 0; j < num_proxies; ++j) {
    auto reorder = std::make_shared<std::map<uint64_t, TaggedBatch>>();
    auto next_seq = std::make_shared<uint64_t>(0);
    proxy_stages.push_back(std::make_unique<Stage<TaggedBatch>>(
        *to_proxy[j], 1, [&, j, reorder, next_seq](TaggedBatch&& batch) {
          (*reorder)[batch.seq] = std::move(batch);
          for (auto it = reorder->find(*next_seq); it != reorder->end();
               it = reorder->find(*next_seq)) {
            TaggedBatch head = std::move(it->second);
            reorder->erase(it);
            StageScope scope("proxy_forward", stage_ns_.proxy_forward_ns,
                             timeline_);
            uint64_t forwarded = 0;
            for (size_t k = 0; k < num_queries; ++k) {
              std::vector<uint32_t> counts =
                  proxies_[j]->ReceiveAndForwardShard(qids[k],
                                                      head.lanes[k].records);
              if (!standby_proxies_.empty()) {
                // The standby appends to the same lane outbound topic;
                // merging the per-partition counts keeps the aggregator's
                // promised-read contract exact.
                const std::vector<uint32_t> standby_counts =
                    standby_proxies_[j]->ReceiveAndForwardShard(
                        qids[k], head.lanes[k].standby);
                for (size_t p = 0; p < counts.size(); ++p) {
                  counts[p] += standby_counts[p];
                }
              }
              for (uint32_t count : counts) {
                forwarded += count;
              }
              notices.Push(ShardNotice{qids[k], j, *next_seq,
                                       std::move(counts)});
            }
            // `head` (and with it this proxy's arena reference) dies here —
            // the records are now in the broker's slabs.
            counters_.shares_forwarded->Increment(forwarded);
            ++*next_seq;
          }
        }));
  }

  // Producer stage: workers answer one shard's clients across every
  // subscribed query and ship the resulting per-proxy batches downstream
  // immediately. Every random decision draws from per-client RNG state, so
  // which worker answers a shard cannot change any byte. Empty batches are
  // shipped too — the shard sequence must be gapless for the reorder
  // buffers to advance.
  Stage<ShardTask> answer_stage(tasks, answer_workers, [&](ShardTask&& task) {
    StageScope scope("answer_shard", stage_ns_.answer_shard_ns, timeline_);
    ArenaRef arena = arena_pool_.Acquire();
    std::vector<std::vector<LaneRecords>> per_proxy(num_proxies);
    for (auto& lanes : per_proxy) {
      lanes.resize(num_queries);
      for (auto& lane : lanes) {
        lane.records.reserve(task.end - task.begin);
      }
    }
    std::vector<crypto::ShareView> views(num_queries * num_proxies);
    std::vector<uint64_t> answered_qids;
    std::vector<uint64_t> local_per_query(num_queries, 0);
    uint64_t local_participants = 0;
    uint64_t local_shares = 0;
    for (size_t i = task.begin; i < task.end; ++i) {
      clients_[i]->AnswerSubscribedInto(now_ms, *arena, views,
                                        answered_qids);
      size_t k = 0;
      for (const uint64_t qid : answered_qids) {
        while (qids[k] != qid) {
          ++k;
        }
        ++local_participants;
        ++local_per_query[k];
        local_shares += num_proxies;
        for (size_t j = 0; j < num_proxies; ++j) {
          const crypto::ShareView& view = views[k * num_proxies + j];
          if (injector_ == nullptr) {
            per_proxy[j][k].records.push_back(broker::ProduceView{
                view.message_id, view.bytes(), now_ms});
            continue;
          }
          // Fault path: (QID, MID, proxy)-hashed decisions, so faults are
          // identical at any worker count. Defer copies the record into a
          // QID-tagged frame (the arena recycles at shard end); corrupted
          // views stay arena-backed, truncation is just a shorter span.
          const std::span<const uint8_t> record = view.bytes();
          const fault::ShareOutcome outcome = injector_->RouteShare(
              qid, view.message_id, j, epoch_index_, record.size());
          if (outcome.route == fault::ShareRoute::kLost) {
            continue;
          }
          if (outcome.route == fault::ShareRoute::kDeferred) {
            injector_->Defer(qid, j, view.message_id, record, now_ms);
            continue;
          }
          const std::span<const uint8_t> payload =
              outcome.corrupt_to != SIZE_MAX
                  ? record.first(outcome.corrupt_to)
                  : record;
          auto& dest = outcome.route == fault::ShareRoute::kStandby
                           ? per_proxy[j][k].standby
                           : per_proxy[j][k].records;
          dest.push_back(
              broker::ProduceView{view.message_id, payload, now_ms});
          if (outcome.duplicate) {
            dest.push_back(
                broker::ProduceView{view.message_id, payload, now_ms});
          }
        }
      }
    }
    counters_.participants->Increment(local_participants);
    counters_.shares_sent->Increment(local_shares);
    {
      size_t k = 0;
      for (auto& [qid, active] : active_) {
        if (active.participants_total != nullptr && local_per_query[k] != 0) {
          active.participants_total->Increment(local_per_query[k]);
          active.shares_sent_total->Increment(local_per_query[k] *
                                              num_proxies);
        }
        ++k;
      }
    }
    for (size_t j = 0; j < num_proxies; ++j) {
      // Each batch carries a reference to the shard's arena; the arena
      // recycles once every proxy has slab-copied its batch.
      to_proxy[j]->Push(TaggedBatch{task.seq, std::move(per_proxy[j]), arena});
    }
  });

  // Feed the pipeline, then shut it down stage by stage: close input, join
  // stage, close the next channel. Join errors are collected so the
  // shutdown sequence always completes (a failed stage drains its input,
  // so nothing upstream stays blocked).
  std::exception_ptr error;
  auto join_stage = [&error](auto& stage) {
    try {
      stage.Join();
    } catch (...) {
      if (error == nullptr) {
        error = std::current_exception();
      }
    }
  };
  uint64_t seq = 0;
  for (size_t begin = 0; begin < num_clients; begin += shard_size, ++seq) {
    tasks.Push(ShardTask{seq, begin, std::min(begin + shard_size, num_clients)});
  }
  tasks.Close();
  join_stage(answer_stage);
  for (auto& channel : to_proxy) {
    channel->Close();
  }
  for (auto& stage : proxy_stages) {
    join_stage(*stage);
  }
  notices.Close();
  join_stage(aggregator_stage);
  if (error != nullptr) {
    try {
      aggregator_->FinishStream();  // reset reorder state; expected to throw
    } catch (...) {
    }
    std::rethrow_exception(error);
  }
  aggregator_->FinishStream();
}

void PrivApproxSystem::AdvanceWatermark(int64_t watermark_ms) {
  aggregator_->AdvanceWatermark(watermark_ms);
}

void PrivApproxSystem::Flush() {
  aggregator_->Flush();
}

std::vector<aggregator::WindowedResult> PrivApproxSystem::TakeResults() {
  std::vector<aggregator::WindowedResult> out = std::move(results_);
  results_.clear();
  return out;
}

uint64_t PrivApproxSystem::ClientToProxyBytes() const {
  uint64_t bytes = 0;
  for (const auto& proxy : proxies_) {
    // Legacy single-query topic (untrafficked in lane mode) plus every
    // query lane.
    bytes += broker_.GetTopic(proxy->in_topic()).metrics().bytes_in;
    for (const auto& [qid, active] : active_) {
      bytes += broker_.GetTopic(proxy->lane_in_topic(qid)).metrics().bytes_in;
    }
  }
  return bytes;
}

core::QueryResult PrivApproxSystem::RunHistorical(
    int64_t from_ms, int64_t to_ms,
    const aggregator::BatchQueryBudget& budget) {
  if (!config_.historical.enabled) {
    throw std::logic_error(
        "PrivApproxSystem::RunHistorical: historical store disabled");
  }
  // The historical store tees joined answers without a QID partition, so
  // batch analytics only has well-defined semantics for a single query.
  const ActiveQuery& active = SingleActive("RunHistorical");
  const aggregator::ResponseStore loaded =
      historical_log_ != nullptr
          ? storage::LoadRange(*historical_log_, from_ms, to_ms)
          : aggregator::ResponseStore{};
  const aggregator::HistoricalAnalytics analytics(
      historical_log_ != nullptr ? loaded : historical_store_, active.params,
      clients_.size(), config_.confidence);
  return analytics.Run(from_ms, to_ms, budget, historical_rng_,
                       active.query.answer_format.num_buckets());
}

}  // namespace privapprox::system
