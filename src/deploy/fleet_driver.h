// Drives a fleet of simulated clients against real daemons over TCP: the
// client-side half of a socket deployment (proxy daemons + aggregator
// daemon being the server side).
//
// The driver owns the same client::Client objects PrivApproxSystem would
// own — same ClientConfig fields, same seed derivation, same ascending-QID
// answer layout — and replays the system's sequence of operations over the
// wire:
//
//   SubmitQuery   validate / verify / admit exactly like the in-process
//                 system, then: ensure_lane on every proxy daemon, produce
//                 the announcement into each proxy's query.in topic,
//                 forward_queries, poll query.out back and deliver the
//                 bytes to the proxy's client cohort (client i learns from
//                 proxy i mod n), and finally register_query on the
//                 aggregator daemon.
//   RunEpoch      answer clients sequentially in client-id order (the
//                 canonical order the in-process streaming epoch is pinned
//                 to), produce each (query, proxy) lane's shares in that
//                 order, forward_lanes on every proxy, drain on the
//                 aggregator.
//
// Because every byte that reaches a lane topic is produced in the same
// order with the same content as the in-process run, and the aggregator
// daemon runs the unchanged Aggregator over those topics, the two
// deployments' results are bit-identical (DESIGN.md §6j).

#ifndef PRIVAPPROX_DEPLOY_FLEET_DRIVER_H_
#define PRIVAPPROX_DEPLOY_FLEET_DRIVER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "client/client.h"
#include "common/arena.h"
#include "core/budget_manager.h"
#include "core/query.h"
#include "deploy/endpoint.h"
#include "metrics/metrics.h"
#include "transport/tcp_bus.h"

namespace privapprox::deploy {

struct FleetDriverConfig {
  size_t num_clients = 0;
  uint64_t seed = 42;
  bool invert_answers = false;
  std::vector<Endpoint> proxies;  // one proxy daemon per proxy index
  Endpoint aggregator;
  // Mirrors SystemConfig::budget so admission (and thus the announced
  // parameters) matches the in-process system.
  double max_epsilon_zk = std::numeric_limits<double>::infinity();
  bool downsample_to_fit = true;
  double min_sampling_fraction = 1e-3;
  // Records per Produce frame on the share path. Bounds frame size well
  // under the transport's 64 MiB cap; chunking never reorders records.
  size_t produce_chunk_records = 2048;
  // Chaos hooks (crash-restart CI): run between RunEpoch's wire phases —
  // after every lane batch has been produced / acked, and right before the
  // aggregator drain. A hook typically kill -9s and restarts a daemon, so
  // the next RPC at that daemon fails once while the TCP client re-dials;
  // set control_retries > 0 to absorb those one-shot failures. Retried
  // verbs are idempotent: forward_lanes forwards whatever is still pending,
  // and a durable daemon recovers its state before printing "listening".
  std::function<void()> after_produce_hook;
  std::function<void()> before_drain_hook;
  size_t control_retries = 0;
};

// What one distributed epoch moved, mirroring the in-process EpochStats
// core fields (fault injection does not exist on this path).
struct FleetEpochStats {
  size_t participants = 0;
  uint64_t shares_sent = 0;
  uint64_t shares_forwarded = 0;
  uint64_t shares_consumed = 0;
};

class FleetDriver {
 public:
  explicit FleetDriver(FleetDriverConfig config);
  ~FleetDriver();

  FleetDriver(const FleetDriver&) = delete;
  FleetDriver& operator=(const FleetDriver&) = delete;

  size_t num_clients() const { return clients_.size(); }
  // The client's local database is the test/bench seam — fill it exactly
  // like the reference system's before answering.
  client::Client& client(size_t index) { return *clients_.at(index); }

  // Submission phase over the wire; returns the admitted (possibly
  // down-sampled) parameters, like PrivApproxSystem::SubmitQuery.
  core::ExecutionParams SubmitQuery(const core::Query& query,
                                    const core::ExecutionParams& params);

  FleetEpochStats RunEpoch(int64_t now_ms);

  void AdvanceWatermark(int64_t watermark_ms);
  void Flush();
  std::vector<aggregator::WindowedResult> TakeResults();

  // Retention sweep across the durable fleet: fetches the aggregator's
  // per-source consumed offsets (source_offsets), routes each topic's
  // offsets to the proxy daemon that hosts it, and has every proxy trim
  // sealed log segments below those watermarks (plus its own lane-inbound
  // watermarks). Returns segments deleted fleet-wide. Safe (a no-op) on a
  // non-durable fleet.
  uint64_t AdvanceRetention();

  // Human-readable offset/storage dumps (snapshot_offsets verb) — the chaos
  // CI job uploads these as artifacts.
  std::string ProxySnapshotText(size_t proxy_index);
  std::string AggregatorSnapshotText();

  // Remote /metrics dumps, fetched via each daemon's "metrics" control verb
  // (the CI socket-smoke job uploads these as artifacts).
  std::string ProxyMetricsText(size_t proxy_index);
  std::string AggregatorMetricsText();
  // The driver's own transport counters.
  std::string MetricsText() { return registry_.RenderText(); }

 private:
  struct ActiveQuery {
    core::ExecutionParams params;
    // lane_in_topics[j] = "proxy<j>.q<QID>.in", cached at submission.
    std::vector<std::string> lane_in_topics;
  };

  // Control with up to config_.control_retries retried attempts — absorbs
  // the single failed RPC a killed-and-restarted daemon costs its client.
  std::vector<uint8_t> ControlWithRetry(transport::TcpBusClient& bus,
                                        const std::string& verb,
                                        std::span<const uint8_t> payload);

  FleetDriverConfig config_;
  metrics::Registry registry_;
  core::PrivacyBudgetManager budget_manager_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::vector<std::unique_ptr<transport::TcpBusClient>> proxy_buses_;
  std::unique_ptr<transport::TcpBusClient> aggregator_bus_;
  EpochArena arena_;
  std::map<uint64_t, ActiveQuery> active_;  // ascending QID
};

}  // namespace privapprox::deploy

#endif  // PRIVAPPROX_DEPLOY_FLEET_DRIVER_H_
