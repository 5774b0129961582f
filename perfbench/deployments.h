// The benchmark's fleet, inputs and the three ways it deploys them.
//
// Every deployment runs the same fleet (20k clients, 2 proxies) and the same
// two concurrent queries; only the path between clients and aggregator
// differs, so the difference between two workloads points to one layer:
//
//   InprocSystem   PrivApproxSystem, streaming mode, 2 worker threads.
//   TcpDeployment  two ProxyDaemons + one AggregatorDaemon on loopback ports
//                  driven by a FleetDriver, optionally durable (data dirs,
//                  fsync=on_rotate, retention every epoch).
//   SerialPipeline the same components wired by hand and called one layer
//                  at a time, so the traced run can time each layer's
//                  public call. Its results are bit-identical to the
//                  other two.

#ifndef PERFBENCH_DEPLOYMENTS_H_
#define PERFBENCH_DEPLOYMENTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "broker/broker.h"
#include "client/client.h"
#include "common/arena.h"
#include "deploy/aggregator_daemon.h"
#include "deploy/fleet_driver.h"
#include "deploy/proxy_daemon.h"
#include "proxy/proxy.h"
#include "tracer.h"
#include "transport/inproc_bus.h"

namespace perfbench {

inline constexpr size_t kClients = 20000;
inline constexpr size_t kProxies = 2;
inline constexpr int64_t kEpochMs = 1000;
// Q2's window: a client keeps this much of its reading history.
inline constexpr int64_t kRetainMs = 10000;

// Q1 (speed, 11 buckets, 1 s tumbling) and Q2 (fare, 6 buckets, 10 s
// sliding every 1 s), ascending QID.
std::vector<privapprox::core::Query> WorkloadQueries();
privapprox::core::ExecutionParams WorkloadParams();

// Event time of epoch `epoch`'s tick.
inline int64_t TickMs(uint64_t epoch) {
  return static_cast<int64_t>(epoch + 1) * kEpochMs;
}

// The client's private table, created once.
void CreateTables(privapprox::client::Client& client);
// Before epoch `epoch`'s tick: one seeded reading per client, then drop the
// readings older than one Q2 window so the table stays bounded.
void Ingest(privapprox::client::Client& client, uint64_t seed,
            uint64_t epoch);

// Sum of every sample of `name` in a Prometheus text exposition.
double PromSum(const std::string& text, const std::string& name);

struct EpochCounts {
  uint64_t participants = 0;  // (client, query) pairs answered
  uint64_t sent = 0;          // client -> proxy shares
  uint64_t forwarded = 0;
  uint64_t consumed = 0;      // shares the aggregator consumed
  uint64_t malformed = 0;     // dropped as malformed at the aggregator
};

// Implementations hand `this` to callbacks, so they are neither copied nor
// moved.
class Deployment {
 public:
  Deployment() = default;
  virtual ~Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Trace track the deployment's spans are recorded on.
  virtual const char* track() const = 0;
  virtual privapprox::client::Client& client(size_t index) = 0;
  virtual EpochCounts RunEpoch(int64_t now_ms, uint64_t epoch) = 0;
  // AdvanceWatermark + TakeResults.
  virtual std::vector<privapprox::aggregator::WindowedResult> Fire(
      int64_t watermark_ms) = 0;
  // Work after the epoch's results (retention); returns segments deleted.
  virtual uint64_t AfterEpoch() { return 0; }
};

std::unique_ptr<Deployment> MakeInprocSystem(uint64_t seed);

// The in-process pipeline wired from its components over an InProcessBus,
// one layer call at a time on one thread, mirroring PrivApproxSystem's
// barrier epoch. Spans inside RunEpoch: client.answer, proxy.receive,
// proxy.forward, aggregator.drain on track "serial".
//
// `join_timeout_ms` is the aggregator's (the system's is 60 s). It only
// decides when incomplete join groups and remembered MIDs expire; in a
// fault-free run every group completes within its epoch, so the result
// bytes do not depend on it, while the cost of AdvanceWatermark grows with
// it.
class SerialPipeline final : public Deployment {
 public:
  SerialPipeline(uint64_t seed, int64_t join_timeout_ms, Tracer& tracer);

  const char* track() const override { return "serial"; }
  privapprox::client::Client& client(size_t index) override {
    return *clients_[index];
  }
  EpochCounts RunEpoch(int64_t now_ms, uint64_t epoch) override;
  std::vector<privapprox::aggregator::WindowedResult> Fire(
      int64_t watermark_ms) override;

  // Bytes of every share record produced so far.
  uint64_t share_bytes() const { return share_bytes_; }

 private:
  void Submit(const privapprox::core::Query& query,
              const privapprox::core::ExecutionParams& params);

  Tracer& tracer_;
  privapprox::broker::Broker broker_;
  privapprox::transport::InProcessBus bus_;
  std::vector<std::unique_ptr<privapprox::proxy::Proxy>> proxies_;
  std::vector<std::unique_ptr<privapprox::client::Client>> clients_;
  std::unique_ptr<privapprox::aggregator::Aggregator> aggregator_;
  std::vector<privapprox::aggregator::WindowedResult> results_;
  std::vector<uint64_t> qids_;  // ascending, as submitted
  privapprox::EpochArena arena_;
  uint64_t share_bytes_ = 0;
};

struct TcpOptions {
  uint64_t seed = 0;
  // Empty = memory-only daemons. Otherwise every daemon gets a data dir
  // under it, fsync=on_rotate, and AfterEpoch runs a retention sweep.
  std::string data_root;
};

// Spans inside RunEpoch, cut at the FleetDriver's hooks:
// fleet.answer_produce, proxy.forward_lanes, aggregator.drain_rpc.
class TcpDeployment : public Deployment {
 public:
  TcpDeployment(TcpOptions options, Tracer& tracer);

  const char* track() const override { return "deployment"; }
  privapprox::client::Client& client(size_t index) override {
    return fleet_->client(index);
  }
  EpochCounts RunEpoch(int64_t now_ms, uint64_t epoch) override;
  std::vector<privapprox::aggregator::WindowedResult> Fire(
      int64_t watermark_ms) override;
  uint64_t AfterEpoch() override;

  bool durable() const { return !options_.data_root.empty(); }
  // Stops all three daemons, relaunches them on the same data dirs and
  // ports, and re-dials the driver's connections.
  void RestartDaemons();

  // Prometheus text of every daemon (metrics verb) and of the driver.
  std::vector<std::string> DaemonMetricsTexts();
  std::string DriverMetricsText() { return fleet_->MetricsText(); }
  // Bytes appended to the proxies' logs so far, from the
  // privapprox_storage_bytes gauge read before and after every retention
  // sweep. Tracked only while tracing (six metrics RPCs per epoch).
  uint64_t storage_bytes_written() const { return storage_written_; }

 private:
  void LaunchDaemons();
  double ProxyStorageBytes();

  TcpOptions options_;
  Tracer& tracer_;
  std::vector<uint16_t> proxy_ports_;
  uint16_t aggregator_port_ = 0;
  // Declared in start order, so the driver hangs up first and the proxies
  // stop last.
  std::vector<std::unique_ptr<privapprox::deploy::ProxyDaemon>> proxies_;
  std::unique_ptr<privapprox::deploy::AggregatorDaemon> aggregator_;
  std::unique_ptr<privapprox::deploy::FleetDriver> fleet_;
  uint64_t epoch_ = 0;
  int open_span_ = -1;  // the hook-delimited span RunEpoch has open
  uint64_t storage_written_ = 0;
  double storage_live_ = 0;  // live log bytes after the last sweep
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENTS_H_
