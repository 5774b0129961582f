// Deterministic fault injection for the epoch pipeline.
//
// The paper's deployment assumes proxies and share streams fail
// independently while the aggregator keeps emitting per-window answers with
// honest error bounds. This module injects those failures on purpose: a
// seeded FaultPlan describes per-share loss/corruption/duplication/delay on
// the client->proxy link, per-attempt forward timeouts, and per-epoch proxy
// crashes; the FaultInjector turns the plan into decisions.
//
// Determinism contract: every decision is a pure hash of
// (plan seed, query id, MID, proxy index, decision kind) — never of
// wall-clock time, thread identity, or arrival order — so a given plan
// injects the *same* faults at any worker count, channel depth and
// aggregator shard count. That is what lets tests assert bit-identical
// results across pipeline shapes under faults and lets a CI chaos matrix
// replay a seed exactly.
// Salting with the query id gives every query an independent (but still
// replayable) fault sequence; proxy crashes are infrastructure-level and
// stay per (epoch, proxy), hitting every query's lane alike.
//
// Recovery is modeled client-side: a forward that times out is retried with
// bounded exponential backoff (client::RetryPolicy; backoff is simulated
// virtual time, observed into a histogram, never slept) and fails over to
// the proxy's standby once retries are exhausted. Shares routed over the
// degraded link (net::LinkConfig transfer-time model) arrive in the next
// epoch when the transfer misses the late deadline.

#ifndef PRIVAPPROX_FAULT_FAULT_H_
#define PRIVAPPROX_FAULT_FAULT_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "client/retry.h"
#include "metrics/metrics.h"
#include "net/link.h"

namespace privapprox::fault {

// A seeded description of what goes wrong. All probabilities are per
// (MID, proxy) share; the per-share fates (drop / corrupt / duplicate /
// delay) are mutually exclusive, drawn from one uniform in that priority
// order, so their probabilities must sum to <= 1.
struct FaultPlan {
  uint64_t seed = 1;

  // --- Injected share faults on the client -> proxy link ----------------
  double drop_probability = 0.0;       // share silently lost in transit
  double corrupt_probability = 0.0;    // record truncated below the MID
                                       // header (undecodable downstream)
  double duplicate_probability = 0.0;  // share delivered twice
  double delay_probability = 0.0;      // share routed over degraded_link

  // Degraded-path model for delay-fated shares: arrival is
  // net::TransferTimeMs(degraded_link, record bytes) after the send; when
  // that exceeds late_deadline_ms the share misses the epoch and is
  // delivered at the start of the next one instead.
  net::LinkConfig degraded_link{/*bandwidth_bytes_per_ms=*/1.0,
                                /*latency_ms=*/200.0};
  double late_deadline_ms = 100.0;

  // --- Forward timeouts and proxy crashes -------------------------------
  double timeout_probability = 0.0;  // per forward attempt
  double crash_probability = 0.0;    // per (proxy, epoch): proxy crashes
                                     // mid-epoch, restarts for the next one
  // Fraction of a crashing proxy's shares sent before the crash instant;
  // the rest hit a dead proxy and time out on every attempt.
  double crash_point = 0.5;

  // --- Recovery ---------------------------------------------------------
  client::RetryPolicy retry;    // bounded exponential backoff per share
  bool standby_proxies = true;  // failover target once retries are exhausted

  void Validate() const;

  // True when the plan can time a forward out (and thus needs standbys for
  // failover to recover anything).
  bool CanTimeOut() const {
    return timeout_probability > 0.0 || crash_probability > 0.0;
  }
};

// Registry instruments, not owned (null = uncounted). Wired by
// PrivApproxSystem from the privapprox_fault_* / privapprox_recovery_*
// families; all are relaxed atomics, safe from concurrent answer shards.
struct FaultCounters {
  metrics::Counter* shares_dropped = nullptr;
  metrics::Counter* shares_corrupted = nullptr;
  metrics::Counter* shares_duplicated = nullptr;
  metrics::Counter* shares_delayed = nullptr;   // deferred to the next epoch
  metrics::Counter* forward_timeouts = nullptr;  // failed forward attempts
  metrics::Counter* proxy_crashes = nullptr;     // proxy-epochs down
  metrics::Counter* lost_mids = nullptr;  // distinct MIDs that cannot join
  metrics::Counter* retries = nullptr;    // forward attempts retried
  metrics::Counter* failovers = nullptr;  // shares delivered via standby
  metrics::Counter* late_delivered = nullptr;  // deferred shares delivered
  metrics::Histogram* backoff_ms = nullptr;    // simulated backoff per share
};

// Where one share ends up after injection + client-side recovery.
enum class ShareRoute {
  kPrimary,   // delivered to the proxy (possibly corrupted / duplicated)
  kStandby,   // retries exhausted; failed over to the standby proxy
  kDeferred,  // degraded link missed the deadline; deliver next epoch
  kLost,      // dropped in transit, or retries exhausted with no standby
};

struct ShareOutcome {
  ShareRoute route = ShareRoute::kPrimary;
  bool duplicate = false;
  // != SIZE_MAX: truncate the wire record to this many bytes (< 8, so the
  // decode path counts it malformed and the MID can never join).
  size_t corrupt_to = SIZE_MAX;
};

// A share held back by the degraded link, owned until redelivery. The
// record is a core::query_wire tagged-share frame (QID | MID | payload):
// the deferral buffer is the one place shares sit outside their
// per-(query, proxy) lane, so the bytes must carry the QID themselves for
// next-epoch replay to route them back to the right lane.
struct DeferredShare {
  uint64_t query_id = 0;
  size_t proxy = 0;
  uint64_t message_id = 0;
  std::vector<uint8_t> record;  // tagged frame (QID | MID header | payload)
  int64_t timestamp_ms = 0;     // original event time
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, FaultCounters counters, bool has_standby);

  const FaultPlan& plan() const { return plan_; }
  bool has_standby() const { return has_standby_; }

  // Decides one share's fate and runs the client-side forward protocol
  // (retry with backoff, then failover). Deterministic per
  // (seed, query, mid, proxy, epoch); counts everything it injects and
  // recovers. `record_bytes` sizes the degraded-link transfer for delay
  // fates.
  ShareOutcome RouteShare(uint64_t query_id, uint64_t mid, size_t proxy,
                          uint64_t epoch, size_t record_bytes);

  // True when `proxy` crashes during `epoch` (restarts for epoch + 1).
  // Query-independent: a crashed proxy is down for every lane it serves.
  bool ProxyCrashes(uint64_t epoch, size_t proxy) const;

  // Parks a deferred share until the next epoch (copies `lane_record`, the
  // <MID, payload> wire record, into an owned QID-tagged frame — the
  // caller's arena does not outlive the epoch). Thread-safe.
  void Defer(uint64_t query_id, size_t proxy, uint64_t mid,
             std::span<const uint8_t> lane_record, int64_t timestamp_ms);
  // Drains the deferred shares in deterministic (proxy, QID, MID) order,
  // counting them as late-delivered. Called at the next epoch's start.
  std::vector<DeferredShare> TakeDeferred();

  // Drains the (query, MID) pairs lost so far (sorted, each counted once)
  // so the system can hand them to the right aggregator lane for CI
  // widening.
  std::vector<std::pair<uint64_t, uint64_t>> TakeLostMids();

 private:
  double UnitUniform(uint64_t salt, uint64_t query_id, uint64_t a,
                     uint64_t b) const;
  void NoteLostMid(uint64_t query_id, uint64_t mid);

  FaultPlan plan_;
  FaultCounters counters_;
  bool has_standby_;
  std::mutex mu_;
  std::vector<DeferredShare> deferred_;
  std::set<std::pair<uint64_t, uint64_t>> lost_mids_;  // (QID, MID)
};

}  // namespace privapprox::fault

#endif  // PRIVAPPROX_FAULT_FAULT_H_
