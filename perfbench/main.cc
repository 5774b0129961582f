// perfbench: one closed-loop run of a named PrivApprox workload.
//
//   perfbench --workload inproc|tcp|durable_tcp --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// The analyst's epoch clock issues tick e+1 only after tick e's window
// results are back. One cycle: every client ingests one seeded reading,
// RunEpoch(tick), AdvanceWatermark(tick + 1 s), TakeResults, and on the
// durable workload a retention sweep. Set-up (building the deployment three
// times, keeping the last, plus 60 warm-up epochs that fill the aggregator's
// 60 s join-timeout horizon) is timed apart; then cycles are timed for
// --seconds. Every epoch's output is checked (one window per query, joins
// equal participants); the TCP workloads' result bytes are compared with
// an in-process run on the same seed, and the durable workload ends with a
// restart of all three daemons whose results must converge back to the
// uninterrupted run.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// beside a serial in-process pipeline whose layer calls are timed one by
// one, prints the per-layer metrics and writes a chrome://tracing file to
// DIR. The last stdout line is one JSON object: correct, attempted (shares
// sent), failed (shares lost or in an epoch whose check failed), metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/simd_dispatch.h"
#include "deploy/result_wire.h"
#include "deployments.h"
#include "tracer.h"

namespace perfbench {
namespace {

namespace pa = privapprox;

constexpr uint64_t kWarmupEpochs = 60;  // join timeout (60 s) / 1 s epochs
constexpr size_t kSetupReps = 3;
// peak_rss_mb is read after this many timed epochs, so it compares the same
// amount of work on every commit (topic slabs grow with every epoch).
constexpr uint64_t kRssEpochs = 20;
constexpr uint64_t kMinTimedEpochs = 24;
// Epochs run after the durable restart. The first correct window must come
// within them, and every later one must stay correct.
constexpr uint64_t kRecoveryEpochs = 6;
constexpr size_t kQueries = 2;
constexpr int64_t kSystemJoinTimeoutMs = 60000;  // AggregatorConfig default

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
};

double ToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double ToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Tail {
  double pct = 0;
  double value = 0;
};

// The highest percentile with at least 10 samples above it: the 11th
// largest value, at percentile 100 * (n - 10) / n.
Tail TailOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n < 11) {
    throw std::logic_error("fewer than 11 timed epochs");
  }
  return Tail{100.0 * static_cast<double>(n - 10) / static_cast<double>(n),
              values[n - 11]};
}

// Least-squares slope of values against their index.
double Slope(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  if (values.size() < 2) {
    return 0;
  }
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double x = static_cast<double>(i);
    sx += x;
    sy += values[i];
    sxx += x * x;
    sxy += x * values[i];
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

double PromSumAll(const std::vector<std::string>& texts,
                  const std::string& name) {
  double sum = 0;
  for (const std::string& text : texts) {
    sum += PromSum(text, name);
  }
  return sum;
}

// Per-epoch output checks for one deployment's result stream: exactly one
// window per query, at the expected bounds, and joins equal participants.
// Q1's tumbling window holds exactly epoch e's joins; Q2's 10-epoch window
// holds the last ten epochs' joins, so epoch e's Q2 joins are the window's
// participants minus the previous nine epochs' joins.
class Checker {
 public:
  bool Check(uint64_t epoch, const EpochCounts& counts,
             const std::vector<pa::aggregator::WindowedResult>& results,
             std::string& why) {
    const int64_t tick = TickMs(epoch);
    if (results.size() != kQueries) {
      why = std::to_string(results.size()) + " window results, expected " +
            std::to_string(kQueries);
      return false;
    }
    const pa::aggregator::WindowedResult& q1 = results[0];
    const pa::aggregator::WindowedResult& q2 = results[1];
    if (q1.query_id != 1 || q2.query_id != 2) {
      why = "results not one per query in QID order";
      return false;
    }
    if (q1.window.start_ms != tick || q1.window.end_ms != tick + kEpochMs ||
        q2.window.start_ms != tick + kEpochMs - kRetainMs ||
        q2.window.end_ms != tick + kEpochMs) {
      why = "window bounds do not match the epoch";
      return false;
    }
    const uint64_t j1 = q1.result.participants;
    uint64_t earlier = 0;
    for (size_t k = q2_joins_.size() >= 9 ? q2_joins_.size() - 9 : 0;
         k < q2_joins_.size(); ++k) {
      earlier += q2_joins_[k];
    }
    if (q2.result.participants < earlier) {
      why = "Q2 window holds fewer answers than its earlier epochs joined";
      return false;
    }
    const uint64_t j2 = q2.result.participants - earlier;
    q2_joins_.push_back(j2);
    joins_ += j1 + j2;
    participants_ += counts.participants;
    if (j1 + j2 != counts.participants) {
      why = "joins " + std::to_string(j1 + j2) + " != participants " +
            std::to_string(counts.participants);
      return false;
    }
    for (const auto* r : {&q1, &q2}) {
      double sum = 0;
      for (const auto& bucket : r->result.buckets) {
        sum += bucket.estimate.value;
      }
      // Every client answers exactly one bucket, so the de-biased estimates
      // add up to the population, within sampling and randomization noise.
      const double population = static_cast<double>(kClients);
      if (!(std::fabs(sum - population) <= 0.1 * population)) {
        why = "estimates for query " + std::to_string(r->query_id) +
              " sum to " + std::to_string(sum) + ", population " +
              std::to_string(kClients);
        return false;
      }
    }
    return true;
  }

  uint64_t joins() const { return joins_; }
  uint64_t participants() const { return participants_; }

 private:
  std::vector<uint64_t> q2_joins_;
  uint64_t joins_ = 0;
  uint64_t participants_ = 0;
};

struct CycleRecord {
  int64_t result_ns = 0;  // RunEpoch call -> results returned
  int64_t cycle_ns = 0;   // whole cycle, ingest to retention
  int64_t end_ns = 0;     // steady-clock time the results were back
  EpochCounts counts;
  uint64_t segments_deleted = 0;
  std::vector<uint8_t> wire;  // SerializeResults of the epoch's results
  std::vector<pa::aggregator::WindowedResult> results;
};

CycleRecord RunCycle(Deployment& dep, Tracer& tracer, uint64_t seed,
                     uint64_t epoch) {
  CycleRecord rec;
  const int64_t tick = TickMs(epoch);
  ScopedSpan cycle(tracer, dep.track(), "cycle", epoch);
  const int64_t start = NowNs();
  {
    ScopedSpan span(tracer, dep.track(), "client.ingest", epoch);
    for (size_t i = 0; i < kClients; ++i) {
      Ingest(dep.client(i), seed, epoch);
    }
  }
  const int64_t tick_ns = NowNs();
  {
    ScopedSpan span(tracer, dep.track(), "epoch.run", epoch);
    rec.counts = dep.RunEpoch(tick, epoch);
  }
  {
    ScopedSpan span(tracer, dep.track(), "aggregator.fire", epoch);
    rec.results = dep.Fire(tick + kEpochMs);
  }
  rec.end_ns = NowNs();
  rec.result_ns = rec.end_ns - tick_ns;
  {
    ScopedSpan span(tracer, dep.track(), "storage.retention", epoch);
    rec.segments_deleted = dep.AfterEpoch();
  }
  rec.cycle_ns = NowNs() - start;
  rec.wire = pa::deploy::SerializeResults(rec.results);
  return rec;
}

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what, uint64_t shares) {
    correct = false;
    failed += shares;
    if (errors.size() < 5) {
      errors.push_back(what);
    }
  }
  // Shares sent but never consumed, or consumed but malformed.
  void Account(const EpochCounts& c) {
    attempted += c.sent;
    failed += (c.sent > c.consumed ? c.sent - c.consumed : 0) + c.malformed;
  }
};

class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

Options Parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      opt.work_dir.empty() || !(opt.seconds > 0) ||
      (opt.workload != "inproc" && opt.workload != "tcp" &&
       opt.workload != "durable_tcp")) {
    throw std::invalid_argument(
        "usage: perfbench --workload inproc|tcp|durable_tcp --seed N "
        "--seconds S --trace 0|1 --work-dir DIR");
  }
  return opt;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Outcome& outcome, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Inputs of the per-layer metrics, gathered by Run.
struct LayerInputs {
  bool tcp = false;
  uint64_t epoch_begin = 0;  // timed epochs [epoch_begin, epoch_end)
  uint64_t epoch_end = 0;
  const std::vector<CycleRecord>* records = nullptr;
  const std::vector<CycleRecord>* serial_records = nullptr;
  uint64_t serial_share_bytes = 0;
  uint64_t joins = 0;
  uint64_t participants = 0;
  // Metrics texts of the daemons (aggregator last) and of the driver,
  // around the timed epochs; empty in process.
  std::vector<std::string> daemon_before, daemon_after;
  std::string driver_before, driver_after;
  uint64_t storage_written = 0;
  double recovered_records = 0;
  double slope = 0;
  double shares_per_s = 0;
};

// Each layer's busy time and allocations per unit of its work. On TCP the
// proxy and aggregator figures come from the hook-delimited RPC spans;
// client answering and proxy receive are only observable one call at a
// time in the serial in-process pipeline, which runs the same client code.
std::vector<Metric> PerLayerMetrics(const LayerInputs& in,
                                    const Tracer& tracer) {
  const auto totals = tracer.Totals(in.epoch_begin, in.epoch_end);
  const auto get = [&](const char* track, const char* name) {
    const auto it = totals.find({track, name});
    return it == totals.end() ? Tracer::LayerTotals{} : it->second;
  };
  std::printf("per-layer self time over %llu timed epochs:\n",
              static_cast<unsigned long long>(in.epoch_end - in.epoch_begin));
  for (const auto& [key, t] : totals) {
    std::printf("  %-10s %-22s calls=%6llu total_ms=%10.3f self_ms=%10.3f "
                "allocs=%llu\n",
                key.first.c_str(), key.second.c_str(),
                static_cast<unsigned long long>(t.count), ToMs(t.total_ns),
                ToMs(t.self_ns), static_cast<unsigned long long>(t.allocs));
  }

  uint64_t s_sent = 0, s_fwd = 0, s_consumed = 0;
  int64_t s_cycle_ns = 0;
  uint64_t sent = 0, fwd = 0, consumed = 0, participants = 0, deleted = 0;
  for (uint64_t e = in.epoch_begin; e < in.epoch_end; ++e) {
    const CycleRecord& sr = (*in.serial_records)[e];
    s_sent += sr.counts.sent;
    s_fwd += sr.counts.forwarded;
    s_consumed += sr.counts.consumed;
    s_cycle_ns += sr.cycle_ns;
    const CycleRecord& r = (*in.records)[e];
    sent += r.counts.sent;
    fwd += r.counts.forwarded;
    consumed += r.counts.consumed;
    participants += r.counts.participants;
    deleted += r.segments_deleted;
  }
  uint64_t serial_sent_all = 0;
  for (const CycleRecord& r : *in.serial_records) {
    serial_sent_all += r.counts.sent;
  }
  const bool tcp = in.tcp;
  const double E = static_cast<double>(in.epoch_end - in.epoch_begin);
  const double client_epochs = static_cast<double>(kClients) * E;
  const auto per = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const auto ns = [](const Tracer::LayerTotals& t) {
    return static_cast<double>(t.total_ns);
  };
  const auto allocs = [](const Tracer::LayerTotals& t) {
    return static_cast<double>(t.allocs);
  };
  const auto answer = get("serial", "client.answer");
  const auto receive = get("serial", "proxy.receive");
  const auto sforward = get("serial", "proxy.forward");
  const auto sdrain = get("serial", "aggregator.drain");
  const auto sfire = get("serial", "aggregator.fire");
  const auto forward =
      tcp ? get("deployment", "proxy.forward_lanes") : sforward;
  const auto drain = tcp ? get("deployment", "aggregator.drain_rpc") : sdrain;
  const double fwd_shares = static_cast<double>(tcp ? fwd : s_fwd);
  const double drain_shares = static_cast<double>(tcp ? consumed : s_consumed);
  const double dep_epoch_ns = ns(get("deployment", "epoch.run")) +
                              ns(get("deployment", "aggregator.fire"));
  const double serial_ns =
      ns(answer) + ns(receive) + ns(sforward) + ns(sdrain) + ns(sfire);

  double bytes = 0, frames = 0, retries = 0, fsyncs = 0;
  if (tcp) {
    const auto delta = [&](const std::string& name) {
      return PromSumAll(in.daemon_after, name) +
             PromSum(in.driver_after, name) -
             PromSumAll(in.daemon_before, name) -
             PromSum(in.driver_before, name);
    };
    // Proxy daemons count the same bytes server-side: take the clients'
    // view (driver and aggregator daemon) once.
    const auto client_side = [&](const std::string& name) {
      return PromSum(in.driver_after, name) -
             PromSum(in.driver_before, name) +
             PromSum(in.daemon_after.back(), name) -
             PromSum(in.daemon_before.back(), name);
    };
    bytes = client_side("privapprox_transport_bytes_in_total") +
            client_side("privapprox_transport_bytes_out_total");
    frames = client_side("privapprox_transport_frames_in_total") +
             client_side("privapprox_transport_frames_out_total");
    retries = delta("privapprox_transport_reconnects_total") +
              delta("privapprox_transport_protocol_errors_total");
    fsyncs = delta("privapprox_storage_fsyncs");
  }
  const double storage_bytes = static_cast<double>(in.storage_written);
  return {
      {"client.ingest_ns_per_client",
       per(ns(get("deployment", "client.ingest")), client_epochs), "ns"},
      {"client.answer_ns_per_client", per(ns(answer), client_epochs), "ns"},
      {"client.allocs_per_client", per(allocs(answer), client_epochs),
       "count"},
      {"client.participation",
       per(static_cast<double>(participants), client_epochs * kQueries),
       "ratio"},
      {"client.share_bytes",
       per(static_cast<double>(in.serial_share_bytes),
           static_cast<double>(serial_sent_all)),
       "B"},
      {"proxy.receive_ns_per_share",
       per(ns(receive), static_cast<double>(s_sent)), "ns"},
      {"proxy.forward_ns_per_share", per(ns(forward), fwd_shares), "ns"},
      {"proxy.allocs_per_share",
       tcp ? per(allocs(forward), fwd_shares)
           : per(allocs(receive) + allocs(sforward),
                 static_cast<double>(s_sent)),
       "count"},
      {"fleet.answer_produce_ns_per_share",
       tcp ? per(ns(get("deployment", "fleet.answer_produce")),
                 static_cast<double>(sent))
           : per(ns(answer) + ns(receive), static_cast<double>(s_sent)),
       "ns"},
      {"transport.bytes_per_share", per(bytes, static_cast<double>(consumed)),
       "B"},
      {"transport.frames_per_epoch", per(frames, E), "count"},
      {"transport.retries", retries, "count"},
      {"storage.bytes_per_share",
       per(storage_bytes, static_cast<double>(consumed)), "B"},
      {"storage.fsyncs_per_epoch", per(fsyncs, E), "count"},
      {"storage.segments_deleted_per_epoch",
       per(static_cast<double>(deleted), E), "count"},
      {"storage.recovered_records", in.recovered_records, "count"},
      {"aggregator.drain_ns_per_share", per(ns(drain), drain_shares), "ns"},
      {"aggregator.fire_ms_per_epoch",
       per(ns(get("deployment", "aggregator.fire")) / 1e6, E), "ms"},
      {"aggregator.allocs_per_share", per(allocs(drain), drain_shares),
       "count"},
      {"aggregator.join_ratio",
       per(static_cast<double>(in.joins),
           static_cast<double>(in.participants)),
       "ratio"},
      {"system.serial_over_streaming", per(serial_ns, dep_epoch_ns),
       "ratio"},
      {"system.result_ms_slope", in.slope, "ms/epoch"},
      {"trace.shares_per_s",
       tcp ? in.shares_per_s
           : per(static_cast<double>(s_consumed), ToS(s_cycle_ns)),
       "1/s"},
  };
}

int Run(const Options& opt) {
  const bool tcp = opt.workload != "inproc";
  const bool durable = opt.workload == "durable_tcp";
  std::printf("host: nproc=%u simd=%s build=%s\n",
              std::thread::hardware_concurrency(),
              pa::simd::IsaName(pa::simd::ActiveIsa()), PERFBENCH_BUILD_TYPE);
  std::printf("workload: %s seed=%llu seconds=%g trace=%d clients=%zu "
              "proxies=%zu queries=%zu warmup_epochs=%llu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, kClients, kProxies, kQueries,
              static_cast<unsigned long long>(kWarmupEpochs));

  Tracer tracer(opt.trace);
  const std::filesystem::path work(opt.work_dir);
  std::unique_ptr<ScratchDir> data;
  TcpDeployment* tcp_dep = nullptr;
  const auto build = [&]() -> std::unique_ptr<Deployment> {
    tcp_dep = nullptr;
    if (!tcp) {
      return MakeInprocSystem(opt.seed);
    }
    TcpOptions options;
    options.seed = opt.seed;
    if (durable) {
      data.reset();  // a fresh data dir per build
      data = std::make_unique<ScratchDir>(
          work / ("data-" + std::to_string(getpid())));
      options.data_root = data->path().string();
    }
    auto dep = std::make_unique<TcpDeployment>(options, tracer);
    tcp_dep = dep.get();
    return dep;
  };

  // --- Set-up: build kSetupReps times (median), keep the last, warm up.
  std::vector<double> build_s;
  std::unique_ptr<Deployment> dep;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();
    const int64_t t0 = NowNs();
    dep = build();
    build_s.push_back(ToS(NowNs() - t0));
  }
  // The traced run's serial pipeline runs in lockstep with the deployment
  // and doubles as its uninterrupted in-process reference.
  std::unique_ptr<SerialPipeline> serial;
  if (opt.trace) {
    serial = std::make_unique<SerialPipeline>(opt.seed, kSystemJoinTimeoutMs,
                                              tracer);
  }

  Outcome outcome;
  Checker checker;
  std::vector<CycleRecord> records;       // deployment, every epoch
  std::vector<CycleRecord> serial_records;  // traced run only
  const auto step = [&](uint64_t epoch, bool check) {
    CycleRecord rec = RunCycle(*dep, tracer, opt.seed, epoch);
    outcome.Account(rec.counts);
    std::string why;
    if (check && !checker.Check(epoch, rec.counts, rec.results, why)) {
      outcome.Fail("epoch " + std::to_string(epoch) + ": " + why,
                   rec.counts.sent);
    }
    if (serial != nullptr) {
      CycleRecord srec = RunCycle(*serial, tracer, opt.seed, epoch);
      if (check && srec.wire != rec.wire) {
        outcome.Fail("epoch " + std::to_string(epoch) +
                         ": results differ from the serial in-process run",
                     rec.counts.sent);
      }
      srec.results.clear();
      serial_records.push_back(std::move(srec));
    }
    rec.results.clear();
    records.push_back(std::move(rec));
  };

  const int64_t warm0 = NowNs();
  for (uint64_t e = 0; e < kWarmupEpochs; ++e) {
    step(e, true);
  }
  const double warmup_s = ToS(NowNs() - warm0);
  const double setup_s = Median(build_s) + warmup_s;

  // --- Timed cycles.
  std::vector<std::string> daemon_before;
  std::string driver_before;
  if (opt.trace && tcp_dep != nullptr) {
    daemon_before = tcp_dep->DaemonMetricsTexts();
    driver_before = tcp_dep->DriverMetricsText();
  }
  const uint64_t storage_written0 =
      tcp_dep != nullptr ? tcp_dep->storage_bytes_written() : 0;
  const double cpu0 = CpuSeconds();
  const int64_t timed0 = NowNs();
  double peak_rss_mb = 0;
  uint64_t epoch = kWarmupEpochs;
  while (epoch - kWarmupEpochs < kMinTimedEpochs ||
         ToS(NowNs() - timed0) < opt.seconds) {
    step(epoch, true);
    ++epoch;
    if (epoch - kWarmupEpochs == kRssEpochs) {
      peak_rss_mb = PeakRssMb();
    }
  }
  const double cpu_s = CpuSeconds() - cpu0;
  const uint64_t timed_end = epoch;
  const size_t max_rows = static_cast<size_t>(kRetainMs / kEpochMs) + 1;
  for (size_t i = 0; i < kClients; ++i) {
    const size_t rows =
        dep->client(i).database().GetTable("vehicle").num_rows();
    if (rows > max_rows) {
      outcome.Fail("client " + std::to_string(i) + " holds " +
                       std::to_string(rows) + " readings; EvictBefore should "
                       "bound it to " + std::to_string(max_rows),
                   0);
      break;
    }
  }
  const uint64_t storage_written_timed =
      (tcp_dep != nullptr ? tcp_dep->storage_bytes_written() : 0) -
      storage_written0;
  std::vector<std::string> daemon_after;
  std::string driver_after;
  if (opt.trace && tcp_dep != nullptr) {
    daemon_after = tcp_dep->DaemonMetricsTexts();
    driver_after = tcp_dep->DriverMetricsText();
  }

  // --- Durable restart: relaunch all three daemons on the same data dirs
  // and ports; results must converge back to the uninterrupted run.
  int64_t relaunch_ns = 0;
  double recovered_records = 0;
  if (durable) {
    relaunch_ns = NowNs();
    {
      ScopedSpan span(tracer, dep->track(), "restart", epoch);
      tcp_dep->RestartDaemons();
    }
    recovered_records = PromSumAll(tcp_dep->DaemonMetricsTexts(),
                                   "privapprox_storage_recovered_records");
    for (uint64_t k = 0; k < kRecoveryEpochs; ++k, ++epoch) {
      step(epoch, false);
    }
  }
  const uint64_t total_epochs = epoch;

  // --- Reference: the TCP deployments' result bytes must equal an
  // in-process run's on the same seed, epoch by epoch.
  std::vector<std::vector<uint8_t>> reference;
  if (tcp) {
    dep.reset();
    data.reset();
    if (serial != nullptr) {
      for (const CycleRecord& r : serial_records) {
        reference.push_back(r.wire);
      }
    } else {
      // Untimed, so it runs with a 2-epoch join timeout: same result bytes,
      // a fraction of the AdvanceWatermark cost.
      Tracer off(false);
      SerialPipeline ref(opt.seed, 2 * kEpochMs, off);
      for (uint64_t e = 0; e < total_epochs; ++e) {
        reference.push_back(RunCycle(ref, off, opt.seed, e).wire);
      }
    }
    for (uint64_t e = 0; e < timed_end; ++e) {
      if (records[e].wire != reference[e]) {
        outcome.Fail("epoch " + std::to_string(e) +
                         ": TCP result bytes differ from the in-process run",
                     records[e].counts.sent);
      }
    }
  }
  double recovery_s = 0;
  uint64_t recovery_epochs = 0;
  if (durable) {
    uint64_t first_ok = total_epochs;
    for (uint64_t e = timed_end; e < total_epochs; ++e) {
      if (records[e].wire == reference[e]) {
        first_ok = std::min(first_ok, e);
      } else if (first_ok < total_epochs) {
        outcome.Fail("epoch " + std::to_string(e) +
                         ": results diverged again after recovering",
                     records[e].counts.sent);
      }
    }
    if (first_ok == total_epochs) {
      outcome.Fail("no correct window result within " +
                       std::to_string(kRecoveryEpochs) +
                       " epochs of the restart",
                   0);
    } else {
      recovery_s = ToS(records[first_ok].end_ns - relaunch_ns);
      recovery_epochs = first_ok - timed_end + 1;
    }
  }

  // --- End-to-end figures over the timed epochs.
  std::vector<double> result_ms;
  int64_t cycle_ns = 0;
  uint64_t consumed = 0;
  for (uint64_t e = kWarmupEpochs; e < timed_end; ++e) {
    result_ms.push_back(ToMs(records[e].result_ns));
    cycle_ns += records[e].cycle_ns;
    consumed += records[e].counts.consumed;
  }
  const uint64_t timed_epochs = timed_end - kWarmupEpochs;
  if (consumed == 0) {
    outcome.Fail("no shares consumed in the timed epochs", 0);
    consumed = 1;
  }
  const double shares_per_s = static_cast<double>(consumed) / ToS(cycle_ns);
  const Tail tail = TailOf(result_ms);
  const double slope = Slope(result_ms);
  std::printf("setup: build_s=%.3f (median of %zu) warmup_s=%.3f\n",
              Median(build_s), kSetupReps, warmup_s);
  std::printf("timed: epochs=%llu shares_consumed=%llu wall_s=%.3f\n",
              static_cast<unsigned long long>(timed_epochs),
              static_cast<unsigned long long>(consumed), ToS(cycle_ns));
  std::printf("result_ms_tail is p%.1f of %zu epochs; result_ms slope "
              "%.4f ms/epoch over the timed epochs\n",
              tail.pct, result_ms.size(), slope);
  // Two end-to-end figures stay out of the result's metrics: failed_ratio
  // is 0 in a correct run (it travels as failed / attempted), and
  // recovery_s exists only where a restart can recover (durable_tcp).
  std::printf("metric %-36s %16.6f %s (%llu of %llu shares)\n",
              "failed_ratio",
              outcome.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted),
              "ratio", static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  if (durable) {
    std::printf("metric %-36s %16.6f %s (first correct window %llu "
                "epoch(s) after the restart; %.0f records replayed)\n",
                "recovery_s", recovery_s, "s",
                static_cast<unsigned long long>(recovery_epochs),
                recovered_records);
  }
  for (const std::string& error : outcome.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"shares_per_s", shares_per_s, "1/s"},
        {"result_ms_p50", Median(result_ms), "ms"},
        {"result_ms_tail", tail.value, "ms"},
        {"cpu_us_per_share", cpu_s * 1e6 / static_cast<double>(consumed),
         "us"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"setup_s", setup_s, "s"},
    };
  } else {
    LayerInputs in;
    in.tcp = tcp;
    in.epoch_begin = kWarmupEpochs;
    in.epoch_end = timed_end;
    in.records = &records;
    in.serial_records = &serial_records;
    in.serial_share_bytes = serial->share_bytes();
    in.joins = checker.joins();
    in.participants = checker.participants();
    in.daemon_before = daemon_before;
    in.daemon_after = daemon_after;
    in.driver_before = driver_before;
    in.driver_after = driver_after;
    in.storage_written = storage_written_timed;
    in.recovered_records = recovered_records;
    in.slope = slope;
    in.shares_per_s = shares_per_s;
    metrics = PerLayerMetrics(in, tracer);
    const std::string trace_path =
        (work / ("trace-" + opt.workload + "-" + std::to_string(opt.seed) +
                 ".json"))
            .string();
    tracer.WriteChromeJson(trace_path);
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                trace_path.c_str());
    std::printf("trace.shares_per_s is the %s\n",
                tcp ? "traced TCP deployment's own throughput (hook spans "
                      "only)"
                    : "serial traced pipeline's throughput: the gap to the "
                      "untraced shares_per_s is tracing overhead plus the "
                      "streaming overlap");
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintResult(outcome, metrics);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::Parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
