// Failure-injection tests: lost shares, duplicated records, out-of-order
// delivery, proxy outage, and a crash/recovery cycle of the durable
// historical store — the system must degrade gracefully (fewer answers,
// wider error bars) and never produce corrupt results.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>

#include "aggregator/aggregator.h"
#include "client/client.h"
#include "engine/watermark.h"
#include "proxy/proxy.h"
#include "system/system.h"

#include <unistd.h>

namespace privapprox {
namespace {

core::Query MakeQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(10000)
      .WithSlideMs(10000)
      .Build();
}

core::ExecutionParams ExactParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 1.0;
  params.randomization = {1.0, 0.5};
  return params;
}

client::Client MakeClient(uint64_t id, double speed) {
  client::Client c(client::ClientConfig{id, 2, 123});
  c.database().CreateTable("vehicle", {"speed"})
      .Insert(500, {localdb::Value(speed)});
  return c;
}

struct Harness {
  explicit Harness(size_t population)
      : query(MakeQuery()),
        proxy0(proxy::ProxyConfig{0, 2}, broker),
        proxy1(proxy::ProxyConfig{1, 2}, broker) {
    aggregator::AggregatorConfig config;
    config.num_proxies = 2;
    config.population = population;
    agg = std::make_unique<aggregator::Aggregator>(
        config, query, ExactParams(), broker,
        [this](const aggregator::WindowedResult& r) {
          results.push_back(r);
        });
  }

  broker::Broker broker;
  core::Query query;
  proxy::Proxy proxy0;
  proxy::Proxy proxy1;
  std::unique_ptr<aggregator::Aggregator> agg;
  std::vector<aggregator::WindowedResult> results;
};

// ----------------------------------------------------------- share loss

TEST(FailureTest, RandomShareLossDegradesGracefully) {
  // 20% of shares to proxy 1 are lost in transit. Those messages never
  // join; the rest produce an exact result over the survivors.
  const size_t population = 500;
  Harness harness(population);
  Xoshiro256 rng(1);
  size_t delivered = 0;
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto answer = c.AnswerQuery(5000);
    harness.proxy0.Receive(answer->shares[0], 5000);
    if (rng.NextBernoulli(0.8)) {
      harness.proxy1.Receive(answer->shares[1], 5000);
      ++delivered;
    }
  }
  harness.proxy0.Forward();
  harness.proxy1.Forward();
  harness.agg->Drain();
  harness.agg->Flush();
  ASSERT_EQ(harness.results.size(), 1u);
  const auto& result = harness.results[0].result;
  EXPECT_EQ(result.participants, delivered);
  EXPECT_EQ(harness.agg->join_stats().joined, delivered);
  // Survivors are all in bucket 2; the estimate scales them back to the
  // population (the estimator treats missing answers as unsampled).
  EXPECT_NEAR(result.buckets[2].estimate.value,
              static_cast<double>(population), 1.0);
  // The lost messages linger as partial join groups until eviction.
  EXPECT_EQ(harness.agg->pending_join_groups(), population - delivered);
}

TEST(FailureTest, TotalProxyOutageYieldsNoResultsNotGarbage) {
  const size_t population = 50;
  Harness harness(population);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto answer = c.AnswerQuery(5000);
    harness.proxy0.Receive(answer->shares[0], 5000);
    // Proxy 1 is down: nothing arrives there.
  }
  harness.proxy0.Forward();
  harness.agg->Drain();
  harness.agg->AdvanceWatermark(1000000);  // evicts all partial groups
  EXPECT_TRUE(harness.results.empty());
  EXPECT_EQ(harness.agg->join_stats().joined, 0u);
  EXPECT_EQ(harness.agg->join_stats().evicted_partial, population);
}

TEST(FailureTest, DuplicatedRecordsInTransitAreDropped) {
  // A flaky broker redelivers every record twice; the MID join must not
  // double-count answers.
  const size_t population = 100;
  Harness harness(population);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto answer = c.AnswerQuery(5000);
    for (int copy = 0; copy < 2; ++copy) {
      harness.proxy0.Receive(answer->shares[0], 5000);
      harness.proxy1.Receive(answer->shares[1], 5000);
    }
  }
  harness.proxy0.Forward();
  harness.proxy1.Forward();
  harness.agg->Drain();
  harness.agg->Flush();
  ASSERT_EQ(harness.results.size(), 1u);
  EXPECT_EQ(harness.results[0].result.participants, population);
  EXPECT_NEAR(harness.results[0].result.buckets[2].estimate.value,
              static_cast<double>(population), 1e-9);
  EXPECT_GT(harness.agg->join_stats().duplicates_dropped, 0u);
}

TEST(FailureTest, MalformedRecordsSurfaceInEpochStats) {
  // A corrupted share arrives at proxy 0 out-of-band: too short to decode.
  // The proxy forwards it blindly; the aggregator must drop it, count it,
  // and keep every well-formed answer.
  system::SystemConfig config;
  config.num_clients = 20;
  config.num_proxies = 2;
  config.seed = 7;
  config.pipeline.depth = 2;
  config.pipeline.shard_size = 7;  // 20 clients -> 3 shards
  system::PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed"});
    db.GetTable("vehicle").Insert(500, {localdb::Value(25.0)});
  }
  sys.SubmitQuery(MakeQuery(), ExactParams());
  // Shares travel on per-query lane topics; the garbage lands on query 1's
  // lane at proxy 0 so the forward path carries it.
  const uint8_t garbage[] = {0xBA, 0xD0, 0x01};
  const broker::ProduceView record{/*key=*/12345, garbage, 900};
  sys.bus().Produce("proxy0.q1.in",
                    std::span<const broker::ProduceView>(&record, 1));
  const system::EpochStats stats = sys.RunEpoch(1000);
  EXPECT_EQ(stats.malformed_dropped, 1u);
  EXPECT_EQ(stats.participants, config.num_clients);
  // Consumed = every well-formed share plus the injected garbage record.
  EXPECT_EQ(stats.shares_consumed,
            config.num_clients * config.num_proxies + 1);
  // EpochStats is defined as a per-epoch delta of the registry counters —
  // after one epoch, delta and cumulative value must agree exactly.
  metrics::Registry& reg = sys.metrics_registry();
  EXPECT_EQ(stats.malformed_dropped,
            reg.GetCounter("privapprox_malformed_dropped_total", "").Value());
  EXPECT_EQ(stats.shares_consumed,
            reg.GetCounter("privapprox_shares_consumed_total", "").Value());
  EXPECT_EQ(stats.participants,
            reg.GetCounter("privapprox_participants_total", "").Value());
  // A clean follow-up epoch reports zero drops: the stat is per-epoch.
  for (size_t i = 0; i < config.num_clients; ++i) {
    sys.client(i).database().GetTable("vehicle").Insert(
        1500, {localdb::Value(25.0)});
  }
  EXPECT_EQ(sys.RunEpoch(2000).malformed_dropped, 0u);
  // Cumulative counter keeps the first epoch's drop.
  EXPECT_EQ(reg.GetCounter("privapprox_malformed_dropped_total", "").Value(),
            1u);
}

// ------------------------------------------------------ out-of-order time

TEST(WatermarkTest, BoundedOutOfOrderness) {
  engine::BoundedOutOfOrdernessWatermark wm(100);
  EXPECT_EQ(wm.Current(), INT64_MIN);
  wm.Observe(1000);
  EXPECT_EQ(wm.Current(), 900);
  wm.Observe(950);  // straggler does not move the watermark backwards
  EXPECT_EQ(wm.Current(), 900);
  wm.Observe(2000);
  EXPECT_EQ(wm.Current(), 1900);
  EXPECT_THROW(engine::BoundedOutOfOrdernessWatermark(-1),
               std::invalid_argument);
}

TEST(FailureTest, OutOfOrderArrivalWithStreamWatermark) {
  // Answers from three epochs arrive interleaved; the stream-driven
  // watermark fires window [0, 10000) only once event time has moved past
  // its end plus the out-of-orderness bound.
  const size_t population = 30;
  Harness harness(population);
  auto send_at = [&](uint64_t id, int64_t ts) {
    client::Client c = MakeClient(id, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto answer = c.AnswerQuery(ts);
    harness.proxy0.Receive(answer->shares[0], ts);
    harness.proxy1.Receive(answer->shares[1], ts);
  };
  send_at(0, 9000);
  send_at(1, 12000);  // later epoch arrives before epoch-1 stragglers
  send_at(2, 9500);   // straggler within the 1000 ms bound
  harness.proxy0.Forward();
  harness.proxy1.Forward();
  harness.agg->Drain();
  harness.agg->AdvanceWatermarkToStream();
  // Stream watermark = 12000 - 1000 = 11000 >= 10000: the first window
  // fired with both epoch-1 answers despite the interleaving.
  ASSERT_EQ(harness.results.size(), 1u);
  EXPECT_EQ(harness.results[0].window.start_ms, 0);
  EXPECT_EQ(harness.results[0].result.participants, 2u);
}

// --------------------------------------------------- durable store crash

TEST(FailureTest, DurableHistoricalSurvivesSystemRestart) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("privapprox_failure_hist_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);

  system::SystemConfig config;
  config.num_clients = 40;
  config.historical.enabled = true;
  config.historical.dir = dir.string();
  {
    system::PrivApproxSystem sys(config);
    for (size_t i = 0; i < 40; ++i) {
      auto& db = sys.client(i).database();
      db.CreateTable("vehicle", {"speed"});
      db.GetTable("vehicle").Insert(500, {localdb::Value(25.0)});
    }
    sys.SubmitQuery(MakeQuery(), ExactParams());
    sys.RunEpoch(5000);
    sys.Flush();
    const core::QueryResult live =
        sys.RunHistorical(0, 10000, aggregator::BatchQueryBudget{1.0});
    EXPECT_EQ(live.participants, 40u);
  }  // "crash": the system object is gone; only the log directory remains

  // A fresh system over the same directory reads the persisted answers.
  {
    system::PrivApproxSystem sys(config);
    sys.SubmitQuery(MakeQuery(), ExactParams());
    const core::QueryResult recovered =
        sys.RunHistorical(0, 10000, aggregator::BatchQueryBudget{1.0});
    EXPECT_EQ(recovered.participants, 40u);
    EXPECT_NEAR(recovered.buckets[2].estimate.value, 40.0, 1e-9);
  }
  fs::remove_all(dir);
}

// The durable historical store holds its directory's lock: a second live
// system over the same directory is a clear error, not interleaved appends.
TEST(FailureTest, SecondSystemOnLiveHistoricalDirThrows) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("privapprox_failure_hist_lock_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  system::SystemConfig config;
  config.num_clients = 4;
  config.historical.enabled = true;
  config.historical.dir = dir.string();
  {
    system::PrivApproxSystem first(config);
    EXPECT_THROW(system::PrivApproxSystem{config}, storage::SegmentLogError);
  }
  // The lock dies with the first system.
  EXPECT_NO_THROW(system::PrivApproxSystem{config});
  fs::remove_all(dir);
}

// A historical dir written by the pre-PartitionLog store holds
// answers-NNNNNN.log segments. The system must refuse it, naming the file,
// rather than open an empty store over it.
TEST(FailureTest, OldFormatHistoricalDirFailsLoudly) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("privapprox_failure_hist_old_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "answers-000000.log", std::ios::binary) << "old";
  system::SystemConfig config;
  config.num_clients = 4;
  config.historical.enabled = true;
  config.historical.dir = dir.string();
  try {
    system::PrivApproxSystem sys(config);
    ADD_FAILURE() << "opened an old-format historical dir";
  } catch (const storage::SegmentLogError& e) {
    EXPECT_NE(std::string(e.what()).find("answers-000000.log"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace privapprox
