// Tests for the proxy runtime: share encode/decode, transmission-only
// forwarding, and the parallel forwarding path.

#include <gtest/gtest.h>

#include "broker/broker.h"
#include "proxy/proxy.h"
#include "transport/inproc_bus.h"

namespace privapprox::proxy {
namespace {

// Every record on `topic`, read through a fresh BusConsumer.
std::vector<broker::RecordView> ReadAll(broker::Broker& b,
                                        const std::string& topic) {
  transport::InProcessBus bus(b);
  transport::BusConsumer consumer(bus, topic);
  std::vector<broker::RecordView> records;
  while (consumer.PollInto(64, records) != 0) {
  }
  return records;
}

TEST(ProxyTest, CreatesItsTopics) {
  broker::Broker b;
  Proxy proxy(ProxyConfig{0, 2}, b);
  EXPECT_TRUE(b.HasTopic("proxy0.in"));
  EXPECT_TRUE(b.HasTopic("proxy0.out"));
  EXPECT_EQ(proxy.index(), 0u);
}

TEST(ProxyTest, ShareEncodeDecodeRoundTrip) {
  const crypto::MessageShare share{0x0123456789ABCDEFULL, {1, 2, 3, 0xFF}};
  const auto bytes = Proxy::EncodeShare(share);
  EXPECT_EQ(bytes.size(), 8u + 4u);
  EXPECT_EQ(Proxy::DecodeShare(bytes), share);
}

TEST(ProxyTest, DecodeRejectsTruncatedShare) {
  const std::vector<uint8_t> truncated{1, 2, 3};
  EXPECT_THROW(Proxy::DecodeShare(truncated), std::invalid_argument);
}

TEST(ProxyTest, DecodeOfEmptyPayloadShare) {
  const crypto::MessageShare share{42, {}};
  EXPECT_EQ(Proxy::DecodeShare(Proxy::EncodeShare(share)), share);
}

TEST(ProxyTest, ForwardMovesEverythingInToOut) {
  broker::Broker b;
  Proxy proxy(ProxyConfig{1, 4}, b);
  for (uint64_t mid = 0; mid < 100; ++mid) {
    proxy.Receive(crypto::MessageShare{mid, {static_cast<uint8_t>(mid)}},
                  static_cast<int64_t>(mid));
  }
  EXPECT_EQ(proxy.Forward(), 100u);
  EXPECT_EQ(proxy.forwarded(), 100u);
  const auto records = ReadAll(b, "proxy1.out");
  for (const auto& record : records) {
    EXPECT_EQ(Proxy::DecodeShare(record.bytes()).payload.size(), 1u);
  }
  EXPECT_EQ(records.size(), 100u);
}

TEST(ProxyTest, ForwardPreservesTimestamps) {
  broker::Broker b;
  Proxy proxy(ProxyConfig{0, 1}, b);
  proxy.Receive(crypto::MessageShare{1, {9}}, 12345);
  proxy.Forward();
  const auto records = ReadAll(b, "proxy0.out");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].timestamp_ms, 12345);
}

TEST(ProxyTest, ForwardOnEmptyQueueIsZero) {
  broker::Broker b;
  Proxy proxy(ProxyConfig{0, 2}, b);
  EXPECT_EQ(proxy.Forward(), 0u);
}

TEST(ProxyTest, RepeatedForwardOnlyMovesNewRecords) {
  broker::Broker b;
  Proxy proxy(ProxyConfig{0, 2}, b);
  proxy.Receive(crypto::MessageShare{1, {1}}, 0);
  EXPECT_EQ(proxy.Forward(), 1u);
  EXPECT_EQ(proxy.Forward(), 0u);
  proxy.Receive(crypto::MessageShare{2, {2}}, 0);
  EXPECT_EQ(proxy.Forward(), 1u);
  EXPECT_EQ(proxy.forwarded(), 2u);
}

TEST(ProxyTest, ParallelForwardMovesEverything) {
  broker::Broker b;
  Proxy proxy(ProxyConfig{0, 4}, b);
  for (uint64_t mid = 0; mid < 5000; ++mid) {
    proxy.Receive(crypto::MessageShare{mid, {0, 1, 2}}, 0);
  }
  ThreadPool pool(4);
  EXPECT_EQ(proxy.ForwardParallel(pool), 5000u);
  EXPECT_EQ(ReadAll(b, "proxy0.out").size(), 5000u);
}

TEST(ProxyTest, TwoProxiesAreIndependent) {
  broker::Broker b;
  Proxy p0(ProxyConfig{0, 2}, b);
  Proxy p1(ProxyConfig{1, 2}, b);
  p0.Receive(crypto::MessageShare{1, {1}}, 0);
  EXPECT_EQ(p0.Forward(), 1u);
  EXPECT_EQ(p1.Forward(), 0u);  // p1 never saw the share
}

}  // namespace
}  // namespace privapprox::proxy
