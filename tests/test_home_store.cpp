// Tests for the home data store (Section III): version numbering, retained
// deltas d(o, k-i, k), version-negotiated fetch, and the lease lifecycle
// (subscribe / renew / cancel / expire) with all three push modes.
#include <gtest/gtest.h>

#include "src/dist/home_store.h"
#include "src/util/random.h"

namespace coda::dist {
namespace {

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 31 + seed) & 0xFF);
  }
  return b;
}

struct StoreFixture : ::testing::Test {
  SimNet net;
  NodeId store_node = net.add_node("store");
  NodeId client_node = net.add_node("client");
  HomeDataStore store{&net, store_node};
};

TEST_F(StoreFixture, VersionsIncreaseMonotonically) {
  EXPECT_EQ(store.version("o1"), 0u);
  store.put("o1", pattern(100, 1));
  EXPECT_EQ(store.version("o1"), 1u);
  store.put("o1", pattern(100, 2));
  EXPECT_EQ(store.version("o1"), 2u);
  EXPECT_EQ(store.value("o1"), pattern(100, 2));
}

TEST_F(StoreFixture, PutVersionJumpsAndKeepsDeltasOnRealBases) {
  store.put("o1", pattern(100, 1));
  store.put_version("o1", pattern(100, 3), 3);  // a replica skipping v2
  EXPECT_EQ(store.version("o1"), 3u);
  EXPECT_EQ(store.value("o1"), pattern(100, 3));
  EXPECT_EQ(store.retained_delta_bases("o1"),
            (std::vector<std::uint64_t>{1}));
  EXPECT_THROW(store.put_version("o1", pattern(100, 4), 3), InvalidArgument);
  store.put("o1", pattern(100, 4));
  EXPECT_EQ(store.version("o1"), 4u);
}

TEST_F(StoreFixture, MissingObjectThrows) {
  EXPECT_THROW(store.value("nope"), NotFound);
  EXPECT_THROW(store.fetch("nope", client_node, 0), NotFound);
}

TEST_F(StoreFixture, RetainedDeltasCoverRecentHistory) {
  for (std::uint8_t v = 1; v <= 6; ++v) {
    store.put("o1", pattern(2048, v));
  }
  // With max_history = 4 (default), versions 2..5 are retained as bases.
  EXPECT_EQ(store.retained_delta_bases("o1"),
            (std::vector<std::uint64_t>{2, 3, 4, 5}));
}

TEST_F(StoreFixture, FetchReturnsDeltaForRetainedVersion) {
  Bytes v1 = pattern(8192, 1);
  store.put("o1", v1);
  Bytes v2 = v1;
  v2[10] = 0xFF;  // tiny change
  store.put("o1", v2);

  const auto result = store.fetch("o1", client_node, 1);
  EXPECT_TRUE(result.is_delta);
  EXPECT_EQ(result.version, 2u);
  EXPECT_EQ(apply_delta(v1, result.delta), v2);
  EXPECT_LT(result.response_bytes, v2.size() / 4);
}

TEST_F(StoreFixture, FetchFullWhenVersionUnknown) {
  store.put("o1", pattern(4096, 1));
  store.put("o1", pattern(4096, 2));
  const auto result = store.fetch("o1", client_node, 0);  // no base held
  EXPECT_FALSE(result.is_delta);
  EXPECT_EQ(result.full_value, pattern(4096, 2));
}

TEST_F(StoreFixture, FetchFullWhenDeltaNotWorthwhile) {
  // A complete rewrite with unrelated random content: no blocks shared.
  Rng rng(9);
  Bytes v1(4096), v2(4096);
  for (auto& b : v1) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (auto& b : v2) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  store.put("o1", v1);
  store.put("o1", v2);
  const auto result = store.fetch("o1", client_node, 1);
  EXPECT_FALSE(result.is_delta);
}

TEST_F(StoreFixture, FetchUpToDateIsTiny) {
  store.put("o1", pattern(4096, 1));
  const auto result = store.fetch("o1", client_node, 1);
  EXPECT_FALSE(result.is_delta);
  EXPECT_TRUE(result.full_value.empty());
  EXPECT_LE(result.response_bytes, 16u);
}

TEST_F(StoreFixture, FetchAccountsTraffic) {
  store.put("o1", pattern(1024, 1));
  const auto before = net.total().bytes;
  store.fetch("o1", client_node, 0);
  EXPECT_GT(net.total().bytes, before + 1024);  // request + full response
}

TEST_F(StoreFixture, LeaseLifecycle) {
  store.put("o1", pattern(128, 1));
  EXPECT_FALSE(store.has_lease("o1", client_node));
  store.subscribe("o1", client_node, 10.0, PushMode::kFullValue);
  EXPECT_TRUE(store.has_lease("o1", client_node));
  EXPECT_EQ(store.active_leases("o1"), 1u);

  // Expiry is driven by the simulated clock.
  net.advance(11.0);
  EXPECT_FALSE(store.has_lease("o1", client_node));
  EXPECT_EQ(store.active_leases("o1"), 0u);
}

TEST_F(StoreFixture, RenewExtendsLease) {
  store.put("o1", pattern(128, 1));
  store.subscribe("o1", client_node, 5.0, PushMode::kFullValue);
  net.advance(4.0);
  store.renew("o1", client_node, 5.0);
  net.advance(4.0);  // past the original expiry, within the renewal
  EXPECT_TRUE(store.has_lease("o1", client_node));
  // A registered node without a lease cannot renew.
  const NodeId other = net.add_node("other");
  EXPECT_THROW(store.renew("o1", other, 1.0), NotFound);
}

TEST_F(StoreFixture, CancelRemovesLease) {
  store.put("o1", pattern(128, 1));
  store.subscribe("o1", client_node, 100.0, PushMode::kDelta);
  store.cancel("o1", client_node);
  EXPECT_FALSE(store.has_lease("o1", client_node));
}

TEST_F(StoreFixture, PushFullValueDeliversUpdates) {
  std::vector<PushMessage> received;
  store.set_push_handler(
      [&](NodeId client, const PushMessage& msg) {
        EXPECT_EQ(client, client_node);
        received.push_back(msg);
      });
  store.subscribe("o1", client_node, 100.0, PushMode::kFullValue);
  store.put("o1", pattern(256, 1));
  store.put("o1", pattern(256, 2));
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[1].version, 2u);
  EXPECT_EQ(received[1].full_value, pattern(256, 2));
}

TEST_F(StoreFixture, PushDeltaAfterFirstFull) {
  std::vector<PushMessage> received;
  store.set_push_handler(
      [&](NodeId, const PushMessage& msg) { received.push_back(msg); });
  store.subscribe("o1", client_node, 100.0, PushMode::kDelta);
  Bytes v1 = pattern(4096, 1);
  store.put("o1", v1);
  Bytes v2 = v1;
  v2[5] ^= 0xAA;
  store.put("o1", v2);
  ASSERT_EQ(received.size(), 2u);
  // First push has no subscriber base: full value.
  EXPECT_EQ(received[0].mode, PushMode::kFullValue);
  // Second push is a delta against the pushed version 1.
  EXPECT_EQ(received[1].mode, PushMode::kDelta);
  EXPECT_EQ(apply_delta(v1, received[1].delta), v2);
  EXPECT_LT(received[1].wire_bytes, v2.size() / 4);
}

TEST_F(StoreFixture, PushNotifyOnlyCarriesHint) {
  std::vector<PushMessage> received;
  store.set_push_handler(
      [&](NodeId, const PushMessage& msg) { received.push_back(msg); });
  store.subscribe("o1", client_node, 100.0, PushMode::kNotifyOnly);
  store.put("o1", pattern(4096, 1));
  Bytes v2 = pattern(4096, 1);
  v2[0] ^= 1;
  store.put("o1", v2);
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[1].mode, PushMode::kNotifyOnly);
  EXPECT_GT(received[1].change_size_hint, 0u);
  EXPECT_LT(received[1].wire_bytes, 100u);  // tiny on the wire
  EXPECT_TRUE(received[1].full_value.empty());
}

TEST_F(StoreFixture, ExpiredLeaseReceivesNoPush) {
  std::size_t pushes = 0;
  store.set_push_handler([&](NodeId, const PushMessage&) { ++pushes; });
  store.subscribe("o1", client_node, 1.0, PushMode::kFullValue);
  net.advance(2.0);
  store.put("o1", pattern(64, 1));
  EXPECT_EQ(pushes, 0u);
}

TEST(HomeDataStore, ConfigValidation) {
  SimNet net;
  const NodeId n = net.add_node("s");
  HomeDataStore::Config cfg;
  cfg.max_history = 0;
  EXPECT_THROW(HomeDataStore(&net, n, cfg), InvalidArgument);
  HomeDataStore::Config cfg2;
  cfg2.min_delta_ratio = 0.0;
  EXPECT_THROW(HomeDataStore(&net, n, cfg2), InvalidArgument);
}

TEST(HomeDataStore, PushModeNames) {
  EXPECT_EQ(push_mode_name(PushMode::kFullValue), "full");
  EXPECT_EQ(push_mode_name(PushMode::kDelta), "delta");
  EXPECT_EQ(push_mode_name(PushMode::kNotifyOnly), "notify");
}

}  // namespace
}  // namespace coda::dist
