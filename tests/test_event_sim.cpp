#include "sim/event_sim.h"

#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "cache/lru_cache.h"
#include "cache/perfect_cache.h"
#include "cluster/cluster.h"

namespace scp {
namespace {

EventSimConfig config_with(double rate, double duration,
                           std::uint64_t queue_capacity = 1000,
                           std::uint64_t seed = 1) {
  EventSimConfig c;
  c.query_rate = rate;
  c.duration_s = duration;
  c.queue_capacity = queue_capacity;
  c.seed = seed;
  return c;
}

TEST(EventSim, ConservesQueries) {
  const auto d = QueryDistribution::zipf(1000, 1.01);
  Cluster cluster(make_partitioner("hash", 20, 3, 7), /*capacity=*/100.0);
  PerfectCache cache(50, d);
  auto selector = make_selector("least-loaded");
  const EventSimResult r = simulate_events(cluster, cache, d, *selector,
                                           config_with(5000.0, 1.0));
  EXPECT_EQ(r.total_queries, r.cache_hits + r.backend_arrivals);
  const std::uint64_t node_total = std::accumulate(
      r.node_arrivals.begin(), r.node_arrivals.end(), std::uint64_t{0});
  EXPECT_EQ(node_total, r.backend_arrivals);
}

TEST(EventSim, CacheHitRatioTracksHeadMass) {
  const auto d = QueryDistribution::zipf(1000, 1.01);
  Cluster cluster(make_partitioner("hash", 20, 3, 7), 1000.0);
  PerfectCache cache(100, d);
  auto selector = make_selector("least-loaded");
  const EventSimResult r = simulate_events(cluster, cache, d, *selector,
                                           config_with(20000.0, 1.0));
  EXPECT_NEAR(r.cache_hit_ratio, d.head_mass(100), 0.02);
}

TEST(EventSim, NoDropsWhenUnderloaded) {
  const auto d = QueryDistribution::uniform(1000);
  // 2000 qps over 20 nodes = 100 avg; capacity 400 → comfortable.
  Cluster cluster(make_partitioner("hash", 20, 3, 3), 400.0);
  PerfectCache cache(0, d);
  auto selector = make_selector("least-loaded");
  const EventSimResult r = simulate_events(cluster, cache, d, *selector,
                                           config_with(2000.0, 2.0, 100));
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_DOUBLE_EQ(r.drop_ratio, 0.0);
}

TEST(EventSim, DropsWhenOverloaded) {
  // Aggregate rate far above aggregate capacity with small queues: drops
  // are inevitable.
  const auto d = QueryDistribution::uniform(1000);
  Cluster cluster(make_partitioner("hash", 10, 2, 3), 50.0);
  PerfectCache cache(0, d);
  auto selector = make_selector("least-loaded");
  const EventSimResult r = simulate_events(cluster, cache, d, *selector,
                                           config_with(5000.0, 1.0, 20));
  EXPECT_GT(r.dropped, 0u);
  EXPECT_GT(r.drop_ratio, 0.5);
}

TEST(EventSim, HotspotAttackDropsOnlyWithSmallCache) {
  // The paper's story at the request level: adversarial pattern with c+1
  // keys saturates one replica unless the cache absorbs the head.
  const std::uint64_t m = 10000;
  const std::uint64_t c = 50;
  const auto attack = QueryDistribution::uniform_over(c + 1, m);
  auto selector = make_selector("least-loaded");

  Cluster victim(make_partitioner("hash", 50, 3, 5), 100.0);
  PerfectCache no_cache(0, attack);
  const EventSimResult hit = simulate_events(
      victim, no_cache, attack, *selector, config_with(10000.0, 1.0, 50));

  Cluster protected_cluster(make_partitioner("hash", 50, 3, 5), 100.0);
  PerfectCache cache(c, attack);
  const EventSimResult safe =
      simulate_events(protected_cluster, cache, attack, *selector,
                      config_with(10000.0, 1.0, 50));

  // Offered 2x aggregate capacity: after queues (50 nodes x 50 slots)
  // absorb the transient, roughly a quarter of the 1 s horizon's queries
  // must drop.
  EXPECT_GT(hit.drop_ratio, 0.2);
  EXPECT_LT(safe.drop_ratio, hit.drop_ratio / 2);
}

TEST(EventSim, WaitGrowsWithUtilization) {
  const auto d = QueryDistribution::uniform(1000);
  auto selector = make_selector("least-loaded");

  Cluster light(make_partitioner("hash", 10, 2, 9), 1000.0);
  PerfectCache cache(0, d);
  const EventSimResult low = simulate_events(light, cache, d, *selector,
                                             config_with(2000.0, 1.0));

  Cluster heavy(make_partitioner("hash", 10, 2, 9), 1000.0);
  const EventSimResult high = simulate_events(heavy, cache, d, *selector,
                                              config_with(9000.0, 1.0));
  EXPECT_GT(high.wait_us.mean(), low.wait_us.mean());
}

TEST(EventSim, DeterministicGivenSeed) {
  const auto d = QueryDistribution::zipf(500, 1.1);
  auto run = [&] {
    Cluster cluster(make_partitioner("hash", 10, 2, 4), 500.0);
    PerfectCache cache(20, d);
    auto selector = make_selector("least-loaded");
    return simulate_events(cluster, cache, d, *selector,
                           config_with(3000.0, 1.0, 100, 77));
  };
  const EventSimResult a = run();
  const EventSimResult b = run();
  EXPECT_EQ(a.total_queries, b.total_queries);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.node_arrivals, b.node_arrivals);
}

TEST(EventSim, WorksWithRealEvictionPolicies) {
  const auto d = QueryDistribution::zipf(2000, 1.01);
  Cluster cluster(make_partitioner("hash", 10, 2, 8), 2000.0);
  LruCache cache(100);
  auto selector = make_selector("random");
  const EventSimResult r = simulate_events(cluster, cache, d, *selector,
                                           config_with(10000.0, 1.0));
  EXPECT_GT(r.cache_hit_ratio, 0.1);  // LRU catches a decent head fraction
  EXPECT_EQ(r.total_queries, r.cache_hits + r.backend_arrivals);
}

TEST(EventSim, UnlimitedCapacityNodesNeverQueue) {
  const auto d = QueryDistribution::uniform(100);
  Cluster cluster(make_partitioner("hash", 5, 2, 2));  // no capacity limit
  PerfectCache cache(0, d);
  auto selector = make_selector("least-loaded");
  const EventSimResult r = simulate_events(cluster, cache, d, *selector,
                                           config_with(10000.0, 0.5));
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.wait_us.max(), 0u);
}

TEST(EventSim, IndexedFastPathBitIdenticalToLegacy) {
  const auto d = QueryDistribution::zipf(2000, 1.05);
  const auto partitioner = make_partitioner("ring", 20, 3, 6);
  const PlacementIndex index(*partitioner, 2000);
  EventSimScratch scratch;
  for (const char* selector_kind : {"least-loaded", "random", "pinned"}) {
    Cluster legacy_cluster(make_partitioner("ring", 20, 3, 6), 500.0);
    Cluster fast_cluster(make_partitioner("ring", 20, 3, 6), 500.0);
    PerfectCache cache(100, d);
    auto legacy_selector = make_selector(selector_kind);
    auto fast_selector = make_selector(selector_kind);
    const EventSimConfig config = config_with(5000.0, 1.0, 50, 9);
    const EventSimResult legacy = simulate_events(
        legacy_cluster, cache, d, *legacy_selector, config);
    const EventSimResult fast = simulate_events(
        fast_cluster, cache, d, *fast_selector, config, &index, &scratch);
    EXPECT_EQ(fast.node_arrivals, legacy.node_arrivals) << selector_kind;
    EXPECT_EQ(fast.total_queries, legacy.total_queries) << selector_kind;
    EXPECT_EQ(fast.cache_hits, legacy.cache_hits) << selector_kind;
    EXPECT_EQ(fast.dropped, legacy.dropped) << selector_kind;
    EXPECT_EQ(fast.normalized_max_arrivals, legacy.normalized_max_arrivals)
        << selector_kind;
  }
}

TEST(EventSim, ArrivalImbalanceReflectsAttack) {
  // Single uncached hot key → only its replica group (3 of 20 nodes) gets
  // traffic. With idle queues, least-loaded tie-breaks spread it evenly over
  // the group, so max/mean ≈ n/d.
  const auto d = QueryDistribution::uniform_over(1, 100);
  Cluster cluster(make_partitioner("hash", 20, 3, 6), 1e6);
  PerfectCache cache(0, d);
  auto selector = make_selector("least-loaded");
  const EventSimResult r = simulate_events(cluster, cache, d, *selector,
                                           config_with(5000.0, 1.0));
  std::uint32_t loaded_nodes = 0;
  for (const std::uint64_t arrivals : r.node_arrivals) {
    loaded_nodes += arrivals > 0 ? 1 : 0;
  }
  EXPECT_EQ(loaded_nodes, 3u);
  EXPECT_NEAR(r.arrival_metrics.max_over_mean, 20.0 / 3.0, 0.7);
  EXPECT_NEAR(r.normalized_max_arrivals, 20.0 / 3.0, 0.7);
}

}  // namespace
}  // namespace scp
