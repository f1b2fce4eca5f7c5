// FastCast-specific behaviour: the fast path's 4δ latency, Task-6
// matching, guess accuracy, the forced-slow-path ablation, and equivalence
// of delivered orders with BaseCast semantics.

#include <gtest/gtest.h>

#include "fastcast/harness/experiment.hpp"

namespace fastcast::harness {
namespace {

ExperimentConfig wan_config(Protocol proto, std::size_t groups, std::size_t clients) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kEmulatedWan;
  cfg.topo.groups = groups;
  cfg.topo.clients = clients;
  cfg.topo.protocol = proto;
  cfg.warmup = milliseconds(300);
  cfg.measure = seconds(2);
  cfg.check_level = Checker::Level::kFull;
  return cfg;
}

TEST(FastCast, FourDeltaFastPathInWan) {
  // Fast path ≈ 1 RTT (two of the four delays are intra-region), versus
  // BaseCast's ≈ 2 RTT — Proposition 2.
  auto cfg = wan_config(Protocol::kFastCast, 2, 1);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  const auto r = run_experiment(cfg);
  ASSERT_GT(r.latency.count(), 10u);
  EXPECT_GT(to_milliseconds(r.latency.median()), 55.0);
  EXPECT_LT(to_milliseconds(r.latency.median()), 95.0);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_GT(r.fast_path_hits, 0u);
  EXPECT_EQ(r.slow_path_hits, 0u);  // quiet run: every guess matches
}

TEST(FastCast, FastPathHoldsUpTo16Groups) {
  for (std::size_t g : {4, 16}) {
    auto cfg = wan_config(Protocol::kFastCast, g, 1);
    cfg.dst_factory = same_dst_for_all(all_groups(g));
    const auto r = run_experiment(cfg);
    ASSERT_GT(r.latency.count(), 10u) << g << " groups";
    EXPECT_LT(to_milliseconds(r.latency.median()), 100.0) << g << " groups";
    EXPECT_TRUE(r.report.ok) << g << " groups";
  }
}

TEST(FastCast, ForcedSlowPathFallsBackToSixDelta) {
  auto cfg = wan_config(Protocol::kFastCastSlowPath, 2, 1);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  const auto r = run_experiment(cfg);
  ASSERT_GT(r.latency.count(), 5u);
  EXPECT_GT(to_milliseconds(r.latency.median()), 120.0);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_EQ(r.fast_path_hits, 0u);  // wrong guesses never match
  EXPECT_GT(r.slow_path_hits, 0u);
}

TEST(FastCast, ForcedSlowPathStillSatisfiesAllProperties) {
  auto cfg = wan_config(Protocol::kFastCastSlowPath, 3, 6);
  cfg.topo.env = Environment::kLan;
  cfg.warmup = milliseconds(10);
  cfg.measure = milliseconds(200);
  cfg.dst_factory = same_dst_for_all(random_subset(3, 2));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
}

TEST(FastCast, LocalMessagesTakeThreeDeltas) {
  auto cfg = wan_config(Protocol::kFastCast, 2, 1);
  cfg.dst_factory = same_dst_for_all(fixed_group(1));
  const auto r = run_experiment(cfg);
  ASSERT_GT(r.latency.count(), 10u);
  EXPECT_LT(to_milliseconds(r.latency.median()), 90.0);  // 1 consensus ≈ 1 RTT
  EXPECT_EQ(r.fast_path_hits, 0u);  // the fast path only exists for globals
}

TEST(FastCast, GuessesMatchInQuietRuns) {
  auto cfg = wan_config(Protocol::kFastCast, 2, 1);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(seconds(1));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(60)));
  std::uint64_t guesses = 0, mismatches = 0;
  for (NodeId n : cluster.deployment().membership.all_replicas()) {
    if (auto* fc = dynamic_cast<FastCast*>(&cluster.replica(n).protocol())) {
      guesses += fc->guesses_sent();
      mismatches += fc->guess_mismatches();
    }
  }
  EXPECT_GT(guesses, 10u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(FastCast, ConcurrentClientsMostlyFastPath) {
  auto cfg = wan_config(Protocol::kFastCast, 2, 8);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  // Under moderate concurrency the leader's batch-order guesses still
  // track the decision order: most SYNC-HARDs match via Task 6.
  EXPECT_GT(r.fast_path_hits, r.slow_path_hits);
}

TEST(FastCast, SlowPathCorrectnessUnderConcurrency) {
  auto cfg = wan_config(Protocol::kFastCastSlowPath, 4, 8);
  cfg.dst_factory = same_dst_for_all(random_subset(4, 2));
  cfg.measure = seconds(1);
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_EQ(r.fast_path_hits, 0u);
}

TEST(FastCast, FastAndSlowPathsDeliverConsistentCrossGroupOrders) {
  // Run the same workload twice — fast path on and forced slow — and check
  // both produce property-clean histories (the orders themselves may
  // differ; atomic multicast does not fix a unique order).
  for (Protocol proto : {Protocol::kFastCast, Protocol::kFastCastSlowPath}) {
    auto cfg = wan_config(proto, 3, 4);
    cfg.topo.env = Environment::kLan;
    cfg.warmup = milliseconds(10);
    cfg.measure = milliseconds(150);
    cfg.seed = 99;
    cfg.dst_factory = same_dst_for_all(random_subset(3, 2));
    const auto r = run_experiment(cfg);
    EXPECT_TRUE(r.report.ok) << to_string(proto);
  }
}

TEST(FastCast, SoftClockNeverTrailsHardClock) {
  auto cfg = wan_config(Protocol::kFastCast, 2, 4);
  cfg.topo.env = Environment::kLan;
  cfg.warmup = milliseconds(10);
  cfg.measure = milliseconds(150);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(milliseconds(160));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  for (NodeId n : cluster.deployment().membership.all_replicas()) {
    auto* fc = dynamic_cast<FastCast*>(&cluster.replica(n).protocol());
    ASSERT_NE(fc, nullptr);
    if (fc->guesses_sent() > 0) {  // only the leader advances CS
      EXPECT_GE(fc->soft_clock(), fc->hard_clock());
    }
  }
}

}  // namespace
}  // namespace fastcast::harness
