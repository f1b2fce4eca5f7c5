// Chaos runner tests: fault accounting and determinism of one seeded
// campaign, and a fault-free guard on the FastCast fast path. The 20-seed
// campaign over every protocol is DurableChaosCampaign
// (durable_recovery_test), since every chaos run rebuilds crashed nodes
// from their WAL.

#include <gtest/gtest.h>

#include "fastcast/harness/chaos.hpp"

namespace fastcast::harness {
namespace {

ChaosRunConfig campaign_config(Protocol proto, std::uint64_t seed) {
  ChaosRunConfig cfg;
  cfg.seed = seed;
  cfg.experiment.topo.env = Environment::kLan;
  cfg.experiment.topo.groups = 2;
  cfg.experiment.topo.clients = 4;
  cfg.experiment.topo.protocol = proto;
  cfg.experiment.warmup = milliseconds(20);
  cfg.experiment.measure = milliseconds(400);
  cfg.experiment.slice = milliseconds(20);
  cfg.experiment.check_level = Checker::Level::kFull;
  cfg.experiment.dst_factory = same_dst_for_all(random_subset(2, 2));
  // Recovery machinery on: lossy links arm retransmission/catch-up, and
  // heartbeats arm re-election so leader-targeted crashes fail over.
  cfg.experiment.drop_probability = 0.01;
  cfg.experiment.heartbeats = true;

  cfg.faults.crashes = 2;
  cfg.faults.leader_bias = 0.5;
  cfg.faults.min_downtime = milliseconds(40);
  cfg.faults.max_downtime = milliseconds(80);
  cfg.faults.drop_bursts = 1;
  cfg.faults.burst_drop_probability = 0.05;
  cfg.faults.min_burst = milliseconds(20);
  cfg.faults.max_burst = milliseconds(50);
  cfg.faults.partitions = 1;
  cfg.faults.min_partition = milliseconds(20);
  cfg.faults.max_partition = milliseconds(60);
  return cfg;
}

TEST(ChaosCampaign, FixedSeedSmokeReportsFaultAccounting) {
  const auto cfg = campaign_config(Protocol::kFastCast, 7);
  const ChaosRunResult result = run_chaos(cfg);
  ASSERT_TRUE(result.report.ok) << result.to_string();
  // The schedule injected real faults and every crash recovered; the
  // counters the runner reports must agree with that.
  EXPECT_GT(result.crashes, 0u);
  EXPECT_EQ(result.recoveries, result.crashes);
  EXPECT_GT(result.availability, 0.0);
  EXPECT_LE(result.availability, 1.0);
  // Determinism: the same seed reproduces the same schedule and verdict.
  const ChaosRunResult again = run_chaos(cfg);
  EXPECT_EQ(again.schedule.describe(), result.schedule.describe());
  EXPECT_EQ(again.completions, result.completions);
}

TEST(ChaosCampaign, FaultFreeFastCastGuessesPerfectly) {
  // Regression guard: on a fault-free LAN run the FastCast guess heuristic
  // must never miss — chaos-hardening changes must not perturb the fast
  // path. (Under faults, mismatches are expected and harmless.)
  ChaosRunConfig cfg = campaign_config(Protocol::kFastCast, 1);
  cfg.experiment.observe = true;
  cfg.experiment.drop_probability = 0.0;
  cfg.experiment.heartbeats = false;
  cfg.faults.crashes = 0;
  cfg.faults.drop_bursts = 0;
  cfg.faults.partitions = 0;
  const ChaosRunResult result = run_chaos(cfg);
  ASSERT_TRUE(result.report.ok) << result.to_string();
  EXPECT_EQ(result.crashes, 0u);
  EXPECT_GT(result.completions, 0u);
  const auto cfg2 = cfg;  // re-run for the counter (run_chaos owns the obs)
  Cluster cluster(cfg2.experiment);
  cluster.start();
  cluster.simulator().run_until(cfg2.experiment.warmup +
                                cfg2.experiment.measure);
  ASSERT_NE(cluster.observability(), nullptr);
  EXPECT_EQ(
      cluster.observability()->metrics.counter_value("fastcast.guess_mismatches"),
      0u);
}

}  // namespace
}  // namespace fastcast::harness
