// The paper's headline claims as ratios on shortened single-seed runs of the
// figure configurations (bench/fig3_local_throughput, bench/fig5_ewan):
//
//  * Fig. 3 — local messages on the LAN: the genuine protocols scale with
//    the number of groups, while MultiPaxos' fixed ordering group plateaus.
//  * Fig. 5 — one client in the emulated WAN: FastCast delivers a 2-group
//    global message in about one RTT, BaseCast in about two.
//
// The windows are a fraction of the benches' so the whole suite stays
// within a few seconds; the bounds leave room for that noise, not for a
// change of shape.

#include <gtest/gtest.h>

#include "fastcast/harness/experiment.hpp"

namespace fastcast::harness {
namespace {

/// RTT between the leaders' region R1 and R2 in the emulated WAN
/// (topology.hpp), the one a 2-group global message waits on.
constexpr Duration kWanRtt = milliseconds(70);

/// Fig. 3's setup: 200 closed-loop clients per group on the LAN, client i
/// multicasting to its own group i % groups.
double local_throughput(Protocol proto, std::size_t groups) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = groups;
  cfg.topo.clients = 200 * groups;
  cfg.topo.protocol = proto;
  cfg.dst_factory = [groups](std::size_t i) {
    return fixed_group(static_cast<GroupId>(i % groups));
  };
  cfg.warmup = milliseconds(150);
  cfg.measure = milliseconds(300);
  cfg.slice = cfg.measure / 8;
  cfg.drain = false;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.report.ok) << to_string(proto) << " at " << groups << " groups";
  return r.throughput.mean_per_sec;
}

/// Fig. 5's single-client setup: one client, co-located with the leaders,
/// multicasting to both groups of a 2-group emulated-WAN deployment.
double global_latency_in_rtts(Protocol proto) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kEmulatedWan;
  cfg.topo.groups = 2;
  cfg.topo.clients = 1;
  cfg.topo.protocol = proto;
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  cfg.warmup = milliseconds(600);
  cfg.measure = milliseconds(3500);
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.report.ok) << to_string(proto);
  EXPECT_FALSE(r.latency.empty()) << to_string(proto);
  return static_cast<double>(r.latency.median()) /
         static_cast<double>(kWanRtt);
}

TEST(PaperClaims, GenuineLocalThroughputScalesWithGroups) {
  const double one = local_throughput(Protocol::kFastCast, 1);
  const double four = local_throughput(Protocol::kFastCast, 4);
  EXPECT_GE(four, 3.5 * one) << "1 group " << one << "/s, 4 groups " << four
                             << "/s";
}

TEST(PaperClaims, MultiPaxosLocalThroughputPlateaus) {
  const double one = local_throughput(Protocol::kMultiPaxos, 1);
  const double four = local_throughput(Protocol::kMultiPaxos, 4);
  EXPECT_LT(four, 2.0 * one) << "1 group " << one << "/s, 4 groups " << four
                             << "/s";
}

TEST(PaperClaims, FastCastDeliversAWanGlobalInOneRtt) {
  EXPECT_LT(global_latency_in_rtts(Protocol::kFastCast), 1.2);
}

TEST(PaperClaims, BaseCastDeliversAWanGlobalInTwoRtts) {
  EXPECT_GT(global_latency_in_rtts(Protocol::kBaseCast), 1.8);
}

}  // namespace
}  // namespace fastcast::harness
