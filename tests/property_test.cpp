// Property-based sweeps: for every protocol, across seeds, group counts,
// destination distributions and environments, a full run must satisfy all
// five atomic-multicast properties (verified by the checker at kFull).

#include <gtest/gtest.h>

#include <tuple>

#include "fastcast/harness/experiment.hpp"

namespace fastcast::harness {
namespace {

// gtest prints an unprintable param as its raw bytes, and CTest takes that
// text into the discovered test name; the padding is therefore spelled out
// and zeroed so the names do not pick up stack garbage from run to run.
struct SweepParam {
  SweepParam(Protocol protocol, std::size_t groups, std::size_t clients,
             std::uint64_t seed, bool serialize)
      : protocol(protocol), groups(groups), clients(clients), seed(seed),
        serialize(serialize) {}

  Protocol protocol;
  std::uint32_t pad0 = 0;
  std::size_t groups;
  std::size_t clients;
  std::uint64_t seed;
  bool serialize;
  std::uint8_t pad1[7] = {};
};
static_assert(sizeof(SweepParam) == 40 && sizeof(Protocol) == 4,
              "SweepParam must have no implicit padding");

std::string param_name(const testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  std::string name = to_string(p.protocol);
  for (auto& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  name += "_g" + std::to_string(p.groups) + "_c" + std::to_string(p.clients) +
          "_s" + std::to_string(p.seed) + (p.serialize ? "_wire" : "");
  return name;
}

class ProtocolSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(ProtocolSweep, AllPropertiesHold) {
  const SweepParam p = GetParam();
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = p.groups;
  cfg.topo.clients = p.clients;
  cfg.topo.protocol = p.protocol;
  cfg.seed = p.seed;
  cfg.serialize_messages = p.serialize;
  cfg.warmup = milliseconds(10);
  cfg.measure = milliseconds(120);
  cfg.check_level = Checker::Level::kFull;
  // Mixed workload: a third local, a third pairs, a third wide.
  cfg.dst_factory = [&p](std::size_t i) -> DstPicker {
    switch (i % 3) {
      case 0: return fixed_group(static_cast<GroupId>(i % p.groups));
      case 1: return random_subset(p.groups, std::min<std::size_t>(2, p.groups));
      default: return random_subset(p.groups, (p.groups + 1) / 2);
    }
  };
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  ASSERT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_GT(r.report.delivery_count, 0u);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (Protocol proto : {Protocol::kBaseCast, Protocol::kFastCast,
                         Protocol::kFastCastSlowPath, Protocol::kMultiPaxos}) {
    for (std::size_t groups : {1, 2, 3, 5}) {
      for (std::uint64_t seed : {1, 7, 1234}) {
        params.push_back({proto, groups, 2 * groups, seed, false});
      }
    }
    // One wire-serialized variant per protocol.
    params.push_back({proto, 3, 6, 42, true});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProtocolSweep, testing::ValuesIn(sweep_params()),
                         param_name);

// --- Heavier contention: many clients all multicasting to overlapping
// destination pairs, where ordering mistakes would show up as cycles.

class ContentionSweep
    : public testing::TestWithParam<std::tuple<Protocol, std::uint64_t>> {};

TEST_P(ContentionSweep, OverlappingPairsStayAcyclic) {
  const auto [proto, seed] = GetParam();
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 4;
  cfg.topo.clients = 16;
  cfg.topo.protocol = proto;
  cfg.seed = seed;
  cfg.warmup = milliseconds(10);
  cfg.measure = milliseconds(150);
  cfg.check_level = Checker::Level::kFull;
  cfg.dst_factory = same_dst_for_all(random_subset(4, 2));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  ASSERT_TRUE(r.report.ok) << r.report.violations[0];
}

INSTANTIATE_TEST_SUITE_P(
    Contention, ContentionSweep,
    testing::Combine(testing::Values(Protocol::kBaseCast, Protocol::kFastCast,
                                     Protocol::kFastCastSlowPath,
                                     Protocol::kMultiPaxos),
                     testing::Values(3u, 17u, 99u)));

// --- WAN sweeps: longer delays shift interleavings entirely; run a
// smaller matrix there.

class WanSweep
    : public testing::TestWithParam<std::tuple<Protocol, std::uint64_t>> {};

TEST_P(WanSweep, PropertiesHoldAcrossRegions) {
  const auto [proto, seed] = GetParam();
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kEmulatedWan;
  cfg.topo.groups = 3;
  cfg.topo.clients = 6;
  cfg.topo.protocol = proto;
  cfg.seed = seed;
  cfg.warmup = milliseconds(200);
  cfg.measure = milliseconds(800);
  cfg.check_level = Checker::Level::kFull;
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    return i % 2 == 0 ? random_subset(3, 2) : fixed_group(static_cast<GroupId>(i % 3));
  };
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  ASSERT_TRUE(r.report.ok) << r.report.violations[0];
}

INSTANTIATE_TEST_SUITE_P(
    Wan, WanSweep,
    testing::Combine(testing::Values(Protocol::kBaseCast, Protocol::kFastCast,
                                     Protocol::kFastCastSlowPath,
                                     Protocol::kMultiPaxos),
                     testing::Values(5u, 23u)));

// --- Fair-lossy links: retransmission keeps every property intact.

class LossSweep : public testing::TestWithParam<std::tuple<Protocol, double>> {};

TEST_P(LossSweep, PropertiesHoldUnderMessageLoss) {
  const auto [proto, drop] = GetParam();
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 2;
  cfg.topo.clients = 4;
  cfg.topo.protocol = proto;
  cfg.drop_probability = drop;
  cfg.warmup = milliseconds(20);
  cfg.measure = milliseconds(200);
  cfg.drain_grace = seconds(40);
  cfg.check_level = Checker::Level::kFull;
  cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
  const auto r = run_experiment(cfg);
  // Drain is disabled under loss (timers keep the queue alive), so the
  // checker runs in non-quiesced mode: safety only, which must hold.
  ASSERT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_GT(r.report.delivery_count, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Loss, LossSweep,
    testing::Combine(testing::Values(Protocol::kBaseCast, Protocol::kFastCast,
                                     Protocol::kMultiPaxos),
                     testing::Values(0.05, 0.2)));

}  // namespace
}  // namespace fastcast::harness
