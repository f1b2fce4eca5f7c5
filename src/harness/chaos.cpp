#include "fastcast/harness/chaos.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "fastcast/amcast/node.hpp"
#include "fastcast/common/assert.hpp"
#include "fastcast/paxos/group_consensus.hpp"

namespace fastcast::harness {

namespace {

/// The highest promise ballot and per-instance accepted ballots a node has
/// externalized (sent in a P1b/P2b) for one group. Durability contract:
/// after any sequence of crashes, the node's recovered state must never
/// fall below these — a lower promise would let it re-promise to a stale
/// proposer and break the quorum intersection argument.
struct AcceptorFloor {
  Ballot promised;
  std::map<InstanceId, Ballot> accepted;
};

using FloorMap = std::map<std::pair<NodeId, GroupId>, AcceptorFloor>;

void observe_externalized(FloorMap& floors, NodeId from, const Message& msg) {
  if (const auto* p1b = std::get_if<P1b>(&msg.payload)) {
    AcceptorFloor& f = floors[{from, p1b->group}];
    f.promised = std::max(f.promised, p1b->ballot);
    for (const auto& e : p1b->accepted) {
      Ballot& b = f.accepted[e.instance];
      b = std::max(b, e.vballot);
    }
  } else if (const auto* p2b = std::get_if<P2b>(&msg.payload)) {
    if (p2b->acceptor != from) return;  // not this node's acceptor state
    AcceptorFloor& f = floors[{from, p2b->group}];
    f.promised = std::max(f.promised, p2b->ballot);
    Ballot& b = f.accepted[p2b->instance];
    b = std::max(b, p2b->ballot);
  }
}

/// Re-reads each floor-holding node's durable state from its backend and
/// asserts no externalized promise/accept regressed. Appends violations to
/// the report; returns the number of (node, group) checks performed.
std::uint64_t check_durability_floors(Cluster& cluster, const FloorMap& floors,
                                      Checker::Report& report) {
  std::uint64_t checks = 0;
  storage::StorageManager* sm = cluster.storage();
  FC_ASSERT(sm != nullptr);
  auto violation = [&report](std::string text) {
    report.ok = false;
    report.violations.push_back(std::move(text));
  };
  for (const auto& [key, floor] : floors) {
    const auto [node, group] = key;
    // Cold re-read: exactly what a fresh process after kill -9 would see.
    const storage::DurableState& durable = sm->node(node)->reset_and_recover();
    ++checks;
    const auto git = durable.groups.find(group);
    const storage::DurableState::GroupState* gs =
        git == durable.groups.end() ? nullptr : &git->second;
    if (gs == nullptr || gs->promised < floor.promised) {
      std::ostringstream out;
      out << "durability: node " << node << " group " << group
          << " promise regressed: externalized (" << floor.promised.round << ","
          << floor.promised.node << ") durable (";
      if (gs != nullptr) {
        out << gs->promised.round << "," << gs->promised.node;
      } else {
        out << "none";
      }
      out << ")";
      violation(out.str());
      continue;
    }
    for (const auto& [inst, ballot] : floor.accepted) {
      // Watermark pruning legitimately drops accepted entries below the
      // group's floor: every live learner settled them, so no peer can ever
      // need them again. Not a durability loss.
      if (inst < gs->pruned_below) continue;
      const auto ait = gs->accepted.find(inst);
      if (ait == gs->accepted.end() || ait->second.ballot < ballot) {
        std::ostringstream out;
        out << "durability: node " << node << " group " << group
            << " accepted value lost at instance " << inst
            << ": externalized ballot (" << ballot.round << "," << ballot.node
            << ")";
        violation(out.str());
      }
    }
  }
  return checks;
}

}  // namespace

ChaosRunResult run_chaos(const ChaosRunConfig& config) {
  ExperimentConfig cfg = config.experiment;
  cfg.seed = config.seed;
  cfg.observe = true;  // fault counters and the failover histogram
  // Every crash is a real process death, rebuilt from snapshot + WAL.
  cfg.durability.durable = true;

  Cluster cluster(cfg);
  auto& sim = cluster.simulator();

  FloorMap floors;
  sim.set_send_observer([&floors](NodeId from, NodeId, const Message& msg) {
    observe_externalized(floors, from, msg);
  });

  sim::ChaosConfig faults = config.faults;
  if (faults.end <= faults.start) {
    faults.start = cfg.warmup;
    faults.end = cfg.warmup + cfg.measure;
  }
  ChaosRunResult result;
  result.schedule = sim::ChaosSchedule::generate(
      cluster.deployment().membership, faults, config.seed);
  result.schedule.apply(sim);

  cluster.start();
  sim.run_until(cfg.warmup);
  const Time window_end = cfg.warmup + cfg.measure;
  cluster.metrics().open_window(cfg.warmup, window_end, cfg.slice);
  sim.run_until(window_end);
  cluster.metrics().close_window();
  cluster.stop_clients(window_end);
  sim.run_for(config.cooldown);

  // Safety only: heartbeat timers keep the queue busy forever, so the
  // quiesced (agreement/validity) checks don't apply. Recovered nodes are
  // correct processes — they are NOT excluded via note_crashed.
  result.report = cluster.checker().check(/*quiesced=*/false, cfg.check_level);

  result.completions = cluster.metrics().completions_total();
  if (cfg.flow.enable) {
    const Metrics& m = cluster.metrics();
    result.sent = cluster.total_sent();
    result.rejected = m.rejected_total();
    result.expired = m.expired_total();
    result.timed_out = m.timeouts_total();
    result.suppressed = m.suppressed_total();
    result.retries = m.retries_total();
    result.in_flight_end = cluster.total_in_flight();
  }
  const auto& slices = cluster.metrics().slice_counts();
  if (!slices.empty()) {
    std::size_t live = 0;
    for (const auto c : slices) live += c > 0 ? 1 : 0;
    result.availability =
        static_cast<double>(live) / static_cast<double>(slices.size());
  }

  const auto obs = cluster.observability();
  FC_ASSERT(obs != nullptr);
  result.crashes = obs->metrics.counter_value("fault.crashes");
  result.recoveries = obs->metrics.counter_value("fault.recoveries");
  result.leader_failovers = obs->metrics.counter_value("paxos.leader_failovers");
  const auto hists = obs->metrics.histograms();
  if (auto it = hists.find("paxos.failover_latency_ns"); it != hists.end()) {
    result.failover_p99_ns = it->second.p99;
  }

  result.repair_transfers = obs->metrics.counter_value("repair.transfers");
  result.repair_completed =
      obs->metrics.counter_value("repair.transfers_completed");
  result.repair_entries_installed =
      obs->metrics.counter_value("repair.entries_installed");
  result.prune_watermark = obs->metrics.gauge_value("repair.prune_watermark");

  // Residual lag after the settle window: how far the slowest learner of
  // any consensus group trails its fastest peer. Crash episodes all
  // recover inside the measurement window, so every replica should be
  // back at (or near) the frontier by now; a large spread means catch-up
  // — transfer or tail learning — failed to converge.
  std::map<GroupId, std::pair<InstanceId, InstanceId>> spread;  // min, max
  for (NodeId node : cluster.deployment().membership.all_replicas()) {
    if (sim.is_crashed(node)) continue;
    paxos::GroupConsensus* engine =
        cluster.replica(node).protocol().consensus_engine();
    if (engine == nullptr) continue;
    const InstanceId frontier = engine->learner().next_to_deliver();
    auto [it, fresh] =
        spread.try_emplace(engine->config().group, frontier, frontier);
    if (!fresh) {
      it->second.first = std::min(it->second.first, frontier);
      it->second.second = std::max(it->second.second, frontier);
    }
  }
  for (const auto& [group, mm] : spread) {
    result.end_max_lag = std::max(result.end_max_lag,
                                  static_cast<std::uint64_t>(mm.second - mm.first));
  }

  result.replayed_records = obs->metrics.counter_value("storage.replayed_records");
  result.storage_snapshots = obs->metrics.counter_value("storage.snapshots");
  // The no-regression floor check only holds under fsyncing policies:
  // "never-for-sim" is documented as unsafe under crashes (it trades
  // durability for speed in pure-throughput experiments).
  if (cfg.durability.fsync.mode != storage::FsyncPolicy::Mode::kNever) {
    result.durability_checks =
        check_durability_floors(cluster, floors, result.report);
  }
  return result;
}

std::string ChaosRunResult::to_string() const {
  std::ostringstream out;
  out << (report.ok ? "OK " : "VIOLATION ") << "completions=" << completions
      << " availability=" << availability << " crashes=" << crashes
      << " recoveries=" << recoveries << " failovers=" << leader_failovers;
  if (failover_p99_ns > 0) {
    out << " failover_p99_ms=" << static_cast<double>(failover_p99_ns) / 1e6;
  }
  if (durability_checks > 0) {
    out << " replayed=" << replayed_records
        << " snapshots=" << storage_snapshots
        << " durability_checks=" << durability_checks;
  }
  if (sent > 0) {
    out << " sent=" << sent << " rejected=" << rejected
        << " expired=" << expired << " timed_out=" << timed_out
        << " suppressed=" << suppressed << " retries=" << retries
        << " in_flight_end=" << in_flight_end;
  }
  if (repair_transfers > 0 || prune_watermark > 0) {
    out << " repair_transfers=" << repair_transfers << "/" << repair_completed
        << " repair_installed=" << repair_entries_installed
        << " prune_watermark=" << prune_watermark
        << " end_max_lag=" << end_max_lag;
  }
  for (const auto& v : report.violations) out << "\n  " << v;
  return out.str();
}

}  // namespace fastcast::harness
