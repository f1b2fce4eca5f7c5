#pragma once

#include <cstdint>
#include <string>

#include "fastcast/harness/experiment.hpp"
#include "fastcast/sim/chaos.hpp"

/// \file chaos.hpp
/// Randomized fault-campaign runner shared by the chaos tests and the
/// chaos_campaign bench: wires a standard harness Cluster to a seeded
/// ChaosSchedule, runs the measurement window under crash/recover windows,
/// drop bursts and partitions, and reports safety (the checker's
/// properties, non-quiesced) plus availability and failover latency.
///
/// Every run is a deterministic function of (config, seed): a failing
/// campaign reproduces from the seed printed in its report.

namespace fastcast::harness {

struct ChaosRunConfig {
  ExperimentConfig experiment;  ///< base deployment/workload/windows
  /// Fault schedule knobs. start/end default to the measurement window
  /// when end <= start. Campaigns should pair a nonzero
  /// experiment.drop_probability with experiment.heartbeats = true so the
  /// lossy-link machinery (retransmission, catch-up, re-election) is armed.
  sim::ChaosConfig faults;
  std::uint64_t seed = 1;  ///< overrides experiment.seed; also fault seed
  /// Post-window settle time before the safety check (recovered nodes keep
  /// catching up; the run never fully drains with heartbeats on).
  Duration cooldown = milliseconds(500);
};

/// Every run forces experiment.durability.durable on, so every crash is a
/// real process death: the cluster's crash hook drops a torn suffix of the
/// victim's unsynced WAL bytes, and recovery rebuilds the replica from
/// scratch out of its snapshot + surviving log (Cluster::rebuild_replica).
/// The run also tracks every promise/accept an acceptor externalizes and,
/// at the end, re-reads each replica's durable state to assert none of
/// them regressed — the WAL-before-send contract, checked from the wire.

struct ChaosRunResult {
  Checker::Report report;       ///< non-quiesced safety verdict
  sim::ChaosSchedule schedule;  ///< what was injected (for failure reports)

  std::uint64_t completions = 0;  ///< client completions in the window
  /// Fraction of measurement slices with at least one client completion —
  /// the campaign's availability signal (1.0 = no visible outage).
  double availability = 0.0;

  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t leader_failovers = 0;
  std::int64_t failover_p99_ns = 0;  ///< paxos.failover_latency_ns p99

  // Storage accounting.
  std::uint64_t replayed_records = 0;   ///< WAL records replayed on recoveries
  std::uint64_t storage_snapshots = 0;  ///< snapshots taken across the run
  /// Per-(acceptor, group) no-regression checks performed against the
  /// re-read durable state. Violations land in report.violations.
  std::uint64_t durability_checks = 0;

  // Overload extras (zero unless experiment.flow.enable). The terminal
  // buckets are exclusive per request; overload campaigns assert the
  // conservation law sent == completions + rejected + expired + timed_out
  // with in_flight_end == 0 after the settle window — admitted messages
  // are never silently lost.
  std::uint64_t sent = 0;
  std::uint64_t rejected = 0;    ///< terminal Busy/kOverload
  std::uint64_t expired = 0;     ///< terminal Busy/kExpired
  std::uint64_t timed_out = 0;   ///< client gave up waiting
  std::uint64_t suppressed = 0;  ///< open-loop ticks shed during backoff
  std::uint64_t retries = 0;     ///< budgeted resubmits
  std::uint64_t in_flight_end = 0;  ///< unresolved at run end

  // Repair extras: watermark gossip runs in every campaign.
  std::uint64_t repair_transfers = 0;          ///< snapshot transfers started
  std::uint64_t repair_completed = 0;          ///< transfers fully installed
  std::uint64_t repair_entries_installed = 0;  ///< decided values installed
  std::int64_t prune_watermark = 0;            ///< highest acceptor prune floor
  /// Residual lag at end of run: per consensus group, the spread
  /// (max - min) of the learners' decided frontiers across its replicas,
  /// maximized over groups. This is the lag campaigns' catch-up signal — a
  /// single dropped transfer request is benign as long as the replica is
  /// back near the frontier by the end of the settle window.
  std::uint64_t end_max_lag = 0;

  /// One-line summary for campaign tables / failure messages.
  std::string to_string() const;
};

/// Runs one seeded chaos campaign. The checker runs at level
/// experiment.check_level with quiesced = false (safety properties only —
/// the run cannot drain while heartbeat timers keep ticking).
ChaosRunResult run_chaos(const ChaosRunConfig& config);

}  // namespace fastcast::harness
