/// \file chaos_campaign.cpp
/// Randomized fault-injection campaigns: for every protocol (MultiPaxos in
/// both its payload and its id ordering) × fault intensity, runs a sweep of
/// seeded chaos schedules (crash/recover windows with leader bias, drop
/// bursts, partition episodes) through the harness chaos runner and reports
///
///   safety      checker verdict over the five atomic-multicast
///               properties (non-quiesced) — any violation fails the
///               campaign and the process exits non-zero;
///   availability fraction of measurement slices with client progress
///               (mean and worst seed);
///   failover    leader failovers observed and the worst p99 failover
///               latency reported by the paxos.failover_latency_ns
///               histogram.
///
/// Every run reproduces from its printed seed: the schedule is a pure
/// function of (membership, fault config, seed). `--smoke` shrinks the
/// sweep for CI; `--json <path>` emits machine-readable rows; `--seeds N`
/// overrides the per-cell seed count.
///
/// Every campaign runs on the storage subsystem: each crash is a real
/// process death (torn unsynced WAL bytes, replica rebuilt from snapshot +
/// log replay) and each run ends with the wire-level acceptor
/// no-regression check. `--wal-dir <path>` switches from the in-memory
/// backend to file-backed WALs (one subdirectory per cell × seed so no
/// state leaks between runs); `--fsync-policy always|batch[:N[:ms]]|never`
/// picks the commit policy.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fastcast/harness/chaos.hpp"
#include "fastcast/harness/table.hpp"
#include "fastcast/obs/json.hpp"

namespace fastcast::bench {
namespace {

using namespace fastcast::harness;

struct Intensity {
  const char* name;
  sim::ChaosConfig faults;
  /// --overload only: offered load as a multiple of the (deliberately
  /// lowered) service capacity. 0 everywhere else.
  double offered_multiplier = 0;
};

std::vector<Intensity> intensities() {
  std::vector<Intensity> out;
  {
    Intensity i;
    i.name = "light";
    i.faults.crashes = 1;
    i.faults.leader_bias = 0.25;
    i.faults.min_downtime = milliseconds(30);
    i.faults.max_downtime = milliseconds(60);
    i.faults.drop_bursts = 1;
    i.faults.burst_drop_probability = 0.02;
    i.faults.min_burst = milliseconds(10);
    i.faults.max_burst = milliseconds(30);
    i.faults.partitions = 0;
    out.push_back(i);
  }
  {
    Intensity i;
    i.name = "moderate";
    i.faults.crashes = 2;
    i.faults.leader_bias = 0.5;
    i.faults.min_downtime = milliseconds(40);
    i.faults.max_downtime = milliseconds(80);
    i.faults.drop_bursts = 1;
    i.faults.burst_drop_probability = 0.05;
    i.faults.min_burst = milliseconds(20);
    i.faults.max_burst = milliseconds(50);
    i.faults.partitions = 1;
    i.faults.min_partition = milliseconds(20);
    i.faults.max_partition = milliseconds(60);
    out.push_back(i);
  }
  {
    Intensity i;
    i.name = "heavy";
    i.faults.crashes = 4;
    i.faults.leader_bias = 0.75;
    i.faults.min_downtime = milliseconds(50);
    i.faults.max_downtime = milliseconds(100);
    i.faults.drop_bursts = 2;
    i.faults.burst_drop_probability = 0.10;
    i.faults.min_burst = milliseconds(20);
    i.faults.max_burst = milliseconds(60);
    i.faults.partitions = 2;
    i.faults.min_partition = milliseconds(20);
    i.faults.max_partition = milliseconds(60);
    out.push_back(i);
  }
  return out;
}

/// --lag scenario family: one (non-leader) replica held down for a long
/// stretch of the window, then recovered far behind the decided frontier.
/// Transfers trigger at a 32-instance gap, and the campaign asserts that
/// catch-up completes within the cooldown (bounded catch-up) and the prune
/// watermark advances (bounded acceptor state) on top of the usual safety
/// verdict.
std::vector<Intensity> lag_intensities() {
  std::vector<Intensity> out;
  {
    Intensity i;
    i.name = "lag-short";
    i.faults.crashes = 0;
    i.faults.drop_bursts = 0;
    i.faults.partitions = 0;
    i.faults.lag_episodes = 1;
    i.faults.lag_min_downtime = milliseconds(150);
    i.faults.lag_max_downtime = milliseconds(250);
    out.push_back(i);
  }
  {
    Intensity i;
    i.name = "lag-long";
    i.faults.crashes = 0;
    i.faults.drop_bursts = 0;
    i.faults.partitions = 0;
    i.faults.lag_episodes = 1;
    i.faults.lag_min_downtime = milliseconds(250);
    i.faults.lag_max_downtime = milliseconds(400);
    out.push_back(i);
  }
  {
    Intensity i;
    i.name = "lag-lossy";
    i.faults.crashes = 0;
    i.faults.drop_bursts = 1;
    i.faults.burst_drop_probability = 0.05;
    i.faults.min_burst = milliseconds(20);
    i.faults.max_burst = milliseconds(50);
    i.faults.partitions = 0;
    i.faults.lag_episodes = 1;
    i.faults.lag_min_downtime = milliseconds(150);
    i.faults.lag_max_downtime = milliseconds(300);
    out.push_back(i);
  }
  return out;
}

/// --overload scenario family: open-loop clients push offered load past
/// the service capacity (lowered via a heavy per-message CPU cost) while
/// leader-biased crashes land in the middle of the surge. The flow layer
/// (DESIGN.md §14) is armed end to end — server admission + deadlines on
/// the MultiPaxos side, advisory Busy + client backoff on the genuine
/// side — and every seed asserts, on top of the safety verdict, the
/// conservation law: every request reaches exactly one terminal state
/// (completed / rejected / expired / timed out) with nothing left in
/// flight after the settle window. Admitted messages are never silently
/// lost, no matter how hard the cluster is pushed.
std::vector<Intensity> overload_intensities() {
  std::vector<Intensity> out;
  {
    Intensity i;
    i.name = "surge";
    i.offered_multiplier = 1.5;
    i.faults.crashes = 1;
    i.faults.leader_bias = 0.75;
    i.faults.min_downtime = milliseconds(30);
    i.faults.max_downtime = milliseconds(60);
    i.faults.drop_bursts = 0;
    i.faults.partitions = 0;
    out.push_back(i);
  }
  {
    Intensity i;
    i.name = "surge-heavy";
    i.offered_multiplier = 2.5;
    i.faults.crashes = 2;
    i.faults.leader_bias = 0.75;
    i.faults.min_downtime = milliseconds(40);
    i.faults.max_downtime = milliseconds(80);
    i.faults.drop_bursts = 0;
    i.faults.partitions = 0;
    out.push_back(i);
  }
  {
    Intensity i;
    i.name = "surge-lossy";
    i.offered_multiplier = 2.0;
    i.faults.crashes = 1;
    i.faults.leader_bias = 0.5;
    i.faults.min_downtime = milliseconds(30);
    i.faults.max_downtime = milliseconds(60);
    i.faults.drop_bursts = 1;
    i.faults.burst_drop_probability = 0.05;
    i.faults.min_burst = milliseconds(20);
    i.faults.max_burst = milliseconds(50);
    i.faults.partitions = 0;
    out.push_back(i);
  }
  return out;
}

/// Rough per-node service capacity under the --overload CPU model (50 us
/// per handled message): each multicast costs the bottleneck node several
/// protocol messages, so a low-thousands figure keeps the multipliers
/// honest (1.5x is genuinely past the knee, 2.5x deep collapse territory).
constexpr double kOverloadCapacityPerSec = 2000;

/// One protocol row of every family. MultiPaxos runs twice: ordering whole
/// payloads, and ordering ids while bodies travel outside consensus (body
/// dissemination, pulls and prune-floor retention).
struct ProtocolRow {
  const char* name;
  Protocol protocol;
  ExperimentConfig::MpOrdering mp_ordering =
      ExperimentConfig::MpOrdering::kPayload;
};

ChaosRunConfig base_config(const ProtocolRow& row) {
  ChaosRunConfig cfg;
  cfg.experiment.topo.env = Environment::kLan;
  cfg.experiment.topo.groups = 2;
  cfg.experiment.topo.clients = 4;
  cfg.experiment.topo.protocol = row.protocol;
  cfg.experiment.mp_ordering = row.mp_ordering;
  cfg.experiment.warmup = milliseconds(20);
  cfg.experiment.measure = milliseconds(600);
  cfg.experiment.slice = milliseconds(20);
  cfg.experiment.check_level = Checker::Level::kFull;
  cfg.experiment.dst_factory = same_dst_for_all(random_subset(2, 2));
  cfg.experiment.drop_probability = 0.01;  // arms retransmission/catch-up
  cfg.experiment.heartbeats = true;        // arms re-election
  return cfg;
}

struct CellResult {
  const char* protocol;
  const char* intensity;
  std::uint64_t seeds = 0;
  std::uint64_t passed = 0;
  double availability_sum = 0;
  double availability_min = 1.0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t failovers = 0;
  std::int64_t failover_p99_ns_max = 0;
  std::vector<std::uint64_t> failed_seeds;

  // Storage sums.
  std::uint64_t replayed_records = 0;
  std::uint64_t storage_snapshots = 0;
  std::uint64_t durability_checks = 0;

  // Repair sums (watermark gossip runs in every family).
  std::uint64_t repair_transfers = 0;
  std::uint64_t repair_completed = 0;
  std::uint64_t repair_installed = 0;
  std::int64_t prune_watermark_max = 0;

  // Overload-mode sums (zero when --overload is off).
  std::uint64_t sent = 0;
  std::uint64_t completions = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t retries = 0;
};

}  // namespace
}  // namespace fastcast::bench

int main(int argc, char** argv) {
  using namespace fastcast;
  using namespace fastcast::bench;
  using namespace fastcast::harness;

  std::uint64_t seeds = 20;
  std::string json_path;
  bool lag = false;
  bool overload = false;
  std::string wal_dir;
  storage::FsyncPolicy fsync;
  const auto usage = [argv] {
    std::fprintf(stderr,
                 "usage: %s [--smoke] [--lag] [--overload] [--seeds N]\n"
                 "       [--json <path>] [--wal-dir <path>]\n"
                 "       [--fsync-policy <p>]\n"
                 "  --smoke         3 seeds per cell (CI)\n"
                 "  --lag           lag-recovery scenario family: one replica\n"
                 "                  down for a long window then recovered;\n"
                 "                  snapshot transfers at a 32-instance gap;\n"
                 "                  catch-up must complete and the prune\n"
                 "                  watermark must advance in every cell\n"
                 "  --overload      overload scenario family: open-loop load\n"
                 "                  past saturation plus leader-biased\n"
                 "                  crashes, flow control armed; every seed\n"
                 "                  asserts safety plus the terminal-state\n"
                 "                  conservation law (admitted messages are\n"
                 "                  never silently lost)\n"
                 "  --seeds         seeds per protocol x intensity cell "
                 "(default 20)\n"
                 "  --json          machine-readable campaign results\n"
                 "  --wal-dir       file-backed WALs under <path> (default:\n"
                 "                  in-memory backend)\n"
                 "  --fsync-policy  always | batch[:N[:ms]] | never "
                 "(default always)\n",
                 argv[0]);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      seeds = 3;
    } else if (std::strcmp(argv[i], "--lag") == 0) {
      lag = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--wal-dir") == 0 && i + 1 < argc) {
      wal_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--fsync-policy") == 0 && i + 1 < argc) {
      const auto parsed = storage::FsyncPolicy::parse(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "chaos_campaign: bad --fsync-policy '%s'\n",
                     argv[i]);
        usage();
        return 2;
      }
      fsync = *parsed;
    } else {
      usage();
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }

  if (lag && overload) {
    std::fprintf(stderr, "chaos_campaign: --lag and --overload are separate "
                         "scenario families; pick one\n");
    return 2;
  }

  const std::vector<ProtocolRow> protocols = {
      {"BaseCast", Protocol::kBaseCast},
      {"FastCast", Protocol::kFastCast},
      {"MultiPaxos", Protocol::kMultiPaxos},
      {"MultiPaxos-ids", Protocol::kMultiPaxos,
       ExperimentConfig::MpOrdering::kIds}};
  std::vector<CellResult> cells;
  bool all_ok = true;

  const std::vector<Intensity> matrix = lag       ? lag_intensities()
                                        : overload ? overload_intensities()
                                                   : intensities();
  for (const ProtocolRow& proto : protocols) {
    for (const Intensity& intensity : matrix) {
      CellResult cell;
      cell.protocol = proto.name;
      cell.intensity = intensity.name;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        ChaosRunConfig cfg = base_config(proto);
        cfg.faults = intensity.faults;
        cfg.seed = seed;
        if (lag) {
          cfg.experiment.repair.lag_threshold = 32;
          // Bounded catch-up: the recovered replica must finish its transfer
          // well inside this settle window (asserted below).
          cfg.cooldown = milliseconds(900);
        }
        if (overload) {
          // Lower the service ceiling (50 us per handled message) so the
          // open-loop rate below is genuinely past saturation, then arm
          // the whole flow layer: server-side admission + deadline drops,
          // client-side timeouts, capped backoff and a bounded retry
          // budget.
          cfg.experiment.cpu_override =
              sim::CpuModel{microseconds(50), microseconds(5), 0};
          const double offered =
              kOverloadCapacityPerSec * intensity.offered_multiplier;
          cfg.experiment.open_loop_interval = static_cast<Duration>(
              static_cast<double>(kSecond) *
              static_cast<double>(cfg.experiment.topo.clients) / offered);
          cfg.experiment.flow.enable = true;
          cfg.experiment.flow.target_delay = milliseconds(5);
          cfg.experiment.flow.trigger_window = milliseconds(10);
          cfg.experiment.client_flow.deadline = milliseconds(60);
          cfg.experiment.client_flow.request_timeout = milliseconds(120);
          cfg.experiment.client_flow.backoff_base = milliseconds(1);
          cfg.experiment.client_flow.backoff_max = milliseconds(32);
          cfg.experiment.client_flow.retry_budget = 0.25;
          cfg.experiment.client_flow.max_retries = 2;
          // Longer than the worst timeout+retry chain (3 x 120 ms plus
          // backoff), so in_flight_end == 0 is a real assertion, not a
          // race against unresolved timers.
          cfg.cooldown = milliseconds(900);
        }
        cfg.experiment.durability.fsync = fsync;
        if (!wal_dir.empty()) {
          // One directory per cell × seed: file-backed state must never
          // leak from one deterministic run into the next.
          cfg.experiment.durability.wal_dir =
              wal_dir + "/" + cell.protocol + "-" + cell.intensity + "-seed" +
              std::to_string(seed);
        }
        const ChaosRunResult r = run_chaos(cfg);
        ++cell.seeds;
        // Lag mode adds a bounded-catch-up assertion on top of safety: by
        // the end of the settle window no learner may trail its group's
        // frontier by the transfer-triggering threshold — a recovered
        // replica must have caught up (via snapshot transfer or tail
        // learning), not been left permanently behind.
        const bool still_lagging =
            lag && r.end_max_lag >= cfg.experiment.repair.lag_threshold;
        // Overload mode adds the conservation law: every primary send
        // reached exactly one terminal state and nothing is left
        // unresolved after the settle window. A violation means an
        // admitted message (or its verdict) was silently lost.
        const bool leaked =
            overload &&
            (r.sent != r.completions + r.rejected + r.expired + r.timed_out ||
             r.in_flight_end != 0);
        if (r.report.ok && !still_lagging && !leaked) {
          ++cell.passed;
        } else {
          all_ok = false;
          cell.failed_seeds.push_back(seed);
          char note[96] = "";
          if (still_lagging) {
            std::snprintf(note, sizeof(note),
                          " (replica still lagging: end_max_lag=%llu)",
                          static_cast<unsigned long long>(r.end_max_lag));
          } else if (leaked) {
            std::snprintf(note, sizeof(note),
                          " (conservation violated: sent=%llu resolved=%llu)",
                          static_cast<unsigned long long>(r.sent),
                          static_cast<unsigned long long>(
                              r.completions + r.rejected + r.expired +
                              r.timed_out));
          }
          std::fprintf(stderr, "FAIL %s/%s seed %llu%s\n%s\nschedule:\n%s\n",
                       cell.protocol, cell.intensity,
                       static_cast<unsigned long long>(seed), note,
                       r.to_string().c_str(), r.schedule.describe().c_str());
        }
        cell.availability_sum += r.availability;
        cell.availability_min = std::min(cell.availability_min, r.availability);
        cell.crashes += r.crashes;
        cell.recoveries += r.recoveries;
        cell.failovers += r.leader_failovers;
        cell.failover_p99_ns_max =
            std::max(cell.failover_p99_ns_max, r.failover_p99_ns);
        cell.replayed_records += r.replayed_records;
        cell.storage_snapshots += r.storage_snapshots;
        cell.durability_checks += r.durability_checks;
        cell.repair_transfers += r.repair_transfers;
        cell.repair_completed += r.repair_completed;
        cell.repair_installed += r.repair_entries_installed;
        cell.prune_watermark_max =
            std::max(cell.prune_watermark_max, r.prune_watermark);
        cell.sent += r.sent;
        cell.completions += r.completions;
        cell.rejected += r.rejected;
        cell.expired += r.expired;
        cell.timed_out += r.timed_out;
        cell.suppressed += r.suppressed;
        cell.retries += r.retries;
      }
      if (overload && cell.rejected + cell.expired + cell.suppressed +
                              cell.timed_out ==
                          0) {
        // Past-saturation load with flow armed must visibly engage the
        // control loop somewhere — explicit rejection/expiry on the
        // MultiPaxos side, backoff suppression or timeouts on the
        // advisory-only genuine side. All-zero means the scenario never
        // actually overloaded anything.
        all_ok = false;
        std::fprintf(stderr,
                     "FAIL %s/%s: overload control never engaged "
                     "(sent=%llu completions=%llu)\n",
                     cell.protocol, cell.intensity,
                     static_cast<unsigned long long>(cell.sent),
                     static_cast<unsigned long long>(cell.completions));
      }
      if (lag && (cell.repair_completed == 0 || cell.prune_watermark_max <= 0)) {
        // Across every seed of the cell at least one transfer must have
        // completed and the acceptors' prune watermark must have advanced —
        // otherwise the subsystem under test never actually engaged.
        all_ok = false;
        std::fprintf(stderr,
                     "FAIL %s/%s: repair never engaged "
                     "(completed=%llu prune_watermark=%lld)\n",
                     cell.protocol, cell.intensity,
                     static_cast<unsigned long long>(cell.repair_completed),
                     static_cast<long long>(cell.prune_watermark_max));
      }
      cells.push_back(std::move(cell));
    }
  }

  std::vector<std::string> headers = {
      "protocol",  "intensity", "safety",    "avail mean",
      "avail min", "crashes",   "failovers", "failover p99",
      "replayed",  "snapshots", "floor checks", "transfers",
      "installed", "prune wm"};
  if (overload) {
    headers.insert(headers.end(), {"sent", "rejected", "expired", "timed out",
                                   "suppressed", "retries"});
  }
  std::string title =
      std::string(lag ? "Lag-recovery" : overload ? "Overload" : "Chaos") +
      " campaigns (LAN, 2 groups, 4 clients; " + std::to_string(seeds) +
      " seeds per cell; durable, fsync " + fsync.to_string() +
      (wal_dir.empty() ? ", mem backend)" : ", file backend)");
  Table table(title, headers);
  for (const CellResult& c : cells) {
    const double avail_mean =
        c.seeds > 0 ? c.availability_sum / static_cast<double>(c.seeds) : 0;
    std::vector<std::string> row = {
        c.protocol, c.intensity,
        std::to_string(c.passed) + "/" + std::to_string(c.seeds),
        fmt_double(avail_mean * 100, 1) + "%",
        fmt_double(c.availability_min * 100, 1) + "%",
        std::to_string(c.crashes),
        std::to_string(c.failovers),
        c.failover_p99_ns_max > 0
            ? fmt_double(static_cast<double>(c.failover_p99_ns_max) / 1e6, 1) +
                  " ms"
            : "-",
        std::to_string(c.replayed_records),
        std::to_string(c.storage_snapshots),
        std::to_string(c.durability_checks),
        std::to_string(c.repair_completed) + "/" +
            std::to_string(c.repair_transfers),
        std::to_string(c.repair_installed),
        std::to_string(c.prune_watermark_max)};
    if (overload) {
      row.push_back(std::to_string(c.sent));
      row.push_back(std::to_string(c.rejected));
      row.push_back(std::to_string(c.expired));
      row.push_back(std::to_string(c.timed_out));
      row.push_back(std::to_string(c.suppressed));
      row.push_back(std::to_string(c.retries));
    }
    table.add_row(std::move(row));
  }
  table.print(
      "safety = seeds with all checker properties intact; failing seeds "
      "reproduce deterministically.");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "chaos_campaign: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    obs::JsonWriter w(out);
    w.begin_object();
    w.kv("bench", "chaos_campaign");
    w.kv("seeds_per_cell", seeds);
    w.kv("lag", lag);
    w.kv("overload", overload);
    w.kv("fsync_policy", fsync.to_string());
    w.kv("backend", wal_dir.empty() ? "mem" : "file");
    w.key("cells").begin_array();
    for (const CellResult& c : cells) {
      w.begin_object();
      w.kv("protocol", c.protocol);
      w.kv("intensity", c.intensity);
      w.kv("seeds", c.seeds);
      w.kv("passed", c.passed);
      w.kv("availability_mean",
           c.seeds > 0 ? c.availability_sum / static_cast<double>(c.seeds) : 0);
      w.kv("availability_min", c.availability_min);
      w.kv("crashes", c.crashes);
      w.kv("recoveries", c.recoveries);
      w.kv("leader_failovers", c.failovers);
      w.kv("failover_p99_ns_max", c.failover_p99_ns_max);
      w.kv("replayed_records", c.replayed_records);
      w.kv("storage_snapshots", c.storage_snapshots);
      w.kv("durability_checks", c.durability_checks);
      w.kv("repair_transfers", c.repair_transfers);
      w.kv("repair_completed", c.repair_completed);
      w.kv("repair_installed", c.repair_installed);
      w.kv("prune_watermark_max", c.prune_watermark_max);
      if (overload) {
        w.kv("sent", c.sent);
        w.kv("completions", c.completions);
        w.kv("rejected", c.rejected);
        w.kv("expired", c.expired);
        w.kv("timed_out", c.timed_out);
        w.kv("suppressed", c.suppressed);
        w.kv("retries", c.retries);
      }
      w.key("failed_seeds").begin_array();
      for (const std::uint64_t s : c.failed_seeds) w.value(s);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.kv("all_ok", all_ok);
    w.end_object();
    out << '\n';
  }

  return all_ok ? 0 : 1;
}
