// Repository benchmark program: one workload per invocation, a fixed
// wall-clock budget, and one JSON result line on stdout.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (README.md gives the reasons and the layer each one stresses):
//   genuine_lan           FastCast, 4 groups x 3 replicas, 8 closed-loop
//                         clients, simulated LAN, drained and fully checked.
//   ordered_durable_open  MultiPaxos id ordering, 3 groups x 3 replicas,
//                         24 open-loop clients at half the ids-mode knee,
//                         2 KiB payloads, batched in-memory WAL, admission
//                         control and client deadlines.
//   tcp_local             1 group x 3 FastCast replicas plus one client
//                         node over loopback TCP (poll backend), a fixed
//                         number of multicasts outstanding, each node
//                         thread pinned to its own CPU.
//
// --trace 0 reports the end-to-end metrics from untraced runs. --trace 1
// alternates untraced and traced runs of the same work and reports the
// per-layer metrics; spans stay in memory and only summaries are printed.
//
// Simulated runs cycle through seeds derived from --seed, each in a forked
// child process, and the first seed runs at least twice: a repeated seed
// must reproduce its simulated fields exactly, and a mismatch is reported
// as a harness defect. Every run ends before the --seconds budget would be
// exceeded by another run as long as the longest so far. Any failed check
// makes the result "correct": false and the exit code 1.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <sched.h>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "bench_util.hpp"
#include "fastcast/amcast/client_stub.hpp"
#include "fastcast/amcast/fastcast.hpp"
#include "fastcast/amcast/node.hpp"
#include "fastcast/net/tcp_cluster.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

using namespace fastcast;
using namespace fastcast::harness;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Result line.
// ---------------------------------------------------------------------------

struct Result {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }

  void print() const {
    for (const auto& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, vu] = metrics[i];
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name.c_str(), vu.first,
                  vu.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

/// Overload accounting shared by every workload: a suppressed open-loop
/// tick was due, so it counts as attempted and failed.
void account(Result& out, std::uint64_t sent, std::uint64_t suppressed,
             std::uint64_t unsuccessful) {
  out.attempted = sent + suppressed;
  out.failed = unsuccessful + suppressed;
}

// ---------------------------------------------------------------------------
// Codec: re-encode and decode the workload's own captured message mix.
// ---------------------------------------------------------------------------

struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
  double bytes = 0;
  bool round_trip_ok = true;
};

CodecCost codec_cost(const std::vector<Message>& sample, double budget_s) {
  CodecCost c;
  if (sample.empty()) return c;
  std::vector<std::vector<std::byte>> encoded;
  encoded.reserve(sample.size());
  std::uint64_t total_bytes = 0;
  std::vector<std::byte> again;
  for (const Message& m : sample) {
    encoded.push_back(encode_message(m));
    total_bytes += encoded.back().size();
    Message back;
    if (!decode_message(encoded.back(), back)) {
      c.round_trip_ok = false;
      continue;
    }
    encode_message_into(back, again);
    if (again != encoded.back()) c.round_trip_ok = false;
  }
  c.bytes = static_cast<double>(total_bytes) / static_cast<double>(sample.size());

  std::vector<std::byte> buf;
  std::uint64_t sink = 0;
  std::uint64_t n = 0;
  auto t0 = Clock::now();
  do {
    for (const Message& m : sample) {
      encode_message_into(m, buf);
      sink += buf.size();
    }
    n += sample.size();
  } while (since(t0) < budget_s / 2);
  c.encode_ns = since(t0) * 1e9 / static_cast<double>(n);

  Message out;
  n = 0;
  t0 = Clock::now();
  do {
    for (const auto& bytes : encoded) {
      if (!decode_message(bytes, out)) c.round_trip_ok = false;
      sink += out.payload.index();
    }
    n += encoded.size();
  } while (since(t0) < budget_s / 2);
  c.decode_ns = since(t0) * 1e9 / static_cast<double>(n);
  if (sink == 0) c.round_trip_ok = false;  // keeps the loops observable
  return c;
}

// ---------------------------------------------------------------------------
// Simulated workloads.
// ---------------------------------------------------------------------------

constexpr Duration kLanDelta = microseconds(50);  // make_paper_lan one-way
constexpr Duration kDurableSettle = milliseconds(200);

ExperimentConfig genuine_lan_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 4;
  cfg.topo.replicas_per_group = 3;
  cfg.topo.clients = 8;
  cfg.topo.protocol = Protocol::kFastCast;
  cfg.seed = seed;
  // Clients 0-3 are pinned to one group each (local messages); clients 4-7
  // multicast to two random groups (global messages).
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    if (i < 4) return fixed_group(static_cast<GroupId>(i));
    return random_subset(4, 2);
  };
  cfg.payload_size = 64;
  cfg.warmup = milliseconds(100);
  cfg.measure = milliseconds(1600);
  cfg.slice = milliseconds(200);
  cfg.drain = true;
  cfg.check_level = Checker::Level::kFull;
  return cfg;
}

ExperimentConfig ordered_durable_config(std::uint64_t seed) {
  constexpr std::size_t kClients = 24;
  constexpr std::int64_t kOfferedPerSec = 16000;  // ~half the ids-mode knee
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 3;
  cfg.topo.replicas_per_group = 3;
  cfg.topo.clients = kClients;
  cfg.topo.protocol = Protocol::kMultiPaxos;
  cfg.seed = seed;
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.mp_batch_fill = 16;
  cfg.mp_batch_delay = microseconds(200);
  cfg.payload_size = 2048;
  cfg.open_loop_interval =
      kSecond * static_cast<Duration>(kClients) / kOfferedPerSec;
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    return fixed_group(static_cast<GroupId>(i % 3));
  };
  // The openloop_throughput CPU model: the calibrated LAN costs plus 1 ns
  // per wire byte, so payload-carrying frames are not free.
  cfg.cpu_override =
      sim::CpuModel{microseconds(15), microseconds(2), nanoseconds(1)};
  cfg.durability.durable = true;
  cfg.durability.fsync.mode = storage::FsyncPolicy::Mode::kBatch;
  cfg.flow.enable = true;
  cfg.flow.target_delay = milliseconds(10);
  cfg.flow.trigger_window = milliseconds(4);
  cfg.client_flow.deadline = milliseconds(50);
  cfg.warmup = milliseconds(100);
  cfg.measure = milliseconds(2000);
  cfg.slice = milliseconds(250);
  cfg.drain = true;
  cfg.check_level = Checker::Level::kFull;
  return cfg;
}

/// Simulated outcomes of one run. At a fixed seed they must repeat exactly.
struct SimFields {
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t latency_samples = 0;
  Duration p50 = 0;
  Duration p99 = 0;
  std::uint64_t fast = 0;
  std::uint64_t slow = 0;
  std::uint64_t sent = 0;
  std::uint64_t completions = 0;
  std::uint64_t window_goodput = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t deadline_miss = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t in_flight_end = 0;
  std::uint64_t storage_records = 0;
  std::uint64_t storage_snapshots = 0;

  bool operator==(const SimFields&) const = default;

  std::string describe() const {
    std::ostringstream os;
    os << "events=" << events << " deliveries=" << deliveries
       << " samples=" << latency_samples << " p50=" << p50 << " p99=" << p99
       << " fast=" << fast << " slow=" << slow << " sent=" << sent
       << " completions=" << completions << " rejected=" << rejected
       << " expired=" << expired << " timed_out=" << timed_out
       << " storage_records=" << storage_records
       << " snapshots=" << storage_snapshots;
    return os.str();
  }
};

struct StageMeans {
  double rmcast_ms = 0, soft_ms = 0, hard_ms = 0, hol_ms = 0;
};

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Splits each traced delivery's simulated latency into protocol stages,
/// per delivering replica: multicast -> r-deliver -> SYNC-SOFT ordered ->
/// final timestamp known (the later of SYNC-SOFT and SYNC-HARD or the
/// fast-path match) -> a-deliver, the last stage being head-of-line wait in
/// the delivery buffer. Deliveries without the full event chain (MultiPaxos)
/// are skipped.
StageMeans stage_means(const obs::Tracer& tracer) {
  using K = obs::SpanEventKind;
  std::vector<double> rm, soft, hard, hol;
  for (const obs::Span& span : tracer.spans()) {
    const Time mcast = span.mcast_at();
    if (mcast < 0) continue;
    for (const obs::SpanEvent& d : span.events) {
      if (d.kind != K::kAdeliver) continue;
      Time rdel = -1, ss = -1, hd = -1;
      for (const obs::SpanEvent& e : span.events) {
        if (e.node != d.node) continue;
        if (e.kind == K::kRdeliver && rdel < 0) rdel = e.at;
        if (e.kind == K::kSyncSoft && ss < 0) ss = e.at;
        if ((e.kind == K::kSyncHard || e.kind == K::kTask6Match) && hd < 0) {
          hd = e.at;
        }
      }
      if (hd < 0) continue;
      const Time known = std::max(hd, ss);
      if (rdel < mcast || ss < rdel || d.at < known) continue;
      rm.push_back(to_milliseconds(rdel - mcast));
      soft.push_back(to_milliseconds(ss - rdel));
      hard.push_back(to_milliseconds(known - ss));
      hol.push_back(to_milliseconds(d.at - known));
    }
  }
  return {mean(rm), mean(soft), mean(hard), mean(hol)};
}

/// What a simulated run reports back from its child process. Plain data,
/// so it can live in a shared mapping.
struct SimOutcome {
  SimFields f;
  char problem[512];  ///< first failed check, empty when all passed
  std::uint64_t allocs;
  double setup_s;
  double wall_s;
  double check_s;
  double late_vs_early;
  double peak_rss_mb;

  double deliveries_per_s() const {
    return ratio(static_cast<double>(f.deliveries), wall_s);
  }
};

void copy_text(char* dst, std::size_t cap, const std::string& src) {
  const std::size_t n = std::min(cap - 1, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

constexpr std::size_t kMaxSamples = std::size_t{1} << 19;
constexpr std::size_t kMaxLayerMetrics = 128;

/// Shared anonymous mapping a forked child writes its run into: the
/// outcome, the latency samples when asked for, and the per-layer metrics
/// of a traced run.
struct ChildPage {
  bool done;
  SimOutcome outcome;
  std::size_t metric_count;
  struct {
    char name[64];
    char unit[16];
    double value;
  } metrics[kMaxLayerMetrics];
  std::size_t sample_count;
  Duration samples[kMaxSamples];

  void metric(const std::string& name, double value, const char* unit) {
    if (metric_count == kMaxLayerMetrics) return;
    auto& slot = metrics[metric_count++];
    copy_text(slot.name, sizeof slot.name, name);
    copy_text(slot.unit, sizeof slot.unit, unit);
    slot.value = value;
  }
  void fail(const std::string& why) {
    if (outcome.problem[0] == '\0') {
      copy_text(outcome.problem, sizeof outcome.problem, why);
    }
  }
};

ChildPage* child_page() {
  static ChildPage* page = [] {
    void* p = ::mmap(nullptr, sizeof(ChildPage), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? nullptr : static_cast<ChildPage*>(p);
  }();
  return page;
}

template <class Out>
void emit_net_zeros(Out& out) {
  out.metric("net.frames_per_delivery", 0, "count");
  out.metric("net.bytes_per_delivery", 0, "B");
  out.metric("net.node_cpu_share", 0, "ratio");
  out.metric("net.tx_queued_bytes_hwm", 0, "B");
  out.metric("net.reconnects", 0, "count");
}

template <class Out>
void emit_codec(Out& out, const std::vector<Message>& sample) {
  const CodecCost c = codec_cost(sample, 0.4);
  if (!c.round_trip_ok) out.fail("codec: captured message does not round-trip");
  out.metric("codec.encode_ns_per_msg", c.encode_ns, "ns");
  out.metric("codec.decode_ns_per_msg", c.decode_ns, "ns");
  out.metric("codec.bytes_per_msg", c.bytes, "B");
}

/// Per-layer metrics of a finished traced run, read while its cluster is
/// still alive.
void emit_sim_layers(ChildPage& out, Cluster& cluster, const LayerTotals& layers,
                     const SendLedger& sends, const Checker::Report& report,
                     std::uint64_t retries, std::uint64_t busy_received,
                     bool multipaxos) {
  const SimOutcome& o = out.outcome;
  const obs::MetricsRegistry& reg = cluster.observability()->metrics;
  const obs::Tracer& tracer = cluster.observability()->tracer;
  const double d = static_cast<double>(o.f.deliveries);
  const auto per = [d](double x) { return ratio(x, d); };
  const auto count = [&reg](const char* name) {
    return static_cast<double>(reg.counter_value(name));
  };
  const auto gauge = [&reg](const char* name) {
    return static_cast<double>(reg.gauge_value(name));
  };
  const auto hist = reg.histograms();
  const auto histogram = [&hist](const char* name) {
    auto it = hist.find(name);
    return it == hist.end() ? obs::MetricsRegistry::HistogramSummary{}
                            : it->second;
  };
  const double events = static_cast<double>(o.f.events);
  const auto ns = [&layers](Layer l) { return static_cast<double>(layers.ns[l]); };
  const auto al = [&layers](Layer l) {
    return static_cast<double>(layers.allocs[l]);
  };

  out.metric("sim.events_per_delivery", per(events), "count");
  out.metric("sim.engine_ns_per_event",
             ratio(std::max(0.0, ns(kLayerEngine) - o.check_s * 1e9), events),
             "ns");
  out.metric("sim.queue_hwm",
             static_cast<double>(cluster.simulator().event_queue_high_water()),
             "count");
  // The growth probe is replaced by the untraced runs' median.
  out.metric("sim.late_vs_early_rate", o.late_vs_early, "ratio");

  out.metric("rmcast.msgs_per_delivery",
             per(static_cast<double>(sends.msgs[kMsgRmcast])), "count");
  out.metric("rmcast.handler_ns_per_delivery", per(ns(kLayerRmcast)), "ns");
  out.metric("rmcast.allocs_per_delivery", per(al(kLayerRmcast)), "count");
  out.metric("rmcast.retransmits", count("rmcast.retransmits"), "count");
  out.metric("rmcast.holdback_max", gauge("rmcast.holdback_max"), "count");

  out.metric("paxos.msgs_per_delivery",
             per(static_cast<double>(sends.msgs[kMsgPaxos])), "count");
  out.metric("paxos.handler_ns_per_delivery", per(ns(kLayerPaxos)), "ns");
  out.metric("paxos.allocs_per_delivery", per(al(kLayerPaxos)), "count");
  out.metric("paxos.decisions_per_delivery", per(count("paxos.decisions")),
             "count");
  out.metric("paxos.pipeline_in_flight_max", gauge("paxos.pipeline.in_flight"),
             "count");

  const double fast = static_cast<double>(o.f.fast);
  const double slow = static_cast<double>(o.f.slow);
  out.metric("amcast.fast_path_share", ratio(fast, fast + slow), "ratio");
  out.metric("amcast.guess_mismatches", count("fastcast.guess_mismatches"),
             "count");
  out.metric("amcast.delivery_buffer_max_depth",
             gauge("amcast.delivery_buffer.max_depth"), "count");
  out.metric("amcast.handler_ns_per_delivery",
             multipaxos ? 0 : per(ns(kLayerReplica)), "ns");
  const StageMeans stages = stage_means(tracer);
  out.metric("amcast.stage_rmcast_ms", stages.rmcast_ms, "ms");
  out.metric("amcast.stage_soft_ms", stages.soft_ms, "ms");
  out.metric("amcast.stage_hard_ms", stages.hard_ms, "ms");
  out.metric("amcast.stage_hol_ms", stages.hol_ms, "ms");
  double local = 0, global = 0, global_n = 0;
  for (const auto& c : tracer.summarize(kLanDelta).classes) {
    if (c.dst_groups == 1) {
      local = c.mean_hops;
    } else {
      global += c.mean_hops * static_cast<double>(c.samples);
      global_n += static_cast<double>(c.samples);
    }
  }
  out.metric("amcast.delta_hops_local", local, "delta");
  out.metric("amcast.delta_hops_global", ratio(global, global_n), "delta");

  out.metric("multipaxos.handler_ns_per_delivery",
             multipaxos ? per(ns(kLayerReplica)) : 0, "ns");
  out.metric("multipaxos.body_pulls", count("multipaxos.body_pulls"), "count");
  out.metric("multipaxos.stalled_deliveries",
             gauge("multipaxos.stalled_deliveries"), "count");

  out.metric("flow.marks", count("flow.marks"), "count");
  out.metric("flow.rejected", count("flow.rejected"), "count");
  out.metric("flow.expired", count("flow.expired"), "count");
  out.metric("flow.estimated_delay_ms", gauge("flow.estimated_delay_ns") / 1e6,
             "ms");

  out.metric("storage.appends_per_delivery", per(count("storage.appends")),
             "count");
  out.metric("storage.fsyncs_per_delivery", per(count("storage.fsyncs")),
             "count");
  out.metric("storage.batch_commit_records_p50",
             static_cast<double>(histogram("storage.batch_commit_records").p50),
             "count");
  out.metric("storage.commit_latency_p99_ms",
             static_cast<double>(histogram("storage.commit_latency_ns").p99) / 1e6,
             "ms");
  out.metric("storage.snapshots", count("storage.snapshots"), "count");

  // The untraced runs' median replaces checker.check_s.
  out.metric("checker.check_s", o.check_s, "s");
  out.metric("checker.orders_compared",
             static_cast<double>(report.orders_compared), "count");

  out.metric("harness.sent", static_cast<double>(o.f.sent), "count");
  out.metric("harness.completions", static_cast<double>(o.f.completions),
             "count");
  out.metric("harness.retries", static_cast<double>(retries), "count");
  out.metric("harness.busy_received", static_cast<double>(busy_received),
             "count");
  out.metric("harness.in_flight_end", static_cast<double>(o.f.in_flight_end),
             "count");
  out.metric("harness.latency_samples",
             static_cast<double>(o.f.latency_samples), "count");
  out.metric("harness.handler_ns_per_delivery", per(ns(kLayerClient)), "ns");
  if (layers.entries[kLayerPaxos] == 0 || layers.entries[kLayerReplica] == 0) {
    // The end-to-end figures are unaffected; the layer split is not.
    std::fprintf(stderr,
                 "perfbench: WARNING: layer wrappers inactive; a wrapped "
                 "entry point (layers.cpp, CMakeLists.txt) was renamed\n");
  }

  emit_net_zeros(out);
  emit_codec(out, sends.sample);
}

/// Untraced runs construct and start the cluster this many times and keep
/// the last one, so set-up time is a median within each run.
constexpr int kSetupRepeats = 5;

/// Runs one simulated experiment and writes its outcome, its correctness
/// gate, the latency samples (when `keep_samples`) and, when traced, the
/// per-layer metrics into `page`. Runs in a forked child.
void run_sim(ExperimentConfig cfg, bool traced, bool multipaxos,
             bool keep_samples, ChildPage& page) {
  if (traced) {
    cfg.observe = true;
    cfg.trace = true;
    cfg.delta = kLanDelta;
  }
  WrapOptions wrap;
  wrap.wrap = traced;
  set_wrap_options(wrap);

  SimOutcome& o = page.outcome;
  std::unique_ptr<Cluster> cluster;
  std::vector<double> setup;
  for (int i = 0; i < (traced ? 1 : kSetupRepeats); ++i) {
    cluster.reset();
    const auto ts = Clock::now();
    cluster = std::make_unique<Cluster>(cfg);
    cluster->start();
    setup.push_back(since(ts));
  }
  o.setup_s = median(setup);

  if (traced) set_scopes_enabled(true);
  const std::uint64_t a0 = allocs_now();
  const auto t0 = Clock::now();
  sim::Simulator& sim = cluster->simulator();
  sim.run_until(cfg.warmup);
  const Time window_end = cfg.warmup + cfg.measure;
  cluster->metrics().open_window(cfg.warmup, window_end, cfg.slice);
  // Growth probe: wall-clock event rate of every measurement slice.
  std::vector<double> slice_rates;
  for (Time at = cfg.warmup + cfg.slice; at <= window_end; at += cfg.slice) {
    const std::uint64_t ev0 = sim.events_processed();
    const auto ts = Clock::now();
    sim.run_until(at);
    slice_rates.push_back(
        ratio(static_cast<double>(sim.events_processed() - ev0), since(ts)));
  }
  cluster->metrics().close_window();
  cluster->stop_clients(window_end);
  bool drained;
  if (cfg.durability.durable) {
    // The batch-commit timer keeps the event queue from ever emptying, so
    // a durable run settles for a fixed simulated grace instead and counts
    // as drained once no request is left unresolved.
    sim.run_until(window_end + kDurableSettle);
    drained = cluster->total_in_flight() == 0;
  } else {
    drained = sim.run_to_idle(window_end + cfg.drain_grace);
  }
  const auto tc = Clock::now();
  const Checker::Report report = cluster->checker().check(drained, cfg.check_level);
  o.check_s = since(tc);
  o.wall_s = since(t0);
  o.allocs = allocs_now() - a0;
  LayerTotals layers;
  if (traced) {
    layers = scope_totals();
    set_scopes_enabled(false);
  }
  o.late_vs_early = slice_rates.size() >= 2
                        ? ratio(slice_rates.back(), slice_rates.front())
                        : 0;

  const Metrics& m = cluster->metrics();
  SimFields& f = o.f;
  f.events = sim.events_processed();
  f.deliveries = cluster->total_deliveries();
  f.latency_samples = m.latency().count();
  if (!m.latency().empty()) {
    f.p50 = m.latency().median();
    f.p99 = m.latency().percentile(99);
  }
  std::tie(f.fast, f.slow) = cluster->path_stats();
  f.sent = cluster->total_sent();
  f.completions = m.completions_total();
  f.window_goodput = m.window_goodput();
  f.rejected = m.rejected_total();
  f.expired = m.expired_total();
  f.timed_out = m.timeouts_total();
  f.deadline_miss = m.deadline_miss_total();
  f.suppressed = m.suppressed_total();
  f.in_flight_end = cluster->total_in_flight();
  if (storage::StorageManager* st = cluster->storage()) {
    for (NodeId n : cluster->deployment().membership.all_replicas()) {
      f.storage_records += st->node(n)->last_lsn();
      f.storage_snapshots += st->node(n)->snapshots_taken();
    }
  }
  if (keep_samples) {
    const std::vector<Duration>& samples = m.latency().samples();
    page.sample_count = std::min(samples.size(), kMaxSamples);
    std::copy_n(samples.begin(), page.sample_count, page.samples);
  }

  // Correctness gate.
  if (!report.ok) {
    page.fail("checker: " +
              (report.violations.empty() ? "?" : report.violations[0]));
  }
  if (!drained) page.fail("run did not drain");
  if (f.sent != f.completions + f.rejected + f.expired + f.timed_out +
                    f.in_flight_end) {
    page.fail("overload conservation law broken: " + f.describe());
  }
  if (f.deliveries == 0) page.fail("no deliveries");

  if (traced) {
    emit_sim_layers(page, *cluster, layers, collect_send_ledgers(), report,
                    m.retries_total(), m.busy_total(), multipaxos);
  }
  o.peak_rss_mb = peak_rss_mb();
}

/// Simulated metrics pool `seeds` runs with seeds derived from --seed, so
/// they describe the workload rather than one schedule.
constexpr int kGenuineSeeds = 5;
constexpr int kOrderedSeeds = 5;

std::uint64_t sub_seed(std::uint64_t seed, int seeds, int i) {
  return seed * static_cast<std::uint64_t>(seeds) + static_cast<std::uint64_t>(i);
}

/// Runs one simulated experiment in a fresh child process, so every run
/// starts from the same heap and its peak memory is its own. Latency
/// samples are returned when `samples` is set, per-layer metrics when the
/// run is traced and `layers` is set.
bool run_sim_in_child(const ExperimentConfig& cfg, bool traced,
                      bool multipaxos, SimOutcome& outcome,
                      std::vector<Duration>* samples, Result* layers) {
  ChildPage* page = child_page();
  if (page == nullptr) return false;
  page->done = false;
  page->outcome = SimOutcome{};
  page->metric_count = 0;
  page->sample_count = 0;
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    run_sim(cfg, traced, multipaxos, samples != nullptr, *page);
    page->done = true;
    std::fflush(stdout);
    ::_exit(0);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || !page->done) {
    return false;
  }
  outcome = page->outcome;
  if (samples != nullptr) {
    samples->assign(page->samples, page->samples + page->sample_count);
  }
  if (layers != nullptr) {
    for (std::size_t i = 0; i < page->metric_count; ++i) {
      const auto& slot = page->metrics[i];
      layers->metric(slot.name, slot.value, slot.unit);
    }
  }
  return true;
}

/// Fails the result unless the run passed its gate and, when `ref` is set,
/// reproduced its simulated fields exactly.
void check_outcome(Result& out, const SimOutcome& o, const SimOutcome* ref,
                   const std::string& tag) {
  if (o.problem[0] != '\0') out.fail(tag + ": " + o.problem);
  if (ref != nullptr && !(o.f == ref->f)) {
    out.fail("harness defect: simulated fields differ across repeats at one "
             "seed: " + ref->f.describe() + " vs " + o.f.describe());
  }
}

/// True while another run as long as the longest so far still fits in the
/// budget.
bool fits(Clock::time_point t0, double longest, double seconds) {
  return since(t0) + longest <= seconds;
}

/// --trace 0: one pass over the sub-seeds and a repeat of the first (the
/// determinism check), then further passes while runs fit in the budget.
/// Every repeat must reproduce its seed's simulated fields. Simulated
/// metrics come from the first pass, wall-clock figures from all runs.
void run_sim_timed(Result& out, const ExperimentConfig& base, int seeds,
                   double seconds, const char* name) {
  std::vector<SimOutcome> runs;
  std::vector<Duration> pooled_samples;
  double longest = 0;
  const auto t0 = Clock::now();
  for (int k = 0; k <= seeds || fits(t0, longest, seconds); ++k) {
    ExperimentConfig cfg = base;
    cfg.seed = sub_seed(base.seed, seeds, k % seeds);
    SimOutcome o;
    std::vector<Duration> samples;
    const auto tr = Clock::now();
    if (!run_sim_in_child(cfg, /*traced=*/false, /*multipaxos=*/false, o,
                          k < seeds ? &samples : nullptr, nullptr)) {
      out.fail("seed " + std::to_string(cfg.seed) + ": run process failed");
      return;
    }
    longest = std::max(longest, since(tr));
    check_outcome(out, o, k >= seeds ? &runs[k % seeds] : nullptr,
                  "seed " + std::to_string(cfg.seed));
    pooled_samples.insert(pooled_samples.end(), samples.begin(), samples.end());
    runs.push_back(o);
    if (!out.correct) return;
  }

  LatencyRecorder pooled;
  for (Duration d : pooled_samples) pooled.add(d);
  std::uint64_t sent = 0, suppressed = 0, unsuccessful = 0, goodput = 0;
  std::uint64_t allocs = 0, deliveries = 0;
  double rss_mb = 0;
  for (int i = 0; i < seeds; ++i) {
    const SimFields& f = runs[i].f;
    sent += f.sent;
    suppressed += f.suppressed;
    unsuccessful += f.rejected + f.expired + f.timed_out + f.deadline_miss +
                    f.in_flight_end;
    goodput += f.window_goodput;
    allocs += runs[i].allocs;
    deliveries += f.deliveries;
    rss_mb = std::max(rss_mb, runs[i].peak_rss_mb);
  }
  account(out, sent, suppressed, unsuccessful);
  std::uint64_t all_deliveries = 0;
  double wall = 0;
  for (const SimOutcome& o : runs) {
    all_deliveries += o.f.deliveries;
    wall += o.wall_s;
  }
  std::vector<double> setup;
  std::printf("%s: %zu runs over %d seeds, %zu pooled latency samples; "
              "deliveries/s per run:", name, runs.size(), seeds,
              pooled.count());
  for (const SimOutcome& o : runs) {
    setup.push_back(o.setup_s);
    std::printf(" %.0f", o.deliveries_per_s());
  }
  std::printf("\n");

  out.metric("setup_s", median(setup), "s");
  out.metric("deliveries_per_s",
             ratio(static_cast<double>(all_deliveries), wall), "1/s");
  out.metric("latency_p50_ms", to_milliseconds(pooled.median()), "ms");
  out.metric("latency_p99_ms", to_milliseconds(pooled.percentile(99)), "ms");
  out.metric("goodput_per_s",
             ratio(static_cast<double>(goodput), seeds * to_seconds(base.measure)),
             "1/s");
  out.metric("success_share",
             1.0 - ratio(static_cast<double>(out.failed),
                         static_cast<double>(out.attempted)),
             "ratio");
  out.metric("allocs_per_delivery",
             ratio(static_cast<double>(allocs), static_cast<double>(deliveries)),
             "count");
  out.metric("peak_rss_mb", rss_mb, "MB");
}

/// --trace 1: alternates untraced and traced runs of the first sub-seed,
/// at least one of each, while runs fit in the budget. The growth probe and
/// checker time come from the untraced runs.
void run_sim_traced(Result& out, const ExperimentConfig& base, int seeds,
                    double seconds, bool multipaxos) {
  ExperimentConfig cfg = base;
  cfg.seed = sub_seed(base.seed, seeds, 0);
  std::vector<SimOutcome> plain, traced;
  Result layers;
  double longest = 0;
  const auto t0 = Clock::now();
  while (traced.empty() || fits(t0, longest, seconds)) {
    const bool this_traced = plain.size() > traced.size();
    SimOutcome o;
    const auto tr = Clock::now();
    if (!run_sim_in_child(cfg, this_traced, multipaxos, o, nullptr,
                          traced.empty() && this_traced ? &layers : nullptr)) {
      out.fail("run process failed");
      return;
    }
    longest = std::max(longest, since(tr));
    check_outcome(out, o, plain.empty() ? nullptr : &plain.front(),
                  this_traced ? "traced run" : "untraced run");
    (this_traced ? traced : plain).push_back(o);
    if (!out.correct) return;
  }
  const SimFields& f = plain.front().f;
  account(out, f.sent, f.suppressed,
          f.rejected + f.expired + f.timed_out + f.deadline_miss +
              f.in_flight_end);
  std::vector<double> rate, traced_rate, growth, check_s;
  for (const SimOutcome& o : plain) {
    rate.push_back(o.deliveries_per_s());
    growth.push_back(o.late_vs_early);
    check_s.push_back(o.check_s);
  }
  for (const SimOutcome& o : traced) traced_rate.push_back(o.deliveries_per_s());
  for (auto& [name, vu] : layers.metrics) {
    if (name == "sim.late_vs_early_rate") vu.first = median(growth);
    if (name == "checker.check_s") vu.first = median(check_s);
  }
  out.metrics = layers.metrics;
  out.metric("obs.trace_overhead", ratio(median(traced_rate), median(rate)),
             "ratio");
  std::printf("%zu untraced and %zu traced runs\n", plain.size(),
              traced.size());
}

// ---------------------------------------------------------------------------
// Real TCP workload.
// ---------------------------------------------------------------------------

constexpr std::size_t kTcpOutstanding = 16;
constexpr std::size_t kTcpPayload = 64;
constexpr std::size_t kTcpReplicas = 3;
/// Multicasts per segment (about 1 s at 80k acks/s on a 4-CPU VM). Fixed
/// work keeps each segment's memory and allocation counts comparable; the
/// measurement window spans the 10th to the 90th percent of the acks.
constexpr std::uint64_t kTcpSegmentMulticasts = 80000;

/// Pins the calling thread to CPU `index` (modulo their count) of the
/// process's allowed set, so the node threads do not migrate between CPUs
/// during a segment.
void pin_this_thread(std::size_t index) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  int want = static_cast<int>(index % static_cast<std::size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || want-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

/// Forwards every call to `inner` after pinning the node thread on start.
class PinnedProcess final : public Process {
 public:
  PinnedProcess(std::shared_ptr<Process> inner, std::size_t cpu)
      : inner_(std::move(inner)), cpu_(cpu) {}
  void on_start(Context& ctx) override {
    pin_this_thread(cpu_);
    inner_->on_start(ctx);
  }
  void on_recover(Context& ctx) override {
    pin_this_thread(cpu_);
    inner_->on_recover(ctx);
  }
  void on_message(Context& ctx, NodeId from, const Message& msg) override {
    inner_->on_message(ctx, from, msg);
  }

 private:
  std::shared_ptr<Process> inner_;
  std::size_t cpu_;
};

/// CPU seconds used so far by every thread of this process except `skip`,
/// from /proc/self/task/<tid>/stat.
double threads_cpu_s(pid_t skip) {
  const long ticks = ::sysconf(_SC_CLK_TCK);
  const std::string skip_tid = std::to_string(skip);
  double total = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (const dirent* e = ::readdir(dir)) {
    const std::string tid = e->d_name;
    if (tid == "." || tid == ".." || tid == skip_tid) continue;
    std::ifstream in("/proc/self/task/" + tid + "/stat");
    std::string stat;
    std::getline(in, stat);
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::strtod(field.c_str(), nullptr);
      if (i == 15) stime = std::strtod(field.c_str(), nullptr);
    }
    total += (utime + stime) / static_cast<double>(ticks);
  }
  ::closedir(dir);
  return total;
}

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other guests while this one wanted to
/// run (steal).
struct HostTicks {
  double total = 0;
  double steal = 0;
};

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks t;
  double v = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// State shared by the node threads and the main thread. Nothing on the
/// hot path takes a lock: the client thread alone feeds multicasts to the
/// checker and each replica thread appends to its own delivery log, which
/// the main thread hands to the checker after the threads are joined.
struct TcpShared {
  Checker* checker = nullptr;
  pid_t main_tid = 0;
  std::array<std::vector<MsgId>, kTcpReplicas> delivered;  ///< by NodeId
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> acked{0};
  std::atomic<std::uint64_t> deliveries{0};
};

/// What the client thread saw at the first ack and at the edges of the
/// measurement window. Read only after the node threads are joined.
struct TcpWindow {
  Clock::time_point first_ack{};
  Clock::time_point start{}, end{};
  std::uint64_t deliveries_start = 0, deliveries_end = 0;
  double node_cpu_start = 0, node_cpu_end = 0;
  HostTicks host_start, host_end;
};

/// Keeps a fixed number of multicasts to group 0 outstanding until it has
/// sent kTcpSegmentMulticasts; a multicast completes on its first ack. The
/// measurement window opens at the 10th and closes at the 90th percent of
/// the acks; the client thread stamps both edges itself.
class LoadClient final : public Process {
 public:
  LoadClient(TcpShared* shared, std::uint64_t seed)
      : shared_(shared), rng_(seed) {}

  void on_start(Context& ctx) override {
    stub_.on_start(ctx);
    for (std::size_t i = 0; i < kTcpOutstanding; ++i) send_one(ctx);
  }

  void on_message(Context& ctx, NodeId from, const Message& msg) override {
    if (const auto* ack = std::get_if<AmAck>(&msg.payload)) {
      auto it = in_flight_.find(ack->mid);
      if (it == in_flight_.end()) return;  // a later replica's ack
      if (in_window_) latencies_.push_back(ctx.now() - it->second);
      in_flight_.erase(it);
      const std::uint64_t acked = shared_->acked.fetch_add(1) + 1;
      if (acked == 1) window_.first_ack = Clock::now();
      if (acked == kTcpSegmentMulticasts / 10) edge(true);
      if (acked == kTcpSegmentMulticasts * 9 / 10) edge(false);
      if (next_seq_ < kTcpSegmentMulticasts) send_one(ctx);
      return;
    }
    stub_.handle(ctx, from, msg);
  }

  const std::vector<Duration>& latencies() const { return latencies_; }
  const TcpWindow& window() const { return window_; }

 private:
  void edge(bool open) {
    const double cpu = threads_cpu_s(shared_->main_tid);
    const HostTicks host = host_ticks();
    const std::uint64_t d = shared_->deliveries.load();
    const auto now = Clock::now();
    if (open) {
      window_.start = now;
      window_.deliveries_start = d;
      window_.node_cpu_start = cpu;
      window_.host_start = host;
    } else {
      window_.end = now;
      window_.deliveries_end = d;
      window_.node_cpu_end = cpu;
      window_.host_end = host;
    }
    in_window_ = open;
  }

  void send_one(Context& ctx) {
    MulticastMessage m;
    m.id = make_msg_id(ctx.self(), next_seq_++);
    m.sender = ctx.self();
    m.dst = {0};
    m.payload.resize(kTcpPayload);
    for (char& c : m.payload) c = static_cast<char>('a' + rng_.uniform(26));
    shared_->checker->note_multicast(m);
    in_flight_.emplace(m.id, ctx.now());
    shared_->sent.fetch_add(1, std::memory_order_relaxed);
    stub_.amulticast(ctx, m);
  }

  TcpShared* shared_;
  Rng rng_;
  GenuineClientStub stub_;
  std::map<MsgId, Time> in_flight_;
  std::uint32_t next_seq_ = 0;
  bool in_window_ = false;
  std::vector<Duration> latencies_;
  TcpWindow window_;
};

struct TcpRun {
  bool ok = true;
  std::string problem;
  double setup_s = 0;
  double window_s = 0;
  std::uint64_t window_deliveries = 0;
  std::uint64_t sent = 0;
  std::uint64_t acked = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t allocs = 0;
  double node_cpu_share = 0;
  double steal_share = 0;  ///< of the machine's CPU time in the window
  double check_s = 0;
  std::vector<Duration> latencies;
  Checker::Report report;
  // Traced runs only.
  SendLedger sends;
  std::int64_t tx_queued_hwm = 0;
  std::uint64_t reconnects = 0;

  double deliveries_per_s() const {
    return ratio(static_cast<double>(window_deliveries), window_s);
  }
};

TcpRun run_tcp(std::uint64_t seed, int index, bool traced) {
  TcpRun r;
  Membership membership;
  membership.add_group(kTcpReplicas, {0, 0, 0});
  const NodeId client_node = membership.add_client(0);
  Checker checker(&membership);
  TcpShared shared;
  shared.checker = &checker;
  shared.main_tid = ::gettid();
  obs::Observability observability;
  WrapOptions wrap;
  wrap.wrap = traced;
  wrap.encode_bytes = true;
  set_wrap_options(wrap);
  const auto node = [traced](std::shared_ptr<Process> p, Layer layer,
                             NodeId id) -> std::shared_ptr<Process> {
    return std::make_shared<PinnedProcess>(
        traced ? wrap_process(std::move(p), layer) : std::move(p), id);
  };

  const std::uint64_t a0 = allocs_now();
  const auto t0 = Clock::now();
  std::unique_ptr<net::TcpCluster> cluster;
  std::shared_ptr<LoadClient> client;
  for (int attempt = 0; attempt < 8 && cluster == nullptr; ++attempt) {
    net::TcpCluster::Config cc;
    cc.membership = membership;
    cc.base_port = static_cast<std::uint16_t>(
        20000 + (static_cast<unsigned>(::getpid()) * 131u +
                 static_cast<unsigned>(index) * 17u +
                 static_cast<unsigned>(attempt) * 4099u) %
                    40000u);
    cc.backend = net::BackendKind::kPoll;
    cc.observability = traced ? &observability : nullptr;
    auto c = std::make_unique<net::TcpCluster>(std::move(cc));
    for (NodeId n : membership.all_replicas()) {
      TimestampProtocolBase::Config pc;
      pc.group = 0;
      pc.consensus.group = 0;
      pc.consensus.members = membership.members(0);
      auto replica =
          std::make_shared<ReplicaNode>(std::make_shared<FastCast>(pc, n));
      replica->add_observer([&shared](Context& ctx, const MulticastMessage& m) {
        shared.delivered[ctx.self()].push_back(m.id);
        shared.deliveries.fetch_add(1, std::memory_order_relaxed);
      });
      c->add_process(n, node(replica, kLayerReplica, n));
    }
    client = std::make_shared<LoadClient>(&shared, seed * 7919 + index);
    c->add_process(client_node, node(client, kLayerClient, client_node));
    try {
      c->start();
      cluster = std::move(c);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tcp_local: start failed (%s); retrying\n", e.what());
      collect_send_ledgers();
    }
  }
  if (cluster == nullptr) {
    r.ok = false;
    r.problem = "could not bind loopback ports";
    return r;
  }
  // Every multicast must be acked and delivered by every replica. The wait
  // gives up after 60 s, so a wedged cluster ends the run.
  const auto give_up = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < give_up &&
         (shared.acked.load() < kTcpSegmentMulticasts ||
          shared.deliveries.load() < kTcpReplicas * kTcpSegmentMulticasts)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  cluster->stop();
  r.sent = shared.sent.load();
  r.acked = shared.acked.load();
  r.deliveries = shared.deliveries.load();
  r.allocs = allocs_now() - a0;
  const TcpWindow& w = client->window();
  if (r.acked < kTcpSegmentMulticasts * 9 / 10) {
    r.ok = false;
    r.problem = r.acked == 0 ? "no ack within 60 s" : "stalled in the window";
    return r;
  }
  r.setup_s = std::chrono::duration<double>(w.first_ack - t0).count();
  r.window_s = std::chrono::duration<double>(w.end - w.start).count();
  r.window_deliveries = w.deliveries_end - w.deliveries_start;
  r.node_cpu_share =
      ratio(w.node_cpu_end - w.node_cpu_start,
            r.window_s * static_cast<double>(kTcpReplicas + 1));
  r.steal_share = ratio(w.host_end.steal - w.host_start.steal,
                        w.host_end.total - w.host_start.total);
  r.latencies = client->latencies();
  for (NodeId n : membership.all_replicas()) {
    for (MsgId mid : shared.delivered[n]) checker.note_delivery(n, mid);
  }
  const auto tc = Clock::now();
  r.report = checker.check(/*quiesced=*/true, Checker::Level::kFull);
  r.check_s = since(tc);
  if (traced) {
    r.sends = collect_send_ledgers();
    r.tx_queued_hwm = observability.metrics.gauge_value("net.tx_queued_bytes_hwm");
    r.reconnects = observability.metrics.counter_value("net.reconnects");
  }
  return r;
}

void gate_tcp(Result& out, const TcpRun& r, const std::string& tag) {
  if (!r.ok) {
    out.fail(tag + ": " + r.problem);
    return;
  }
  if (!r.report.ok) {
    out.fail(tag + ": checker: " +
             (r.report.violations.empty() ? "?" : r.report.violations[0]));
  }
  if (r.sent != kTcpSegmentMulticasts || r.acked != r.sent ||
      r.deliveries != kTcpReplicas * r.sent) {
    out.fail(tag + ": unaccounted multicasts: sent " + std::to_string(r.sent) +
             ", acked " + std::to_string(r.acked) + ", deliveries " +
             std::to_string(r.deliveries));
  }
  if (r.latencies.empty()) out.fail(tag + ": no completions in the window");
}

/// Indices of the half of `runs` (at least three) that lost the least CPU
/// time to steal. Steal is other guests' load on the host, not this
/// program's; it inflates wall-clock rate and tail latency of the segment
/// it hits, so the wall-clock figures are medians over the calm half.
std::vector<std::size_t> least_stolen(const std::vector<TcpRun>& runs) {
  std::vector<std::size_t> idx(runs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&runs](std::size_t a, std::size_t b) {
    return runs[a].steal_share < runs[b].steal_share;
  });
  idx.resize(std::min(runs.size(), std::max<std::size_t>(3, runs.size() / 2)));
  return idx;
}

std::vector<double> pick(const std::vector<double>& v,
                         const std::vector<std::size_t>& idx) {
  std::vector<double> out;
  for (std::size_t i : idx) out.push_back(v[i]);
  return out;
}

void run_tcp_workload(Result& out, std::uint64_t seed, double seconds,
                      bool trace) {
  // Fixed-work segments, each on a fresh cluster, until the budget is spent:
  // set-up time and rate both get a median, and memory stays bounded
  // (protocol and checker state grow with every multicast). The first
  // segment only warms up and sets the peak-memory figure. The traced mode
  // alternates untraced and traced segments.
  std::vector<TcpRun> plain, traced;
  double rss_mb = 0;
  double longest = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 4 || fits(t0, longest, seconds); ++i) {
    const bool this_traced = trace && i % 2 == 1;
    const auto ts = Clock::now();
    TcpRun r = run_tcp(seed, i, this_traced);
    longest = std::max(longest, since(ts));
    gate_tcp(out, r, std::string(this_traced ? "traced" : "untraced") +
                         " segment " + std::to_string(i));
    if (i == 0) {
      rss_mb = peak_rss_mb();
    } else {
      (this_traced ? traced : plain).push_back(std::move(r));
    }
    if (!out.correct) return;
  }
  std::uint64_t sent = 0, acked = 0;
  for (const auto* runs : {&plain, &traced}) {
    for (const TcpRun& r : *runs) {
      sent += r.sent;
      acked += r.acked;
    }
  }
  account(out, sent, 0, sent - std::min(sent, acked));

  std::vector<double> setup, rate, goodput, allocs, cpu, p50, p99;
  std::size_t samples = 0;
  for (const TcpRun& r : plain) {
    setup.push_back(r.setup_s);
    rate.push_back(r.deliveries_per_s());
    goodput.push_back(ratio(static_cast<double>(r.latencies.size()), r.window_s));
    allocs.push_back(ratio(static_cast<double>(r.allocs),
                           static_cast<double>(r.deliveries)));
    cpu.push_back(r.node_cpu_share);
    LatencyRecorder rec;
    for (Duration d : r.latencies) rec.add(d);
    p50.push_back(to_milliseconds(rec.median()));
    p99.push_back(to_milliseconds(rec.percentile(99)));
    samples += r.latencies.size();
  }
  std::printf("tcp_local: %zu untraced and %zu traced segments after one "
              "warm-up, %zu latency samples (untraced); deliveries/s, p99 ms "
              "and CPU steal %% per segment:", plain.size(), traced.size(),
              samples);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    std::printf(" %.0f/%.3f/%.1f", rate[i], p99[i], 100 * plain[i].steal_share);
  }
  std::printf("\n");
  const std::vector<std::size_t> calm = least_stolen(plain);
  if (!trace) {
    out.metric("setup_s", median(setup), "s");
    out.metric("deliveries_per_s", median(pick(rate, calm)), "1/s");
    out.metric("latency_p50_ms", median(pick(p50, calm)), "ms");
    out.metric("latency_p99_ms", median(pick(p99, calm)), "ms");
    out.metric("goodput_per_s", median(pick(goodput, calm)), "1/s");
    out.metric("success_share",
               1.0 - ratio(static_cast<double>(out.failed),
                           static_cast<double>(out.attempted)),
               "ratio");
    out.metric("allocs_per_delivery", median(allocs), "count");
    out.metric("peak_rss_mb", rss_mb, "MB");
    return;
  }

  SendLedger sends;
  std::vector<double> traced_rate;
  std::uint64_t deliveries = 0, reconnects = 0;
  std::int64_t tx_hwm = 0;
  for (std::size_t i : least_stolen(traced)) {
    traced_rate.push_back(traced[i].deliveries_per_s());
  }
  for (const TcpRun& r : traced) {
    sends.merge(r.sends);
    deliveries += r.deliveries;
    reconnects += r.reconnects;
    tx_hwm = std::max(tx_hwm, r.tx_queued_hwm);
  }
  const double d = static_cast<double>(deliveries);
  const char* zero_count[] = {
      "sim.events_per_delivery", "sim.queue_hwm",
      "rmcast.retransmits", "rmcast.holdback_max",
      "paxos.decisions_per_delivery", "paxos.pipeline_in_flight_max",
      "amcast.guess_mismatches",
      "amcast.delivery_buffer_max_depth",
      "multipaxos.body_pulls", "multipaxos.stalled_deliveries",
      "flow.marks", "flow.rejected", "flow.expired",
      "storage.appends_per_delivery", "storage.fsyncs_per_delivery",
      "storage.batch_commit_records_p50", "storage.snapshots",
      "harness.retries", "harness.busy_received"};
  // Layers whose counters live only in the simulator report 0 here; the
  // message counts below come from the process wrappers.
  for (const char* name : zero_count) out.metric(name, 0, "count");
  out.metric("sim.engine_ns_per_event", 0, "ns");
  out.metric("sim.late_vs_early_rate", 0, "ratio");
  out.metric("amcast.fast_path_share", 0, "ratio");
  out.metric("rmcast.msgs_per_delivery",
             ratio(static_cast<double>(sends.msgs[kMsgRmcast]), d), "count");
  out.metric("rmcast.handler_ns_per_delivery", 0, "ns");
  out.metric("rmcast.allocs_per_delivery", 0, "count");
  out.metric("paxos.msgs_per_delivery",
             ratio(static_cast<double>(sends.msgs[kMsgPaxos]), d), "count");
  out.metric("paxos.handler_ns_per_delivery", 0, "ns");
  out.metric("paxos.allocs_per_delivery", 0, "count");
  out.metric("amcast.handler_ns_per_delivery", 0, "ns");
  for (const char* name : {"amcast.stage_rmcast_ms", "amcast.stage_soft_ms",
                           "amcast.stage_hard_ms", "amcast.stage_hol_ms",
                           "flow.estimated_delay_ms",
                           "storage.commit_latency_p99_ms"}) {
    out.metric(name, 0, "ms");
  }
  out.metric("amcast.delta_hops_local", 0, "delta");
  out.metric("amcast.delta_hops_global", 0, "delta");
  out.metric("multipaxos.handler_ns_per_delivery", 0, "ns");
  std::vector<double> check_s;
  for (const TcpRun& r : plain) check_s.push_back(r.check_s);
  out.metric("checker.check_s", median(check_s), "s");
  out.metric("checker.orders_compared",
             static_cast<double>(traced.front().report.orders_compared),
             "count");
  std::uint64_t sent_traced = 0, acked_traced = 0, samples_traced = 0;
  for (const TcpRun& r : traced) {
    sent_traced += r.sent;
    acked_traced += r.acked;
    samples_traced += r.latencies.size();
  }
  out.metric("harness.sent", static_cast<double>(sent_traced), "count");
  out.metric("harness.completions", static_cast<double>(acked_traced), "count");
  out.metric("harness.in_flight_end", 0, "count");
  out.metric("harness.latency_samples", static_cast<double>(samples_traced),
             "count");
  out.metric("harness.handler_ns_per_delivery", 0, "ns");
  out.metric("net.frames_per_delivery",
             ratio(static_cast<double>(sends.frames), d), "count");
  out.metric("net.bytes_per_delivery",
             ratio(static_cast<double>(sends.wire_bytes), d), "B");
  out.metric("net.node_cpu_share", median(cpu), "ratio");
  out.metric("net.tx_queued_bytes_hwm", static_cast<double>(tx_hwm), "B");
  out.metric("net.reconnects", static_cast<double>(reconnects), "count");
  emit_codec(out, sends.sample);
  out.metric("obs.trace_overhead",
             ratio(median(traced_rate), median(pick(rate, calm))), "ratio");
}

/// Prints the per-layer metrics the workload is predicted to bypass, with
/// their measured values. A non-zero value is reported, not failed: it says
/// a layer is on a path the workload was chosen to keep it off.
void print_bypasses(const Result& out, const std::vector<std::string>& prefixes) {
  for (const auto& [name, vu] : out.metrics) {
    for (const std::string& prefix : prefixes) {
      if (name.rfind(prefix, 0) != 0) continue;
      std::printf("bypass %-36s = %-10.6g predicted 0: %s\n", name.c_str(),
                  vu.first, vu.first == 0 ? "ok" : "UNEXPECTED");
    }
  }
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload genuine_lan|ordered_durable_open|"
               "tcp_local --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

int bench_main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0)) return usage();
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage();
      }
      trace = value[0] == '1';
    } else {
      return usage();
    }
  }
  if (!fastcast::bench::build_is_benchmark_grade()) {
    fastcast::bench::warn_if_not_benchmark_grade("perfbench");
    std::fprintf(stderr, "perfbench: refusing to measure this build\n");
    return 3;
  }

  Result out;
  if (workload == "genuine_lan") {
    if (trace) {
      run_sim_traced(out, genuine_lan_config(seed), kGenuineSeeds, seconds,
                     false);
    } else {
      run_sim_timed(out, genuine_lan_config(seed), kGenuineSeeds, seconds,
                    "genuine_lan");
    }
  } else if (workload == "ordered_durable_open") {
    if (trace) {
      run_sim_traced(out, ordered_durable_config(seed), kOrderedSeeds, seconds,
                     true);
    } else {
      run_sim_timed(out, ordered_durable_config(seed), kOrderedSeeds, seconds,
                    "ordered_durable_open");
    }
  } else if (workload == "tcp_local") {
    run_tcp_workload(out, seed, seconds, trace);
  } else {
    return usage();
  }
  if (out.attempted == 0) out.fail("no multicast was attempted");
  if (trace) {
    if (workload == "genuine_lan") {
      print_bypasses(out, {"flow.", "storage.", "net.", "multipaxos."});
    } else if (workload == "ordered_durable_open") {
      print_bypasses(out, {"rmcast.", "net.", "amcast.fast_path_share",
                           "amcast.stage_", "amcast.handler_ns"});
    } else {
      print_bypasses(out, {"flow.", "storage.", "multipaxos."});
    }
  }
  out.print();
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::bench_main(argc, argv); }
