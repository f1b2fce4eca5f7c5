// Ablation benches for the implementation's design choices (DESIGN.md §3):
//
//   B. Consensus pipeline depth. A window smaller than
//      1 + destinations stalls the fast path by a full consensus round.
//   D. Reliable-multicast relay: agreement insurance for crashed senders,
//      priced in latency.
//
// B and D keep their letters so they match the records in EXPERIMENTS.md,
// which also holds the last numbers of the retired A and C.

#include "bench_util.hpp"

using namespace fastcast;
using namespace fastcast::bench;

namespace {

ExperimentConfig wan_fastcast(std::size_t groups) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kEmulatedWan;
  cfg.topo.groups = groups;
  cfg.topo.clients = 1;
  cfg.topo.protocol = Protocol::kFastCast;
  cfg.dst_factory = same_dst_for_all(all_groups(groups));
  cfg.warmup = milliseconds(600);
  cfg.measure = milliseconds(3000);
  cfg.check_level = Checker::Level::kFast;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_cli(argc, argv, "ablations");
  {
    Table t("Ablation B — consensus pipeline depth, FastCast, emulated WAN, "
            "1 client to 4 groups [median ms (p95)]",
            {"window", "latency"});
    for (std::size_t window : {2, 4, 8, 32}) {
      auto cfg = wan_fastcast(4);
      cfg.consensus_window = window;
      const auto r = run_configured(cfg);
      note_result("Ablation B", std::to_string(window), "FastCast", r);
      t.add_row({std::to_string(window), lat_cell(r)});
    }
    t.print("a window below 1 + #destinations serialises the SYNC-SOFT "
            "proposals behind SET-HARD");
  }

  {
    Table t("Ablation D — reliable-multicast relay policy, FastCast, LAN, "
            "8 clients to 2 of 4 groups",
            {"relay", "median ms", "messages sent"});
    for (auto relay : {RmConfig::Relay::kNone, RmConfig::Relay::kSelf}) {
      ExperimentConfig cfg;
      cfg.topo.env = Environment::kLan;
      cfg.topo.groups = 4;
      cfg.topo.clients = 8;
      cfg.topo.protocol = Protocol::kFastCast;
      cfg.dst_factory = same_dst_for_all(random_subset(4, 2));
      cfg.warmup = milliseconds(100);
      cfg.measure = milliseconds(400);
      cfg.relay = relay;
      const auto r = run_configured(cfg);
      check_or_warn(r, "ablation D");
      note_result("Ablation D",
                  relay == RmConfig::Relay::kNone ? "none" : "every receiver",
                  "FastCast", r);
      t.add_row({relay == RmConfig::Relay::kNone ? "none" : "every receiver",
                 format_ms(r.latency.median()),
                 fmt_count(static_cast<double>(r.messages_sent))});
    }
    t.print("relaying buys sender-crash agreement for a few percent more "
            "messages but a multiple of the latency");
  }
  return finish_bench("ablations");
}
