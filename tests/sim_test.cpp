// Discrete-event simulator tests: event ordering, latency models, CPU
// queueing, fault injection, determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "fastcast/sim/chaos.hpp"
#include "fastcast/sim/event_queue.hpp"
#include "fastcast/sim/simulator.hpp"

namespace fastcast::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTime) {
  EventQueue q;
  q.push(42, [] {});
  EXPECT_EQ(q.next_time(), 42);
}

TEST(EventQueue, PoolRecyclesNodesInSteadyState) {
  EventQueue q;
  for (int i = 0; i < 64; ++i) q.push(i, [] {});
  const std::size_t pool_after_fill = q.pool_size();
  // Steady-state churn at constant depth must not grow the pool: every
  // pop returns a node to the free list that the next push reuses.
  for (int i = 0; i < 10'000; ++i) {
    q.pop().fn();
    q.push(1'000 + i, [] {});
  }
  EXPECT_EQ(q.pool_size(), pool_after_fill);
  EXPECT_EQ(q.size(), 64u);
}

TEST(EventQueue, HighWaterMarkTracksPeakDepth) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.push(i, [] {});
  for (int i = 0; i < 10; ++i) q.pop().fn();
  EXPECT_EQ(q.high_water_mark(), 10u);
  for (int i = 0; i < 3; ++i) q.push(i, [] {});
  EXPECT_EQ(q.high_water_mark(), 10u);  // peak, not current depth
  EXPECT_EQ(q.pushed_count(), 13u);
}

TEST(EventQueue, LargeClosuresFallBackToHeapCorrectly) {
  // Captures past EventFn's inline buffer must still run and destruct
  // exactly once (the fallback boxes them in a single heap allocation).
  struct Big {
    std::array<std::uint64_t, 16> data;  // 128 bytes, over kInlineBytes
    std::shared_ptr<int> alive;
  };
  auto alive = std::make_shared<int>(0);
  EventQueue q;
  Big big{{}, alive};
  big.data[7] = 99;
  std::uint64_t seen = 0;
  q.push(1, [big, &seen] { seen = big.data[7]; });
  big.alive.reset();
  EXPECT_EQ(alive.use_count(), 2);  // `alive` + the queued closure's copy
  q.pop().fn();
  EXPECT_EQ(seen, 99u);
  EXPECT_EQ(alive.use_count(), 1);  // closure destroyed after the pop
}

TEST(EventQueue, StressOrderingMatchesStableSortReference) {
  // Adversarial interleaving of pushes and pops with heavy time ties: the
  // observed execution order must equal a stable sort by (time, push
  // index) — the queue's determinism contract.
  EventQueue q;
  std::vector<std::pair<Time, int>> pushed;  // (time, id)
  std::vector<int> executed;
  int next_id = 0;
  std::uint64_t rng = 12345;
  auto rnd = [&rng](std::uint64_t mod) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % mod;
  };
  Time floor_time = 0;  // pops raise the floor; later pushes stay above it
  for (int round = 0; round < 2'000; ++round) {
    if (q.empty() || rnd(3) != 0) {
      const Time at = floor_time + static_cast<Time>(rnd(8));
      const int id = next_id++;
      pushed.push_back({at, id});
      q.push(at, [id, &executed] { executed.push_back(id); });
    } else {
      floor_time = q.next_time();
      q.pop().fn();
    }
  }
  while (!q.empty()) q.pop().fn();

  std::stable_sort(pushed.begin(), pushed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(executed.size(), pushed.size());
  for (std::size_t i = 0; i < pushed.size(); ++i) {
    EXPECT_EQ(executed[i], pushed[i].second) << "at position " << i;
  }
}

TEST(Latency, ConstantNominal) {
  ConstantLatency lat(milliseconds(5));
  Rng rng(1);
  EXPECT_EQ(lat.nominal(0, 1), milliseconds(5));
  EXPECT_EQ(lat.sample(0, 1, rng), milliseconds(5));  // no jitter configured
}

TEST(Latency, JitterStaysPositiveAndCentered) {
  ConstantLatency lat(milliseconds(10), 0.05);
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    const Duration d = lat.sample(0, 1, rng);
    ASSERT_GT(d, 0);
    sum += static_cast<double>(d);
  }
  EXPECT_NEAR(sum / 5000, static_cast<double>(milliseconds(10)),
              static_cast<double>(milliseconds(10)) * 0.01);
}

Membership wan_membership() {
  Membership m;
  m.add_group(3, {0, 1, 2});
  m.add_group(3, {0, 1, 2});
  m.add_client(0);
  return m;
}

TEST(Latency, PaperWanMatrix) {
  const Membership m = wan_membership();
  auto lat = make_paper_wan(&m);
  // Nodes 0,3 in R1; 1,4 in R2; 2,5 in R3.
  EXPECT_EQ(lat->nominal(0, 3), milliseconds_f(0.05));  // intra-region
  EXPECT_EQ(lat->nominal(0, 1), milliseconds(35));      // R1-R2
  EXPECT_EQ(lat->nominal(1, 2), milliseconds(35));      // R2-R3
  EXPECT_EQ(lat->nominal(0, 2), milliseconds(72));      // R1-R3
  EXPECT_EQ(lat->nominal(2, 0), milliseconds(72));      // symmetric
}

/// Minimal ping/pong processes for simulator behaviour tests.
class Recorder : public Process {
 public:
  void on_message(Context& ctx, NodeId from, const Message& msg) override {
    received.push_back({ctx.now(), from});
    if (reply_to != kInvalidNode) ctx.send(reply_to, msg);
  }
  struct Event {
    Time at;
    NodeId from;
  };
  std::vector<Event> received;
  NodeId reply_to = kInvalidNode;
};

class Starter : public Process {
 public:
  explicit Starter(std::function<void(Context&)> fn) : fn_(std::move(fn)) {}
  void on_start(Context& ctx) override { fn_(ctx); }
  void on_message(Context&, NodeId, const Message&) override {}

 private:
  std::function<void(Context&)> fn_;
};

Membership two_nodes() {
  Membership m;
  m.add_group(1, {0});
  m.add_group(1, {0});
  return m;
}

TEST(Simulator, DeliversWithLatency) {
  SimConfig cfg;
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(milliseconds(3)), cfg);
  auto rec = std::make_shared<Recorder>();
  sim.add_process(0, std::make_shared<Starter>([](Context& ctx) {
    ctx.send(1, Message{RmAck{0, 1}});
  }));
  sim.add_process(1, rec);
  sim.start();
  sim.run_to_idle();
  ASSERT_EQ(rec->received.size(), 1u);
  EXPECT_EQ(rec->received[0].at, milliseconds(3));
  EXPECT_EQ(rec->received[0].from, 0u);
}

TEST(Simulator, TimersFireAndCancel) {
  SimConfig cfg;
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(1), cfg);
  std::vector<int> fired;
  sim.add_process(0, std::make_shared<Starter>([&fired](Context& ctx) {
    ctx.set_timer(milliseconds(5), [&fired] { fired.push_back(1); });
    const TimerId cancelled =
        ctx.set_timer(milliseconds(6), [&fired] { fired.push_back(2); });
    ctx.set_timer(milliseconds(7), [&fired] { fired.push_back(3); });
    ctx.cancel_timer(cancelled);
  }));
  sim.add_process(1, std::make_shared<Recorder>());
  sim.start();
  sim.run_to_idle();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(Simulator, CpuCostSerializesArrivals) {
  SimConfig cfg;
  cfg.cpu = CpuModel{milliseconds(2), 0};
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(milliseconds(1)), cfg);
  auto rec = std::make_shared<Recorder>();
  sim.add_process(0, std::make_shared<Starter>([](Context& ctx) {
    for (int i = 0; i < 3; ++i) ctx.send(1, Message{RmAck{0, 1}});
  }));
  sim.add_process(1, rec);
  sim.start();
  sim.run_to_idle();
  ASSERT_EQ(rec->received.size(), 3u);
  // First arrival processed at t≈3ms (send departs at 2ms CPU end + 1ms
  // latency); the second waits for the 2ms handler, the third for two.
  EXPECT_EQ(rec->received[0].at, milliseconds(3));
  EXPECT_EQ(rec->received[1].at, milliseconds(5));
  EXPECT_EQ(rec->received[2].at, milliseconds(7));
}

TEST(Simulator, CrashStopsDelivery) {
  SimConfig cfg;
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(milliseconds(5)), cfg);
  auto rec = std::make_shared<Recorder>();
  sim.add_process(0, std::make_shared<Starter>([](Context& ctx) {
    ctx.send(1, Message{RmAck{0, 1}});
  }));
  sim.add_process(1, rec);
  sim.schedule_crash(1, milliseconds(2));
  sim.start();
  sim.run_to_idle();
  EXPECT_TRUE(sim.is_crashed(1));
  EXPECT_TRUE(rec->received.empty());
}

TEST(Simulator, DropProbabilityDropsRoughlyThatFraction) {
  SimConfig cfg;
  cfg.drop_probability = 0.3;
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(1), cfg);
  auto rec = std::make_shared<Recorder>();
  sim.add_process(0, std::make_shared<Starter>([](Context& ctx) {
    for (int i = 0; i < 2000; ++i) ctx.send(1, Message{RmAck{0, 1}});
  }));
  sim.add_process(1, rec);
  sim.start();
  sim.run_to_idle();
  EXPECT_NEAR(static_cast<double>(rec->received.size()), 1400.0, 100.0);
  EXPECT_EQ(sim.messages_dropped() + rec->received.size(), 2000u);
}

TEST(Simulator, LinkFilterImplementsPartition) {
  SimConfig cfg;
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(1), cfg);
  auto rec = std::make_shared<Recorder>();
  sim.add_process(0, std::make_shared<Starter>([](Context& ctx) {
    ctx.send(1, Message{RmAck{0, 1}});
    ctx.set_timer(milliseconds(10), [&ctx] { ctx.send(1, Message{RmAck{0, 2}}); });
  }));
  sim.add_process(1, rec);
  sim.set_link_filter([](NodeId, NodeId, Time at) { return at >= milliseconds(5); });
  sim.start();
  sim.run_to_idle();
  ASSERT_EQ(rec->received.size(), 1u);  // only the post-heal message
}

TEST(Simulator, SerializeMessagesModeRoundTripsEverySend) {
  SimConfig cfg;
  cfg.serialize_messages = true;
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(1), cfg);
  auto rec = std::make_shared<Recorder>();
  sim.add_process(0, std::make_shared<Starter>([](Context& ctx) {
    MulticastMessage m;
    m.id = make_msg_id(0, 1);
    m.sender = 0;
    m.dst = {0, 1};
    m.payload = "hello";
    ctx.send(1, Message{MpSubmit{m}});
  }));
  sim.add_process(1, rec);
  sim.start();
  sim.run_to_idle();
  EXPECT_EQ(rec->received.size(), 1u);
}

/// Records the address and arrival time of every message it receives.
class AddressRecorder : public Process {
 public:
  void on_message(Context& ctx, NodeId, const Message& msg) override {
    std::vector<std::byte> bytes;
    encode_message_into(msg, bytes);
    seen.push_back({&msg, ctx.now(), std::move(bytes)});
  }
  struct Seen {
    const Message* addr;
    Time at;
    std::vector<std::byte> bytes;  ///< the message as the codec encodes it
  };
  std::vector<Seen> seen;
};

TEST(Simulator, SendToNodesSharesOneMessage) {
  // Node 0 sends one P2a to nodes 1-3 twice, at 0 and at 10 ms, either as
  // one send_to_nodes fan-out or as three single sends. Everything the
  // simulator charges or draws per unicast must come out the same.
  struct Outcome {
    std::vector<std::vector<Time>> arrivals;  // per receiver
    std::vector<std::vector<const Message*>> addrs;
    std::vector<Time> sender_free;  // when the sending handler's CPU ended
    std::uint64_t dropped = 0;
    std::vector<std::vector<std::byte>> payloads;
  };
  auto run = [](bool fan_out, SimConfig cfg, bool partition_node2) {
    cfg.cpu = CpuModel{microseconds(5), microseconds(3), 2};
    Membership m;
    m.add_group(4, {0, 0, 0, 0});
    Simulator sim(m, std::make_unique<ConstantLatency>(milliseconds(1), 0.2),
                  cfg);
    Outcome out;
    auto send = [fan_out, &out](Context& ctx) {
      const std::vector<NodeId> to{1, 2, 3};
      P2a accept{0, Ballot{1, 0}, 7,
                 std::vector<std::byte>(100, std::byte{0x5a})};
      if (fan_out) {
        ctx.send_to_nodes(to, Message{std::move(accept)});
      } else {
        for (NodeId n : to) ctx.send(n, Message{accept});
      }
      // Runs once the sending handler's CPU slice (and so busy_until) ends.
      ctx.set_timer(0, [&out, &ctx] { out.sender_free.push_back(ctx.now()); });
    };
    sim.add_process(0, std::make_shared<Starter>([send](Context& ctx) {
      send(ctx);
      ctx.set_timer(milliseconds(10), [send, &ctx] { send(ctx); });
    }));
    std::vector<std::shared_ptr<AddressRecorder>> recs;
    for (NodeId n = 1; n <= 3; ++n) {
      recs.push_back(std::make_shared<AddressRecorder>());
      sim.add_process(n, recs.back());
    }
    if (partition_node2) {
      sim.set_link_filter([](NodeId, NodeId to, Time) { return to != 2; });
    }
    sim.start();
    sim.run_to_idle();
    for (const auto& rec : recs) {
      out.arrivals.emplace_back();
      out.addrs.emplace_back();
      for (const auto& s : rec->seen) {
        out.arrivals.back().push_back(s.at);
        out.addrs.back().push_back(s.addr);
        out.payloads.push_back(s.bytes);
      }
    }
    out.dropped = sim.messages_dropped();
    return out;
  };

  // Timing: per_send, per_byte and the latency draws apply per copy.
  {
    const Outcome shared = run(true, SimConfig{}, false);
    const Outcome single = run(false, SimConfig{}, false);
    EXPECT_EQ(shared.arrivals, single.arrivals);
    EXPECT_EQ(shared.sender_free, single.sender_free);
    ASSERT_EQ(shared.sender_free.size(), 2u);
    // per_message + 3 x (per_send + per_byte x wire bytes): every copy
    // is charged, not just the one shared object.
    const Message probe{P2a{0, Ballot{1, 0}, 7,
                            std::vector<std::byte>(100, std::byte{0x5a})}};
    const auto per_copy = microseconds(3) +
                          2 * static_cast<Duration>(approx_wire_bytes(probe));
    EXPECT_EQ(shared.sender_free[0], microseconds(5) + 3 * per_copy);
    // Every receiver of one fan-out sees the same immutable object.
    for (std::size_t round = 0; round < 2; ++round) {
      EXPECT_EQ(shared.addrs[0][round], shared.addrs[1][round]);
      EXPECT_EQ(shared.addrs[0][round], shared.addrs[2][round]);
    }
    EXPECT_EQ(shared.payloads, single.payloads);
  }

  // Drops and the link filter apply to each copy on its own: with the same
  // network seed both forms lose the same copies, and node 2 gets none.
  {
    SimConfig lossy;
    lossy.seed = 11;
    lossy.drop_probability = 0.3;
    const Outcome shared = run(true, lossy, true);
    const Outcome single = run(false, lossy, true);
    EXPECT_EQ(shared.arrivals, single.arrivals);
    EXPECT_EQ(shared.dropped, single.dropped);
    EXPECT_TRUE(shared.arrivals[1].empty());
    EXPECT_GE(shared.dropped, 2u);
  }

  // Serialize mode round-trips every copy through the codec separately.
  {
    SimConfig serialize;
    serialize.serialize_messages = true;
    const Outcome shared = run(true, serialize, false);
    const Outcome single = run(false, serialize, false);
    EXPECT_EQ(shared.arrivals, single.arrivals);
    EXPECT_EQ(shared.payloads, single.payloads);
    EXPECT_NE(shared.addrs[0][0], shared.addrs[1][0]);
    EXPECT_NE(shared.addrs[1][0], shared.addrs[2][0]);
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    SimConfig cfg;
    cfg.seed = seed;
    cfg.drop_probability = 0.1;
    Simulator sim(two_nodes(),
                  std::make_unique<ConstantLatency>(milliseconds(1), 0.05), cfg);
    auto rec = std::make_shared<Recorder>();
    sim.add_process(0, std::make_shared<Starter>([](Context& ctx) {
      for (std::uint64_t i = 0; i < 500; ++i) ctx.send(1, Message{RmAck{0, i}});
    }));
    sim.add_process(1, rec);
    sim.start();
    sim.run_to_idle();
    Time last = rec->received.empty() ? 0 : rec->received.back().at;
    return std::make_tuple(rec->received.size(), last, sim.messages_dropped());
  };
  const auto a = run(77);
  const auto b = run(77);
  EXPECT_EQ(a, b);
  const auto c = run(78);
  EXPECT_NE(std::get<1>(a), std::get<1>(c));  // different seed, different jitter
}

/// Lifecycle calls and ticks of one node, shared by every process object
/// the node runs: the original and each one rebuilt after a crash.
struct Lifecycle {
  int starts = 0;
  int recovers = 0;
  std::vector<Time> ticks;
};

/// Process that arms a repeating tick and records lifecycle calls, for the
/// crash-recovery semantics tests.
class TickingProcess : public Process {
 public:
  explicit TickingProcess(std::shared_ptr<Lifecycle> log)
      : log_(std::move(log)) {}
  void on_start(Context& ctx) override {
    ++log_->starts;
    arm(ctx);
  }
  void on_recover(Context& ctx) override {
    ++log_->recovers;
    arm(ctx);
  }
  void on_message(Context&, NodeId, const Message&) override {}

 private:
  void arm(Context& ctx) {
    ctx.set_timer(milliseconds(10), [this, &ctx] {
      log_->ticks.push_back(ctx.now());
      arm(ctx);
    });
  }

  std::shared_ptr<Lifecycle> log_;
};

/// Recovery rebuilds a node as a new TickingProcess on the node's log.
void rebuild_ticking(Simulator& sim,
                     const std::vector<std::shared_ptr<Lifecycle>>& logs) {
  sim.set_recovery_factory([logs](NodeId n) -> std::shared_ptr<Process> {
    return std::make_shared<TickingProcess>(logs[n]);
  });
}

TEST(Simulator, RecoverRunsOnRecoverAndResumesTimers) {
  SimConfig cfg;
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(1), cfg);
  auto log = std::make_shared<Lifecycle>();
  auto original = std::make_shared<TickingProcess>(log);
  std::weak_ptr<TickingProcess> alive = original;
  sim.add_process(0, std::move(original));
  sim.add_process(1, std::make_shared<Recorder>());
  rebuild_ticking(sim, {log, nullptr});
  sim.schedule_crash(0, milliseconds(35));
  sim.schedule_recover(0, milliseconds(100));
  sim.start();
  sim.run_until(milliseconds(165));

  EXPECT_EQ(log->starts, 1);
  EXPECT_EQ(log->recovers, 1);
  EXPECT_FALSE(sim.is_crashed(0));
  // The crashed object is gone; a rebuilt one took its place.
  EXPECT_TRUE(alive.expired());
  // Ticks at 10,20,30 — crash kills the armed timer — then the new
  // process's chain starts relative to the recovery time: 110,120,...,160.
  ASSERT_EQ(log->ticks.size(), 9u);
  EXPECT_EQ(log->ticks[2], milliseconds(30));
  EXPECT_EQ(log->ticks[3], milliseconds(110));
  EXPECT_EQ(log->ticks.back(), milliseconds(160));
}

TEST(SimulatorDeathTest, RecoverWithoutFactoryAsserts) {
  SimConfig cfg;
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(1), cfg);
  sim.add_process(
      0, std::make_shared<TickingProcess>(std::make_shared<Lifecycle>()));
  sim.add_process(1, std::make_shared<Recorder>());
  sim.start();
  sim.crash(0);
  // A restart is always a rebuilt process; there is no object to keep.
  EXPECT_DEATH(sim.recover(0), "recover needs a factory");
}

TEST(Simulator, RecoverIsNoOpOnLiveNodeAndCrashIsIdempotent) {
  SimConfig cfg;
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(1), cfg);
  auto log = std::make_shared<Lifecycle>();
  sim.add_process(0, std::make_shared<TickingProcess>(log));
  sim.add_process(1, std::make_shared<Recorder>());
  rebuild_ticking(sim, {log, nullptr});
  sim.start();
  sim.recover(0);  // not crashed: must not re-run on_recover
  EXPECT_EQ(log->recovers, 0);
  sim.crash(0);
  sim.crash(0);  // second crash is a no-op
  EXPECT_TRUE(sim.is_crashed(0));
}

TEST(Simulator, ScheduleAtRunsSimulationLevelActions) {
  SimConfig cfg;
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(1), cfg);
  sim.add_process(0, std::make_shared<Recorder>());
  sim.add_process(1, std::make_shared<Recorder>());
  std::vector<Time> at;
  sim.schedule_at(milliseconds(7), [&] { at.push_back(sim.now()); });
  sim.schedule_at(milliseconds(3), [&] { at.push_back(sim.now()); });
  sim.start();
  sim.run_to_idle();
  EXPECT_EQ(at, (std::vector<Time>{milliseconds(3), milliseconds(7)}));
}

// --- ChaosSchedule ---------------------------------------------------------

Membership chaos_membership() {
  Membership m;
  m.add_group(3, {0, 0, 0});
  m.add_group(3, {0, 0, 0});
  m.add_client(0);
  return m;
}

ChaosConfig chaos_config() {
  ChaosConfig cfg;
  cfg.start = milliseconds(10);
  cfg.end = milliseconds(500);
  cfg.crashes = 4;
  cfg.min_downtime = milliseconds(20);
  cfg.max_downtime = milliseconds(60);
  cfg.drop_bursts = 2;
  cfg.min_burst = milliseconds(10);
  cfg.max_burst = milliseconds(40);
  cfg.partitions = 2;
  cfg.min_partition = milliseconds(10);
  cfg.max_partition = milliseconds(40);
  return cfg;
}

TEST(ChaosSchedule, IsDeterministicPerSeedAndVariesAcrossSeeds) {
  const Membership m = chaos_membership();
  const auto a = ChaosSchedule::generate(m, chaos_config(), 7);
  const auto b = ChaosSchedule::generate(m, chaos_config(), 7);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
  }
  const auto c = ChaosSchedule::generate(m, chaos_config(), 8);
  EXPECT_NE(a.describe(), c.describe());
}

TEST(ChaosSchedule, RespectsFaultAssumptions) {
  const Membership m = chaos_membership();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto s = ChaosSchedule::generate(m, chaos_config(), seed);
    // Crash windows per group never overlap, every crash recovers inside
    // the campaign window, and clients are never targeted.
    std::map<GroupId, std::vector<std::pair<Time, Time>>> windows;
    std::map<NodeId, Time> open;
    for (const auto& e : s.events()) {
      if (e.kind == ChaosEvent::Kind::kCrash) {
        EXPECT_FALSE(m.is_client(e.node));
        open[e.node] = e.at;
      } else if (e.kind == ChaosEvent::Kind::kRecover) {
        ASSERT_TRUE(open.contains(e.node));
        EXPECT_LE(e.at, chaos_config().end);
        windows[m.group_of(e.node)].push_back({open[e.node], e.at});
        open.erase(e.node);
      } else if (e.kind == ChaosEvent::Kind::kPartitionStart) {
        EXPECT_FALSE(m.is_client(e.node));
      }
    }
    EXPECT_TRUE(open.empty()) << "unrecovered crash, seed " << seed;
    for (auto& [g, w] : windows) {
      std::sort(w.begin(), w.end());
      for (std::size_t i = 1; i < w.size(); ++i) {
        EXPECT_GE(w[i].first, w[i - 1].second)
            << "overlapping crashes in group " << g << ", seed " << seed;
      }
    }
  }
}

TEST(ChaosSchedule, ApplyInjectsCrashAndRecovery) {
  Membership m = chaos_membership();
  SimConfig cfg;
  Simulator sim(m, std::make_unique<ConstantLatency>(1), cfg);
  std::vector<std::shared_ptr<Lifecycle>> logs;
  for (NodeId n = 0; n < m.node_count(); ++n) {
    logs.push_back(std::make_shared<Lifecycle>());
    sim.add_process(n, std::make_shared<TickingProcess>(logs.back()));
  }
  rebuild_ticking(sim, logs);
  ChaosConfig ccfg = chaos_config();
  ccfg.drop_bursts = 0;
  ccfg.partitions = 0;
  const auto schedule = ChaosSchedule::generate(m, ccfg, 3);
  ASSERT_FALSE(schedule.events().empty());
  schedule.apply(sim);
  sim.start();
  sim.run_until(milliseconds(600));
  int recovered = 0;
  for (const auto& log : logs) recovered += log->recovers;
  EXPECT_GT(recovered, 0);
  for (NodeId n = 0; n < m.node_count(); ++n) {
    EXPECT_FALSE(sim.is_crashed(n)) << "node " << n;
  }
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  SimConfig cfg;
  Simulator sim(two_nodes(), std::make_unique<ConstantLatency>(1), cfg);
  sim.add_process(0, std::make_shared<Recorder>());
  sim.add_process(1, std::make_shared<Recorder>());
  sim.start();
  sim.run_until(seconds(3));
  EXPECT_EQ(sim.now(), seconds(3));
}

}  // namespace
}  // namespace fastcast::sim
