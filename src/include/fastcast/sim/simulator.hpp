#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fastcast/runtime/context.hpp"
#include "fastcast/sim/event_queue.hpp"
#include "fastcast/sim/latency.hpp"

/// \file simulator.hpp
/// Deterministic discrete-event simulator.
///
/// Each node runs a Process single-threadedly. Message sends are scheduled
/// through a LatencyModel; a per-node CPU model serialises handler execution
/// (a node that is still "busy" defers later arrivals), which reproduces the
/// queueing/saturation effects the paper's throughput experiments hinge on —
/// e.g. MultiPaxos' fixed ordering group becoming CPU-bound (Fig. 3).
///
/// Determinism: one event queue ordered by (time, insertion seq); all
/// randomness (jitter, drops, per-node RNGs) derives from a single seed.

namespace fastcast {
namespace obs {
class Observability;
class Counter;
class Gauge;
}  // namespace obs

namespace sim {

/// Models per-message processing cost on a node.
///
/// Handling one inbound message (or timer) costs
///   per_message + per_send × (#unicasts issued by the handler)
/// of exclusive CPU time; outbound messages depart when the handler's CPU
/// slice ends. Zero costs give an infinitely fast node.
struct CpuModel {
  Duration per_message = 0;
  Duration per_send = 0;
  /// Serialization/copy cost per estimated wire byte of each outbound
  /// unicast (approx_wire_bytes). 0 — the default — keeps message size
  /// free, preserving the historical model; throughput experiments that
  /// care where payload *bytes* flow (dissemination/ordering splits) set
  /// it to a NIC/memcpy-scale figure, e.g. 1ns/byte ≈ 1 GB/s per node.
  Duration per_byte = 0;
};

struct SimConfig {
  std::uint64_t seed = 1;
  CpuModel cpu;                  ///< default CPU model for every node
  double drop_probability = 0;   ///< fair-lossy links: P(drop) per unicast
  bool serialize_messages = false;  ///< encode+decode each send (codec soak)
};

class Simulator {
 public:
  Simulator(const Membership& membership, std::unique_ptr<LatencyModel> latency,
            SimConfig config);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers the Process for a node. Every node in the membership must be
  /// registered before start(). The simulator keeps the process alive.
  void add_process(NodeId node, std::shared_ptr<Process> process);

  /// Calls on_start on every process (in node order).
  void start();

  Time now() const { return now_; }
  const Membership& membership() const { return membership_; }

  /// Executes a single event. Returns false when the queue is empty.
  bool step();

  /// Runs until virtual time would exceed `t` (events at exactly `t` run).
  void run_until(Time t);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Runs until no events remain or `limit` is hit; returns true if the
  /// queue drained (the usual quiescence check in tests).
  bool run_to_idle(Time limit = std::numeric_limits<Time>::max());

  // Fault injection ----------------------------------------------------------

  /// Crashes a node now: pending and future events for it are discarded.
  void crash(NodeId node);
  void schedule_crash(NodeId node, Time at);
  bool is_crashed(NodeId node) const;

  /// Restarts a crashed node as a real process death would: the old
  /// Process object is discarded and the recovery factory's product
  /// (typically rebuilt from the node's snapshot + WAL) takes its place and
  /// runs on_recover. Every timer armed before the crash is gone. Recovering
  /// without a factory, or with one that returns null, fails an FC_ASSERT.
  /// No-op if the node is not crashed.
  void recover(NodeId node);
  void schedule_recover(NodeId node, Time at);

  /// Called synchronously inside crash(), after the node's timers/inbox are
  /// discarded. The durable harness uses it to drop the node's unsynced
  /// storage bytes (emulating what kill -9 loses).
  using CrashHook = std::function<void(NodeId)>;
  void set_crash_hook(CrashHook hook) { crash_hook_ = std::move(hook); }

  /// Builds the process that replaces a crashed node on recover().
  using RecoveryFactory = std::function<std::shared_ptr<Process>(NodeId)>;
  void set_recovery_factory(RecoveryFactory factory) {
    recovery_factory_ = std::move(factory);
  }

  /// Attaches a node's durable-storage handle to its context (null detaches).
  void set_node_storage(NodeId node, storage::NodeStorage* storage);

  /// Schedules an arbitrary simulation-level action (chaos campaigns use
  /// this for drop bursts and partition windows). Runs at virtual time `at`
  /// outside any node's CPU model.
  void schedule_at(Time at, EventFn fn);

  void set_drop_probability(double p) { config_.drop_probability = p; }
  double drop_probability() const { return config_.drop_probability; }

  /// Arbitrary link filter (partitions): return false to drop the unicast.
  using LinkFilter = std::function<bool(NodeId from, NodeId to, Time at)>;
  void set_link_filter(LinkFilter filter) { link_filter_ = std::move(filter); }

  /// Overrides the CPU model of one node (e.g. a slow replica).
  void set_node_cpu(NodeId node, CpuModel cpu);

  /// Installs the run-wide observability bundle on every node context and
  /// wires the simulator's own network counters. Pass null to detach.
  void set_observability(obs::Observability* o);

  // Introspection -------------------------------------------------------------

  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }

  /// Largest number of simultaneously pending events observed so far (also
  /// exported as the "sim.event_queue.high_water" gauge when observability
  /// is attached).
  std::size_t event_queue_high_water() const { return queue_.high_water_mark(); }

  /// Context of a node, e.g. for tests that poke protocol objects directly.
  Context& context(NodeId node);

  /// Observes every unicast as it leaves a node (before loss/partition
  /// filtering). Used by the genuineness tests to assert which processes
  /// communicate at all.
  using SendObserver = std::function<void(NodeId from, NodeId to, const Message&)>;
  void set_send_observer(SendObserver observer) {
    send_observer_ = std::move(observer);
  }

 private:
  class NodeContext;
  struct NodeState;

  void deliver(NodeId to, NodeId from, const std::shared_ptr<const Message>& msg);
  void fire_timer(NodeId node, TimerId id);
  void execute_or_queue(NodeState& node, EventFn task);
  void arm_drain(NodeState& node);
  void drain_inbox(NodeState& node);
  void flush_sends(NodeState& node, Time departure);
  void run_handler(NodeState& node, Time at, EventFn&& body);

  Membership membership_;
  std::unique_ptr<LatencyModel> latency_;
  SimConfig config_;
  EventQueue queue_;
  Time now_ = 0;
  Rng net_rng_;
  std::vector<std::byte> codec_scratch_;  ///< reused by serialize_messages mode

  std::vector<std::unique_ptr<NodeState>> nodes_;

  std::uint64_t events_processed_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
  TimerId next_timer_id_ = 1;
  LinkFilter link_filter_;
  SendObserver send_observer_;
  CrashHook crash_hook_;
  RecoveryFactory recovery_factory_;

  // Cached instruments (looked up once in set_observability; null when off).
  obs::Counter* c_unicasts_ = nullptr;
  obs::Counter* c_dropped_ = nullptr;
  obs::Counter* c_crashes_ = nullptr;
  obs::Counter* c_recoveries_ = nullptr;
  obs::Gauge* g_queue_hwm_ = nullptr;
  std::size_t last_reported_hwm_ = 0;
};

}  // namespace sim
}  // namespace fastcast
