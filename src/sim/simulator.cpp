#include "fastcast/sim/simulator.hpp"

#include <deque>
#include <utility>

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"
#include "fastcast/obs/observability.hpp"

namespace fastcast::sim {

/// Per-node Context implementation. Sends issued during a handler are
/// buffered and flushed when the handler's CPU slice ends, so departure
/// times reflect processing cost.
class Simulator::NodeContext final : public Context {
 public:
  NodeContext(Simulator* sim, NodeId self) : sim_(sim), self_(self) {}

  NodeId self() const override { return self_; }
  Time now() const override { return sim_->now_; }
  Rng& rng() override;
  const Membership& membership() const override { return sim_->membership_; }

  void send(NodeId to, const Message& msg) override;
  void send(NodeId to, Message&& msg) override;
  void send_to_nodes(const std::vector<NodeId>& to, Message&& msg) override;
  TimerId set_timer(Duration delay, std::function<void()> cb) override;
  void cancel_timer(TimerId id) override;

 private:
  friend class Simulator;
  Simulator* sim_;
  NodeId self_;
  struct PendingSend {
    NodeId to;
    std::shared_ptr<const Message> msg;
  };
  std::vector<PendingSend> pending_;
};

struct Simulator::NodeState {
  NodeId id = kInvalidNode;
  std::shared_ptr<Process> process;
  std::unique_ptr<NodeContext> ctx;
  Rng rng;
  Time busy_until = 0;
  bool crashed = false;
  CpuModel cpu;
  std::unordered_map<TimerId, std::function<void()>> timers;
  std::deque<EventFn> inbox;  ///< tasks queued behind a busy CPU
  bool drain_scheduled = false;
};

Rng& Simulator::NodeContext::rng() { return sim_->nodes_[self_]->rng; }

void Simulator::NodeContext::send(NodeId to, const Message& msg) {
  FC_ASSERT(to < sim_->membership_.node_count());
  std::shared_ptr<const Message> shared;
  if (sim_->config_.serialize_messages) {
    // Round-trip through the codec so integration tests exercise exactly
    // the bytes the TCP transport would carry. The scratch buffer is owned
    // by the (single-threaded) simulator and reused across sends.
    encode_message_into(msg, sim_->codec_scratch_);
    auto decoded = std::make_shared<Message>();
    FC_ASSERT_MSG(decode_message(sim_->codec_scratch_, *decoded),
                  "codec round-trip failed");
    shared = std::move(decoded);
  } else {
    shared = std::make_shared<const Message>(msg);
  }
  pending_.push_back({to, std::move(shared)});
}

void Simulator::NodeContext::send(NodeId to, Message&& msg) {
  if (sim_->config_.serialize_messages) {
    // The serialize mode round-trips through the codec anyway; ownership
    // of the original buys nothing there.
    send(to, static_cast<const Message&>(msg));
    return;
  }
  FC_ASSERT(to < sim_->membership_.node_count());
  // Hot path: protocols overwhelmingly send freshly-built temporaries, and
  // a Message's payload carries vectors/strings — adopting it skips the
  // deep copy the const& path pays.
  pending_.push_back({to, std::make_shared<const Message>(std::move(msg))});
}

void Simulator::NodeContext::send_to_nodes(const std::vector<NodeId>& to,
                                           Message&& msg) {
  if (sim_->config_.serialize_messages) {
    // Every copy takes its own codec round trip, as N sends would.
    Context::send_to_nodes(to, std::move(msg));
    return;
  }
  // One immutable Message shared by every in-flight copy; each pending
  // entry is still charged, dropped and filtered on its own in flush_sends.
  auto shared = std::make_shared<const Message>(std::move(msg));
  for (NodeId n : to) {
    FC_ASSERT(n < sim_->membership_.node_count());
    pending_.push_back({n, shared});
  }
}

TimerId Simulator::NodeContext::set_timer(Duration delay, std::function<void()> cb) {
  FC_ASSERT(delay >= 0);
  auto& node = *sim_->nodes_[self_];
  const TimerId id = sim_->next_timer_id_++;
  node.timers.emplace(id, std::move(cb));
  const NodeId self = self_;
  Simulator* sim = sim_;
  sim_->queue_.push(sim_->now_ + delay, [sim, self, id] { sim->fire_timer(self, id); });
  return id;
}

void Simulator::NodeContext::cancel_timer(TimerId id) {
  sim_->nodes_[self_]->timers.erase(id);
}

Simulator::Simulator(const Membership& membership,
                     std::unique_ptr<LatencyModel> latency, SimConfig config)
    : membership_(membership),
      latency_(std::move(latency)),
      config_(config),
      net_rng_(config.seed ^ 0x90debeefULL) {
  FC_ASSERT(latency_ != nullptr);
  Rng seeder(config_.seed);
  nodes_.resize(membership_.node_count());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto state = std::make_unique<NodeState>();
    state->id = static_cast<NodeId>(i);
    state->ctx = std::make_unique<NodeContext>(this, state->id);
    state->rng = seeder.fork();
    state->cpu = config_.cpu;
    nodes_[i] = std::move(state);
  }
}

Simulator::~Simulator() = default;

void Simulator::add_process(NodeId node, std::shared_ptr<Process> process) {
  FC_ASSERT(node < nodes_.size());
  FC_ASSERT_MSG(nodes_[node]->process == nullptr, "process already registered");
  nodes_[node]->process = std::move(process);
}

void Simulator::start() {
  for (auto& node : nodes_) {
    FC_ASSERT_MSG(node->process != nullptr, "every node needs a process");
  }
  for (auto& node : nodes_) {
    run_handler(*node, now_, [&] { node->process->on_start(*node->ctx); });
  }
}

Context& Simulator::context(NodeId node) {
  FC_ASSERT(node < nodes_.size());
  return *nodes_[node]->ctx;
}

void Simulator::set_node_cpu(NodeId node, CpuModel cpu) {
  FC_ASSERT(node < nodes_.size());
  nodes_[node]->cpu = cpu;
}

void Simulator::set_node_storage(NodeId node, storage::NodeStorage* storage) {
  FC_ASSERT(node < nodes_.size());
  nodes_[node]->ctx->set_storage(storage);
}

void Simulator::set_observability(obs::Observability* o) {
  c_unicasts_ = o ? &o->metrics.counter("net.unicasts") : nullptr;
  c_dropped_ = o ? &o->metrics.counter("net.dropped") : nullptr;
  c_crashes_ = o ? &o->metrics.counter("fault.crashes") : nullptr;
  c_recoveries_ = o ? &o->metrics.counter("fault.recoveries") : nullptr;
  g_queue_hwm_ = o ? &o->metrics.gauge("sim.event_queue.high_water") : nullptr;
  last_reported_hwm_ = 0;
  if (g_queue_hwm_ != nullptr && queue_.high_water_mark() > 0) {
    last_reported_hwm_ = queue_.high_water_mark();
    g_queue_hwm_->record_max(static_cast<std::int64_t>(last_reported_hwm_));
  }
  for (auto& node : nodes_) node->ctx->set_observability(o);
}

void Simulator::crash(NodeId node) {
  FC_ASSERT(node < nodes_.size());
  auto& n = *nodes_[node];
  if (n.crashed) return;
  n.crashed = true;
  n.timers.clear();
  n.inbox.clear();
  if (c_crashes_) c_crashes_->inc();
  if (crash_hook_) crash_hook_(node);
}

void Simulator::schedule_crash(NodeId node, Time at) {
  queue_.push(at, [this, node] { crash(node); });
}

bool Simulator::is_crashed(NodeId node) const {
  FC_ASSERT(node < nodes_.size());
  return nodes_[node]->crashed;
}

void Simulator::recover(NodeId node) {
  FC_ASSERT(node < nodes_.size());
  auto& n = *nodes_[node];
  if (!n.crashed) return;
  FC_ASSERT_MSG(recovery_factory_ != nullptr, "recover needs a factory");
  n.crashed = false;
  n.busy_until = now_;
  n.inbox.clear();
  if (c_recoveries_) c_recoveries_->inc();
  // Real process death: the old object (and every bit of state not
  // recovered from storage by the factory) is discarded.
  n.process = recovery_factory_(node);
  FC_ASSERT_MSG(n.process != nullptr, "recovery factory built no process");
  NodeState* np = &n;
  run_handler(n, now_, [np] { np->process->on_recover(*np->ctx); });
}

void Simulator::schedule_recover(NodeId node, Time at) {
  queue_.push(at, [this, node] { recover(node); });
}

void Simulator::schedule_at(Time at, EventFn fn) {
  FC_ASSERT(at >= now_);
  queue_.push(at, std::move(fn));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // Export the queue's high-water mark lazily: only when it grew since the
  // last report, so the steady-state cost is one inline comparison.
  if (g_queue_hwm_ != nullptr && queue_.high_water_mark() > last_reported_hwm_) {
    last_reported_hwm_ = queue_.high_water_mark();
    g_queue_hwm_->record_max(static_cast<std::int64_t>(last_reported_hwm_));
  }
  auto event = queue_.pop();
  FC_ASSERT(event.at >= now_);
  now_ = event.at;
  ++events_processed_;
  event.fn();
  return true;
}

void Simulator::run_until(Time t) {
  while (!queue_.empty() && queue_.next_time() <= t) step();
  if (now_ < t) now_ = t;
}

bool Simulator::run_to_idle(Time limit) {
  while (!queue_.empty()) {
    if (queue_.next_time() > limit) return false;
    step();
  }
  return true;
}

void Simulator::run_handler(NodeState& node, Time at, EventFn&& body) {
  if (node.crashed) return;
  body();
  Duration cost =
      node.cpu.per_message +
      node.cpu.per_send * static_cast<Duration>(node.ctx->pending_.size());
  if (node.cpu.per_byte > 0) {
    // Bandwidth-proportional term: big frames (payload batches through
    // consensus, body dissemination) cost CPU/NIC time where small control
    // messages stay cheap. Charged on the sender, where the copy happens.
    std::uint64_t bytes = 0;
    for (const auto& send : node.ctx->pending_) {
      bytes += approx_wire_bytes(*send.msg);
    }
    cost += node.cpu.per_byte * static_cast<Duration>(bytes);
  }
  const Time done = at + cost;
  node.busy_until = done;
  flush_sends(node, done);
}

void Simulator::flush_sends(NodeState& node, Time departure) {
  for (auto& send : node.ctx->pending_) {
    ++messages_sent_;
    if (c_unicasts_) c_unicasts_->inc();
    const NodeId to = send.to;
    if (send_observer_) send_observer_(node.id, to, *send.msg);
    if (config_.drop_probability > 0.0 && to != node.id &&
        net_rng_.bernoulli(config_.drop_probability)) {
      ++messages_dropped_;
      if (c_dropped_) c_dropped_->inc();
      continue;
    }
    if (link_filter_ && !link_filter_(node.id, to, departure)) {
      ++messages_dropped_;
      if (c_dropped_) c_dropped_->inc();
      continue;
    }
    const Duration lat = latency_->sample(node.id, to, net_rng_);
    auto msg = std::move(send.msg);
    const NodeId from = node.id;
    queue_.push(departure + lat,
                [this, to, from, msg = std::move(msg)] { deliver(to, from, msg); });
  }
  node.ctx->pending_.clear();
}

void Simulator::execute_or_queue(NodeState& node, EventFn task) {
  if (node.crashed) return;
  if (node.busy_until > now_) {
    // The node's CPU is still occupied by an earlier handler: queue the
    // task in its inbox and make sure exactly one drain event exists.
    // One drain event per processed task keeps the cost linear even when
    // hundreds of arrivals pile up behind a saturated node.
    node.inbox.push_back(std::move(task));
    arm_drain(node);
    return;
  }
  run_handler(node, now_, std::move(task));
}

void Simulator::arm_drain(NodeState& node) {
  if (node.drain_scheduled) return;
  node.drain_scheduled = true;
  NodeState* n = &node;
  queue_.push(node.busy_until, [this, n] { drain_inbox(*n); });
}

void Simulator::drain_inbox(NodeState& node) {
  node.drain_scheduled = false;
  if (node.crashed) {
    node.inbox.clear();
    return;
  }
  if (node.busy_until > now_) {  // a timer/handler got in first
    arm_drain(node);
    return;
  }
  if (node.inbox.empty()) return;
  EventFn task = std::move(node.inbox.front());
  node.inbox.pop_front();
  run_handler(node, now_, std::move(task));
  if (!node.inbox.empty()) arm_drain(node);
}

void Simulator::deliver(NodeId to, NodeId from,
                        const std::shared_ptr<const Message>& msg) {
  auto& node = *nodes_[to];
  if (node.crashed) return;
  NodeState* n = &node;
  execute_or_queue(node, [n, from, msg] {
    n->process->on_message(*n->ctx, from, *msg);
  });
}

void Simulator::fire_timer(NodeId nid, TimerId id) {
  auto& node = *nodes_[nid];
  if (node.crashed) return;
  NodeState* n = &node;
  execute_or_queue(node, [n, id] {
    auto it = n->timers.find(id);
    if (it == n->timers.end()) return;  // cancelled (possibly while queued)
    auto cb = std::move(it->second);
    n->timers.erase(it);
    cb();
  });
}

}  // namespace fastcast::sim
