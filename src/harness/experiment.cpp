#include "fastcast/harness/experiment.hpp"

#include "fastcast/amcast/basecast.hpp"
#include "fastcast/amcast/multipaxos_amcast.hpp"
#include "fastcast/common/assert.hpp"

namespace fastcast::harness {

Cluster::Cluster(const ExperimentConfig& config)
    : config_(config),
      deployment_(build_deployment(config.topo)),
      checker_(&deployment_.membership),
      torn_rng_(config.seed ^ 0x7042a11ULL) {
  sim::SimConfig sim_config;
  sim_config.seed = config_.seed;
  sim_config.cpu = config_.cpu_override.value_or(cpu_for(config_.topo.env));
  sim_config.drop_probability = config_.drop_probability;
  sim_config.serialize_messages = config_.serialize_messages;
  auto latency = config_.latency_factory
                     ? config_.latency_factory(&deployment_.membership)
                     : make_latency(config_.topo.env, &deployment_.membership);
  sim_ = std::make_unique<sim::Simulator>(deployment_.membership,
                                          std::move(latency), sim_config);
  if (config_.observe || config_.trace) {
    obs_ = std::make_shared<obs::Observability>();
    obs_->tracing = config_.trace;
    sim_->set_observability(obs_.get());
  }
  metrics_ = std::make_shared<Metrics>();

  if (config_.durability.durable) {
    storage::StorageManager::Config sc;
    sc.wal_dir = config_.durability.wal_dir;
    sc.node.fsync = config_.durability.fsync;
    sc.node.snapshot_every = config_.durability.snapshot_every;
    storage_ = std::make_unique<storage::StorageManager>(std::move(sc));
    if (obs_) storage_->set_metrics(&obs_->metrics);
    // Every crash is a real process death: the victim's unsynced WAL bytes
    // are lost (a torn prefix may survive) and recovery rebuilds the
    // replica from its snapshot + surviving log.
    sim_->set_crash_hook([this](NodeId node) {
      storage_->node(node)->on_crash(&torn_rng_);
    });
    sim_->set_recovery_factory(
        [this](NodeId node) { return rebuild_replica(node); });
  }

  // Replicas (including the ordering group's nodes for MultiPaxos).
  for (NodeId n : deployment_.membership.all_replicas()) {
    const GroupId g = deployment_.membership.group_of(n);
    auto protocol = make_protocol(n, g);
    if (storage_) {
      // A pre-existing wal_dir seeds the replica with its on-disk state
      // (fresh dirs and the mem backend recover the empty state).
      storage::NodeStorage* st = storage_->node(n);
      protocol->restore_durable(st->state());
      sim_->set_node_storage(n, st);
    }
    auto node = make_replica(n, protocol);
    protocols_.push_back(std::move(protocol));
    replicas_.push_back(node);
    sim_->add_process(n, node);
  }

  // Clients.
  FC_ASSERT(config_.dst_factory != nullptr);
  const std::size_t n_clients = deployment_.clients.size();
  for (std::size_t i = 0; i < n_clients; ++i) {
    ClientProcess::Config cc;
    cc.stub = make_stub();
    cc.dst = config_.dst_factory(i);
    cc.payload_size = config_.payload_size;
    cc.send_interval = config_.open_loop_interval;
    cc.flow = config_.client_flow;
    // Stagger client starts across half the warm-up so load ramps smoothly.
    cc.first_send_at = static_cast<Time>(
        config_.warmup / 2 * static_cast<Duration>(i) /
        static_cast<Duration>(n_clients == 0 ? 1 : n_clients));
    auto client = std::make_shared<ClientProcess>(std::move(cc), metrics_);
    Checker* checker = &checker_;
    client->add_multicast_observer([checker](const MulticastMessage& msg) {
      checker->note_multicast(msg);
    });
    // Explicitly failed requests (Busy rejection / expiry / timeout) are
    // exempt from quiesced validity: "delivered or explicitly rejected".
    client->add_reject_observer(
        [checker](MsgId mid) { checker->note_rejected(mid); });
    clients_.push_back(client);
    sim_->add_process(deployment_.clients[i], client);
  }
}

std::shared_ptr<ReplicaNode> Cluster::make_replica(
    NodeId node, std::shared_ptr<AtomicMulticast> protocol) {
  auto replica = std::make_shared<ReplicaNode>(std::move(protocol));
  Checker* checker = &checker_;
  if (config_.durability.durable) {
    // Crash recovery re-externalizes in-doubt deliveries at-least-once.
    // This is the application-level dedup every durable client of the
    // subsystem needs: it outlives replica rebuilds, so the checker's
    // per-node sequence stays exactly-once.
    std::set<MsgId>* seen = &seen_deliveries_[node];
    replica->add_observer(
        [checker, seen](Context& ctx, const MulticastMessage& msg) {
          if (!seen->insert(msg.id).second) return;
          checker->note_delivery(ctx.self(), msg.id);
        });
  } else {
    replica->add_observer([checker](Context& ctx, const MulticastMessage& msg) {
      checker->note_delivery(ctx.self(), msg.id);
    });
  }
  return replica;
}

std::shared_ptr<Process> Cluster::rebuild_replica(NodeId node) {
  FC_ASSERT_MSG(storage_ != nullptr, "rebuild_replica needs durability on");
  const auto& reps = deployment_.membership.all_replicas();
  std::size_t idx = reps.size();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (reps[i] == node) {
      idx = i;
      break;
    }
  }
  FC_ASSERT_MSG(idx < reps.size(), "not a replica node");

  storage::NodeStorage* st = storage_->node(node);
  const storage::DurableState& durable = st->reset_and_recover();
  auto protocol = make_protocol(node, deployment_.membership.group_of(node));
  protocol->restore_durable(durable);
  auto fresh = make_replica(node, protocol);
  protocols_[idx] = std::move(protocol);
  replicas_[idx] = fresh;
  return fresh;
}

std::shared_ptr<AtomicMulticast> Cluster::make_protocol(NodeId node, GroupId group) {
  const bool reliable = config_.drop_probability == 0.0;
  const Membership& m = deployment_.membership;

  if (config_.topo.protocol == Protocol::kMultiPaxos) {
    paxos::GroupConsensus::Config cons;
    cons.group = deployment_.ordering_group;
    cons.members = m.members(deployment_.ordering_group);
    for (NodeId r : m.all_replicas()) {
      if (m.group_of(r) != deployment_.ordering_group) {
        cons.extra_learners.push_back(r);
      }
    }
    cons.window = config_.consensus_window;
    cons.reliable_links = reliable;
    cons.heartbeats = config_.heartbeats;
    cons.repair = config_.repair;

    MultiPaxosAmcast::Config cfg;
    cfg.consensus = std::move(cons);
    cfg.my_group = group == deployment_.ordering_group ? kNoGroup : group;
    cfg.ordering = config_.mp_ordering == ExperimentConfig::MpOrdering::kIds
                       ? MultiPaxosAmcast::Config::Ordering::kIds
                       : MultiPaxosAmcast::Config::Ordering::kPayload;
    cfg.batch_fill = config_.mp_batch_fill;
    cfg.batch_delay = config_.mp_batch_delay;
    cfg.flow = config_.flow;
    return std::make_shared<MultiPaxosAmcast>(std::move(cfg), node);
  }

  TimestampProtocolBase::Config cfg;
  cfg.group = group;
  cfg.consensus.group = group;
  cfg.consensus.members = m.members(group);
  cfg.consensus.window = config_.consensus_window;
  cfg.consensus.reliable_links = reliable;
  cfg.consensus.heartbeats = config_.heartbeats;
  cfg.consensus.repair = config_.repair;
  cfg.relay = config_.relay;
  cfg.flow = config_.flow;

  switch (config_.topo.protocol) {
    case Protocol::kBaseCast:
      return std::make_shared<BaseCast>(std::move(cfg), node);
    case Protocol::kFastCast:
      return std::make_shared<FastCast>(std::move(cfg), node);
    case Protocol::kFastCastSlowPath:
      return std::make_shared<FastCast>(std::move(cfg), node,
                                        FastCast::Options{.force_slow_path = true});
    case Protocol::kMultiPaxos: break;  // handled above
  }
  FC_ASSERT(false);
  return nullptr;
}

std::unique_ptr<ClientStub> Cluster::make_stub() {
  const bool reliable = config_.drop_probability == 0.0;
  if (config_.topo.protocol == Protocol::kMultiPaxos) {
    MultiPaxosClientStub::Config cfg;
    cfg.ordering_members =
        deployment_.membership.members(deployment_.ordering_group);
    cfg.reliable_links = reliable;
    return std::make_unique<MultiPaxosClientStub>(std::move(cfg));
  }
  RmConfig rm;
  rm.reliable_links = reliable;
  rm.relay = RmConfig::Relay::kNone;  // clients never relay
  return std::make_unique<GenuineClientStub>(rm);
}

void Cluster::stop_clients(Time at) {
  for (auto& c : clients_) c->set_stop(at);
}

ReplicaNode& Cluster::replica(NodeId node) {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (deployment_.membership.all_replicas()[i] == node) return *replicas_[i];
  }
  FC_ASSERT_MSG(false, "not a replica node");
  return *replicas_.front();
}

ClientProcess& Cluster::client(std::size_t idx) {
  FC_ASSERT(idx < clients_.size());
  return *clients_[idx];
}

std::pair<std::uint64_t, std::uint64_t> Cluster::path_stats() const {
  std::uint64_t fast = 0;
  std::uint64_t slow = 0;
  for (const auto& p : protocols_) {
    if (const auto* fc = dynamic_cast<const FastCast*>(p.get())) {
      fast += fc->fast_path_hits();
      slow += fc->slow_path_hits();
    }
  }
  return {fast, slow};
}

std::uint64_t Cluster::total_deliveries() const {
  std::uint64_t total = 0;
  for (const auto& r : replicas_) total += r->delivered_count();
  return total;
}

std::uint64_t Cluster::total_sent() const {
  std::uint64_t total = 0;
  for (const auto& c : clients_) total += c->sent_count();
  return total;
}

std::uint64_t Cluster::total_in_flight() const {
  std::uint64_t total = 0;
  for (const auto& c : clients_) total += c->in_flight_count();
  return total;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  Cluster cluster(config);
  auto& sim = cluster.simulator();
  cluster.start();

  sim.run_until(config.warmup);
  const Time window_end = config.warmup + config.measure;
  cluster.metrics().open_window(config.warmup, window_end, config.slice);
  const std::uint64_t deliveries_at_open = cluster.total_deliveries();
  sim.run_until(window_end);
  cluster.metrics().close_window();
  const std::uint64_t deliveries_at_close = cluster.total_deliveries();

  ExperimentResult result;
  const bool can_drain =
      config.drain && config.drop_probability == 0.0 && !config.heartbeats;
  if (can_drain) {
    cluster.stop_clients(window_end);
    result.drained = sim.run_to_idle(window_end + config.drain_grace);
  } else if (config.drain) {
    cluster.stop_clients(window_end);
    sim.run_for(config.drain_grace / 10);  // grace period; timers keep ticking
  }

  result.latency = cluster.metrics().latency();
  result.throughput = cluster.metrics().throughput();
  result.slices = cluster.metrics().slice_counts();
  result.report = cluster.checker().check(result.drained, config.check_level);
  result.events_processed = sim.events_processed();
  result.messages_sent = sim.messages_sent();
  const auto [fast, slow] = cluster.path_stats();
  result.fast_path_hits = fast;
  result.slow_path_hits = slow;
  result.window_deliveries = deliveries_at_close - deliveries_at_open;

  const Metrics& m = cluster.metrics();
  result.sent = cluster.total_sent();
  result.completions = m.completions_total();
  result.window_goodput = m.window_goodput();
  result.rejected = m.rejected_total();
  result.expired = m.expired_total();
  result.timed_out = m.timeouts_total();
  result.deadline_miss = m.deadline_miss_total();
  result.suppressed = m.suppressed_total();
  result.retries = m.retries_total();
  result.busy_received = m.busy_total();
  result.in_flight_end = cluster.total_in_flight();

  if (auto obs = cluster.observability()) {
    result.obs = obs;
    obs->metrics.gauge("sim.events_processed")
        .set(static_cast<std::int64_t>(result.events_processed));
    result.report.publish(obs->metrics);
    if (config.trace && config.delta > 0) {
      result.delta_summary = obs->tracer.summarize(config.delta);
    }
  }
  return result;
}

}  // namespace fastcast::harness
