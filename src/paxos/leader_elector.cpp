#include "fastcast/paxos/leader_elector.hpp"

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"
#include "fastcast/obs/observability.hpp"

namespace fastcast::paxos {

LeaderElector::LeaderElector(Config config) : config_(std::move(config)) {
  FC_ASSERT(!config_.members.empty());
}

NodeId LeaderElector::leader() const {
  return config_.members[epoch_ % config_.members.size()];
}

void LeaderElector::on_start(Context& ctx) {
  if (!config_.heartbeats) return;
  last_heard_ = ctx.now();
  if (is_self_leader(ctx)) arm_heartbeat(ctx);
  arm_monitor(ctx);
}

void LeaderElector::arm_heartbeat(Context& ctx) {
  if (hb_armed_) return;  // exactly one chain, even across re-promotions
  hb_armed_ = true;
  ctx.set_timer(config_.heartbeat_interval, [this, &ctx] {
    hb_armed_ = false;
    if (!is_self_leader(ctx)) return;  // demoted meanwhile; chain ends here
    if (peers_.empty()) {
      peers_ = config_.members;
      std::erase(peers_, ctx.self());
    }
    ctx.send_to_nodes(peers_,
                      Message{FdHeartbeat{config_.group, ctx.self(), epoch_}});
    arm_heartbeat(ctx);
  });
}

void LeaderElector::arm_monitor(Context& ctx) {
  if (monitor_armed_) return;
  monitor_armed_ = true;
  ctx.set_timer(config_.timeout, [this, &ctx] {
    monitor_armed_ = false;
    if (!is_self_leader(ctx) && ctx.now() - last_heard_ >= config_.timeout) {
      if (auto* o = ctx.obs()) o->metrics.counter("paxos.suspicions").inc();
      advance_epoch(ctx, epoch_ + 1);
    }
    arm_monitor(ctx);
  });
}

void LeaderElector::advance_epoch(Context& ctx, std::uint64_t epoch) {
  if (epoch <= epoch_) return;
  const Time heard_gap = ctx.now() - last_heard_;
  epoch_ = epoch;
  last_heard_ = ctx.now();
  FC_INFO("group %u node %u: leader epoch -> %llu (leader %u)", config_.group,
          ctx.self(), static_cast<unsigned long long>(epoch_), leader());
  if (auto* o = ctx.obs()) {
    o->metrics.counter("paxos.leader_failovers").inc();
    if (is_self_leader(ctx)) {
      // Failover latency as the new leader observes it: time since the old
      // leader was last heard until this node took over.
      o->metrics.histogram("paxos.failover_latency_ns").observe(heard_gap);
    }
  }
  if (is_self_leader(ctx)) arm_heartbeat(ctx);
  if (on_change_) on_change_(ctx, leader(), epoch_);
}

bool LeaderElector::handle(Context& ctx, NodeId from, const Message& msg) {
  const auto* hb = std::get_if<FdHeartbeat>(&msg.payload);
  if (hb == nullptr || hb->group != config_.group) return false;
  (void)from;
  if (hb->epoch > epoch_) {
    advance_epoch(ctx, hb->epoch);
  } else if (hb->epoch == epoch_ && hb->from == leader()) {
    last_heard_ = ctx.now();
  }
  return true;
}

}  // namespace fastcast::paxos
