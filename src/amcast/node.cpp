#include "fastcast/amcast/node.hpp"

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"
#include "fastcast/obs/observability.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast {

ReplicaNode::ReplicaNode(std::shared_ptr<AtomicMulticast> protocol)
    : protocol_(std::move(protocol)) {
  FC_ASSERT(protocol_ != nullptr);
  protocol_->set_deliver([this](Context& ctx, const MulticastMessage& msg) {
    ++delivered_count_;
    // The delivered record is what recovery dedups on; the ack and the
    // checker/application observers must not see a delivery the WAL can
    // still forget, so they wait behind its commit.
    storage::log_then(
        ctx.storage(),
        [&](storage::NodeStorage& st) {
          return st.log(storage::WalRecord::delivered(msg.id));
        },
        [this](Context* c, const MulticastMessage& m) { externalize(*c, m); },
        &ctx, msg);
  });
}

void ReplicaNode::externalize(Context& ctx, const MulticastMessage& msg) {
  if (auto* o = ctx.obs()) {
    o->metrics.counter("amcast.adeliver").inc();
    o->trace(msg.id, obs::SpanEventKind::kAdeliver, ctx.self(), ctx.my_group(),
             ctx.now(), static_cast<std::uint32_t>(msg.dst.size()));
  }
  if (msg.sender != kInvalidNode) {
    ctx.send(msg.sender, Message{AmAck{msg.id, ctx.my_group(), ctx.self()}});
  }
  for (const auto& observer : observers_) observer(ctx, msg);
}

void ReplicaNode::redeliver_in_doubt(Context& ctx) {
  storage::NodeStorage* st = ctx.storage();
  if (st == nullptr) return;
  for (const storage::NodeStorage::InDoubtDelivery& d :
       st->in_doubt_deliveries()) {
    MulticastMessage msg;
    if (!storage::decode_body(d.body, msg) || msg.id != d.mid) {
      // No body in the WAL (e.g. state-machine protocols that only log
      // consensus values). The ack and the delivery observers key on the
      // id, and the id encodes the sender.
      msg = MulticastMessage{};
      msg.id = d.mid;
      msg.sender = msg_id_sender(d.mid);
    }
    externalize(ctx, msg);
  }
}

void ReplicaNode::arm_commit_tick(Context& ctx) {
  storage::NodeStorage* st = ctx.storage();
  if (st == nullptr ||
      st->fsync_policy().mode != storage::FsyncPolicy::Mode::kBatch) {
    return;
  }
  if (commit_tick_armed_) return;
  commit_tick_armed_ = true;
  // The batch policy's time bound: records that never fill a batch still
  // become durable (and their gated sends released) within the interval.
  ctx.set_timer(st->fsync_policy().batch_interval, [this, &ctx] {
    commit_tick_armed_ = false;
    if (storage::NodeStorage* s = ctx.storage()) s->flush();
    arm_commit_tick(ctx);
  });
}

void ReplicaNode::on_start(Context& ctx) {
  redeliver_in_doubt(ctx);
  protocol_->on_start(ctx);
  arm_commit_tick(ctx);
}

void ReplicaNode::on_message(Context& ctx, NodeId from, const Message& msg) {
  if (!protocol_->handle(ctx, from, msg)) {
    FC_TRACE("node %u: unhandled %s from %u", ctx.self(), message_kind(msg), from);
  }
}

}  // namespace fastcast
