#include "fastcast/amcast/client_stub.hpp"

#include "fastcast/common/assert.hpp"

namespace fastcast {

void MultiPaxosClientStub::amulticast(Context& ctx, const MulticastMessage& msg) {
  FC_ASSERT(!cfg_.ordering_members.empty());
  if (auto* o = ctx.obs()) {
    o->metrics.counter("client.mcast").inc();
    o->trace(msg.id, obs::SpanEventKind::kMcast, ctx.self(), kNoGroup,
             ctx.now(), static_cast<std::uint32_t>(msg.dst.size()));
  }
  ctx.send(cfg_.ordering_members.front(), Message{MpSubmit{msg}});
  if (!cfg_.reliable_links) {
    pending_.emplace(msg.id, msg);
    arm_retry(ctx);
  }
}

void MultiPaxosClientStub::arm_retry(Context& ctx) {
  if (timer_armed_) return;
  timer_armed_ = true;
  ctx.set_timer(kRetryInterval, [this, &ctx] {
    timer_armed_ = false;
    if (pending_.empty()) return;
    // Rotate through ordering members so a crashed leader is bypassed.
    retry_target_ = (retry_target_ + 1) % cfg_.ordering_members.size();
    const NodeId target = cfg_.ordering_members[retry_target_];
    for (auto& [mid, msg] : pending_) {
      // Fresh transmission, fresh stamp: the leader's arrival-lag estimate
      // measures the path this frame took, not how old the request is (the
      // deadline carries that). A stale stamp would keep the estimate — and
      // the admission gate — pinned shut long after queues drained.
      if (msg.sent_at > 0) msg.sent_at = ctx.now();
      ctx.send(target, Message{MpSubmit{msg}});
    }
    arm_retry(ctx);
  });
}

}  // namespace fastcast
