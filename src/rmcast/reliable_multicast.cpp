#include "fastcast/rmcast/reliable_multicast.hpp"

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"
#include "fastcast/obs/observability.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast {

void ReliableMulticast::restore(const storage::DurableState& durable) {
  for (const auto& [node, seq] : durable.rm_next_seq) {
    auto& next = next_seq_[node];
    if (seq > next) next = seq;
  }
  for (const auto& [key, frame_bytes] : durable.rm_staged) {
    Message m;
    if (!decode_message(frame_bytes, m)) continue;  // guarded by WAL CRC
    if (const auto* data = std::get_if<RmData>(&m.payload)) {
      RmData copy = *data;
      copy.seq = key.second;
      // Restored from the WAL, so durable by construction: no gate.
      unacked_.emplace(key, Staged{std::move(copy), 0});
    }
  }
  for (const auto& [node, seq] : durable.rm_next_expected) {
    auto& next = origins_[node].next_expected;
    if (seq > next) next = seq;
  }
}

void ReliableMulticast::multicast(Context& ctx, const std::vector<GroupId>& dst,
                                  AmcastPayload inner) {
  FC_ASSERT_MSG(!dst.empty(), "multicast needs at least one destination group");
  const std::vector<NodeId> dests = ctx.membership().nodes_of_groups(dst);

  RmData frame;
  frame.origin = ctx.self();
  frame.dst_groups = dst;
  frame.dest_nodes = dests;
  frame.dest_seqs.reserve(dests.size());
  for (NodeId d : dests) {
    auto [it, inserted] = next_seq_.try_emplace(d, 1);
    (void)inserted;
    frame.dest_seqs.push_back(it->second++);
  }
  frame.inner = std::move(inner);

  storage::NodeStorage* st = ctx.storage();
  for (std::size_t i = 0; i < dests.size(); ++i) {
    frame.seq = frame.dest_seqs[i];
    if (st != nullptr) {
      // Log the seq advance (a restarted origin must never reuse it) plus
      // the staged frame when retransmission needs it, and gate the send:
      // a frame that hits the wire is always reconstructible from disk.
      storage::Lsn lsn = st->log_rm_next_seq(dests[i], next_seq_[dests[i]]);
      if (!config_.reliable_links) {
        stage_scratch_.clear();
        encode_message_into(Message{frame}, stage_scratch_);
        lsn = st->log_rm_stage(dests[i], frame.seq, stage_scratch_);
        // The staged copy carries the same gate so the retransmit timer
        // cannot leak the frame onto the wire before the seq advance is
        // durable either.
        unacked_.emplace(std::make_pair(dests[i], frame.seq),
                         Staged{frame, lsn});
      }
      st->when_durable(lsn, [c = &ctx, to = dests[i], frame]() {
        c->send(to, Message{frame});
      });
    } else {
      if (!config_.reliable_links) {
        unacked_.emplace(std::make_pair(dests[i], frame.seq),
                         Staged{frame, 0});
      }
      ctx.send(dests[i], Message{frame});
    }
  }
  if (st != nullptr) st->commit();
}

void ReliableMulticast::on_start(Context& ctx) {
  if (!config_.reliable_links) arm_retransmit(ctx);
}

void ReliableMulticast::on_recover(Context& ctx) {
  timer_armed_ = false;
  on_start(ctx);
}

void ReliableMulticast::arm_retransmit(Context& ctx) {
  if (timer_armed_) return;
  timer_armed_ = true;
  ctx.set_timer(config_.retransmit_interval, [this, &ctx] {
    timer_armed_ = false;
    storage::NodeStorage* st = ctx.storage();
    std::uint64_t sent = 0;
    for (const auto& [key, staged] : unacked_) {
      // Honor the durability gate: retransmitting a frame whose seq
      // advance is still unsynced would externalize state a crash can
      // forget (see Staged::lsn).
      if (st != nullptr && staged.lsn > st->durable_lsn()) continue;
      RmData copy = staged.frame;
      copy.seq = key.second;
      ctx.send(key.first, Message{std::move(copy)});
      ++sent;
    }
    if (auto* o = ctx.obs(); o && sent > 0) {
      o->metrics.counter("rmcast.retransmits").inc(sent);
    }
    if (!unacked_.empty() || !config_.reliable_links) arm_retransmit(ctx);
  });
}

bool ReliableMulticast::handle(Context& ctx, NodeId from, const Message& msg) {
  if (const auto* data = std::get_if<RmData>(&msg.payload)) {
    on_data(ctx, from, *data);
    return true;
  }
  if (const auto* ack = std::get_if<RmAck>(&msg.payload)) {
    if (unacked_.erase(std::make_pair(from, ack->seq)) > 0) {
      if (storage::NodeStorage* st = ctx.storage()) {
        // The staged frame will never be retransmitted again; the settle
        // record lets recovery (and the next snapshot) drop it. Advisory,
        // so no gate and no forced commit.
        st->log_rm_settle(from, ack->seq);
      }
    }
    return true;
  }
  return false;
}

void ReliableMulticast::deliver_frame(Context& ctx, const RmData& frame) {
  if (config_.relay == RmConfig::Relay::kSelf) relay(ctx, frame);
  if (deliver_) {
    if (auto* o = ctx.obs()) {
      o->trace(mid_of(frame.inner), obs::SpanEventKind::kRdeliver, ctx.self(),
               ctx.my_group(), ctx.now());
    }
    deliver_(ctx, frame.origin, frame.inner);
  }
}

void ReliableMulticast::on_data(Context& ctx, NodeId from, const RmData& data) {
  storage::NodeStorage* st = ctx.storage();
  auto& origin = origins_[data.origin];

  if (st == nullptr) {
    if (!config_.reliable_links) {
      // Ack to whoever transmitted this copy (origin or a relay).
      ctx.send(from, Message{RmAck{data.origin, data.seq}});
    }
  } else if (!config_.reliable_links && data.seq < origin.next_expected) {
    // Durable mode acks only what a restart provably keeps: this frame is
    // below a logged next-expected floor, so ack once that floor commits
    // (usually already has). Fresh frames are acked on drain below.
    st->when_durable(st->last_lsn(), [c = &ctx, from,
                                      ack = RmAck{data.origin, data.seq}]() {
      c->send(from, Message{ack});
    });
  }

  if (data.seq < origin.next_expected) return;  // duplicate
  if (origin.holdback.contains(data.seq)) return;

  origin.holdback.emplace(data.seq, data);
  if (auto* o = ctx.obs()) {
    o->metrics.gauge("rmcast.holdback_max")
        .record_max(static_cast<std::int64_t>(holdback_size()));
  }

  // Drain contiguous prefix in FIFO order.
  std::vector<RmData> drained;
  while (true) {
    auto it = origin.holdback.find(origin.next_expected);
    if (it == origin.holdback.end()) break;
    drained.push_back(std::move(it->second));
    origin.holdback.erase(it);
    ++origin.next_expected;
  }
  if (drained.empty()) return;

  if (st == nullptr) {
    for (const RmData& frame : drained) deliver_frame(ctx, frame);
    return;
  }

  // Log the new FIFO floor and gate every externalization — relays, the
  // delivery upcall (whose downstream effects include sends), and the ack
  // for the just-arrived frame — on its commit. If the node dies first the
  // closures are dropped, the origin retransmits, and replay re-drains.
  // Note: `origin` may be invalidated by upcalls re-entering origins_, so
  // nothing below touches it.
  const std::uint64_t next_expected =
      origins_.at(data.origin).next_expected;
  const storage::Lsn lsn = st->log_rm_progress(data.origin, next_expected);
  const bool ack_arrived =
      !config_.reliable_links && data.seq < next_expected;
  for (RmData& frame : drained) {
    st->when_durable(lsn, [this, c = &ctx, frame = std::move(frame)]() {
      deliver_frame(*c, frame);
    });
  }
  if (ack_arrived) {
    st->when_durable(lsn, [c = &ctx, from,
                           ack = RmAck{data.origin, data.seq}]() {
      c->send(from, Message{ack});
    });
  }
  st->commit();
}

void ReliableMulticast::relay(Context& ctx, const RmData& data) {
  FC_ASSERT(data.dest_nodes.size() == data.dest_seqs.size());
  for (std::size_t i = 0; i < data.dest_nodes.size(); ++i) {
    const NodeId dest = data.dest_nodes[i];
    if (dest == ctx.self()) continue;
    RmData copy = data;
    copy.seq = data.dest_seqs[i];
    ctx.send(dest, Message{std::move(copy)});
  }
}

std::size_t ReliableMulticast::holdback_size() const {
  std::size_t total = 0;
  for (const auto& [origin, state] : origins_) total += state.holdback.size();
  return total;
}

}  // namespace fastcast
