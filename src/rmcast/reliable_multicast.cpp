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

  // Log each seq advance (a restarted origin must never reuse it) plus the
  // staged frame when retransmission needs it, and gate the sends: a frame
  // that hits the wire is always reconstructible from disk.
  const bool lossy = !config_.reliable_links;
  const storage::Lsn lsn = storage::log_then(
      ctx.storage(),
      [&](storage::NodeStorage& st) {
        storage::Lsn last = 0;
        for (std::size_t i = 0; i < dests.size(); ++i) {
          last = st.log(storage::WalRecord::rm_next_seq(dests[i],
                                                       next_seq_[dests[i]]));
          if (lossy) {
            frame.seq = frame.dest_seqs[i];
            stage_scratch_.clear();
            encode_message_into(Message{frame}, stage_scratch_);
            last = st.log(storage::WalRecord::rm_stage(dests[i], frame.seq,
                                                       stage_scratch_));
          }
        }
        return last;
      },
      [](Context* c, RmData&& f) {
        // Each copy carries its own seq on the wire, so all but the last
        // destination get their own frame; the last one takes it by move.
        const std::size_t last = f.dest_nodes.size() - 1;
        for (std::size_t i = 0; i < last; ++i) {
          RmData copy = f;
          copy.seq = f.dest_seqs[i];
          c->send(f.dest_nodes[i], Message{std::move(copy)});
        }
        f.seq = f.dest_seqs[last];
        const NodeId to = f.dest_nodes[last];
        c->send(to, Message{std::move(f)});
      },
      // Lossy links stage `frame` below, so the send path gets a copy.
      &ctx, lossy ? RmData{frame} : std::move(frame));
  // The staged copies carry the same gate, so the retransmit timer cannot
  // leak a frame before its seq advance is durable either.
  if (lossy) {
    for (std::size_t i = 0; i < dests.size(); ++i) {
      frame.seq = frame.dest_seqs[i];
      unacked_.emplace(std::make_pair(dests[i], frame.seq), Staged{frame, lsn});
    }
  }
}

void ReliableMulticast::on_start(Context& ctx) {
  if (!config_.reliable_links) arm_retransmit(ctx);
}

void ReliableMulticast::arm_retransmit(Context& ctx) {
  if (timer_armed_) return;
  timer_armed_ = true;
  ctx.set_timer(kRetransmitInterval, [this, &ctx] {
    timer_armed_ = false;
    std::uint64_t sent = 0;
    for (const auto& [key, staged] : unacked_) {
      // Honor the durability gate: retransmitting a frame whose seq
      // advance is still unsynced would externalize state a crash can
      // forget (see Staged::lsn).
      if (!storage::is_durable(ctx.storage(), staged.lsn)) continue;
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
        st->log(storage::WalRecord::rm_settle(from, ack->seq));
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
  // The one handler that still asks whether storage is attached, because
  // its ack means two things. Without storage it means "received": every
  // arriving copy is acked at once, even one held back out of order. With
  // storage it means "survives a crash": a fresh frame is acked only once
  // the FIFO floor covering it is durable, after its delivery upcall, and a
  // held-back one not at all. One gated path for both would move the
  // volatile acks behind the upcalls and reorder the sends that the
  // FastCastLossySeed42 delivery fingerprint pins.
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
    st->after_logged([c = &ctx, from, ack = RmAck{data.origin, data.seq}]() {
      c->send(from, Message{ack});
    });
  }

  if (data.seq < origin.next_expected) return;  // duplicate
  if (data.seq > origin.next_expected) {
    // Arrived after a gap: hold it back until the gap fills.
    if (!origin.holdback.try_emplace(data.seq, data).second) return;
    if (auto* o = ctx.obs()) {
      o->metrics.gauge("rmcast.holdback_max")
          .record_max(static_cast<std::int64_t>(holdback_size()));
    }
    return;
  }

  // In order: the arriving frame is delivered as it stands, followed by
  // whatever held-back frames it makes contiguous. The holdback map only
  // ever holds seqs above next_expected, so its first entry is the only
  // candidate. `origin` stays valid across the upcalls: references into an
  // unordered_map survive rehashing, and nothing erases from origins_.
  ++origin.next_expected;
  auto pop_contiguous = [&origin] {
    auto it = origin.holdback.begin();
    if (it == origin.holdback.end() || it->first != origin.next_expected) {
      return decltype(origin.holdback)::node_type{};
    }
    ++origin.next_expected;
    return origin.holdback.extract(it);
  };

  if (st == nullptr) {
    deliver_frame(ctx, data);
    while (auto held = pop_contiguous()) deliver_frame(ctx, held.mapped());
    return;
  }

  // Log the new FIFO floor and gate every externalization — relays, the
  // delivery upcall (whose downstream effects include sends), and the ack
  // for the just-arrived frame — on its commit. If the node dies first the
  // closure is dropped, the origin retransmits, and replay re-drains. The
  // closure outlives this handler, so it keeps its own copy of every frame.
  std::vector<RmData> drained;
  drained.push_back(data);
  while (auto held = pop_contiguous()) {
    drained.push_back(std::move(held.mapped()));
  }
  const std::uint64_t next_expected = origin.next_expected;
  storage::log_then(
      st,
      [&](storage::NodeStorage& s) {
        return s.log(storage::WalRecord::rm_progress(data.origin, next_expected));
      },
      [this](Context* c, NodeId to, const RmAck& ack,
             const std::vector<RmData>& frames) {
        for (const RmData& frame : frames) deliver_frame(*c, frame);
        if (!config_.reliable_links) c->send(to, Message{ack});
      },
      &ctx, from, RmAck{data.origin, data.seq}, std::move(drained));
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
