#include "fastcast/rmcast/reliable_multicast.hpp"

#include <algorithm>

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
    if (auto* data = std::get_if<RmData>(&m.payload)) {
      // Restored from the WAL, so durable by construction: no gate.
      unacked_.emplace(
          key, Staged{std::make_shared<const RmData>(std::move(*data)), 0});
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
  frame.dest_nodes = dests;
  frame.dest_seqs.reserve(dests.size());
  for (NodeId d : dests) {
    auto [it, inserted] = next_seq_.try_emplace(d, 1);
    (void)inserted;
    frame.dest_seqs.push_back(it->second++);
  }
  frame.inner = std::move(inner);
  Message msg{std::move(frame)};

  // Lossy links keep the frame for retransmission: every unacked entry of
  // this multicast shares one copy.
  const bool lossy = !config_.reliable_links;
  std::shared_ptr<const RmData> kept;
  if (lossy) {
    kept = std::make_shared<const RmData>(std::get<RmData>(msg.payload));
  }

  // Log each seq advance (a restarted origin must never reuse it) plus the
  // staged frame when retransmission needs it, and gate the send: a frame
  // that hits the wire is always reconstructible from disk. Every
  // destination gets the same frame, so it is encoded once (the log step
  // runs before log_then takes `msg`).
  const storage::Lsn lsn = storage::log_then(
      ctx.storage(),
      [&](storage::NodeStorage& st) {
        if (lossy) encode_message_into(msg, stage_scratch_);
        storage::Lsn last = 0;
        for (std::size_t i = 0; i < dests.size(); ++i) {
          last = st.log(storage::WalRecord::rm_next_seq(dests[i],
                                                       next_seq_[dests[i]]));
          if (lossy) {
            last = st.log(storage::WalRecord::rm_stage(
                dests[i], kept->dest_seqs[i], stage_scratch_));
          }
        }
        return last;
      },
      [](Context* c, const std::vector<NodeId>& to, Message&& m) {
        c->send_to_nodes(to, std::move(m));
      },
      &ctx, dests, std::move(msg));
  // The staged entries carry the same gate, so the retransmit timer cannot
  // leak a frame before its seq advance is durable either.
  if (lossy) {
    for (std::size_t i = 0; i < dests.size(); ++i) {
      unacked_.emplace(std::make_pair(dests[i], kept->dest_seqs[i]),
                       Staged{kept, lsn});
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
      ctx.send(key.first, Message{*staged.frame});
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
  // Every destination gets the same frame and reads its own sequence
  // number from the entry that names it; a frame without one is malformed
  // input, neither delivered nor acked.
  const auto named =
      std::find(data.dest_nodes.begin(), data.dest_nodes.end(), ctx.self());
  if (named == data.dest_nodes.end()) return;
  const std::uint64_t seq = data.dest_seqs[named - data.dest_nodes.begin()];

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
      ctx.send(from, Message{RmAck{data.origin, seq}});
    }
  } else if (!config_.reliable_links && seq < origin.next_expected) {
    // Durable mode acks only what a restart provably keeps: this frame is
    // below a logged next-expected floor, so ack once that floor commits
    // (usually already has). Fresh frames are acked on drain below.
    st->after_logged([c = &ctx, from, ack = RmAck{data.origin, seq}]() {
      c->send(from, Message{ack});
    });
  }

  if (seq < origin.next_expected) return;  // duplicate
  if (seq > origin.next_expected) {
    // Arrived after a gap: hold it back until the gap fills.
    if (!origin.holdback.try_emplace(seq, data).second) return;
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
      &ctx, from, RmAck{data.origin, seq}, std::move(drained));
}

void ReliableMulticast::relay(Context& ctx, const RmData& data) {
  std::vector<NodeId> others = data.dest_nodes;
  std::erase(others, ctx.self());
  if (!others.empty()) ctx.send_to_nodes(others, Message{data});
}

std::size_t ReliableMulticast::holdback_size() const {
  std::size_t total = 0;
  for (const auto& [origin, state] : origins_) total += state.holdback.size();
  return total;
}

}  // namespace fastcast
