#include "fastcast/amcast/timestamp_base.hpp"

#include <algorithm>

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"
#include "fastcast/obs/observability.hpp"

namespace fastcast {

namespace {
constexpr Duration kReproposeInterval = milliseconds(150);
}  // namespace

TimestampProtocolBase::TimestampProtocolBase(Config config, NodeId self)
    : cfg_(std::move(config)),
      self_(self),
      rm_(RmConfig{.reliable_links = cfg_.consensus.reliable_links,
                   .relay = cfg_.relay}),
      cons_(cfg_.consensus, self),
      overload_(cfg_.flow) {
  FC_ASSERT(cfg_.group != kNoGroup);

  rm_.set_deliver([this](Context& ctx, NodeId origin, const AmcastPayload& payload) {
    // The START is already reliably multicast, so it MUST be processed —
    // a genuine protocol has no safe shedding point past this. The group
    // leader can still tell the client to slow down.
    if (const auto* start = std::get_if<AmStart>(&payload)) {
      maybe_advise(ctx, start->msg);
    }
    on_rdeliver(ctx, origin, payload);
  });

  cons_.set_decide([this](InstanceId inst, const std::vector<std::byte>& value) {
    FC_ASSERT_MSG(decide_ctx_ != nullptr, "decision before on_start");
    on_decide(*decide_ctx_, inst, value);
  });

  cons_.set_on_leader_change([this](Context& ctx, NodeId leader) {
    if (leader != ctx.self()) return;
    // New leader: re-send pending SEND-HARDs (the previous leader may have
    // crashed between deciding SET-HARD and transmitting) and re-propose
    // everything still unordered.
    for (const auto& [mid, info] : hard_pending_) {
      rm_.multicast(ctx, info.second,
                    AmSendHard{cfg_.group, info.first, mid, info.second});
    }
    restage_all(ctx);
  });

  buffer_.set_deliver([this](Context& ctx, const MulticastMessage& msg) {
    deliver(ctx, msg);  // appends the kDelivered record before any settle
    settle_note_delivered(msg.id);
  });

  cons_.set_settled_provider([this] {
    // CH upper-bounds every timestamp the settled instances influenced, so
    // a restart that jumps past them cannot assign a regressed timestamp.
    return repair::Settled{settled_frontier(), ch_};
  });
}

void TimestampProtocolBase::restore_durable(const storage::DurableState& durable) {
  const auto it = durable.groups.find(cfg_.consensus.group);
  cons_.restore_durable(it == durable.groups.end() ? nullptr : &it->second);
  if (it != durable.groups.end()) {
    // The learner resumes at the durable settled frontier; instances below
    // it are never replayed, so CH must jump to the recorded clock bound or
    // a recovered leader could assign regressed hard timestamps.
    settle_frontier_ = it->second.settled;
    ch_ = std::max<Ts>(ch_, it->second.settled_clock);
  }
  rm_.restore(durable);
  buffer_.restore_delivered(durable.delivered);
  for (const auto& [mid, encoded] : durable.bodies) {
    std::vector<MulticastMessage> batch;
    if (!decode_msg_batch(encoded, batch)) continue;  // guarded by WAL CRC
    for (const MulticastMessage& m : batch) buffer_.restore_body(m);
  }
  // Timestamps (CH, buffer entries, ToOrder/Ordered) are deliberately not
  // persisted: the consensus catch-up replays every decided tuple through
  // on_decide, and delivered-set dedup suppresses re-deliveries.
}

void TimestampProtocolBase::on_start(Context& ctx) {
  decide_ctx_ = &ctx;
  rm_.on_start(ctx);
  cons_.on_start(ctx);
  arm_repropose(ctx);
}

void TimestampProtocolBase::on_recover(Context& ctx) {
  decide_ctx_ = &ctx;
  rm_.on_recover(ctx);
  cons_.on_recover(ctx);
  repropose_armed_ = false;
  arm_repropose(ctx);
  // Anything still unordered was in flight when we crashed; queue it for
  // the next proposal round (the leader check inside flush() applies).
  restage_all(ctx);
  // Backstop for the restore path: if restored state ever produced a
  // deliverable FINAL whose body arrived via restore_body (which cannot
  // retry delivery itself — no Context there), release it now instead of
  // waiting for the next unrelated add_entry.
  buffer_.try_deliver(ctx);
}

bool TimestampProtocolBase::handle(Context& ctx, NodeId from, const Message& msg) {
  if (rm_.handle(ctx, from, msg)) return true;
  if (cons_.handle(ctx, from, msg)) return true;
  return false;
}

void TimestampProtocolBase::stage(Context& ctx, Tuple tuple) {
  const TupleId id = id_of(tuple);
  if (known_.contains(id)) return;
  known_.insert(id);
  staged_.push_back(id);
  unordered_.emplace(id, std::move(tuple));
  flush(ctx);
}

void TimestampProtocolBase::track_deferred(Tuple tuple) {
  const TupleId id = id_of(tuple);
  if (known_.contains(id)) return;
  known_.insert(id);
  unordered_.emplace(id, std::move(tuple));
}

void TimestampProtocolBase::promote_deferred(Context& ctx, const TupleId& id) {
  if (!unordered_.contains(id)) return;
  staged_.push_back(id);
  flush(ctx);
}

void TimestampProtocolBase::mark_ordered_out_of_band(const TupleId& id) {
  FC_ASSERT(!ordered_.contains(id));
  known_.insert(id);
  ordered_.insert(id);
  unordered_.erase(id);
}

const Tuple* TimestampProtocolBase::find_unordered(const TupleId& id) const {
  auto it = unordered_.find(id);
  return it == unordered_.end() ? nullptr : &it->second;
}

void TimestampProtocolBase::flush(Context& ctx) {
  if (staged_.empty()) return;
  if (!cons_.is_leader(ctx)) return;
  if (!cons_.window_open()) return;  // batch: accumulate until a slot frees

  std::vector<Tuple> batch;
  batch.reserve(staged_.size());
  for (const TupleId& id : staged_) {
    auto it = unordered_.find(id);
    if (it != unordered_.end()) batch.push_back(it->second);
  }
  staged_.clear();
  if (batch.empty()) return;

  before_propose(ctx, batch);
  if (auto* o = ctx.obs()) {
    o->metrics.counter("amcast.tuples_proposed").inc(batch.size());
  }
  cons_.propose(ctx, encode_tuples(batch));
  if (overload_.enabled()) proposed_at_.push_back(ctx.now());
}

void TimestampProtocolBase::maybe_advise(Context& ctx, const MulticastMessage& msg) {
  if (!overload_.enabled()) return;
  overload_.note_depth(unordered_.size() + cons_.proposer().queued() +
                       cons_.proposer().in_flight());
  // Arrival lag (client send → START receipt) catches saturation upstream
  // of the protocol clock — transport queues, unprocessed-event backlog —
  // which propose→decide round trips alone never see.
  if (msg.sent_at > 0) {
    overload_.note_arrival_lag(ctx.now(), ctx.now() - msg.sent_at);
  }
  if (!cons_.is_leader(ctx)) return;  // one advisory per group, from its leader
  // Advise with probability proportional to the delay excess — a genuine
  // protocol has no rejection backstop, so advisories must land while the
  // queue is still shallow, and probabilistic marking desynchronizes the
  // resulting client backoffs.
  const double mark_p = overload_.mark_probability(ctx.now());
  if (mark_p <= 0 || (mark_p < 1.0 && !ctx.rng().bernoulli(mark_p))) return;
  if (auto* o = ctx.obs()) o->metrics.counter("flow.advisories").inc();
  ctx.send(msg.sender, Message{Busy{msg.id, Busy::Reason::kOverload,
                                    /*advisory=*/true, overload_.retry_after()}});
}

void TimestampProtocolBase::on_decide(Context& ctx, InstanceId inst,
                                      const std::vector<std::byte>& value) {
  if (overload_.enabled()) {
    // Propose→decide round trip feeds the sojourn estimate; only the
    // current leadership stint's proposals are matched (cf. MultiPaxos).
    if (!cons_.is_leader(ctx)) {
      proposed_at_.clear();
    } else if (!proposed_at_.empty()) {
      overload_.note_sojourn(ctx.now(), ctx.now() - proposed_at_.front());
      proposed_at_.pop_front();
    }
  }
  settle_frontier_ = std::max(settle_frontier_, inst + 1);
  if (value.empty()) {
    flush(ctx);  // no-op gap filler from a leader change
    return;
  }
  std::vector<Tuple> tuples;
  FC_ASSERT_MSG(decode_tuples(value, tuples), "undecodable consensus value");
  for (const Tuple& t : tuples) {
    const TupleId id = id_of(t);
    if (ordered_.contains(id)) continue;  // Decided \ Ordered
    apply_tuple(ctx, t);
    ordered_.insert(id);
    unordered_.erase(id);
  }
  // Every tuple pins this instance until its message is locally delivered —
  // including tuples skipped above (a post-restart replay has an empty
  // Ordered set and would re-apply them).
  for (const Tuple& t : tuples) {
    if (buffer_.was_delivered(t.mid)) continue;
    if (settle_pending_[inst].insert(t.mid).second) {
      settle_waiters_[t.mid].push_back(inst);
    }
  }
  buffer_.try_deliver(ctx);
  flush(ctx);  // the decision freed a pipeline slot
}

void TimestampProtocolBase::settle_note_delivered(MsgId mid) {
  const auto it = settle_waiters_.find(mid);
  if (it == settle_waiters_.end()) return;
  for (InstanceId inst : it->second) {
    const auto p = settle_pending_.find(inst);
    if (p == settle_pending_.end()) continue;
    p->second.erase(mid);
    if (p->second.empty()) settle_pending_.erase(p);
  }
  settle_waiters_.erase(it);
}

void TimestampProtocolBase::handle_set_hard(Context& ctx, const Tuple& tuple) {
  FC_ASSERT_MSG(tuple.group == cfg_.group, "SET-HARD for a foreign group");
  ++ch_;
  if (auto* o = ctx.obs()) {
    o->trace(tuple.mid, obs::SpanEventKind::kSetHardDecided, ctx.self(),
             cfg_.group, ctx.now());
  }
  buffer_.note_dst(tuple.mid, tuple.dst);
  if (tuple.dst.size() > 1) {
    // Global: park our own (deterministic) hard timestamp as a placeholder
    // and propagate it to every destination group. Skipped for messages in
    // the restored delivered set — catch-up after a storage recovery
    // replays old SET-HARDs, and every destination settled them long ago.
    if (buffer_.was_delivered(tuple.mid)) return;
    buffer_.add_entry(ctx, EntryKind::kPendingHard, cfg_.group, ch_, tuple.mid);
    hard_pending_[tuple.mid] = {ch_, tuple.dst};
    if (cons_.is_leader(ctx)) {
      rm_.multicast(ctx, tuple.dst,
                    AmSendHard{cfg_.group, ch_, tuple.mid, tuple.dst});
    }
  } else {
    // Local: the decided timestamp is already final (3δ path).
    buffer_.add_entry(ctx, EntryKind::kSyncHard, cfg_.group, ch_, tuple.mid);
  }
}

void TimestampProtocolBase::handle_sync_hard(Context& ctx, const Tuple& tuple) {
  if (tuple.ts > ch_) ch_ = tuple.ts;  // Lamport's rule
  if (auto* o = ctx.obs()) {
    o->trace(tuple.mid, obs::SpanEventKind::kSyncHard, ctx.self(), tuple.group,
             ctx.now());
  }
  buffer_.note_dst(tuple.mid, tuple.dst);
  if (tuple.group == cfg_.group) settle_own_hard(ctx, tuple.mid);
  buffer_.add_entry(ctx, EntryKind::kSyncHard, tuple.group, tuple.ts, tuple.mid);
}

void TimestampProtocolBase::settle_own_hard(Context& ctx, MsgId mid) {
  buffer_.remove_pending_hard(ctx, mid, cfg_.group);
  hard_pending_.erase(mid);
}

void TimestampProtocolBase::restage_all(Context& ctx) {
  staged_.clear();
  staged_.reserve(unordered_.size());
  for (const auto& [id, tuple] : unordered_) staged_.push_back(id);
  flush(ctx);
}

void TimestampProtocolBase::arm_repropose(Context& ctx) {
  // Over reliable links with a fixed leader every staged tuple is decided;
  // only loss or a leader change can strand one.
  if (cfg_.consensus.reliable_links && !cfg_.consensus.heartbeats) return;
  if (repropose_armed_) return;
  repropose_armed_ = true;
  ctx.set_timer(kReproposeInterval, [this, &ctx] {
    repropose_armed_ = false;
    if (!unordered_.empty()) restage_all(ctx);
    arm_repropose(ctx);
  });
}

}  // namespace fastcast
