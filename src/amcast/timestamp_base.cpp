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
    // A client's retry, a retransmission or a new leader's SEND-HARD
    // resend can arrive after the message was delivered here.
    if (buffer_.was_delivered(mid_of(payload))) {
      if (auto* o = ctx.obs()) o->metrics.counter("amcast.late_events").inc();
      return;
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
    // everything still unordered. The pending SEND-HARDs are exactly the
    // group's kPendingHard placeholders in the buffer.
    for (const auto& [mid, ts] : buffer_.pending_hards(cfg_.group)) {
      const std::vector<GroupId> dst = buffer_.find(mid)->dst;
      rm_.multicast(ctx, dst, AmSendHard{cfg_.group, ts, mid, dst});
    }
    restage_all(ctx);
  });

  buffer_.set_deliver([this](Context& ctx, const MulticastMessage& msg,
                             const DeliveryBuffer::Record& rec) {
    deliver(ctx, msg);  // appends the kDelivered record before any settle
    retire(rec);
  });

  cons_.set_settled_provider([this] {
    // A restart that jumps past the settled instances resumes at this exact
    // CH: never below a timestamp they influenced, and replaying the later
    // instances re-assigns the hard timestamps the group already sent.
    return repair::Settled{settled_frontier(), settled_clock()};
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
  // Bodies (in id order) before the delivered set, whose START high-water
  // would otherwise classify a restored body's message as delivered. The
  // high-water is exact: kBody records are appended in START order and a
  // torn WAL loses only a suffix, so every START below the maximum over
  // delivered ∪ bodies was logged and is in one of the two.
  for (const auto& [mid, encoded] : durable.bodies) {
    MulticastMessage m;
    if (storage::decode_body(encoded, m)) buffer_.restore_body(m);
  }
  for (const MsgId mid : durable.delivered) buffer_.restore_started(mid);
  // Timestamps (CH, buffer entries, ToOrder/Ordered) are deliberately not
  // persisted: the consensus catch-up replays every decided tuple from the
  // settled frontier on through on_decide, starting at the settled clock,
  // and the delivered rule suppresses re-deliveries.
}

void TimestampProtocolBase::on_start(Context& ctx) {
  decide_ctx_ = &ctx;
  rm_.on_start(ctx);
  cons_.on_start(ctx);
  arm_repropose(ctx);
}

bool TimestampProtocolBase::handle(Context& ctx, NodeId from, const Message& msg) {
  if (rm_.handle(ctx, from, msg)) return true;
  if (cons_.handle(ctx, from, msg)) return true;
  return false;
}

bool TimestampProtocolBase::track(const Tuple& tuple) {
  DeliveryBuffer::Record* rec = buffer_.record(tuple.mid);
  // A known tuple may also be one a decision ordered before its own
  // START/SEND arrived; it must not re-enter ToOrder.
  if (rec == nullptr || rec->tuple(tuple.kind, tuple.group) != nullptr) {
    return false;
  }
  rec->tuples.push_back(TupleState{tuple.kind, tuple.group, tuple.ts, false});
  ++unordered_count_;
  return true;
}

void TimestampProtocolBase::stage(Context& ctx, const Tuple& tuple) {
  if (track(tuple)) queue(ctx, id_of(tuple));
}

void TimestampProtocolBase::queue(Context& ctx, const TupleId& id) {
  // Only the leader queues: a new leader re-stages every unordered tuple.
  if (!cons_.is_leader(ctx)) return;
  staged_.push_back(id);
  flush(ctx);
}

TupleState* TimestampProtocolBase::find_tuple(const TupleId& id) {
  DeliveryBuffer::Record* rec = buffer_.find(id.mid);
  return rec == nullptr ? nullptr : rec->tuple(id.kind, id.group);
}

bool TimestampProtocolBase::mark_ordered(DeliveryBuffer::Record& rec,
                                         TupleKind kind, GroupId group) {
  TupleState* t = rec.tuple(kind, group);
  if (t == nullptr) {
    // Ordered before this replica staged it (a decision beat the START).
    rec.tuples.push_back(TupleState{kind, group, 0, true});
    return true;
  }
  if (t->ordered) return false;
  t->ordered = true;
  --unordered_count_;
  return true;
}

void TimestampProtocolBase::flush(Context& ctx) {
  if (staged_.empty()) return;
  if (!cons_.is_leader(ctx)) return;
  if (!cons_.window_open()) return;  // batch: accumulate until a slot frees

  std::vector<Tuple> batch;
  batch.reserve(staged_.size());
  for (const TupleId& id : staged_) {
    DeliveryBuffer::Record* rec = buffer_.find(id.mid);
    const TupleState* t = rec == nullptr ? nullptr : rec->tuple(id.kind, id.group);
    if (t != nullptr && !t->ordered) {
      batch.push_back(Tuple{t->kind, t->group, t->ts, id.mid, rec->dst});
    }
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
  overload_.note_depth(unordered_count_ + cons_.proposer().queued() +
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
  const Ts clock_before = ch_;
  for (const Tuple& t : tuples) {
    DeliveryBuffer::Record* rec = buffer_.record(t.mid);
    // Marked before applying: applying may deliver the message and retire
    // its record.
    if (rec != nullptr && mark_ordered(*rec, t.kind, t.group)) {
      apply_tuple(ctx, t);
      continue;
    }
    // A decision for a delivered message, or a repeat of an ordered tuple:
    // only the clock moves, as the tuple's first decision moved it. CH is
    // then a function of the decided sequence alone, so a replica rebuilt
    // at its settled frontier replays to the group's clock whatever it had
    // delivered before the crash.
    if (rec == nullptr) {
      if (auto* o = ctx.obs()) o->metrics.counter("amcast.late_events").inc();
    }
    advance_clock(t);
  }
  // Every tuple pins this instance until its message is locally delivered —
  // including tuples skipped above (a post-restart replay has an empty
  // Ordered set and would re-apply them).
  for (const Tuple& t : tuples) {
    DeliveryBuffer::Record* rec = buffer_.find(t.mid);
    if (rec == nullptr) continue;  // delivered
    if (rec->pins.empty() || rec->pins.back() != inst) {
      rec->pins.push_back(inst);
      ++settle_pending_.try_emplace(inst, Unsettled{0, clock_before})
            .first->second.pins;
    }
  }
  buffer_.try_deliver(ctx);
  flush(ctx);  // the decision freed a pipeline slot
  if (auto* o = ctx.obs()) {
    // Every per-message container, sampled once per decision.
    auto size = [](std::size_t n) { return static_cast<std::int64_t>(n); };
    o->metrics.gauge("amcast.records").record_max(size(buffer_.undelivered_count()));
    o->metrics.gauge("amcast.unordered").record_max(size(unordered_count_));
    o->metrics.gauge("amcast.staged").record_max(size(staged_.size()));
    // Consensus state that the group's prune floor bounds.
    o->metrics.gauge("paxos.accepted")
        .record_max(size(cons_.acceptor().accepted_count()));
  }
}

void TimestampProtocolBase::advance_clock(const Tuple& tuple) {
  if (tuple.kind == TupleKind::kSetHard) {
    ++ch_;
  } else {
    ch_ = std::max(ch_, tuple.ts);  // Lamport's rule: idempotent
  }
}

void TimestampProtocolBase::retire(const DeliveryBuffer::Record& rec) {
  for (const TupleState& t : rec.tuples) {
    if (!t.ordered) --unordered_count_;
  }
  for (InstanceId inst : rec.pins) {
    const auto p = settle_pending_.find(inst);
    if (--p->second.pins == 0) settle_pending_.erase(p);
  }
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
    // and propagate it to every destination group.
    buffer_.add_entry(ctx, EntryKind::kPendingHard, cfg_.group, ch_, tuple.mid);
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
}

void TimestampProtocolBase::restage_all(Context& ctx) {
  staged_.clear();
  if (!cons_.is_leader(ctx)) return;
  buffer_.for_each_record([this](MsgId mid, const DeliveryBuffer::Record& rec) {
    for (const TupleState& t : rec.tuples) {
      if (!t.ordered) staged_.push_back(TupleId{t.kind, t.group, mid});
    }
  });
  // (kind, group, mid) order: a new leader's first batches do not depend
  // on the record map's iteration order.
  std::sort(staged_.begin(), staged_.end());
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
    if (unordered_count_ > 0) restage_all(ctx);
    arm_repropose(ctx);
  });
}

}  // namespace fastcast
