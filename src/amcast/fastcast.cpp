#include "fastcast/amcast/fastcast.hpp"

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"
#include "fastcast/obs/observability.hpp"
#include <string>

namespace fastcast {

void FastCast::on_rdeliver(Context& ctx, NodeId origin, const AmcastPayload& payload) {
  (void)origin;
  if (const auto* start = std::get_if<AmStart>(&payload)) {
    // Task 1.
    buffer_.store_body(ctx, start->msg);
    stage(ctx, Tuple{TupleKind::kSetHard, cfg_.group, 0, start->msg.id,
                     start->msg.dst});
    return;
  }
  if (const auto* soft = std::get_if<AmSendSoft>(&payload)) {
    // Task 2.
    buffer_.note_dst(soft->mid, soft->dst);
    stage(ctx, Tuple{TupleKind::kSyncSoft, soft->from_group, soft->ts, soft->mid,
                     soft->dst});
    return;
  }
  const auto& hard = std::get<AmSendHard>(payload);
  // Task 3. Whether the tuple is queued for the second consensus depends
  // on the fast path's state:
  //   * soft already ordered with the same x — Task 6 fires now, no
  //     consensus needed;
  //   * soft seen but not ordered yet — defer; its decision resolves the
  //     match (Task 6) or promotes the hard for consensus (mismatch);
  //   * no soft seen / ordered with a different x — genuine slow path,
  //     propose immediately as BaseCast would.
  buffer_.note_dst(hard.mid, hard.dst);
  const Tuple tuple{TupleKind::kSyncHard, hard.from_group, hard.ts, hard.mid,
                    hard.dst};
  if (find_tuple(id_of(tuple)) != nullptr) {
    try_task6(ctx, tuple);
    return;
  }
  const auto soft_ts = buffer_.sync_soft_ts(hard.mid, hard.from_group);
  if (soft_ts.has_value() && *soft_ts == hard.ts) {
    try_task6(ctx, tuple);
    return;
  }
  const TupleId soft_id{TupleKind::kSyncSoft, hard.from_group, hard.mid};
  if (!soft_ts.has_value() && find_tuple(soft_id) != nullptr) {
    track(tuple);
    return;
  }
  stage(ctx, tuple);
}

void FastCast::before_propose(Context& ctx, const std::vector<Tuple>& batch) {
  // Algorithm 2, Task 4 (leader only): guess hard timestamps with the soft
  // clock and propagate the guesses one consensus earlier than SEND-HARD.
  if (cs_ < ch_) cs_ = ch_;
  for (const Tuple& t : batch) {
    if (t.kind == TupleKind::kSetHard) {
      ++cs_;
      // One guess per message: a re-proposed SET-HARD keeps the first.
      DeliveryBuffer::Record* rec =
          t.dst.size() > 1 ? buffer_.find(t.mid) : nullptr;
      if (rec != nullptr && !rec->soft_guess.has_value()) {
        const Ts wire_ts = options_.force_slow_path ? cs_ + kForcedSlowOffset : cs_;
        rec->soft_guess = wire_ts;
        ++guesses_sent_;
        if (auto* o = ctx.obs()) {
          o->metrics.counter("fastcast.guesses_sent").inc();
        }
        rm_.multicast(ctx, t.dst, AmSendSoft{cfg_.group, wire_ts, t.mid, t.dst});
      }
    } else if (t.ts > cs_) {
      cs_ = t.ts;  // soft clock must not trail unordered timestamps
    }
  }
}

void FastCast::apply_tuple(Context& ctx, const Tuple& tuple) {
  switch (tuple.kind) {
    case TupleKind::kSetHard: {
      // The first (and only applied) decision of this SET-HARD.
      const std::optional<Ts> guess = buffer_.find(tuple.mid)->soft_guess;
      if (guess.has_value() && *guess != ch_ + 1) {
        ++guess_mismatches_;
        if (auto* o = ctx.obs()) {
          o->metrics.counter("fastcast.guess_mismatches").inc();
        }
      }
      handle_set_hard(ctx, tuple);
      return;
    }
    case TupleKind::kSyncSoft: {
      // Task 5: Lamport update, then buffer the ordered guess; the guess
      // may immediately validate a SEND-HARD that arrived earlier (Task 6).
      if (tuple.ts > ch_) ch_ = tuple.ts;
      if (auto* o = ctx.obs()) {
        o->trace(tuple.mid, obs::SpanEventKind::kSyncSoft, ctx.self(),
                 tuple.group, ctx.now());
      }
      buffer_.note_dst(tuple.mid, tuple.dst);
      buffer_.add_entry(ctx, EntryKind::kSyncSoft, tuple.group, tuple.ts, tuple.mid);
      const TupleId hard_id{TupleKind::kSyncHard, tuple.group, tuple.mid};
      const TupleState* hard = find_tuple(hard_id);
      if (hard != nullptr && !hard->ordered) {
        if (hard->ts == tuple.ts) {
          try_task6(ctx, Tuple{TupleKind::kSyncHard, tuple.group, tuple.ts,
                               tuple.mid, tuple.dst});
        } else {
          // Wrong guess: the deferred SYNC-HARD now needs the second
          // consensus round (the BaseCast slow path).
          queue(ctx, hard_id);
        }
      }
      return;
    }
    case TupleKind::kSyncHard:
      // Task 5 slow-path completion (Task 6 missed or mismatched).
      ++slow_hits_;
      if (auto* o = ctx.obs()) {
        o->metrics.counter("fastcast.slow_path").inc();
      }
      handle_sync_hard(ctx, tuple);
      return;
  }
}

void FastCast::try_task6(Context& ctx, const Tuple& hard_tuple) {
  FC_ASSERT(hard_tuple.kind == TupleKind::kSyncHard);
  const TupleState* known = find_tuple(id_of(hard_tuple));
  if (known != nullptr && known->ordered) return;
  const auto soft = buffer_.sync_soft_ts(hard_tuple.mid, hard_tuple.group);
  if (!soft.has_value() || *soft != hard_tuple.ts) {
    FC_TRACE("node %u task6 miss: mid=%llu group=%u hard=%llu soft=%s", ctx.self(),
             (unsigned long long)hard_tuple.mid, hard_tuple.group,
             (unsigned long long)hard_tuple.ts,
             soft ? std::to_string(*soft).c_str() : "absent");
    return;
  }
  FC_TRACE("node %u task6 match: mid=%llu group=%u ts=%llu", ctx.self(),
           (unsigned long long)hard_tuple.mid, hard_tuple.group,
           (unsigned long long)hard_tuple.ts);

  // Match: the guess was right — treat the SYNC-HARD as ordered without
  // the second consensus. CH is not updated here: the SYNC-SOFT with the
  // same x already raised it in Task 5, identically on every member, so
  // members that order this tuple through the decision stream instead
  // compute the same clock.
  ++fast_hits_;
  if (auto* o = ctx.obs()) {
    o->metrics.counter("fastcast.fast_path").inc();
    o->trace(hard_tuple.mid, obs::SpanEventKind::kTask6Match, ctx.self(),
             hard_tuple.group, ctx.now());
  }
  mark_ordered(*buffer_.find(hard_tuple.mid), TupleKind::kSyncHard,
               hard_tuple.group);
  if (hard_tuple.group == cfg_.group) settle_own_hard(ctx, hard_tuple.mid);
  buffer_.add_entry(ctx, EntryKind::kSyncHard, hard_tuple.group, hard_tuple.ts,
                    hard_tuple.mid);
  buffer_.try_deliver(ctx);
}

}  // namespace fastcast
