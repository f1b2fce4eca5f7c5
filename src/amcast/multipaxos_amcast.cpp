#include "fastcast/amcast/multipaxos_amcast.hpp"

#include <algorithm>

#include "fastcast/common/assert.hpp"
#include "fastcast/obs/observability.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast {

namespace {

/// Messages (payload mode) or id records (id mode) per proposed value, and
/// the most bodies one id-mode pull tick requests.
constexpr std::size_t kMaxBatch = 128;

/// Id mode: a replica whose ordered id records still miss bodies requests
/// them at this interval (backing off ×2 up to 8× while none arrives).
constexpr Duration kBodyPullInterval = milliseconds(25);

bool addressed_to(const MulticastMessage& msg, GroupId g) {
  return std::find(msg.dst.begin(), msg.dst.end(), g) != msg.dst.end();
}

bool addressed_to(const MpIdRecord& rec, GroupId g) {
  return std::find(rec.dst.begin(), rec.dst.end(), g) != rec.dst.end();
}

}  // namespace

MultiPaxosAmcast::MultiPaxosAmcast(Config config, NodeId self)
    : cfg_(std::move(config)), self_(self), cons_(cfg_.consensus, self),
      overload_(cfg_.flow) {
  cons_.set_decide([this](InstanceId inst, const std::vector<std::byte>& value) {
    FC_ASSERT_MSG(ctx_ != nullptr, "decision before on_start");
    on_decide(*ctx_, inst, value);
  });
  // An id record still waiting for its body is not in the delivered set,
  // so a restart must relearn its instance rather than skip past it.
  cons_.set_settled_provider([this] {
    return repair::Settled{pending_order_.empty()
                               ? cons_.learner().next_to_deliver()
                               : pending_order_.front().instance,
                           0};
  });
  if (cfg_.ordering == Config::Ordering::kIds) {
    cons_.set_on_prune(
        [this](Context& ctx, InstanceId floor) { on_prune(ctx, floor); });
  }
}

void MultiPaxosAmcast::restore_durable(const storage::DurableState& durable) {
  const auto it = durable.groups.find(cfg_.consensus.group);
  const storage::DurableState::GroupState* group =
      it == durable.groups.end() ? nullptr : &it->second;
  cons_.restore_durable(group);
  // Re-decided batches replayed by consensus catch-up must not re-deliver.
  delivered_.insert(durable.delivered.begin(), durable.delivered.end());
  if (cfg_.ordering != Config::Ordering::kIds) return;
  // Id mode logs every body on arrival (store_body): a decided record may
  // still reference it after the leader's retransmissions stopped, so the
  // WAL is the only place the payload survives a crash before delivery.
  // A body this node will not deliver retires behind everything its group
  // state shows ordered; a decision relearned later may move that up.
  InstanceId bound = 0;
  if (group != nullptr) {
    bound = group->settled;
    if (!group->accepted.empty()) {
      bound = std::max(bound, group->accepted.rbegin()->first + 1);
    }
  }
  for (const auto& [mid, encoded] : durable.bodies) {
    MulticastMessage m;
    if (!storage::decode_body(encoded, m)) continue;  // guarded by WAL CRC
    const MsgId id = m.id;
    const bool deliverable_here = cfg_.my_group != kNoGroup &&
                                  addressed_to(m, cfg_.my_group) &&
                                  !delivered_.contains(id);
    if (bodies_.emplace(id, Body{std::move(m)}).second && !deliverable_here) {
      retire_after(id, bound);
    }
  }
}

void MultiPaxosAmcast::on_start(Context& ctx) {
  ctx_ = &ctx;
  cons_.on_start(ctx);
}

bool MultiPaxosAmcast::handle(Context& ctx, NodeId from, const Message& msg) {
  if (cons_.handle(ctx, from, msg)) return true;
  if (const auto* submit = std::get_if<MpSubmit>(&msg.payload)) {
    on_submit(ctx, submit->msg);
    return true;
  }
  if (const auto* body = std::get_if<MpBody>(&msg.payload)) {
    on_body(ctx, body->msg);
    return true;
  }
  if (const auto* req = std::get_if<MpBodyRequest>(&msg.payload)) {
    auto it = bodies_.find(req->mid);
    if (it != bodies_.end()) {
      ctx.send(from, Message{MpBody{it->second.msg}});
      if (auto* o = ctx.obs()) {
        o->metrics.counter("multipaxos.body_pulls_served").inc();
      }
    }
    return true;
  }
  return false;
}

void MultiPaxosAmcast::on_submit(Context& ctx, const MulticastMessage& msg) {
  if (!cons_.is_leader(ctx)) return;  // client will retry against the leader
  if (cfg_.ordering == Config::Ordering::kIds) {
    if (seen_submissions_.contains(msg.id)) {
      // Duplicate retry: the record is staged/ordered already, but the
      // first dissemination may have been lost — re-send the body.
      // Already-accepted submissions bypass admission.
      disseminate(ctx, msg);
      return;
    }
    if (!admit_submission(ctx, msg)) return;
    seen_submissions_.insert(msg.id);
    disseminate(ctx, msg);
    store_body(ctx, msg);  // the leader's copy serves pull requests
    if (staged_ids_.empty()) first_staged_at_ = ctx.now();
    staged_ids_.push_back(MpIdRecord{msg.id, msg.sender, msg.dst});
    staged_at_.push_back(ctx.now());
    flush(ctx);
    return;
  }
  if (seen_submissions_.contains(msg.id)) return;  // duplicate retry
  if (!admit_submission(ctx, msg)) return;
  seen_submissions_.insert(msg.id);
  staged_.push_back(msg);
  staged_at_.push_back(ctx.now());
  flush(ctx);
}

bool MultiPaxosAmcast::admit_submission(Context& ctx, const MulticastMessage& msg) {
  if (!overload_.enabled()) return true;
  const Time now = ctx.now();
  auto& prop = cons_.proposer();
  const std::size_t depth = staged_.size() + staged_ids_.size() +
                            prop.queued() + prop.in_flight() +
                            pending_order_.size();
  overload_.note_depth(depth);
  // Arrival lag (client send → leader receipt) is the third congestion
  // signal, and the only one that sees queueing upstream of the protocol
  // clock: transport tx queues and the leader's own unprocessed-event
  // backlog. An overloaded receiver whose staging and propose→decide waits
  // look healthy still saturates here, because messages arrive already
  // stale.
  const bool was_shedding = overload_.shedding();
  if (msg.sent_at > 0) overload_.note_arrival_lag(now, now - msg.sent_at);
  const bool shedding = overload_.overloaded(now);
  auto* o = ctx.obs();
  if (o) {
    o->metrics.gauge("flow.pipeline_depth")
        .record_max(static_cast<std::int64_t>(depth));
    o->metrics.gauge("flow.estimated_delay_ns")
        .record_max(overload_.total_delay());
    o->metrics.gauge("flow.total_delay_now").set(overload_.total_delay());
    o->metrics.gauge("flow.arrival_lag_now").set(overload_.arrival_lag());
    if (shedding != was_shedding) {
      o->metrics
          .counter(shedding ? "flow.shed_entered" : "flow.shed_exited")
          .inc();
    }
  }
  // Deadline-aware early drop: if the current queueing-delay estimate
  // already exceeds the client's deadline, ordering the message would burn
  // a consensus slot on work guaranteed to miss.
  if (msg.deadline > 0 && now + overload_.estimated_delay() > msg.deadline) {
    if (o) o->metrics.counter("flow.expired").inc();
    ctx.send(msg.sender, Message{Busy{msg.id, Busy::Reason::kExpired,
                                      /*advisory=*/false, overload_.retry_after()}});
    return false;
  }
  if (shedding) {
    if (o) o->metrics.counter("flow.rejected").inc();
    ctx.send(msg.sender, Message{Busy{msg.id, Busy::Reason::kOverload,
                                      /*advisory=*/false, overload_.retry_after()}});
    return false;
  }
  // ECN-style early mark: rejection is the only congestion signal a
  // MultiPaxos client ever sees, and a signal that costs a request costs
  // goodput. Marking (admit + advisory Busy) with probability proportional
  // to the delay excess lets paced clients converge on capacity while the
  // queue is still shallow, keeping the gate itself a rare backstop.
  const double mark_p = overload_.mark_probability(now);
  if (mark_p > 0 && (mark_p >= 1.0 || ctx.rng().bernoulli(mark_p))) {
    if (o) o->metrics.counter("flow.marks").inc();
    ctx.send(msg.sender, Message{Busy{msg.id, Busy::Reason::kOverload,
                                      /*advisory=*/true, overload_.retry_after()}});
  }
  return true;
}

void MultiPaxosAmcast::disseminate(Context& ctx, const MulticastMessage& msg) {
  body_dests_.clear();
  for (GroupId g : msg.dst) {
    const auto& members = ctx.membership().members(g);
    body_dests_.insert(body_dests_.end(), members.begin(), members.end());
  }
  std::erase(body_dests_, ctx.self());
  const std::uint64_t copies = body_dests_.size();
  ctx.send_to_nodes(body_dests_, Message{MpBody{msg}});
  if (cfg_.my_group != kNoGroup && addressed_to(msg, cfg_.my_group)) {
    store_body(ctx, msg);
  }
  if (auto* o = ctx.obs()) {
    o->metrics.counter("multipaxos.bodies_sent").inc(copies);
    o->metrics.counter("multipaxos.body_bytes_sent")
        .inc(copies * msg.payload.size());
  }
}

void MultiPaxosAmcast::store_body(Context& ctx, const MulticastMessage& msg) {
  if (delivered_.contains(msg.id)) return;
  if (!bodies_.emplace(msg.id, Body{msg}).second) return;
  if (auto* o = ctx.obs()) {
    o->metrics.gauge("multipaxos.bodies_held")
        .record_max(static_cast<std::int64_t>(bodies_.size()));
  }
  if (storage::NodeStorage* st = ctx.storage()) {
    // Input, not externalization — logged unconditionally, no durability
    // gate. Once the leader stops re-sending, this WAL record is the only
    // copy a restarted node can still deliver (or serve to a peer).
    st->log(storage::WalRecord::body(msg));
    st->commit();
  }
}

void MultiPaxosAmcast::on_body(Context& ctx, const MulticastMessage& msg) {
  if (delivered_.contains(msg.id)) return;
  store_body(ctx, msg);
  drain_pending(ctx);
}

void MultiPaxosAmcast::flush(Context& ctx, bool force) {
  if (cfg_.ordering == Config::Ordering::kIds) {
    // Accumulate under a size/time threshold: propose once the batch holds
    // batch_fill records or batch_delay elapsed since its first record.
    // batch_delay == 0 disables time-based holding entirely.
    auto ripe = [&] {
      return force || cfg_.batch_delay == 0 ||
             staged_ids_.size() >= cfg_.batch_fill ||
             ctx.now() - first_staged_at_ >= effective_batch_delay();
    };
    while (!staged_ids_.empty() && cons_.window_open() && ripe()) {
      std::vector<MpIdRecord> batch;
      const std::size_t n = std::min(staged_ids_.size(), kMaxBatch);
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(staged_ids_.front()));
        staged_ids_.pop_front();
        if (!staged_at_.empty()) {
          overload_.note_sojourn(ctx.now(), ctx.now() - staged_at_.front());
          staged_at_.pop_front();
        }
      }
      if (auto* o = ctx.obs()) {
        o->metrics.histogram("multipaxos.batch_records")
            .observe(static_cast<std::int64_t>(batch.size()));
      }
      cons_.propose(ctx, encode_id_batch(batch));
      if (overload_.enabled()) proposed_at_.push_back(ctx.now());
      first_staged_at_ = ctx.now();  // next accumulation epoch
    }
    if (!staged_ids_.empty() && cfg_.batch_delay > 0) arm_batch_timer(ctx);
    return;
  }
  while (!staged_.empty() && cons_.window_open()) {
    std::vector<MulticastMessage> batch;
    const std::size_t n = std::min(staged_.size(), kMaxBatch);
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(staged_.front()));
      staged_.pop_front();
      if (!staged_at_.empty()) {
        overload_.note_sojourn(ctx.now(), ctx.now() - staged_at_.front());
        staged_at_.pop_front();
      }
    }
    cons_.propose(ctx, encode_msg_batch(batch));
    if (overload_.enabled()) proposed_at_.push_back(ctx.now());
  }
}

// Group commit under pressure: when admission is paced, arrivals slow down
// and time-capped batches get *smaller* — raising per-instance overhead
// exactly when capacity is scarcest. Stretching the accumulation window up
// to 3x with load keeps batches full for a latency cost (sub-millisecond)
// that is noise next to the congestion the fuller batches relieve.
Duration MultiPaxosAmcast::effective_batch_delay() const {
  if (!overload_.enabled()) return cfg_.batch_delay;
  const auto target = static_cast<double>(overload_.options().target_delay);
  const double load =
      std::min(1.0, static_cast<double>(overload_.total_delay()) / target);
  return static_cast<Duration>(static_cast<double>(cfg_.batch_delay) *
                               (1.0 + 2.0 * load));
}

void MultiPaxosAmcast::arm_batch_timer(Context& ctx) {
  if (batch_timer_armed_) return;
  batch_timer_armed_ = true;
  const Time due = first_staged_at_ + effective_batch_delay();
  const Duration wait = due > ctx.now() ? due - ctx.now() : Duration{1};
  ctx.set_timer(wait, [this, &ctx] {
    batch_timer_armed_ = false;
    if (!staged_ids_.empty()) flush(ctx, /*force=*/true);
  });
}

void MultiPaxosAmcast::on_decide(Context& ctx, InstanceId inst,
                                 const std::vector<std::byte>& value) {
  if (overload_.enabled()) {
    // Propose→decide round trip is the second sojourn signal: it grows as
    // the pipelined window and acceptor queues fill. Only the proposals of
    // the *current* leadership stint are matched; a demoted leader's stale
    // stamps would otherwise inflate the estimate after re-election.
    if (!cons_.is_leader(ctx)) {
      proposed_at_.clear();
    } else if (!proposed_at_.empty()) {
      overload_.note_sojourn(ctx.now(), ctx.now() - proposed_at_.front());
      proposed_at_.pop_front();
    }
  }
  if (!value.empty()) {
    if (cfg_.ordering == Config::Ordering::kIds) {
      std::vector<MpIdRecord> batch;
      FC_ASSERT_MSG(decode_id_batch(value, batch), "undecodable id batch");
      for (const MpIdRecord& rec : batch) {
        ++ordered_count_;
        if (auto* o = ctx.obs()) {
          o->metrics.counter("multipaxos.ordered").inc();
        }
        if (cfg_.my_group == kNoGroup || !addressed_to(rec, cfg_.my_group)) {
          // Never delivered here (orderer, foreign destination): a copy
          // this node holds only serves pulls until the floor passes.
          retire_after(rec.mid, inst);
          continue;
        }
        if (delivered_.contains(rec.mid)) continue;  // re-proposed duplicate
        if (!pending_set_.insert(rec.mid).second) continue;
        pending_order_.push_back(Pending{rec, inst});
      }
      drain_pending(ctx);
    } else {
      std::vector<MulticastMessage> batch;
      FC_ASSERT_MSG(decode_msg_batch(value, batch), "undecodable MultiPaxos batch");
      for (const MulticastMessage& msg : batch) {
        ++ordered_count_;
        if (auto* o = ctx.obs()) {
          o->metrics.counter("multipaxos.ordered").inc();
        }
        if (cfg_.my_group == kNoGroup) continue;  // pure orderer delivers nothing
        if (!addressed_to(msg, cfg_.my_group)) continue;
        if (!delivered_.insert(msg.id).second) continue;  // re-proposed duplicate
        deliver(ctx, msg);
      }
    }
  }
  flush(ctx);
}

void MultiPaxosAmcast::drain_pending(Context& ctx) {
  // Deliver strictly in decision order; the queue head gates on its body.
  bool progressed = false;
  while (!pending_order_.empty()) {
    const MsgId mid = pending_order_.front().rec.mid;
    const InstanceId inst = pending_order_.front().instance;
    auto it = bodies_.find(mid);
    if (it == bodies_.end()) break;  // body still in flight; stall
    pending_order_.pop_front();
    pending_set_.erase(mid);
    delivered_.insert(mid);
    retire_after(mid, inst);
    progressed = true;
    // No copy: the body stays in bodies_ until the prune floor passes
    // `inst`, and only a decision or an announce (never a delivery) moves
    // the floor.
    deliver(ctx, it->second.msg);
  }
  if (progressed) pull_backoff_ = 1;
  if (!pending_order_.empty()) {
    if (auto* o = ctx.obs()) {
      o->metrics.gauge("multipaxos.stalled_deliveries")
          .record_max(static_cast<std::int64_t>(pending_order_.size()));
    }
    arm_body_pull(ctx);
  }
}

// Tags a held body with the instance that ordered it. A later decision
// (a re-proposed duplicate) moves the tag up and leaves the older FIFO entry
// stale.
void MultiPaxosAmcast::retire_after(MsgId mid, InstanceId inst) {
  auto it = bodies_.find(mid);
  if (it == bodies_.end()) return;
  InstanceId& retire = it->second.retire;
  if (retire != kUntagged && retire >= inst) return;
  retire = inst;
  retiring_.push_back(Retiring{inst, mid});
}

void MultiPaxosAmcast::on_prune(Context& ctx, InstanceId floor) {
  // Tags arrive in decision order, so the FIFO is sorted except after a
  // restart: a restored body's bound may exceed decisions relearned after
  // it, which then wait behind it until the floor passes the bound.
  while (!retiring_.empty() && retiring_.front().instance < floor) {
    const Retiring r = retiring_.front();
    retiring_.pop_front();
    auto it = bodies_.find(r.mid);
    if (it == bodies_.end() || it->second.retire != r.instance) continue;
    bodies_.erase(it);
    // A delivered body left the durable state with its kDelivered record;
    // one never delivered here (orderer, foreign destination) is dropped
    // explicitly, or every snapshot would carry it forever. Advisory: no
    // commit.
    if (!delivered_.contains(r.mid)) {
      if (storage::NodeStorage* st = ctx.storage()) {
        st->log(storage::WalRecord::drop_body(r.mid));
      }
    }
  }
}

void MultiPaxosAmcast::arm_body_pull(Context& ctx) {
  if (pull_armed_ || pending_order_.empty()) return;
  pull_armed_ = true;
  ctx.set_timer(kBodyPullInterval * pull_backoff_, [this, &ctx] {
    pull_armed_ = false;
    if (pending_order_.empty()) return;  // bodies arrived meanwhile
    // Every pending record is addressed to my_group, so each group peer
    // holds its body until the prune floor passes, and so does the ordering
    // leader, which stored it at submit time. Requests rotate over the
    // group's members, this node's own slot going to the leader, so a
    // crashed holder absorbs only its share.
    const auto& members = ctx.membership().members(cfg_.my_group);
    std::size_t asked = 0;
    for (const Pending& p : pending_order_) {
      if (asked == kMaxBatch) break;
      if (bodies_.contains(p.rec.mid)) continue;
      NodeId target = members[pull_rr_++ % members.size()];
      if (target == ctx.self()) target = cons_.leader();
      ctx.send(target, Message{MpBodyRequest{p.rec.mid}});
      ++asked;
    }
    if (auto* o = ctx.obs(); o && asked > 0) {
      o->metrics.counter("multipaxos.body_pulls").inc(asked);
    }
    if (pull_backoff_ < 8) pull_backoff_ *= 2;
    arm_body_pull(ctx);
  });
}

}  // namespace fastcast
