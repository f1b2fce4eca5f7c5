#include "fastcast/paxos/acceptor.hpp"

#include <iterator>

#include "fastcast/common/logging.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast::paxos {

void Acceptor::restore(const storage::DurableState::GroupState& durable) {
  if (durable.promised > promised_) promised_ = durable.promised;
  for (const auto& [inst, acc] : durable.accepted) {
    accepted_.insert_or_assign(inst, acc);
  }
  if (durable.pruned_below > pruned_below_) pruned_below_ = durable.pruned_below;
  if (durable.settled > decided_below_) decided_below_ = durable.settled;
}

void Acceptor::on_p1a(Context& ctx, NodeId from, const P1a& msg) {
  // Ballots embed the proposer id, so equality implies the same proposer
  // retransmitting Phase 1 — replying again is idempotent.
  if (msg.ballot < promised_) {
    ctx.send(from, Message{PaxosNack{group_, promised_, msg.from_instance}});
    return;
  }
  promised_ = msg.ballot;

  P1b reply;
  reply.group = group_;
  reply.ballot = promised_;
  reply.from_instance = msg.from_instance;
  for (auto it = accepted_.lower_bound(msg.from_instance); it != accepted_.end();
       ++it) {
    reply.accepted.push_back({it->first, it->second.ballot, it->second.value});
  }

  // The promise record is appended after any accept records it reports, so
  // gating the reply on it transitively covers them all. If the node crashes
  // first the promise was never externalized and forgetting it is harmless.
  storage::log_then(
      ctx.storage(),
      [&](storage::NodeStorage& st) {
        return st.log(storage::WalRecord::promise(group_, promised_));
      },
      [](Context* c, NodeId to, P1b&& r) { c->send(to, Message{std::move(r)}); },
      &ctx, from, std::move(reply));
}

void Acceptor::on_p2a(Context& ctx, NodeId from, const P2a& msg) {
  if (msg.ballot < promised_) {
    ctx.send(from, Message{PaxosNack{group_, promised_, msg.instance}});
    return;
  }
  if (msg.instance < decided_below_) {
    // Every ballot above the deciding one proposes the decided value, so a
    // P2a carrying another value (or one below the prune floor) is from a
    // stale lower ballot. Accepting it would overwrite the decided value
    // that transfers ship; ignoring it is always allowed.
    const auto it = accepted_.find(msg.instance);
    if (it == accepted_.end() || it->second.value != msg.value) return;
  }
  promised_ = msg.ballot;
  accepted_[msg.instance] = AcceptedValue{msg.ballot, msg.value};

  P2b vote;
  vote.group = group_;
  vote.ballot = msg.ballot;
  vote.instance = msg.instance;
  vote.acceptor = ctx.self();
  vote.value = msg.value;

  // An accept record implies the promise (DurableState::apply), so one
  // record covers both state changes this handler made.
  storage::log_then(
      ctx.storage(),
      [&](storage::NodeStorage& st) {
        return st.log(storage::WalRecord::accept(group_, msg.instance,
                                                 msg.ballot, msg.value));
      },
      [this](Context* c, Message&& v) {
        c->send_to_nodes(learners_, std::move(v));
      },
      &ctx, Message{std::move(vote)});
}

void Acceptor::on_p2b_request(Context& ctx, NodeId from, const P2bRequest& msg) {
  // Catch-up re-externalizes accepted values; make sure every logged accept
  // is durable before any of them goes back on the wire.
  if (storage::NodeStorage* st = ctx.storage()) st->flush();

  constexpr std::size_t kMaxReplies = 128;
  std::size_t sent = 0;
  auto it = accepted_.lower_bound(msg.from_instance);
  for (; it != accepted_.end() && sent < kMaxReplies; ++it, ++sent) {
    P2b vote;
    vote.group = group_;
    vote.ballot = it->second.ballot;
    vote.instance = it->first;
    vote.acceptor = ctx.self();
    vote.value = it->second.value;
    ctx.send(from, Message{vote});
  }
  // A far-behind learner would otherwise wait out its full retry interval
  // per 128-instance batch; tell it where this batch stopped so it can
  // re-poll immediately.
  if (it != accepted_.end()) {
    ctx.send(from, Message{P2bMore{group_, it->first}});
  }
}

void Acceptor::install(Context& ctx, InstanceId inst,
                       const std::vector<std::byte>& value) {
  if (inst >= decided_below_) decided_below_ = inst + 1;
  if (inst < pruned_below_) return;
  auto [it, fresh] = accepted_.try_emplace(inst);
  if (!fresh && it->second.value == value) return;  // keep the real ballot
  // Round 0 marks "decided, learned without a vote": any later real accept
  // (of the same value, see on_p2a) or P1b adoption supersedes it.
  // Learners treat a replayed round-0 vote as decided outright (no
  // quorum), so catch-up cannot stall on votes split between the sentinel
  // and the real ballot.
  it->second = AcceptedValue{Ballot{}, value};
  if (storage::NodeStorage* st = ctx.storage()) {
    st->log(storage::WalRecord::accept(group_, inst, Ballot{}, value));
    st->commit();
  }
}

std::size_t Acceptor::prune_below(InstanceId floor) {
  if (floor <= pruned_below_) return 0;
  pruned_below_ = floor;
  const auto end = accepted_.lower_bound(floor);
  const auto n =
      static_cast<std::size_t>(std::distance(accepted_.begin(), end));
  accepted_.erase(accepted_.begin(), end);
  return n;
}

}  // namespace fastcast::paxos
