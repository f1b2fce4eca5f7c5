#include "fastcast/paxos/acceptor.hpp"

#include <iterator>

#include "fastcast/common/logging.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast::paxos {

void Acceptor::restore(const storage::DurableState::GroupState& durable) {
  if (durable.promised > promised_) promised_ = durable.promised;
  for (const auto& [inst, acc] : durable.accepted) {
    accepted_[inst] = AcceptedValue{acc.ballot, acc.value};
  }
  if (durable.pruned_below > pruned_below_) pruned_below_ = durable.pruned_below;
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
    reply.accepted.push_back({it->first, it->second.vballot, it->second.value});
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
      [this](Context* c, const P2b& v) {
        for (NodeId learner : learners_) c->send(learner, Message{v});
      },
      &ctx, std::move(vote));
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
    vote.ballot = it->second.vballot;
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
  if (inst < pruned_below_) return;
  auto [it, fresh] = accepted_.try_emplace(inst);
  if (!fresh) return;  // the live entry carries a real ballot; keep it
  // Ballot (0,0) marks "learned via repair": any later real accept or P1b
  // adoption supersedes it, and since only decided values are installed the
  // value can never differ from what a quorum converges on. Learners treat
  // a replayed round-0 vote as decided outright (no quorum), so catch-up
  // cannot stall on votes split between the sentinel and the real ballot.
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
