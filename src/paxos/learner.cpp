#include "fastcast/paxos/learner.hpp"

#include "fastcast/common/assert.hpp"

namespace fastcast::paxos {

void Learner::on_p2b(Context& ctx, const P2b& msg) {
  if (is_decided(msg.instance)) return;

  // Round 0 is reserved for "never voted": no proposer ever runs Phase 2 at
  // it, so a round-0 vote can only be an acceptor replaying a value it
  // aligned to a decision — decided by construction, one report
  // suffices. Counting it as an ordinary vote would split the quorum
  // between the sentinel and the real accept ballot and stall small gaps.
  if (msg.ballot.round == 0) {
    force_decided(ctx, msg.instance, msg.value);
    return;
  }

  auto& state = votes_[msg.instance];
  if (state.voters.empty() || msg.ballot > state.ballot) {
    // First vote, or votes at a higher ballot supersede lower-ballot ones.
    state.ballot = msg.ballot;
    state.voters.clear();
    state.value = msg.value;
  } else if (msg.ballot < state.ballot) {
    return;  // stale vote
  }
  state.voters.insert(msg.acceptor);
  if (state.voters.size() < quorum_) return;

  // Decided. All votes at one ballot carry the same value by the Paxos
  // acceptance invariant.
  std::vector<std::byte> value = std::move(state.value);
  votes_.erase(msg.instance);
  if (observer_) observer_(msg.instance, value);
  decided_.emplace(msg.instance, std::move(value));
  drain(ctx);
}

void Learner::set_start(InstanceId start) {
  if (start <= next_deliver_) return;
  next_deliver_ = start;
  votes_.erase(votes_.begin(), votes_.lower_bound(start));
  decided_.erase(decided_.begin(), decided_.lower_bound(start));
}

bool Learner::force_decided(Context& ctx, InstanceId inst,
                            const std::vector<std::byte>& value) {
  if (is_decided(inst)) return false;
  votes_.erase(inst);
  if (observer_) observer_(inst, value);
  decided_.emplace(inst, value);
  drain(ctx);
  return true;
}

void Learner::drain(Context&) {
  while (true) {
    auto it = decided_.find(next_deliver_);
    if (it == decided_.end()) return;
    std::vector<std::byte> value = std::move(it->second);
    decided_.erase(it);
    const InstanceId inst = next_deliver_++;
    if (decide_) decide_(inst, value);
  }
}

}  // namespace fastcast::paxos
