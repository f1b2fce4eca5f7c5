#include "fastcast/paxos/group_consensus.hpp"

#include <algorithm>

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"
#include "fastcast/obs/observability.hpp"

namespace fastcast::paxos {

std::vector<NodeId> GroupConsensus::all_learners(const Config& config) {
  std::vector<NodeId> out = config.members;
  out.insert(out.end(), config.extra_learners.begin(), config.extra_learners.end());
  return out;
}

GroupConsensus::GroupConsensus(Config config, NodeId self)
    : config_(std::move(config)),
      self_(self),
      acceptor_(config_.group, all_learners(config_)),
      learner_(config_.members.size() / 2 + 1),
      proposer_(Proposer::Config{
          .group = config_.group,
          .acceptors = config_.members,
          .quorum = config_.members.size() / 2 + 1,
          .window = config_.window,
          .reliable_links = config_.reliable_links,
          .retry_interval = config_.retry_interval,
      }),
      elector_(LeaderElector::Config{
          .group = config_.group,
          .members = config_.members,
          .heartbeats = config_.heartbeats,
          .heartbeat_interval = config_.heartbeat_interval,
          .timeout = config_.election_timeout,
      }),
      repair_(
          repair::RepairCoordinator::Config{
              .group = config_.group,
              .self = self_,
              .members = config_.members,
              .learners = all_learners(config_),
              .options = config_.repair,
          },
          repair_hooks()) {
  FC_ASSERT(!config_.members.empty());

  // Stable-leader deployment: every acceptor pre-promises ballot
  // (1, members[0]) so the initial leader streams Phase 2 from the start.
  const Ballot initial{1, config_.members.front()};
  acceptor_.set_initial_promise(initial);
  if (self_ == config_.members.front()) {
    proposer_.assume_stable_leadership(1, self_);
  }

  if (is_member(self_)) {
    learner_.set_decided_observer(
        [this](InstanceId inst, const std::vector<std::byte>& value) {
          FC_ASSERT_MSG(ctx_ != nullptr, "decision before on_start");
          if (auto* o = ctx_->obs()) {
            o->metrics.counter("paxos.decisions").inc();
          }
          proposer_.on_decided(*ctx_, inst, value);
        });
    proposer_.set_first_undecided_provider(
        [this] { return learner_.next_to_deliver(); });
  }
  set_decide(nullptr);

  elector_.set_on_change([this](Context& ctx, NodeId new_leader, std::uint64_t epoch) {
    if (new_leader == self_ && is_member(self_)) {
      proposer_.start_leadership(ctx, static_cast<std::uint32_t>(epoch + 1),
                                 learner_.next_to_deliver());
    } else {
      proposer_.resign();
    }
    if (on_leader_change_) on_leader_change_(ctx, new_leader);
  });
}

void GroupConsensus::set_decide(DecideFn fn) {
  learner_.set_decide([this, fn = std::move(fn)](
                          InstanceId inst, const std::vector<std::byte>& value) {
    FC_ASSERT_MSG(ctx_ != nullptr, "decision before on_start");
    // A member's acceptor is its record of decided history, which repair
    // transfers are served from. Align it before the protocol runs, so its
    // record precedes anything the decision makes the protocol log (the
    // kSettled record that will cover it included).
    if (is_member(self_)) acceptor_.install(*ctx_, inst, value);
    if (fn) fn(inst, value);
    repair_.note_decided(*ctx_);
  });
}

repair::RepairCoordinator::Hooks GroupConsensus::repair_hooks() {
  return repair::RepairCoordinator::Hooks{
      .settled =
          [this] {
            return settled_provider_
                       ? settled_provider_()
                       : repair::Settled{learner_.next_to_deliver(), 0};
          },
      .frontier = [this] { return learner_.next_to_deliver(); },
      .install =
          [this](Context& ctx, InstanceId inst,
                 const std::vector<std::byte>& value) {
            return learner_.force_decided(ctx, inst, value);
          },
      .prune =
          [this](Context& ctx, InstanceId floor) {
            if (is_member(self_)) acceptor_.prune_below(floor);
            if (on_prune_) on_prune_(ctx, floor);
          },
      .accepted =
          [this] {
            return repair::AcceptedLog{acceptor_.accepted(),
                                       acceptor_.pruned_below()};
          },
      .kick_tail = [this](Context& ctx) { arm_catch_up(ctx); },
  };
}

bool GroupConsensus::is_member(NodeId n) const {
  return std::find(config_.members.begin(), config_.members.end(), n) !=
         config_.members.end();
}

void GroupConsensus::restore_durable(
    const storage::DurableState::GroupState* durable) {
  recovered_from_storage_ = true;
  if (durable == nullptr) return;  // cold start: stable-leader fast path holds
  acceptor_.restore(*durable);
  // Resume learning at the durable settled frontier: every skipped
  // instance is fully reflected in the durable delivered set (that is what
  // "settled" means), and below the group's prune floor — which the
  // announced settled frontier bounds from above — no peer retains the
  // entries to relearn anyway.
  learner_.set_start(durable->settled);
  repair_.restore_durable_settled(durable->settled);
  must_reestablish_ = true;
  // Every ballot the dead incarnation externalized is covered by a durable
  // promise record (acceptor replies and proposer P1a sends are both gated
  // on one), so promised.round is an upper bound on the wire history.
  std::uint32_t round = durable->promised.round;
  for (const auto& [inst, acc] : durable->accepted) {
    round = std::max(round, acc.ballot.round);
  }
  recover_round_ = std::max<std::uint32_t>(round + 1, 2);
  proposer_.set_round_floor(recover_round_);
}

void GroupConsensus::on_start(Context& ctx) {
  ctx_ = &ctx;
  // Only members hear heartbeats; a learner running the elector would
  // suspect the leader every election timeout.
  if (is_member(self_)) {
    elector_.on_start(ctx);
    proposer_.on_start(ctx);
  }
  repair_.on_start(ctx);
  // Over lossy links a learner can permanently miss a quorum of P2b votes
  // (the proposer stops retrying once *it* has learned); poll acceptors
  // for anything at or beyond our next undecided instance. A storage-
  // recovered instance polls even over reliable links: its learner starts
  // empty and must relearn every decided instance from the acceptors.
  if (!config_.reliable_links || recovered_from_storage_) arm_catch_up(ctx);
  if (recovered_from_storage_ && is_member(self_)) {
    // The restored acceptor's durable accepts are this node's own votes,
    // and catch-up polls only the peers: an instance that only this node
    // and one peer accepted before the crash would never reach a quorum.
    const auto& accepted = acceptor_.accepted();
    for (auto it = accepted.lower_bound(learner_.next_to_deliver());
         it != accepted.end(); ++it) {
      learner_.on_p2b(ctx, P2b{config_.group, it->second.ballot, it->first,
                               self_, it->second.value});
    }
  }
  reestablish_leadership(ctx);
}

void GroupConsensus::reestablish_leadership(Context& ctx) {
  if (!must_reestablish_) return;
  must_reestablish_ = false;
  if (!is_member(self_)) return;
  // A node restarted from its WAL cannot resume the constructor's
  // pre-promised steady phase: the proposer's instance tracking is not
  // persisted, so streaming Phase 2 at the old ballot would reuse
  // instances the dead incarnation already filled — at an equal ballot,
  // which acceptors overwrite and learners mis-decide. Re-run Phase 1 at
  // recover_round_; the promise quorum reveals every accepted instance
  // and re-drives it before anything new enters the stream.
  if (elector_.is_self_leader(ctx)) {
    proposer_.start_leadership(ctx, recover_round_, learner_.next_to_deliver());
  } else {
    proposer_.resign();
  }
}

void GroupConsensus::arm_catch_up(Context& ctx) {
  if (catch_up_armed_) return;  // one chain even if on_start runs twice
  catch_up_armed_ = true;
  // Polls that make no progress back off exponentially (a far-behind
  // learner is driven by P2bMore continuation hints instead, and an idle
  // group has nothing new to poll for); any progress snaps back to the
  // base interval.
  ctx.set_timer(config_.retry_interval * catch_up_backoff_, [this, &ctx] {
    catch_up_armed_ = false;
    const InstanceId next = learner_.next_to_deliver();
    if (next > catch_up_last_frontier_) {
      catch_up_backoff_ = 1;
    } else if (catch_up_backoff_ < kMaxCatchUpBackoff) {
      catch_up_backoff_ *= 2;
    }
    catch_up_last_frontier_ = next;
    // A running snapshot transfer owns the gap: polling it as well would
    // replay the same instances once per acceptor. The chain keeps ticking
    // and polls the tail once the transfer ends.
    if (!repair_.transfer_active()) {
      if (peers_.empty()) {
        peers_ = config_.members;
        std::erase(peers_, self_);
      }
      ctx.send_to_nodes(peers_, Message{P2bRequest{config_.group, next}});
    }
    arm_catch_up(ctx);
  });
}

void GroupConsensus::propose(Context& ctx, std::vector<std::byte> value) {
  if (!is_member(self_) || !elector_.is_self_leader(ctx)) return;
  if (auto* o = ctx.obs()) {
    o->metrics.counter("paxos.proposals").inc();
  }
  proposer_.propose(ctx, std::move(value));
}

bool GroupConsensus::handle(Context& ctx, NodeId from, const Message& msg) {
  if (const auto* p1a = std::get_if<P1a>(&msg.payload)) {
    if (p1a->group != config_.group) return false;
    if (is_member(self_)) acceptor_.on_p1a(ctx, from, *p1a);
    return true;
  }
  if (const auto* p1b = std::get_if<P1b>(&msg.payload)) {
    if (p1b->group != config_.group) return false;
    proposer_.on_p1b(ctx, from, *p1b);
    return true;
  }
  if (const auto* p2a = std::get_if<P2a>(&msg.payload)) {
    if (p2a->group != config_.group) return false;
    if (is_member(self_)) acceptor_.on_p2a(ctx, from, *p2a);
    return true;
  }
  if (const auto* p2b = std::get_if<P2b>(&msg.payload)) {
    if (p2b->group != config_.group) return false;
    learner_.on_p2b(ctx, *p2b);
    return true;
  }
  if (const auto* nack = std::get_if<PaxosNack>(&msg.payload)) {
    if (nack->group != config_.group) return false;
    proposer_.on_nack(ctx, *nack);
    return true;
  }
  if (const auto* req = std::get_if<P2bRequest>(&msg.payload)) {
    if (req->group != config_.group) return false;
    if (is_member(self_)) acceptor_.on_p2b_request(ctx, from, *req);
    return true;
  }
  if (const auto* hb = std::get_if<FdHeartbeat>(&msg.payload)) {
    if (hb->group != config_.group) return false;
    return elector_.handle(ctx, from, msg);
  }
  if (const auto* more = std::get_if<P2bMore>(&msg.payload)) {
    if (more->group != config_.group) return false;
    // Continuation hint: the acceptor's reply batch was capped. Re-poll it
    // immediately — but at most once per frontier value, so a gap that no
    // reply can fill falls back to the backed-off timer instead of
    // ping-ponging at network speed.
    const InstanceId next = learner_.next_to_deliver();
    if (next != more_polled_ && !repair_.transfer_active()) {
      more_polled_ = next;
      ctx.send(from, Message{P2bRequest{config_.group, next}});
    }
    return true;
  }
  return repair_.handle(ctx, from, msg);
}

}  // namespace fastcast::paxos
