#include "fastcast/paxos/proposer.hpp"

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"
#include "fastcast/obs/observability.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast::paxos {

void Proposer::assume_stable_leadership(std::uint32_t round, NodeId self) {
  ballot_ = Ballot{round, self};
  ballot_lsn_ = 0;
  phase_ = Phase::kSteady;
}

void Proposer::start_leadership(Context& ctx, std::uint32_t round,
                                InstanceId first_undecided) {
  if (round < round_floor_) round = round_floor_;
  ballot_ = Ballot{round, ctx.self()};
  phase_ = Phase::kPrepare;
  prepare_from_ = first_undecided;
  promises_.clear();
  best_accepted_.clear();
  // Values that were in flight under the previous ballot get requeued; if
  // they were in fact decided, on_decided() / the idempotent caller filters
  // them out.
  for (auto& [inst, value] : in_flight_) queue_.push_front(std::move(value));
  in_flight_.clear();

  // WAL-before-send for the new ballot: log it as a promise record (raising
  // the durable promise watermark this node restores from) and gate the P1a
  // on its commit. A restart then picks a round strictly above anything
  // this incarnation externalized — reusing a round would let two
  // incarnations put different values in one (ballot, instance) slot.
  ballot_lsn_ = storage::log_then(
      ctx.storage(),
      [&](storage::NodeStorage& st) {
        return st.log(storage::WalRecord::promise(config_.group, ballot_));
      },
      [this](Context* c, Message&& prepare) {
        c->send_to_nodes(config_.acceptors, std::move(prepare));
      },
      &ctx, Message{P1a{config_.group, ballot_, prepare_from_}});
  arm_retry(ctx);
}

void Proposer::on_p1b(Context& ctx, NodeId from, const P1b& msg) {
  if (phase_ != Phase::kPrepare || msg.ballot != ballot_) return;
  promises_.insert(from);
  for (const auto& entry : msg.accepted) {
    auto [it, inserted] = best_accepted_.try_emplace(
        entry.instance, std::make_pair(entry.vballot, entry.value));
    if (!inserted && entry.vballot > it->second.first) {
      it->second = {entry.vballot, entry.value};
    }
  }
  if (promises_.size() < config_.quorum) return;

  // Phase 1 complete. Re-drive the highest-ballot accepted value of every
  // open instance (Paxos safety: a decided value is always visible in a
  // quorum of promises) and fill gaps with no-ops so the decision stream
  // stays contiguous.
  phase_ = Phase::kSteady;
  InstanceId max_seen = prepare_from_;
  for (const auto& [inst, entry] : best_accepted_) {
    if (inst + 1 > max_seen) max_seen = inst + 1;
  }
  if (next_instance_ < max_seen) next_instance_ = max_seen;
  if (next_instance_ < prepare_from_) next_instance_ = prepare_from_;
  for (InstanceId inst = prepare_from_; inst < max_seen; ++inst) {
    auto it = best_accepted_.find(inst);
    std::vector<std::byte> value =
        it == best_accepted_.end() ? std::vector<std::byte>{} : it->second.second;
    open_instance(ctx, inst, std::move(value));
  }
  best_accepted_.clear();
  promises_.clear();
  pump(ctx);
}

void Proposer::on_nack(Context& ctx, const PaxosNack& msg) {
  if (phase_ == Phase::kIdle) return;
  if (msg.promised <= ballot_) return;
  // Preempted by a higher ballot. If we still believe we are the leader
  // (the elector has not demoted us) retry Phase 1 above the observed
  // ballot; otherwise the elector will resign us shortly.
  FC_DEBUG("proposer %u preempted by ballot (%u,%u)", ctx.self(),
           msg.promised.round, msg.promised.node);
  const InstanceId from = first_undecided_ ? first_undecided_() : prepare_from_;
  start_leadership(ctx, msg.promised.round + 1, from);
}

void Proposer::propose(Context& ctx, std::vector<std::byte> value) {
  queue_.push_back(std::move(value));
  pump(ctx);
}

void Proposer::open_instance(Context& ctx, InstanceId inst,
                             std::vector<std::byte> value) {
  P2a accept{config_.group, ballot_, inst, value};
  in_flight_.emplace(inst, std::move(value));
  if (auto* o = ctx.obs()) {
    // Pipeline depth: how many consensus instances this proposer keeps in
    // flight simultaneously (bounded by config_.window), plus the size of
    // each proposed value — together they show whether the ordering path
    // is running id-batches through a deep pipeline or serialized payloads.
    o->metrics.gauge("paxos.pipeline.in_flight")
        .record_max(static_cast<std::int64_t>(in_flight_.size()));
    o->metrics.histogram("paxos.pipeline.value_bytes")
        .observe(static_cast<std::int64_t>(accept.value.size()));
  }
  ctx.send_to_nodes(config_.acceptors, Message{std::move(accept)});
  arm_retry(ctx);
}

void Proposer::pump(Context& ctx) {
  if (phase_ != Phase::kSteady) return;
  while (!queue_.empty() && in_flight_.size() < config_.window) {
    std::vector<std::byte> value = std::move(queue_.front());
    queue_.pop_front();
    open_instance(ctx, next_instance_++, std::move(value));
  }
}

void Proposer::on_decided(Context& ctx, InstanceId instance,
                          const std::vector<std::byte>& value) {
  if (instance >= next_instance_) next_instance_ = instance + 1;
  auto it = in_flight_.find(instance);
  if (it != in_flight_.end()) {
    if (it->second != value) {
      // A competing proposer took this slot; our value still needs a slot.
      queue_.push_front(std::move(it->second));
    }
    in_flight_.erase(it);
  }
  pump(ctx);
}

void Proposer::on_start(Context& ctx) {
  if (!config_.reliable_links) arm_retry(ctx);
}

void Proposer::arm_retry(Context& ctx) {
  if (config_.reliable_links || retry_armed_) return;
  retry_armed_ = true;
  ctx.set_timer(config_.retry_interval, [this, &ctx] {
    retry_armed_ = false;
    if (phase_ == Phase::kPrepare &&
        storage::is_durable(ctx.storage(), ballot_lsn_)) {
      ctx.send_to_nodes(config_.acceptors,
                        Message{P1a{config_.group, ballot_, prepare_from_}});
    } else if (phase_ == Phase::kSteady) {
      for (const auto& [inst, value] : in_flight_) {
        ctx.send_to_nodes(config_.acceptors,
                          Message{P2a{config_.group, ballot_, inst, value}});
      }
    }
    if (!config_.reliable_links) arm_retry(ctx);
  });
}

}  // namespace fastcast::paxos
