#pragma once

#include <deque>
#include <limits>
#include <set>
#include <unordered_map>

#include "fastcast/amcast/atomic_multicast.hpp"
#include "fastcast/flow/overload.hpp"
#include "fastcast/paxos/group_consensus.hpp"

/// \file multipaxos_amcast.hpp
/// The non-genuine atomic multicast the paper compares against (§5.1):
/// a fixed ordering group sequences *every* multicast with MultiPaxos,
/// regardless of destinations, and every process in the system learns the
/// decisions (acceptors broadcast P2b to all learners). A replica
/// a-delivers, in decision order, exactly the messages whose destination
/// set contains its group.
///
/// Latency: submit → leader (1δ), accept (1δ), learn (1δ) = 3δ, the atomic
/// broadcast lower bound. Throughput: the ordering group processes the
/// whole system's load, so it saturates at a fixed rate no matter how many
/// groups exist — the contrast Fig. 3 demonstrates.
///
/// Two ordering modes (Config::Ordering):
///   * kPayload — full message batches flow through consensus (the paper's
///     baseline): every P2a/P2b carries every payload byte, so the ordering
///     group's bandwidth caps system throughput.
///   * kIds — the Ring-Paxos-style dissemination/ordering split: the leader
///     forwards bodies directly to the destination replicas (MpBody) while
///     consensus orders compact MpIdRecord batches through its pipelined
///     instance window. A replica delivers in decision order, stalling the
///     queue head until its body arrives; lost bodies are recovered with
///     pull requests (MpBodyRequest) against retained copies, and — when
///     durability is on — bodies are WAL-logged on arrival so a restart
///     keeps every payload a decided record may still reference. Every
///     holder keeps a body until the ordering group's prune floor passes
///     the instance that ordered it: below the floor no learner can still
///     need to pull it.
/// Ordering safety is identical in both modes: only what flows through
/// consensus changes.

namespace fastcast {

class MultiPaxosAmcast final : public AtomicMulticast {
 public:
  struct Config {
    paxos::GroupConsensus::Config consensus;  ///< the fixed ordering group
    GroupId my_group = kNoGroup;  ///< delivery filter; kNoGroup on orderers

    enum class Ordering {
      kPayload,  ///< full payload batches through consensus (baseline)
      kIds,      ///< compact id records; bodies disseminated out-of-band
    };
    Ordering ordering = Ordering::kPayload;

    /// Id-mode batch accumulation: a staged batch is proposed once it holds
    /// batch_fill records or batch_delay elapsed since its first record,
    /// whichever comes first. The defaults propose immediately (latency
    /// first); throughput sweeps raise both to trade ~one batch_delay of
    /// latency for fewer, fuller consensus instances.
    std::size_t batch_fill = 1;
    Duration batch_delay = 0;

    /// Admission control (DESIGN.md §14). The ordering leader is the one
    /// real admission point of the non-genuine protocol: a submission it
    /// has not yet accepted is uncommitted, so rejecting it with Busy is
    /// safe and authoritative. Duplicate retries of already-accepted
    /// submissions bypass admission.
    flow::Options flow;
  };

  MultiPaxosAmcast(Config config, NodeId self);

  void on_start(Context& ctx) override;
  void restore_durable(const storage::DurableState& durable) override;
  paxos::GroupConsensus* consensus_engine() override { return &cons_; }
  bool handle(Context& ctx, NodeId from, const Message& msg) override;
  const char* name() const override { return "MultiPaxos"; }

  std::uint64_t ordered_count() const { return ordered_count_; }
  /// Id mode: decided records still waiting for their body (tests).
  std::size_t stalled_deliveries() const { return pending_order_.size(); }
  /// Id mode: bodies currently held, ordered or not (tests).
  std::size_t body_store_size() const { return bodies_.size(); }
  /// Admission controller (tests / diagnostics).
  const flow::OverloadController& overload() const { return overload_; }

 private:
  void on_submit(Context& ctx, const MulticastMessage& msg);
  bool admit_submission(Context& ctx, const MulticastMessage& msg);
  void flush(Context& ctx, bool force = false);
  void on_decide(Context& ctx, InstanceId inst,
                 const std::vector<std::byte>& value);

  // Id-mode machinery.
  void disseminate(Context& ctx, const MulticastMessage& msg);
  void store_body(Context& ctx, const MulticastMessage& msg);
  void on_body(Context& ctx, const MulticastMessage& msg);
  void drain_pending(Context& ctx);
  void retire_after(MsgId mid, InstanceId inst);
  void on_prune(Context& ctx, InstanceId floor);
  void arm_batch_timer(Context& ctx);
  Duration effective_batch_delay() const;
  void arm_body_pull(Context& ctx);

  Config cfg_;
  NodeId self_;
  paxos::GroupConsensus cons_;
  Context* ctx_ = nullptr;

  std::deque<MulticastMessage> staged_;  // payload mode
  std::set<MsgId> seen_submissions_;  // leader-side dedup of client retries

  // Overload control: staging arrival times (parallel to whichever staging
  // deque the ordering mode uses) feed the controller's sojourn signal at
  // flush; propose times feed it the propose→decide round trip.
  flow::OverloadController overload_;
  std::deque<Time> staged_at_;
  std::deque<Time> proposed_at_;
  std::set<MsgId> delivered_;        // delivery dedup across leader changes
  std::uint64_t ordered_count_ = 0;

  // Id mode: staged compact records awaiting proposal (leader only).
  std::deque<MpIdRecord> staged_ids_;
  Time first_staged_at_ = 0;
  bool batch_timer_armed_ = false;

  // Id mode: body store. A body is held from its arrival until the
  // ordering group's prune floor passes `retire`, the instance that
  // ordered it here (delivered it, or decided it on a node that does not
  // deliver it). Until that instance is known the body stays.
  static constexpr InstanceId kUntagged = std::numeric_limits<InstanceId>::max();
  struct Body {
    MulticastMessage msg;
    InstanceId retire = kUntagged;
  };
  std::unordered_map<MsgId, Body> bodies_;
  // Tagged bodies in tagging order. A re-tag leaves its old entry behind;
  // on_prune skips an entry whose instance no longer matches its body's.
  struct Retiring {
    InstanceId instance = 0;
    MsgId mid = 0;
  };
  std::deque<Retiring> retiring_;
  std::vector<NodeId> body_dests_;  ///< disseminate's reused fan-out list

  // Id mode: decided records addressed to my_group, in decision order,
  // whose delivery stalls until the head's body is present. Each keeps the
  // instance that decided it: the head's instance is not settled yet.
  struct Pending {
    MpIdRecord rec;
    InstanceId instance = 0;
  };
  std::deque<Pending> pending_order_;
  std::set<MsgId> pending_set_;
  bool pull_armed_ = false;
  std::uint32_t pull_backoff_ = 1;
  std::size_t pull_rr_ = 0;  ///< rotates pull targets across holders
};

}  // namespace fastcast
