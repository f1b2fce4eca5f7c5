#pragma once

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "fastcast/runtime/context.hpp"

/// \file proposer.hpp
/// Paxos proposer (leader role) for one group's instance sequence.
///
/// With a stable pre-promised leader (the paper's deployment) Phase 1 is
/// skipped entirely; otherwise becoming leader runs one Phase 1 covering
/// all instances from the first undecided one, adopts the highest-ballot
/// accepted values, fills gaps with no-ops, and then streams Phase 2.
///
/// Exactly-once is *not* guaranteed for proposed values: after preemption
/// a value may be decided in an instance proposed by another leader and
/// also re-proposed here. Callers (the atomic-multicast layer) are
/// idempotent — the paper's "Decided \ Ordered" filter — so duplicate
/// decisions are harmless.

namespace fastcast::paxos {

class Proposer {
 public:
  struct Config {
    GroupId group = kNoGroup;
    std::vector<NodeId> acceptors;
    std::size_t quorum = 0;
    std::size_t window = 32;      ///< max concurrently open instances
    bool reliable_links = true;   ///< disables the retransmission timer
    Duration retry_interval = milliseconds(60);
  };

  explicit Proposer(Config config) : config_(std::move(config)) {}

  /// Assume leadership without Phase 1 (acceptors pre-promised `round`).
  void assume_stable_leadership(std::uint32_t round, NodeId self);

  /// Run Phase 1 with ballot (round, self), starting from `first_undecided`.
  /// `round` is clamped up to the floor set by set_round_floor(). With
  /// storage the P1a is WAL-logged (as a promise record, raising the
  /// node's durable ballot watermark) and gated on its commit, so no
  /// ballot ever reaches the wire that a restart could forget.
  void start_leadership(Context& ctx, std::uint32_t round, InstanceId first_undecided);

  /// Lower bound for any future ballot round. A node restarted from its
  /// WAL sets this strictly above every round the dead incarnation can
  /// have externalized: reusing a round would let two incarnations place
  /// different values in one (ballot, instance) slot, which acceptors
  /// overwrite and learners mis-decide (votes at one ballot are assumed
  /// to carry one value).
  void set_round_floor(std::uint32_t round) { round_floor_ = round; }

  void resign() { phase_ = Phase::kIdle; }
  bool is_leading() const { return phase_ == Phase::kSteady; }
  bool is_preparing() const { return phase_ == Phase::kPrepare; }

  /// Queues a value; it is sent as soon as the pipeline window allows.
  void propose(Context& ctx, std::vector<std::byte> value);

  /// True when propose() would transmit immediately (used for batching).
  bool window_open() const {
    return phase_ == Phase::kSteady && in_flight_.size() < config_.window;
  }
  std::size_t queued() const { return queue_.size(); }
  std::size_t in_flight() const { return in_flight_.size(); }
  Ballot ballot() const { return ballot_; }

  void on_p1b(Context& ctx, NodeId from, const P1b& msg);
  void on_nack(Context& ctx, const PaxosNack& msg);

  /// Fed by the learner (any decision, any order): frees the window and
  /// requeues values whose instance was taken by a competing proposer.
  void on_decided(Context& ctx, InstanceId instance, const std::vector<std::byte>& value);

  /// Starts the periodic retransmission timer (lossy links only).
  void on_start(Context& ctx);

  /// Supplies the first undecided instance (from the learner) for Phase 1
  /// restarts after preemption.
  void set_first_undecided_provider(std::function<InstanceId()> fn) {
    first_undecided_ = std::move(fn);
  }

 private:
  enum class Phase { kIdle, kPrepare, kSteady };

  void open_instance(Context& ctx, InstanceId inst, std::vector<std::byte> value);
  void pump(Context& ctx);
  void arm_retry(Context& ctx);

  Config config_;
  Phase phase_ = Phase::kIdle;
  Ballot ballot_;
  /// WAL position covering ballot_'s promise record (0 = implicit initial
  /// ballot or no storage). Phase-1 retransmissions honour it like the
  /// first send: the ballot must be durable before any P1a is on the wire.
  std::uint64_t ballot_lsn_ = 0;
  std::uint32_t round_floor_ = 0;
  InstanceId next_instance_ = 0;

  std::deque<std::vector<std::byte>> queue_;
  std::map<InstanceId, std::vector<std::byte>> in_flight_;

  // Phase-1 state.
  InstanceId prepare_from_ = 0;
  std::set<NodeId> promises_;
  std::map<InstanceId, std::pair<Ballot, std::vector<std::byte>>> best_accepted_;
  bool retry_armed_ = false;
  std::function<InstanceId()> first_undecided_;
};

}  // namespace fastcast::paxos
