#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "fastcast/runtime/context.hpp"

/// \file learner.hpp
/// Paxos learner: counts P2b votes per (instance, ballot) and emits decided
/// values strictly in instance order. Because all P2b votes for one ballot
/// carry the same value (Paxos invariant), counting distinct acceptors per
/// ballot suffices; the value is taken from the first vote seen. One
/// exception: a vote at the reserved round-0 sentinel ballot reports a
/// value its acceptor aligned to a decision, which is decided by
/// construction and decides immediately without a quorum (see
/// Acceptor::install).

namespace fastcast::paxos {

class Learner {
 public:
  Learner(std::size_t quorum) : quorum_(quorum) {}

  /// Ordered decision upcall: invoked with instances 0, 1, 2, ... exactly
  /// once each, with no gaps.
  using DecideFn = std::function<void(InstanceId, const std::vector<std::byte>&)>;
  void set_decide(DecideFn fn) { decide_ = std::move(fn); }

  /// Raw decision observer (any order, once per instance) — used by the
  /// proposer to free its pipeline window.
  using DecidedObserverFn = std::function<void(InstanceId, const std::vector<std::byte>&)>;
  void set_decided_observer(DecidedObserverFn fn) { observer_ = std::move(fn); }

  void on_p2b(Context& ctx, const P2b& msg);

  /// Jumps the delivery cursor forward to `start` (no-op if not ahead).
  /// Only safe for instances whose replay is provably redundant — a
  /// storage-recovered node resuming at its durable settled frontier, where
  /// every skipped instance is fully reflected in the delivered set.
  void set_start(InstanceId start);

  /// Installs a value learned out-of-band (repair transfer) as decided,
  /// bypassing vote counting. The caller guarantees the value is the
  /// group's decided value for `inst`. Returns false if already decided.
  bool force_decided(Context& ctx, InstanceId inst,
                     const std::vector<std::byte>& value);

  InstanceId next_to_deliver() const { return next_deliver_; }
  bool is_decided(InstanceId i) const {
    return i < next_deliver_ || decided_.contains(i);
  }
  std::size_t undelivered_gap_count() const { return decided_.size(); }

 private:
  struct VoteState {
    Ballot ballot;                 // highest ballot with votes so far
    std::set<NodeId> voters;       // acceptors voting at `ballot`
    std::vector<std::byte> value;  // value at `ballot`
  };

  void drain(Context& ctx);

  std::size_t quorum_;
  DecideFn decide_;
  DecidedObserverFn observer_;
  std::map<InstanceId, VoteState> votes_;
  std::map<InstanceId, std::vector<std::byte>> decided_;  // not yet delivered
  InstanceId next_deliver_ = 0;
};

}  // namespace fastcast::paxos
