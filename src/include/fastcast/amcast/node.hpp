#pragma once

#include <memory>

#include "fastcast/amcast/atomic_multicast.hpp"
#include "fastcast/runtime/context.hpp"

/// \file node.hpp
/// The replica Process: owns one AtomicMulticast protocol instance,
/// forwards inbound traffic to it, acknowledges deliveries back to the
/// message sender (how closed-loop clients measure completion latency),
/// and exposes a delivery observer for the checker/metrics.
///
/// With storage attached, a-deliveries are the node's last externalization
/// point: the delivered record is logged and the ack + observers gated on
/// its commit, and under the batch fsync policy this node arms the
/// interval timer that flushes partially filled batches. On start (also
/// of a node rebuilt after a crash) the node re-externalizes every
/// delivery recovery replayed from the WAL: a record can outlive its
/// dropped gate closure (fsynced or kept by a torn tail), and without the
/// redo the delivered-set dedup would hide that delivery from the
/// application forever. Re-externalization is at-least-once; acks and
/// observers dedup by message id.

namespace fastcast {

class ReplicaNode final : public Process {
 public:
  explicit ReplicaNode(std::shared_ptr<AtomicMulticast> protocol);

  /// Observers invoked on every a-delivery (after the ack is queued), in
  /// registration order. Used by the checker, metrics and applications.
  using ObserverFn = std::function<void(Context&, const MulticastMessage&)>;
  void add_observer(ObserverFn fn) { observers_.push_back(std::move(fn)); }

  AtomicMulticast& protocol() { return *protocol_; }

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, NodeId from, const Message& msg) override;

  std::uint64_t delivered_count() const { return delivered_count_; }

 private:
  void externalize(Context& ctx, const MulticastMessage& msg);
  void redeliver_in_doubt(Context& ctx);
  void arm_commit_tick(Context& ctx);

  std::shared_ptr<AtomicMulticast> protocol_;
  std::vector<ObserverFn> observers_;
  std::uint64_t delivered_count_ = 0;
  bool commit_tick_armed_ = false;
};

}  // namespace fastcast
