#pragma once

#include <functional>

#include "fastcast/runtime/context.hpp"

/// \file atomic_multicast.hpp
/// Replica-side interface implemented by the three protocols in this
/// repository: BaseCast (Algorithm 1), FastCast (Algorithm 2), and the
/// non-genuine MultiPaxos-based atomic multicast.
///
/// A protocol instance runs inside one replica process. It consumes the
/// messages routed to it by its node, and a-delivers application messages
/// through the deliver callback — in an order satisfying uniform integrity,
/// validity, uniform agreement, uniform prefix order and acyclic order
/// (§2.3). Clients initiate multicasts with the helpers in
/// client_stub.hpp.

namespace fastcast {

namespace storage {
struct DurableState;
}
namespace paxos {
class GroupConsensus;
}

class AtomicMulticast {
 public:
  virtual ~AtomicMulticast() = default;

  /// a-deliver upcall. Invoked at most once per message, in this replica's
  /// delivery order.
  using DeliverFn = std::function<void(Context&, const MulticastMessage&)>;
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Arms the stack's timers. Also runs on an instance rebuilt after a
  /// crash, once restore_durable has seeded it.
  virtual void on_start(Context& ctx) = 0;

  /// Installs WAL-recovered state into a freshly constructed instance
  /// (acceptor promises/accepted values, rmcast floors and staged frames,
  /// the delivered set, persisted bodies). Called before on_start, never
  /// after messages. Default: nothing durable to restore.
  virtual void restore_durable(const storage::DurableState& durable) {
    (void)durable;
  }

  /// The group-consensus engine driving this protocol's deciding group, or
  /// null (client stubs, protocols without one on this node). Lets the
  /// environment flush/inspect acceptor state without knowing the subtype.
  virtual paxos::GroupConsensus* consensus_engine() { return nullptr; }

  /// Routes one inbound message; returns false if it is not for this
  /// protocol (the node wrapper may then try other components).
  virtual bool handle(Context& ctx, NodeId from, const Message& msg) = 0;

  virtual const char* name() const = 0;

 protected:
  void deliver(Context& ctx, const MulticastMessage& msg) {
    if (deliver_) deliver_(ctx, msg);
  }

 private:
  DeliverFn deliver_;
};

}  // namespace fastcast
