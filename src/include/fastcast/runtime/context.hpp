#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fastcast/common/rng.hpp"
#include "fastcast/common/time.hpp"
#include "fastcast/runtime/ids.hpp"
#include "fastcast/runtime/membership.hpp"
#include "fastcast/runtime/message.hpp"

/// \file context.hpp
/// Execution environment handed to protocol code.
///
/// All protocol logic (reliable multicast, Paxos, the three atomic-multicast
/// implementations) is written against Context only, so the same objects run
/// unmodified inside the deterministic simulator and on the TCP runtime.
/// Contexts are single-threaded: the environment invokes one handler at a
/// time per node and the handler may call back into the context freely.

namespace fastcast {

namespace obs {
class Observability;
}

namespace storage {
class NodeStorage;
}

using TimerId = std::uint64_t;
constexpr TimerId kInvalidTimer = 0;

class Context {
 public:
  virtual ~Context() = default;

  /// The node this context belongs to.
  virtual NodeId self() const = 0;

  /// Current (virtual or wall-clock) time in nanoseconds since run start.
  virtual Time now() const = 0;

  /// Asynchronously sends `msg` to node `to`. Sending to self is allowed
  /// and is delivered like any other message (never synchronously, so
  /// handlers cannot re-enter).
  virtual void send(NodeId to, const Message& msg) = 0;

  /// Move-in overload for temporaries — `ctx.send(to, Message{frame})` is
  /// the dominant idiom on the protocol hot paths, and a Message carries
  /// several vectors/strings, so contexts that buffer (the simulator) take
  /// ownership instead of deep-copying. Default forwards to the copying
  /// send for contexts that serialize immediately.
  virtual void send(NodeId to, Message&& msg) {
    send(to, static_cast<const Message&>(msg));
  }

  /// Sends one message to every node in `to` — the fan-out of a proposer's
  /// P1a/P2a, an acceptor's P2b, a heartbeat or an announce. The message is
  /// immutable once handed over, so a context may share one object among
  /// all destinations: the simulator queues N entries pointing at one
  /// shared Message, each still charged, dropped and filtered on its own.
  /// The default sends each destination the same const object, so a
  /// context that serializes on send (TCP) encodes from it with no
  /// per-destination copy.
  virtual void send_to_nodes(const std::vector<NodeId>& to, Message&& msg) {
    for (NodeId n : to) send(n, msg);
  }

  /// Schedules `cb` to run after `delay`. Returns an id for cancel_timer.
  virtual TimerId set_timer(Duration delay, std::function<void()> cb) = 0;
  virtual void cancel_timer(TimerId id) = 0;

  /// Deterministic per-node randomness.
  virtual Rng& rng() = 0;

  /// Static deployment description.
  virtual const Membership& membership() const = 0;

  // Convenience helpers -----------------------------------------------------

  GroupId my_group() const { return membership().group_of(self()); }

  // Observability -----------------------------------------------------------

  /// Run-wide metrics/tracing bundle, or null when observability is off.
  /// Non-virtual on purpose: instrumentation sites compile to a single
  /// pointer test when disabled.
  obs::Observability* obs() const { return obs_; }
  void set_observability(obs::Observability* o) { obs_ = o; }

  // Durability --------------------------------------------------------------

  /// This node's write-ahead-log handle, or null when durability is off
  /// (the default — protocol code must work unchanged without it). Same
  /// single-pointer-test contract as obs().
  storage::NodeStorage* storage() const { return storage_; }
  void set_storage(storage::NodeStorage* s) { storage_ = s; }

 private:
  obs::Observability* obs_ = nullptr;
  storage::NodeStorage* storage_ = nullptr;
};

/// A protocol endpoint: one object per node, driven by its environment.
class Process {
 public:
  virtual ~Process() = default;

  /// Called once before any message, after the whole cluster is wired up.
  virtual void on_start(Context& ctx) { (void)ctx; }

  /// Called when the environment restarts this node after a crash. The
  /// restarted process is always a new object, built by the environment
  /// from the node's durable state (see AtomicMulticast::restore_durable);
  /// anything not in the WAL is gone, as after a real kill -9, and so is
  /// every timer armed before the crash. A new object has no stale timer
  /// guards to reset, so the default just runs on_start.
  virtual void on_recover(Context& ctx) { on_start(ctx); }

  /// Called for every message addressed to this node.
  virtual void on_message(Context& ctx, NodeId from, const Message& msg) = 0;
};

}  // namespace fastcast
