#pragma once

#include <map>
#include <memory>

#include "fastcast/obs/observability.hpp"
#include "fastcast/rmcast/reliable_multicast.hpp"
#include "fastcast/runtime/context.hpp"

/// \file client_stub.hpp
/// Client-side initiation of an atomic multicast.
///
/// The genuine protocols start with the client r-multicasting START to the
/// destination groups; the non-genuine protocol submits to the fixed
/// ordering group's leader. Completion (delivery acks) is observed by the
/// caller — typically the closed-loop harness client — via AmAck messages;
/// the stub only needs to know about completions to stop retrying.

namespace fastcast {

class ClientStub {
 public:
  virtual ~ClientStub() = default;

  virtual void on_start(Context& ctx) { (void)ctx; }

  /// Initiates a-multicast(msg). msg.id and msg.dst must be filled in.
  virtual void amulticast(Context& ctx, const MulticastMessage& msg) = 0;

  /// Tells the stub the message completed (first delivery ack observed).
  virtual void complete(MsgId mid) { (void)mid; }

  /// Routes stub-internal messages (e.g. rmcast acks); false if not ours.
  virtual bool handle(Context& ctx, NodeId from, const Message& msg) {
    (void)ctx;
    (void)from;
    (void)msg;
    return false;
  }
};

/// START via FIFO reliable multicast — BaseCast and FastCast clients.
class GenuineClientStub final : public ClientStub {
 public:
  explicit GenuineClientStub(RmConfig rmcast = {}) : rm_(rmcast) {}

  void on_start(Context& ctx) override { rm_.on_start(ctx); }
  void amulticast(Context& ctx, const MulticastMessage& msg) override {
    if (auto* o = ctx.obs()) {
      o->metrics.counter("client.mcast").inc();
      o->trace(msg.id, obs::SpanEventKind::kMcast, ctx.self(), kNoGroup,
               ctx.now(), static_cast<std::uint32_t>(msg.dst.size()));
    }
    rm_.multicast(ctx, msg.dst, AmStart{msg});
  }
  bool handle(Context& ctx, NodeId from, const Message& msg) override {
    return rm_.handle(ctx, from, msg);
  }

 private:
  ReliableMulticast rm_;
};

/// Submission to the fixed ordering group — MultiPaxos clients. Over lossy
/// links, retries against successive ordering members until complete()
/// (covers message loss and ordering-leader failover).
class MultiPaxosClientStub final : public ClientStub {
 public:
  struct Config {
    std::vector<NodeId> ordering_members;
    bool reliable_links = true;           ///< disables the retry timer
  };

  static constexpr Duration kRetryInterval = milliseconds(150);

  explicit MultiPaxosClientStub(Config config) : cfg_(std::move(config)) {}

  void amulticast(Context& ctx, const MulticastMessage& msg) override;
  void complete(MsgId mid) override { pending_.erase(mid); }

 private:
  void arm_retry(Context& ctx);

  Config cfg_;
  /// Submissions awaiting complete(), kept only for the retry timer (lossy
  /// links).
  std::map<MsgId, MulticastMessage> pending_;
  std::size_t retry_target_ = 0;
  bool timer_armed_ = false;
};

}  // namespace fastcast
