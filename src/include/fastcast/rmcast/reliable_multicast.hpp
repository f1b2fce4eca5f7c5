#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fastcast/runtime/context.hpp"
#include "fastcast/storage/snapshot.hpp"

/// \file reliable_multicast.hpp
/// Non-uniform FIFO reliable multicast (§2.3 of the paper).
///
/// Properties provided:
///   * validity / integrity — a message multicast by a correct origin is
///     delivered exactly once by every correct destination process;
///   * FIFO order — per (origin, destination) sequence numbers. A frame
///     that arrives in order is delivered straight from the arriving
///     message; only one that arrives after a gap is copied into a
///     holdback queue, and drains once the gap fills;
///   * non-uniform agreement — optional relaying: when a process
///     r-delivers a copy it can forward the remaining copies, so a
///     destination still delivers if the origin crashed mid-multicast.
///
/// Retransmission (for fair-lossy links) is ack-based and driven by a
/// periodic timer at the origin; over reliable links (the simulator's
/// default, or TCP) acks are disabled entirely, matching the paper's
/// TCP-based prototype.
///
/// One delay: the origin sends one frame directly to every destination
/// process, which is the 1δ propagation assumed by Propositions 1–2. Each
/// receiver reads its own sequence number from the frame's list.
///
/// Durability (ctx.storage() non-null): sequence assignments and staged
/// frames are WAL-logged and every transmission — the first send and
/// retransmissions alike — gated on the covering commit, so a
/// restarted origin never reuses a sequence number; receivers log FIFO
/// progress and gate both the delivery upcall and the ack on it, so a
/// frame is acked (retransmission stops) only once surviving the crash is
/// guaranteed — anything less durable is simply retransmitted.

namespace fastcast {

struct RmConfig {
  /// When true (TCP-like links) acks/retransmissions are skipped.
  bool reliable_links = true;

  enum class Relay {
    kNone,    ///< trust the origin (paper prototype behaviour)
    kSelf,    ///< every receiver relays its first delivery (uniform-ish)
  };
  Relay relay = Relay::kNone;
};

class ReliableMulticast {
 public:
  /// Lossy links: how often the origin re-sends every unacked frame.
  static constexpr Duration kRetransmitInterval = milliseconds(40);

  explicit ReliableMulticast(RmConfig config = {}) : config_(config) {}

  /// Delivery upcall: FIFO per origin, invoked exactly once per message.
  using DeliverFn =
      std::function<void(Context&, NodeId origin, const AmcastPayload&)>;
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// r-multicast(inner) to every member of every group in `dst`.
  void multicast(Context& ctx, const std::vector<GroupId>& dst,
                 AmcastPayload inner);

  /// Starts the retransmission timer when links are lossy.
  void on_start(Context& ctx);

  /// Installs recovered durable state: per-destination sequence floors,
  /// still-unacked staged frames (resuming retransmission), and receiver
  /// next-expected floors (resuming dedup). Call before on_start.
  void restore(const storage::DurableState& durable);

  /// Returns true if the message was an rmcast frame (consumed).
  bool handle(Context& ctx, NodeId from, const Message& msg);

  // Introspection for tests.
  std::size_t holdback_size() const;
  std::size_t unacked_count() const { return unacked_.size(); }
  std::uint64_t next_expected_from(NodeId origin) const {
    auto it = origins_.find(origin);
    return it == origins_.end() ? 1 : it->second.next_expected;
  }

 private:
  struct OriginState {
    std::uint64_t next_expected = 1;
    /// seq -> frame that arrived after a gap; every key > next_expected.
    std::map<std::uint64_t, RmData> holdback;
  };

  void on_data(Context& ctx, NodeId from, const RmData& data);
  void deliver_frame(Context& ctx, const RmData& frame);
  void relay(Context& ctx, const RmData& data);
  void arm_retransmit(Context& ctx);

  RmConfig config_;
  DeliverFn deliver_;

  // Sender side.
  struct Staged {
    std::shared_ptr<const RmData> frame;  ///< shared by one multicast's dests
    /// The staging multicast's gate (its last record's LSN), which covers
    /// the frame's seq advance and staged copy. The frame must never hit
    /// the wire — first send OR retransmission — before this is durable: a crash could otherwise forget the seq
    /// advance of a frame a receiver already saw, and the recovered
    /// sender would reuse the seq for a different message, which every
    /// receiver silently drops as a duplicate. 0 = no gate (no storage,
    /// or restored from the WAL itself).
    storage::Lsn lsn = 0;
  };
  std::unordered_map<NodeId, std::uint64_t> next_seq_;  // per destination
  std::map<std::pair<NodeId, std::uint64_t>, Staged> unacked_;  // (dest,seq)

  // Receiver side.
  std::unordered_map<NodeId, OriginState> origins_;
  bool timer_armed_ = false;

  std::vector<std::byte> stage_scratch_;  ///< reused staged-frame encoding
};

}  // namespace fastcast
