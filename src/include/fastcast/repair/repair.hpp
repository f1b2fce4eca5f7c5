#pragma once

#include <functional>
#include <map>
#include <span>
#include <vector>

#include "fastcast/common/time.hpp"
#include "fastcast/runtime/context.hpp"
#include "fastcast/runtime/message.hpp"
#include "fastcast/storage/snapshot.hpp"

/// \file repair.hpp
/// State transfer and replica repair for one consensus group.
///
/// Every learner of a group gossips a WatermarkAnnounce with two cursors:
/// its *settled* frontier (every instance below it is fully reflected in
/// its durable delivered set, so replaying it is a provable no-op) and its
/// decided *frontier* (next undecided instance). Gossip is always on but
/// quiescent: the announce tick runs only while there is something to say
/// (see arm_announce), so a group that decides nothing stays silent and an
/// idle run drains. From these cursors the coordinator derives both halves
/// of the subsystem:
///
///  * Lag recovery: a replica whose frontier trails the best peer's by more
///    than a threshold pulls the decided range [frontier, peer frontier)
///    as chunked, CRC-guarded RepairSnapshot messages read from the peer's
///    acceptor — O(gap / chunk) messages instead of the O(gap × acceptors)
///    P2b replay of plain catch-up polling. A member's acceptor is its
///    only record of decided history: the decide path aligns it with every
///    decided value, so it holds every instance between its prune floor
///    and its learner frontier, across restarts too. Chunks are fetched
///    stop-and-wait (one outstanding request), so jittered links cannot
///    reorder a transfer. Installed entries flow through the normal learner
///    decide path, so delivery order, dedup, and durability gating are
///    untouched; a corrupt chunk indicts the server and the transfer
///    re-fetches from another peer.
///
///  * Watermark pruning: the minimum settled frontier over *all* learners
///    is the group's prune floor — below it no live peer can ever need an
///    accepted value again, so acceptors drop those entries (a few
///    instances per decision, so no handler frees a whole advance at once)
///    instead of growing without bound. A learner that has not announced
///    blocks pruning entirely, and a down learner freezes the floor at its
///    last announce: pruning can stall, never overtake a peer. With
///    storage attached, the announced settled value is additionally gated
///    on WAL durability (it advances only once the backing kSettled record
///    — and transitively the kDelivered and aligning kAccept records it
///    covers — is flushed), so a crash can never leave the node below a
///    floor its own announce let peers prune to.

namespace fastcast::repair {

/// Protocol-layer settled view: the frontier plus a logical-clock upper
/// bound covering every timestamp the settled instances influenced (so a
/// restart that jumps to `frontier` cannot regress its clock).
struct Settled {
  InstanceId frontier = 0;
  std::uint64_t clock = 0;
};

/// Gossip and transfer timings; tests and lag campaigns shorten them.
struct Options {
  Duration announce_interval = milliseconds(40);
  InstanceId lag_threshold = 64;     ///< frontier gap that triggers a transfer
  std::size_t chunk_entries = 256;   ///< decided entries per RepairSnapshot

  friend bool operator==(const Options&, const Options&) = default;
};

/// A transfer with no chunk for this long is abandoned for another server.
inline constexpr Duration kTransferTimeout = milliseconds(200);

/// One decided (instance, value) pair shipped inside a RepairSnapshot.
struct RepairEntry {
  InstanceId instance = 0;
  std::vector<std::byte> value;

  friend bool operator==(const RepairEntry&, const RepairEntry&) = default;
};

/// A member's acceptor as a transfer reads it: its accepted entries and the
/// floor they were pruned below. Every instance in [pruned_below, frontier)
/// holds its decided value (see paxos::Acceptor::install).
struct AcceptedLog {
  const std::map<InstanceId, storage::DurableState::Accepted>& entries;
  InstanceId pruned_below;
};

void encode_repair_entries(const std::vector<RepairEntry>& entries,
                           std::vector<std::byte>& out);
bool decode_repair_entries(std::span<const std::byte> bytes,
                           std::vector<RepairEntry>& out);

/// Per-(node, group) repair engine, owned by GroupConsensus and driven by
/// its message routing. Single-threaded like everything a Context owns.
class RepairCoordinator {
 public:
  struct Config {
    GroupId group = kNoGroup;
    NodeId self = kInvalidNode;
    std::vector<NodeId> members;   ///< acceptors — the repair servers
    std::vector<NodeId> learners;  ///< members + extras — the prune quorum
    Options options;
  };

  /// Every hook is required.
  struct Hooks {
    std::function<Settled()> settled;      ///< protocol settled view
    std::function<InstanceId()> frontier;  ///< learner's next undecided
    /// Installs one decided value through the learner's decide path, which
    /// aligns a member's acceptor; returns false when the instance was
    /// already decided locally.
    std::function<bool(Context&, InstanceId, const std::vector<std::byte>&)>
        install;
    /// Drops the acceptor's entries below one step of the prune floor (a
    /// no-op on non-members); the coordinator logs the floor itself.
    std::function<void(Context&, InstanceId)> prune;
    /// The member's acceptor, which served chunks are read from (only
    /// called on members).
    std::function<AcceptedLog()> accepted;
    /// Arms normal P2bRequest catch-up for the tail above the transfer.
    std::function<void(Context&)> kick_tail;
  };

  RepairCoordinator(Config config, Hooks hooks);

  void on_start(Context& ctx);

  /// Seeds the durable settled watermark from a WAL-recovered settled
  /// frontier, so a storage-recovered node announces it without waiting to
  /// re-log and re-flush a record that is already durable.
  void restore_durable_settled(InstanceId settled);

  /// Called for every instance the learner delivers, in order: arms the
  /// announce tick and applies one step of the prune floor.
  void note_decided(Context& ctx);

  /// Routes WatermarkAnnounce / RepairRequest / RepairSnapshot for this
  /// group; false if the message is not repair traffic for this group.
  bool handle(Context& ctx, NodeId from, const Message& msg);

  InstanceId prune_floor() const { return prune_floor_; }
  InstanceId durable_settled() const { return durable_settled_; }
  bool transfer_active() const { return transfer_active_; }

 private:
  struct PeerMark {
    InstanceId settled = 0;
    InstanceId frontier = 0;
    friend bool operator==(const PeerMark&, const PeerMark&) = default;
  };

  void arm_announce(Context& ctx);
  bool announce(Context& ctx);
  void maybe_prune(Context& ctx);
  void prune_step(Context& ctx, InstanceId max_step);
  void maybe_request(Context& ctx);
  void reject_transfer(Context& ctx, NodeId from);
  void on_announce(Context& ctx, NodeId from, const WatermarkAnnounce& msg);
  void on_request(Context& ctx, NodeId from, const RepairRequest& msg);
  void on_snapshot(Context& ctx, NodeId from, const RepairSnapshot& msg);
  bool is_member(NodeId n) const;

  Config cfg_;
  Hooks hooks_;
  /// Learners without self, the announce fan-out. Built on the first
  /// announce, so constructing a node allocates nothing for it.
  std::vector<NodeId> peers_;
  bool announce_armed_ = false;
  bool answer_due_ = false;  ///< a peer's announce brought news: reply

  /// Per learner (self included): highest settled and last frontier heard.
  std::map<NodeId, PeerMark> marks_;
  InstanceId prune_floor_ = 0;
  InstanceId pruned_to_ = 0;  ///< floor applied so far (trails prune_floor_)
  /// Highest settled frontier WAL-logged; without storage, durable_settled_.
  InstanceId logged_settled_ = 0;
  /// Highest settled frontier whose kSettled record is known durable — the
  /// only value announce() may ship, since peers prune to it.
  InstanceId durable_settled_ = 0;

  bool transfer_active_ = false;
  NodeId transfer_server_ = kInvalidNode;
  NodeId last_failed_server_ = kInvalidNode;
  InstanceId expect_next_ = 0;
  std::size_t chunks_fetched_ = 0;  ///< chunks pulled in the active transfer
  Time transfer_started_ = 0;
  Time last_chunk_at_ = 0;
};

}  // namespace fastcast::repair
