#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "fastcast/common/codec.hpp"
#include "fastcast/runtime/ids.hpp"
#include "fastcast/storage/backend.hpp"
#include "fastcast/storage/wal.hpp"

/// \file snapshot.hpp
/// Materialized durable state: the fold of every WAL record, periodically
/// written as a snapshot so the log can be truncated and recovery does not
/// replay from the beginning of time.
///
/// DurableState is deliberately a *value* (maps and sets, deep ==) rather
/// than live protocol objects: the snapshot+replay equivalence test can
/// compare "snapshot at lsn K, replay K+1..N" against "replay 1..N" for
/// exact equality, which pins the apply() semantics of every record type.

namespace fastcast::storage {

/// Everything a node must not forget across a crash. Built by folding WAL
/// records (apply) or decoding a snapshot, then handed to the protocol
/// layers' restore hooks.
struct DurableState {
  struct Accepted {
    Ballot ballot;                  ///< ballot the value was accepted at
    std::vector<std::byte> value;   ///< encoded consensus value
    friend bool operator==(const Accepted&, const Accepted&) = default;
  };
  struct GroupState {
    Ballot promised;                ///< highest promise ever made
    std::map<InstanceId, Accepted> accepted;
    /// Settled delivery frontier: every instance below it is fully
    /// reflected in `delivered`, so replaying it after recovery is a
    /// provable no-op and peers may prune it (see repair.hpp).
    InstanceId settled = 0;
    /// Protocol logical clock at the time `settled` was logged — an upper
    /// bound on every timestamp influenced by the skipped instances, so a
    /// restart that jumps to `settled` never assigns a regressed timestamp.
    std::uint64_t settled_clock = 0;
    /// Accepted entries below this floor were pruned under a group-wide
    /// watermark; durability checks must not expect them in `accepted`.
    InstanceId pruned_below = 0;
    friend bool operator==(const GroupState&, const GroupState&) = default;
  };

  /// Per-group Paxos acceptor state (a node can accept for one group, but
  /// the map keeps the codec shape general).
  std::map<GroupId, GroupState> groups;

  /// Reliable-multicast sender: next per-destination sequence number, and
  /// the still-unacked staged frames keyed by (destination, seq).
  std::map<NodeId, std::uint64_t> rm_next_seq;
  std::map<std::pair<NodeId, std::uint64_t>, std::vector<std::byte>> rm_staged;

  /// Reliable-multicast receiver: next expected seq per origin (the dedup
  /// floor; everything below was already r-delivered).
  std::map<NodeId, std::uint64_t> rm_next_expected;

  /// Messages this node externalized as a-delivered (ack sent, checker
  /// informed). Replay must never deliver these again.
  std::set<MsgId> delivered;

  /// Encoded bodies of messages seen but not yet delivered — without these
  /// a recovered node could hold a decided timestamp for a message whose
  /// payload no one will retransmit.
  std::map<MsgId, std::vector<std::byte>> bodies;

  /// Folds one WAL record into the state. This is *the* definition of what
  /// each record type means; recovery and snapshotting share it. The record
  /// is taken by value and its `value` moved into the fold, so a caller
  /// passing a temporary copies no payload.
  void apply(WalRecord rec);

  bool empty() const {
    return groups.empty() && rm_next_seq.empty() && rm_staged.empty() &&
           rm_next_expected.empty() && delivered.empty() && bodies.empty();
  }

  friend bool operator==(const DurableState&, const DurableState&) = default;
};

void encode_state(Writer& w, const DurableState& state);
bool decode_state(Reader& r, DurableState& state);

/// Writes and loads whole-state snapshots named `snap-<lsn hex>.snap`,
/// where lsn is the WAL position the snapshot covers (records <= lsn are
/// folded in). write() is atomic and garbage-collects all but the newest
/// two snapshots — the previous one stays as a fallback against a crash
/// landing exactly between snapshot write and log truncation.
class SnapshotStore {
 public:
  explicit SnapshotStore(StorageBackend* backend);

  void write(Lsn lsn, const DurableState& state);

  /// Loads the newest decodable snapshot; returns its covered lsn, or 0 if
  /// none exists (cold start) leaving `state` untouched. Undecodable
  /// snapshots (torn write_atomic is impossible, but a checksum guards
  /// against bit rot) are skipped in favor of the next-newest.
  Lsn load_latest(DurableState& state, std::uint64_t* rejected = nullptr);

  std::size_t count() const;

 private:
  static std::string snapshot_name(Lsn lsn);
  static bool parse_snapshot_name(const std::string& name, Lsn& lsn);

  StorageBackend* backend_;
  std::vector<std::byte> scratch_;  ///< the framed snapshot being written, reused
};

}  // namespace fastcast::storage
