#pragma once

#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "fastcast/runtime/context.hpp"

/// \file delivery_buffer.hpp
/// The buffer "B" of Algorithms 1 and 2, shared by BaseCast and FastCast.
///
/// Holds the tentative timestamps of undelivered messages, forms final
/// timestamps once SYNC-HARD entries from every destination group are
/// present (Task 5 / Task 7), and a-delivers messages whose final
/// timestamp is smaller than every tentative timestamp still buffered.
///
/// Two deviations from the paper's pseudocode, both deliberate:
///   * Tie-break — timestamps are compared as (ts, message id) pairs;
///     the pseudocode's strict `ts < x` would livelock on equal final
///     timestamps, which Lamport-clock maxima do produce.
///   * kPendingHard placeholders — when a group decides SET-HARD for a
///     global message it records its own (not yet ordered) hard timestamp
///     here, as BaseCast's line 22 does. Algorithm 2 omits this insert;
///     without it a message whose SET-HARD was decided earlier (with a
///     smaller clock value) could be overtaken, violating prefix order.
///     The placeholder is replaced when the group's own SYNC-HARD is
///     ordered, so the fast path is unaffected.
///
/// Message bodies arrive via START and may lag behind timestamps (tuples
/// carry only ids); delivery stalls until the body is present.
///
/// One Record per message lives from the first event about it until its
/// delivery. Delivered ids are not remembered: m was delivered iff its seq
/// is at or below its sender's START high-water and it has no record —
/// exact because senders number messages in multicast order and rmcast is
/// FIFO per origin (DESIGN.md §15).

namespace fastcast {

/// Kinds of entries B can hold for one (message, group) pair.
enum class EntryKind : std::uint8_t {
  kPendingHard,  ///< own group's hard ts, decided but not yet ordered
  kSyncSoft,     ///< ordered soft tentative timestamp (FastCast)
  kSyncHard,     ///< ordered hard tentative timestamp
};

/// A tuple of the message known to the protocol layer (ToOrder), maybe
/// already ordered; `ts` is read only to propose an unordered one.
struct TupleState {
  TupleKind kind;
  GroupId group;
  Ts ts;
  bool ordered;
};

class DeliveryBuffer {
 public:
  struct Entry {
    EntryKind kind;
    GroupId group;
    Ts ts;
  };

  /// Everything this replica holds about one undelivered message.
  struct Record {
    // Buffer B, maintained by the buffer.
    std::vector<GroupId> dst;
    bool dst_known = false;
    std::optional<MulticastMessage> body;
    std::vector<Entry> entries;
    bool final_formed = false;
    TsKey final_key;
    std::size_t sync_hard_count = 0;

    // Protocol bookkeeping, maintained by the protocol layer.
    std::vector<TupleState> tuples;  ///< ToOrder ∪ Ordered, restricted to m
    std::optional<Ts> soft_guess;    ///< FastCast leader: the SEND-SOFT x sent
    std::vector<InstanceId> pins;    ///< unsettled instances with a tuple of m

    TupleState* tuple(TupleKind kind, GroupId group);
  };

  /// a-deliver upcall; `record` is the message's retiring record.
  using DeliverFn =
      std::function<void(Context&, const MulticastMessage&, const Record& record)>;
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// The delivered rule of the file comment.
  bool was_delivered(MsgId mid) const;

  /// The record of `mid`, created on first use; null once `mid` was
  /// delivered. References stay valid until the message is delivered.
  Record* record(MsgId mid);
  /// The record of `mid` if it has one (never creates).
  Record* find(MsgId mid);

  /// Visits every record (in unspecified order).
  template <class Fn>
  void for_each_record(Fn&& fn) const {
    for (const auto& [mid, rec] : msgs_) fn(mid, rec);
  }

  /// Records the destination set of a message (idempotent).
  void note_dst(MsgId mid, const std::vector<GroupId>& dst);

  /// Stores the application message carried by an r-delivered START and
  /// raises its sender's START high-water; may unblock delivery. A no-op
  /// once the message was delivered. With storage present the body is also
  /// WAL-logged (kBody): once the origin's retransmission stops, this
  /// node's disk is the only place the payload survives a crash before
  /// delivery.
  void store_body(Context& ctx, const MulticastMessage& msg);
  bool has_body(MsgId mid) const;

  /// Recovery: re-installs a persisted body (and its destination set)
  /// without attempting delivery — timestamps arrive separately via the
  /// protocol layer's catch-up. Restore bodies in id order, before
  /// restore_started() of the delivered set.
  void restore_body(const MulticastMessage& msg);

  /// Recovery: `mid` was delivered before the crash; raises its sender's
  /// START high-water so the message counts as delivered.
  void restore_started(MsgId mid);

  /// Adds one tentative-timestamp entry. At most one entry per
  /// (kind, group, mid) — duplicates are ignored (the protocol layer's
  /// Ordered bookkeeping normally prevents them).
  void add_entry(Context& ctx, EntryKind kind, GroupId group, Ts ts, MsgId mid);

  /// Drops the kPendingHard placeholder of `group` for `mid` (called when
  /// the group's own SYNC-HARD gets ordered).
  void remove_pending_hard(Context& ctx, MsgId mid, GroupId group);

  /// (mid, ts) of every kPendingHard placeholder of `group`, by message id.
  std::vector<std::pair<MsgId, Ts>> pending_hards(GroupId group) const;

  /// Returns the ordered soft timestamp of (group, mid) if present —
  /// FastCast's Task 6 match test.
  std::optional<Ts> sync_soft_ts(MsgId mid, GroupId group) const;
  bool has_sync_hard(MsgId mid, GroupId group) const;

  /// Forms the final timestamp if every destination's SYNC-HARD is present
  /// and attempts deliveries. Also invoked internally by add_entry.
  void try_deliver(Context& ctx);

  // Introspection.
  std::size_t undelivered_count() const { return msgs_.size(); }
  std::size_t blocking_count() const { return blocking_.size(); }
  std::uint64_t delivered_count() const { return delivered_count_; }
  /// Senders with a START high-water (one entry per sender ever seen).
  std::size_t senders() const { return start_hw_.size(); }

 private:
  void raise_start_hw(MsgId mid);
  void try_form_final(Context& ctx, MsgId mid, Record& rec);

  DeliverFn deliver_;
  std::unordered_map<MsgId, Record> msgs_;
  /// Highest message seq per sender whose START was r-delivered here.
  std::unordered_map<NodeId, std::uint32_t> start_hw_;
  /// Every tentative entry and every formed FINAL, as (ts, mid) keys.
  std::multiset<TsKey> blocking_;
  /// Formed FINALs awaiting delivery.
  std::set<TsKey> finals_;
  std::uint64_t delivered_count_ = 0;
};

}  // namespace fastcast
