#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "fastcast/common/time.hpp"
#include "fastcast/storage/backend.hpp"
#include "fastcast/storage/snapshot.hpp"
#include "fastcast/storage/wal.hpp"

/// \file storage.hpp
/// Per-node durability facade: WAL + snapshots + the durability gate.
///
/// Protocol code logs a typed record (log_promise, log_accept, ...) and gets
/// back an LSN; anything that must not be externalized before the record is
/// durable — a P1b/P2b reply, an a-deliver ack — is queued via
/// when_durable(lsn, fn) and runs when the group commit covering that lsn
/// completes. On a crash the queued closures are simply dropped: the
/// externalization never happened, so replaying the record and redoing the
/// action is exactly-once from every other node's point of view.
///
/// The fsync policy decides when commits happen:
///   * always        — every commit() fsyncs (safe, slow)
///   * batch(N,t)    — fsync after N records or t elapsed, whichever first
///                     (the owner arms a timer that calls flush())
///   * never         — commits open the gate without fsync; only meaningful
///                     with the deterministic in-memory backend, where a
///                     crash then loses the unsynced suffix (never-for-sim)

namespace fastcast::obs {
class MetricsRegistry;
}

namespace fastcast::storage {

struct FsyncPolicy {
  enum class Mode : std::uint8_t { kAlways, kBatch, kNever };

  Mode mode = Mode::kAlways;
  std::uint64_t batch_records = 64;          ///< kBatch: flush after N records
  Duration batch_interval = milliseconds(5); ///< kBatch: ... or t elapsed

  /// Parses "always", "never", "batch", or "batch:N:Tms" (e.g.
  /// "batch:64:5" = 64 records / 5 ms). Returns nullopt on garbage.
  static std::optional<FsyncPolicy> parse(std::string_view text);
  std::string to_string() const;

  friend bool operator==(const FsyncPolicy&, const FsyncPolicy&) = default;
};

/// One node's durable storage. Single-threaded, like the Context that owns
/// it: every call happens on the node's handler thread.
class NodeStorage {
 public:
  struct Config {
    FsyncPolicy fsync;
    std::size_t segment_bytes = 256 * 1024;
    /// Take a snapshot (and truncate the log) every this many records.
    std::uint64_t snapshot_every = 4096;
  };

  /// A delivery replayed from the WAL whose externalization (client ack,
  /// application/checker observers) may never have run: the crash dropped
  /// its gated closure, but the record itself survived — either it was
  /// fsynced just before the kill, or a torn tail of unsynced bytes kept
  /// it. The delivered-set dedup would otherwise suppress the redelivery
  /// forever, silently losing the delivery from the application's point of
  /// view. Recovery re-externalizes these at-least-once, in the original
  /// delivery order; receivers dedup by message id.
  struct InDoubtDelivery {
    MsgId mid = 0;
    std::vector<std::byte> body;  ///< encoded batch when the WAL has it
  };

  /// What recovery found, for reports and tests.
  struct RecoveryInfo {
    Lsn snapshot_lsn = 0;            ///< watermark of the loaded snapshot
    std::uint64_t snapshots_rejected = 0;
    WalReplayStats replay;
    std::uint64_t recoveries = 0;    ///< times reset_and_recover() ran
  };

  NodeStorage(std::unique_ptr<StorageBackend> backend, Config config);
  ~NodeStorage();

  NodeStorage(const NodeStorage&) = delete;
  NodeStorage& operator=(const NodeStorage&) = delete;

  // --- logging (append; durable only after a covering commit) ------------
  Lsn log_promise(GroupId group, Ballot ballot);
  Lsn log_accept(GroupId group, InstanceId instance, Ballot ballot,
                 std::span<const std::byte> value);
  Lsn log_rm_next_seq(NodeId dest, std::uint64_t next);
  Lsn log_rm_stage(NodeId dest, std::uint64_t seq,
                   std::span<const std::byte> frame);
  Lsn log_rm_settle(NodeId dest, std::uint64_t seq);
  Lsn log_rm_progress(NodeId origin, std::uint64_t next_expected);
  Lsn log_delivered(MsgId mid);
  Lsn log_body(MsgId mid, std::span<const std::byte> encoded);
  Lsn log_settled(GroupId group, InstanceId frontier, std::uint64_t clock);
  Lsn log_prune_accepted(GroupId group, InstanceId floor);
  Lsn log_repair_install(GroupId group, InstanceId from, InstanceId through);
  Lsn log_drop_body(MsgId mid);

  // --- durability gate ----------------------------------------------------
  /// Runs `fn` once every record up to `lsn` is committed — immediately if
  /// it already is. Closures are dropped (never run) on crash or
  /// drop_pending(); callers must treat that as "the action never happened".
  void when_durable(Lsn lsn, std::function<void()> fn);

  /// Policy-driven commit point: kAlways flushes now; kBatch flushes when
  /// the batch is full (the interval timer calls flush() for the rest);
  /// kNever opens the gate without syncing.
  void commit();

  /// Unconditional group commit: sync (per policy), release every gated
  /// closure, and snapshot/truncate if due.
  void flush();

  /// Discards gated closures without running them (graceful stop: the node
  /// is going away, nothing may externalize).
  void drop_pending();

  /// Emulated kill -9: unsynced bytes are lost (a torn tail drawn from
  /// `torn_rng` may survive), gated closures are dropped. The backend and
  /// its durable bytes live on for reset_and_recover().
  void on_crash(Rng* torn_rng);

  /// Rebuilds the durable state from snapshot + log replay, repairing any
  /// torn tail, and re-opens the WAL for appends. Returns the recovered
  /// state for the protocol layers' restore hooks.
  const DurableState& reset_and_recover();

  // --- introspection ------------------------------------------------------
  /// Live fold of every record appended so far (durable or not).
  const DurableState& state() const { return state_; }
  /// Deliveries the last reset_and_recover() replayed from the WAL (not
  /// covered by the snapshot — snapshots imply the gate had drained, so
  /// everything they cover was externalized). In delivery order.
  const std::vector<InDoubtDelivery>& in_doubt_deliveries() const {
    return in_doubt_;
  }
  const RecoveryInfo& recovery_info() const { return recovery_info_; }
  Lsn last_lsn() const { return wal_.last_lsn(); }
  Lsn durable_lsn() const { return wal_.durable_lsn(); }
  std::size_t gated_count() const { return gated_.size(); }
  const FsyncPolicy& fsync_policy() const { return config_.fsync; }
  std::uint64_t snapshots_taken() const { return snapshots_taken_; }
  StorageBackend& backend() { return *backend_; }

  /// Registers storage.* instruments; pass nullptr to detach.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  Lsn append(const WalRecord& rec);
  void release_gated();
  void maybe_snapshot();

  std::unique_ptr<StorageBackend> backend_;
  Config config_;
  Wal wal_;
  SnapshotStore snapshots_;
  DurableState state_;
  std::vector<InDoubtDelivery> in_doubt_;
  RecoveryInfo recovery_info_;

  struct Gated {
    Lsn lsn;
    std::function<void()> fn;
  };
  std::deque<Gated> gated_;
  bool releasing_ = false;  ///< re-entrancy guard: released fns may log+commit

  std::uint64_t records_since_snapshot_ = 0;
  std::uint64_t snapshots_taken_ = 0;
  Lsn snapshot_lsn_ = 0;  ///< watermark of the newest written/loaded snapshot

  obs::MetricsRegistry* metrics_ = nullptr;
};

/// Creates and hands out per-node storages. With a wal_dir each node gets a
/// FileBackend under `<wal_dir>/node-<id>`; without one, a deterministic
/// MemBackend. node() is thread-safe because the TCP runtime wires nodes
/// from multiple threads; the returned NodeStorage itself is single-owner.
class StorageManager {
 public:
  struct Config {
    std::string wal_dir;  ///< empty = in-memory deterministic backend
    NodeStorage::Config node;
  };

  explicit StorageManager(Config config) : config_(std::move(config)) {}

  NodeStorage* node(NodeId id);
  bool file_backed() const { return !config_.wal_dir.empty(); }
  const Config& config() const { return config_; }

  /// Applies the registry to every existing and future node storage.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  Config config_;
  std::mutex mu_;
  std::map<NodeId, std::unique_ptr<NodeStorage>> nodes_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace fastcast::storage
