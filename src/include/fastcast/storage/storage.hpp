#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "fastcast/common/time.hpp"
#include "fastcast/storage/backend.hpp"
#include "fastcast/storage/snapshot.hpp"
#include "fastcast/storage/wal.hpp"

/// \file storage.hpp
/// Per-node durability facade: WAL + snapshots + the durability gate.
///
/// Protocol code states what it logs and what it externalizes through
/// log_then() below, never whether storage is attached. With storage the
/// records are appended (log(WalRecord::...)) and the externalization — a
/// P1b/P2b reply, an a-deliver ack — runs when the group commit covering
/// them completes. On a crash the queued closures are simply dropped: the
/// externalization never happened, so replaying the record and redoing the
/// action is exactly-once from every other node's point of view. Without
/// storage the externalization runs at once.
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
    /// Take a snapshot (and truncate the log) every this many records.
    std::uint64_t snapshot_every = 4096;
  };

  /// A WAL segment rolls over once it holds this many payload bytes.
  static constexpr std::size_t kSegmentBytes = 256 * 1024;

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
    std::vector<std::byte> body;  ///< kBody value (decode_body) if the WAL has it
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

  /// Appends `rec` and folds it into state(); durable only after a covering
  /// commit. Returns its LSN. Takes the record by value and moves its
  /// payload into the fold: pass a temporary.
  Lsn log(WalRecord rec);

  // --- durability gate ----------------------------------------------------
  /// Runs `fn` once every record up to `lsn` is committed — immediately if
  /// it already is. Closures are dropped (never run) on crash or
  /// drop_pending(); callers must treat that as "the action never happened".
  /// Protocol code reaches this through log_then().
  void when_durable(Lsn lsn, std::function<void()> fn);

  /// Runs `fn` once every record logged so far is committed, logging and
  /// committing nothing itself: for re-acknowledging input that an earlier
  /// record already covers.
  void after_logged(std::function<void()> fn) {
    when_durable(last_lsn(), std::move(fn));
  }

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

/// WAL-before-send: no message leaves a node before the state it reveals is
/// durable (DESIGN.md §10). With storage, `log(*st)` appends the records
/// `action` reveals and returns the last one's LSN; `action(args...)` runs
/// once that LSN is durable, and the batch is commit()ted. Without storage
/// `action(args...)` runs at once and `log` never runs, so no record is
/// built. `args` reach `action` by reference when it runs at once and are
/// copied (or moved) into the gated closure otherwise: pass what the action
/// reads from the caller's frame through them rather than capturing it, and
/// the path without storage copies nothing. Returns the LSN the action waits
/// for, 0 without storage (which is_durable() treats as durable).
template <class LogFn, class Action, class... Args>
Lsn log_then(NodeStorage* st, LogFn&& log, Action&& action, Args&&... args) {
  if (st == nullptr) {
    action(std::forward<Args>(args)...);
    return 0;
  }
  const Lsn lsn = log(*st);
  st->when_durable(lsn, [action = std::forward<Action>(action),
                         ... args = std::forward<Args>(args)]() mutable {
    action(std::move(args)...);
  });
  st->commit();
  return lsn;
}

/// True once `lsn` (as returned by log_then) is durable; always true
/// without storage. Retransmissions check it before re-sending what a gate
/// held back the first time.
inline bool is_durable(const NodeStorage* st, Lsn lsn) {
  return st == nullptr || lsn <= st->durable_lsn();
}

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
