#include "fastcast/storage/storage.hpp"

#include <charconv>
#include <chrono>

#include "fastcast/common/assert.hpp"
#include "fastcast/obs/metrics.hpp"

namespace fastcast::storage {

// ---------------------------------------------------------------------------
// FsyncPolicy
// ---------------------------------------------------------------------------

std::optional<FsyncPolicy> FsyncPolicy::parse(std::string_view text) {
  FsyncPolicy p;
  if (text == "always") {
    p.mode = Mode::kAlways;
    return p;
  }
  if (text == "never" || text == "never-for-sim") {
    p.mode = Mode::kNever;
    return p;
  }
  if (text == "batch") {
    p.mode = Mode::kBatch;
    return p;
  }
  if (text.starts_with("batch:")) {
    p.mode = Mode::kBatch;
    std::string_view rest = text.substr(6);
    const std::size_t colon = rest.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    std::uint64_t n = 0;
    std::int64_t t_ms = 0;
    auto [p1, e1] = std::from_chars(rest.data(), rest.data() + colon, n);
    if (e1 != std::errc{} || p1 != rest.data() + colon || n == 0) {
      return std::nullopt;
    }
    const std::string_view t = rest.substr(colon + 1);
    auto [p2, e2] = std::from_chars(t.data(), t.data() + t.size(), t_ms);
    if (e2 != std::errc{} || p2 != t.data() + t.size() || t_ms <= 0) {
      return std::nullopt;
    }
    p.batch_records = n;
    p.batch_interval = milliseconds(t_ms);
    return p;
  }
  return std::nullopt;
}

std::string FsyncPolicy::to_string() const {
  switch (mode) {
    case Mode::kAlways: return "always";
    case Mode::kNever: return "never";
    case Mode::kBatch:
      return "batch:" + std::to_string(batch_records) + ":" +
             std::to_string(batch_interval / kMillisecond);
  }
  return "always";
}

// ---------------------------------------------------------------------------
// NodeStorage
// ---------------------------------------------------------------------------

NodeStorage::NodeStorage(std::unique_ptr<StorageBackend> backend, Config config)
    : backend_(std::move(backend)),
      config_(config),
      wal_(backend_.get(), kSegmentBytes),
      snapshots_(backend_.get()) {
  // A fresh handle starts by recovering whatever the backend already holds
  // — an empty dir is just the degenerate cold-start case.
  reset_and_recover();
}

NodeStorage::~NodeStorage() = default;

void NodeStorage::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
}

Lsn NodeStorage::log(WalRecord rec) {
  const Lsn lsn = wal_.append(rec);
  const WalRecordType type = rec.type;
  state_.apply(std::move(rec));
  ++records_since_snapshot_;
  if (metrics_ != nullptr) {
    metrics_->counter("storage.appends").inc();
    if (type == WalRecordType::kBody) {
      metrics_->gauge("storage.durable_bodies")
          .record_max(static_cast<std::int64_t>(state_.bodies.size()));
    }
  }
  return lsn;
}

void NodeStorage::when_durable(Lsn lsn, std::function<void()> fn) {
  if (lsn <= wal_.durable_lsn()) {
    fn();
    return;
  }
  if (metrics_ != nullptr) metrics_->counter("storage.gated").inc();
  gated_.push_back(Gated{lsn, std::move(fn)});
}

void NodeStorage::commit() {
  switch (config_.fsync.mode) {
    case FsyncPolicy::Mode::kAlways:
      flush();
      break;
    case FsyncPolicy::Mode::kBatch:
      if (wal_.pending_records() >= config_.fsync.batch_records) flush();
      break;
    case FsyncPolicy::Mode::kNever:
      wal_.commit_all(false);
      release_gated();
      maybe_snapshot();
      break;
  }
}

void NodeStorage::flush() {
  const std::uint64_t batch = wal_.pending_records();
  const bool fsync = config_.fsync.mode != FsyncPolicy::Mode::kNever;
  if (batch > 0) {
    if (metrics_ != nullptr) {
      const auto t0 = std::chrono::steady_clock::now();
      wal_.commit_all(fsync);
      const auto t1 = std::chrono::steady_clock::now();
      metrics_->histogram("storage.commit_latency_ns")
          .observe(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                       .count());
      metrics_->histogram("storage.batch_commit_records")
          .observe(static_cast<std::int64_t>(batch));
      if (fsync) metrics_->counter("storage.fsyncs").inc();
    } else {
      wal_.commit_all(fsync);
    }
  }
  release_gated();
  maybe_snapshot();
}

void NodeStorage::release_gated() {
  if (releasing_) return;  // a released closure logged + committed; the
                           // outer loop will drain the rest
  releasing_ = true;
  while (!gated_.empty() && gated_.front().lsn <= wal_.durable_lsn()) {
    auto fn = std::move(gated_.front().fn);
    gated_.pop_front();
    fn();
  }
  releasing_ = false;
}

void NodeStorage::drop_pending() { gated_.clear(); }

void NodeStorage::on_crash(Rng* torn_rng) {
  backend_->drop_unsynced(torn_rng);
  gated_.clear();
}

const DurableState& NodeStorage::reset_and_recover() {
  state_ = DurableState{};
  in_doubt_.clear();
  std::uint64_t rejected = 0;
  snapshot_lsn_ = snapshots_.load_latest(state_, &rejected);
  const WalReplayStats stats =
      wal_.open(snapshot_lsn_, [this](Lsn, const WalRecord& rec) {
        if (rec.type == WalRecordType::kDelivered) {
          // The body must be grabbed before apply() — delivery is what
          // garbage-collects it from the durable fold.
          InDoubtDelivery d;
          d.mid = rec.seq;
          if (const auto it = state_.bodies.find(d.mid);
              it != state_.bodies.end()) {
            d.body = it->second;
          }
          in_doubt_.push_back(std::move(d));
        }
        state_.apply(rec);
      });

  recovery_info_.snapshot_lsn = snapshot_lsn_;
  recovery_info_.snapshots_rejected = rejected;
  recovery_info_.replay = stats;
  ++recovery_info_.recoveries;
  records_since_snapshot_ =
      wal_.last_lsn() > snapshot_lsn_ ? wal_.last_lsn() - snapshot_lsn_ : 0;
  gated_.clear();

  if (metrics_ != nullptr) {
    metrics_->counter("storage.recoveries").inc();
    metrics_->counter("storage.replayed_records").inc(stats.replayed);
    metrics_->counter("storage.checksum_rejections")
        .inc(stats.checksum_rejections + rejected);
    if (stats.torn_tail) metrics_->counter("storage.torn_tails").inc();
  }
  return state_;
}

void NodeStorage::maybe_snapshot() {
  if (records_since_snapshot_ < config_.snapshot_every) return;
  // Only a fully committed prefix may be snapshotted: state_ folds every
  // appended record, so the watermark is sound only when nothing is pending.
  if (wal_.durable_lsn() != wal_.last_lsn()) return;
  const Lsn at = wal_.last_lsn();
  snapshots_.write(at, state_);
  const std::size_t truncated = wal_.truncate_through(at);
  snapshot_lsn_ = at;
  records_since_snapshot_ = 0;
  ++snapshots_taken_;
  if (metrics_ != nullptr) {
    metrics_->counter("storage.snapshots").inc();
    metrics_->counter("storage.truncated_segments").inc(truncated);
  }
}

// ---------------------------------------------------------------------------
// StorageManager
// ---------------------------------------------------------------------------

NodeStorage* StorageManager::node(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(id);
  if (it != nodes_.end()) return it->second.get();
  std::unique_ptr<StorageBackend> backend;
  if (file_backed()) {
    backend = std::make_unique<FileBackend>(config_.wal_dir + "/node-" +
                                            std::to_string(id));
  } else {
    backend = std::make_unique<MemBackend>();
  }
  auto storage = std::make_unique<NodeStorage>(std::move(backend), config_.node);
  storage->set_metrics(metrics_);
  NodeStorage* raw = storage.get();
  nodes_.emplace(id, std::move(storage));
  return raw;
}

void StorageManager::set_metrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
  for (auto& [id, storage] : nodes_) storage->set_metrics(metrics);
}

}  // namespace fastcast::storage
