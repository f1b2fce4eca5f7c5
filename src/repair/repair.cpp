#include "fastcast/repair/repair.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"
#include "fastcast/obs/observability.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast::repair {

namespace {

/// Chunks pulled per transfer before lag detection re-evaluates.
constexpr std::size_t kMaxChunksPerRequest = 16;

/// Instances pruned per step. Applying a whole floor advance at once frees
/// every entry decided since the last one in a single handler: in the
/// tcp_local benchmark on a 4-vCPU host that was ~1,300 cold entries and
/// up to 0.8 ms, which doubled p99, and 64 per decision still added ~45%.
/// Two per decision spreads the frees over the traffic that made them and
/// still gains one instance per decision on the floor; up to 64 per floor
/// advance and per announce tick finishes the job once traffic stops.
constexpr InstanceId kPruneStepPerDecision = 2;
constexpr InstanceId kPruneStep = 64;

void count(Context& ctx, const char* name, std::uint64_t n = 1) {
  if (auto* o = ctx.obs()) o->metrics.counter(name).inc(n);
}

}  // namespace

template <class Io>
void layout(Io& io, RepairEntry& e) {
  io.varint(e.instance);
  io.bytes(e.value);
}

void encode_repair_entries(const std::vector<RepairEntry>& entries,
                           std::vector<std::byte>& out) {
  out = encode_seq(entries);
}

bool decode_repair_entries(std::span<const std::byte> bytes,
                           std::vector<RepairEntry>& out) {
  return decode_seq(bytes, out);
}

RepairCoordinator::RepairCoordinator(Config config, Hooks hooks)
    : cfg_(std::move(config)), hooks_(std::move(hooks)) {
  FC_ASSERT_MSG(hooks_.settled != nullptr, "repair needs a settled hook");
  FC_ASSERT_MSG(hooks_.frontier != nullptr, "repair needs a frontier hook");
  FC_ASSERT_MSG(hooks_.install != nullptr, "repair needs an install hook");
  FC_ASSERT_MSG(hooks_.prune != nullptr, "repair needs a prune hook");
  FC_ASSERT_MSG(hooks_.accepted != nullptr, "repair needs an accepted hook");
  FC_ASSERT_MSG(hooks_.kick_tail != nullptr, "repair needs a kick_tail hook");
}

bool RepairCoordinator::is_member(NodeId n) const {
  return std::find(cfg_.members.begin(), cfg_.members.end(), n) !=
         cfg_.members.end();
}

void RepairCoordinator::on_start(Context& ctx) { arm_announce(ctx); }

void RepairCoordinator::restore_durable_settled(InstanceId settled) {
  // WAL-recovered, so durable by definition; no need to re-log it.
  durable_settled_ = std::max(durable_settled_, settled);
  logged_settled_ = std::max(logged_settled_, settled);
}

void RepairCoordinator::note_decided(Context& ctx) {
  arm_announce(ctx);
  prune_step(ctx, kPruneStepPerDecision);
}

// The tick is quiescent: it re-arms only while announce() reports that
// there is still something to say. Decisions (note_decided), news from a
// peer (on_announce) and a started transfer (maybe_request) arm it again.
void RepairCoordinator::arm_announce(Context& ctx) {
  if (announce_armed_) return;
  announce_armed_ = true;
  ctx.set_timer(cfg_.options.announce_interval, [this, &ctx] {
    announce_armed_ = false;
    if (announce(ctx)) arm_announce(ctx);
  });
}

bool RepairCoordinator::announce(Context& ctx) {
  Settled s = hooks_.settled();
  const InstanceId frontier = hooks_.frontier();
  if (s.frontier > frontier) s.frontier = frontier;

  // The settled record trails the kDelivered records it summarizes in LSN
  // order, so any surviving log prefix containing it contains them too.
  if (s.frontier > logged_settled_) {
    logged_settled_ = s.frontier;
    // Peers prune to whatever settled value we announce, so the announced
    // cursor must never outrun what a crash here would preserve — a node
    // recovering below the group prune floor finds the gap unlearnable from
    // anyone. Latch the announceable watermark only once the record is
    // durable: fsync=always flushes in the commit, so the latch runs before
    // this announce is built; batch trails by at most one flush; without
    // storage it latches at once (a restart keeps everything). A closure
    // dropped by a crash leaves the latch at the older durable value, which
    // is exactly what recovery resumes from.
    storage::log_then(
        ctx.storage(),
        [&](storage::NodeStorage& st) {
          return st.log(
              storage::WalRecord::settled(cfg_.group, s.frontier, s.clock));
        },
        [this](InstanceId v) {
          if (v > durable_settled_) durable_settled_ = v;
        },
        s.frontier);
  }

  // Ship only news: our own cursors moved since the last announce, or a
  // peer's announce did (a restarted or lagging peer needs our marks). A
  // node that has decided nothing still matches the zero mark, so a group
  // no multicast addresses never announces.
  const PeerMark mine{durable_settled_, frontier};
  PeerMark& self_mark = marks_[cfg_.self];
  const bool moved = self_mark != mine;
  const bool speak = moved || std::exchange(answer_due_, false);
  if (speak) {
    self_mark = mine;
    if (peers_.empty()) {
      peers_ = cfg_.learners;
      std::erase(peers_, cfg_.self);
    }
    ctx.send_to_nodes(peers_, Message{WatermarkAnnounce{
                                  cfg_.group, cfg_.self, durable_settled_,
                                  frontier}});
  }

  // A stalled transfer (server crashed, chunk corrupted away) would
  // otherwise pin transfer_active_ forever; time it out on the announce
  // tick and let lag detection pick a different server.
  if (transfer_active_ && ctx.now() - last_chunk_at_ > kTransferTimeout) {
    count(ctx, "repair.transfer_timeouts");
    last_failed_server_ = transfer_server_;
    transfer_active_ = false;
  }

  maybe_prune(ctx);
  prune_step(ctx, kPruneStep);
  maybe_request(ctx);
  // Keep ticking while the settled cursor (or its durability latch) trails
  // the frontier, or the floor is not applied yet: both move without a new
  // decision to re-arm us.
  return speak || transfer_active_ || durable_settled_ < frontier ||
         pruned_to_ < prune_floor_;
}

void RepairCoordinator::maybe_prune(Context& ctx) {
  // Every configured learner must have announced at least once: a silent
  // peer may still need instance 0, so its silence blocks pruning rather
  // than being ignored.
  InstanceId floor = std::numeric_limits<InstanceId>::max();
  for (NodeId learner : cfg_.learners) {
    auto it = marks_.find(learner);
    if (it == marks_.end()) return;
    floor = std::min(floor, it->second.settled);
  }
  if (floor <= prune_floor_) return;
  prune_floor_ = floor;
  count(ctx, "repair.prunes");
  if (auto* o = ctx.obs()) {
    o->metrics.gauge("repair.prune_watermark").record_max(floor);
  }
  storage::NodeStorage* st = ctx.storage();
  if (st != nullptr && is_member(cfg_.self)) {
    // One record per advance, though the acceptor drops its entries in
    // steps: recovery may fold the whole cut at once. Losing the record to
    // a crash only resurrects already-pruned entries on recovery —
    // wasteful, never unsafe — so nothing gates on it.
    st->log(storage::WalRecord::prune_accepted(cfg_.group, floor));
    st->commit();
  }
  prune_step(ctx, kPruneStep);
}

// The floor is applied a few instances at a time, on each decision, floor
// advance and announce tick, so the acceptor catches up with it without a
// stall.
void RepairCoordinator::prune_step(Context& ctx, InstanceId max_step) {
  if (pruned_to_ >= prune_floor_) return;
  pruned_to_ = std::min(prune_floor_, pruned_to_ + max_step);
  hooks_.prune(ctx, pruned_to_);
}

void RepairCoordinator::maybe_request(Context& ctx) {
  if (transfer_active_) return;
  const InstanceId mine = hooks_.frontier();
  NodeId best = kInvalidNode;
  NodeId fallback = kInvalidNode;
  InstanceId best_frontier = mine;
  for (NodeId member : cfg_.members) {
    if (member == cfg_.self) continue;
    auto it = marks_.find(member);
    if (it == marks_.end() || it->second.frontier <= best_frontier) continue;
    if (member == last_failed_server_) {
      fallback = member;
      continue;
    }
    best = member;
    best_frontier = it->second.frontier;
  }
  if (best == kInvalidNode) best = fallback;  // only the failed peer is ahead
  if (best == kInvalidNode) return;
  const auto gap = marks_[best].frontier - mine;
  if (gap < cfg_.options.lag_threshold) return;

  transfer_active_ = true;
  transfer_server_ = best;
  expect_next_ = mine;
  chunks_fetched_ = 0;
  transfer_started_ = ctx.now();
  last_chunk_at_ = ctx.now();
  count(ctx, "repair.transfers");
  arm_announce(ctx);  // the tick times a stalled transfer out
  FC_DEBUG("repair: node %u requests group %u instances >= %llu from %u (gap %llu)",
           cfg_.self, cfg_.group, static_cast<unsigned long long>(mine), best,
           static_cast<unsigned long long>(gap));
  ctx.send(best, Message{RepairRequest{cfg_.group, mine}});
}

void RepairCoordinator::on_request(Context& ctx, NodeId from,
                                   const RepairRequest& msg) {
  if (!is_member(cfg_.self)) return;  // only acceptors hold decided history
  const InstanceId frontier = hooks_.frontier();
  const AcceptedLog log = hooks_.accepted();
  // A request below the prune floor crossed its sender's later announce:
  // the sender has settled past it since, so there is nothing to serve.
  if (msg.from_instance >= frontier || msg.from_instance < log.pruned_below) {
    return;
  }
  // Serve ONE chunk of the decided run starting exactly at the requested
  // instance (the requester pulls the next chunk after installing this one
  // — stop-and-wait, so jittered links can never reorder a transfer).
  std::vector<RepairEntry> run;
  InstanceId next = msg.from_instance;
  auto it = log.entries.find(next);
  for (; next < frontier && run.size() < cfg_.options.chunk_entries;
       ++next, ++it) {
    FC_ASSERT_MSG(it != log.entries.end() && it->first == next,
                  "a member's acceptor holds every decided instance above "
                  "its prune floor");
    run.push_back(RepairEntry{next, it->second.value});
  }
  // Last chunk when the run reaches our frontier; the requester's tail goes
  // through normal quorum learning.
  const bool more = next < frontier;

  RepairSnapshot snap;
  snap.group = cfg_.group;
  snap.from_instance = run.front().instance;
  snap.watermark = next;
  snap.last = !more;
  encode_repair_entries(run, snap.payload);
  snap.payload_crc = storage::crc32(snap.payload);
  count(ctx, "repair.snapshots_served");
  count(ctx, "repair.bytes_shipped", snap.payload.size());
  ctx.send(from, Message{std::move(snap)});
}

void RepairCoordinator::reject_transfer(Context& ctx, NodeId from) {
  count(ctx, "repair.snapshots_rejected");
  FC_WARN("repair: node %u rejects snapshot chunk from %u (group %u)",
          cfg_.self, from, cfg_.group);
  last_failed_server_ = from;
  transfer_active_ = false;
  // Retry immediately, preferring a different peer over the failed one.
  maybe_request(ctx);
}

void RepairCoordinator::on_snapshot(Context& ctx, NodeId from,
                                    const RepairSnapshot& msg) {
  if (!transfer_active_ || from != transfer_server_) return;  // stale chunk

  // Corruption (bad CRC, undecodable or non-contiguous payload) indicts the
  // server: blacklist it and re-fetch elsewhere.
  std::vector<RepairEntry> entries;
  if (storage::crc32(msg.payload) != msg.payload_crc ||
      !decode_repair_entries(msg.payload, entries) || entries.empty()) {
    reject_transfer(ctx, from);
    return;
  }
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].instance != entries[i - 1].instance + 1) {
      reject_transfer(ctx, from);
      return;
    }
  }
  // A chunk that doesn't start at the expected instance is stale (a
  // duplicate, or left over from an abandoned transfer), not evidence of a
  // bad server: ignore it and let the timeout re-drive if needed.
  if (entries.front().instance != expect_next_) return;
  last_chunk_at_ = ctx.now();

  std::uint64_t installed = 0;
  for (const RepairEntry& e : entries) {
    if (hooks_.install(ctx, e.instance, e.value)) ++installed;
  }
  const InstanceId chunk_first = entries.front().instance;
  expect_next_ = entries.back().instance + 1;
  count(ctx, "repair.entries_installed", installed);
  if (storage::NodeStorage* st = ctx.storage()) {
    // Boundary marker: per-entry accepts and deliveries carry the durable
    // state; the marker makes a crash mid-transfer visible in replay.
    st->log(storage::WalRecord::repair_install(cfg_.group, chunk_first,
                                               expect_next_));
    st->commit();
  }

  ++chunks_fetched_;
  if (!msg.last && chunks_fetched_ < kMaxChunksPerRequest) {
    // Pull the next chunk; one outstanding request at a time keeps the
    // transfer immune to link-level reordering.
    ctx.send(transfer_server_, Message{RepairRequest{cfg_.group, expect_next_}});
    return;
  }
  transfer_active_ = false;
  last_failed_server_ = kInvalidNode;
  count(ctx, "repair.transfers_completed");
  if (auto* o = ctx.obs()) {
    o->metrics.histogram("repair.catchup_latency_ns")
        .observe(static_cast<std::uint64_t>(ctx.now() - transfer_started_));
  }
  // The tail above the shipped watermark (and anything decided while the
  // transfer ran, or beyond the per-transfer chunk budget) goes through
  // normal quorum learning; lag detection restarts a transfer if the
  // residual gap is still above threshold.
  hooks_.kick_tail(ctx);
}

void RepairCoordinator::on_announce(Context& ctx, NodeId from,
                                    const WatermarkAnnounce& msg) {
  // Settled only grows (it is durable before it is announced); the
  // frontier is taken as heard, so a restarted peer's lower one is news.
  const auto [it, first] = marks_.try_emplace(from);
  PeerMark& mark = it->second;
  const PeerMark heard{std::max(mark.settled, msg.settled), msg.frontier};
  if (first || heard != mark) {
    mark = heard;
    answer_due_ = true;
    arm_announce(ctx);
  }
  maybe_prune(ctx);
  maybe_request(ctx);
}

bool RepairCoordinator::handle(Context& ctx, NodeId from, const Message& msg) {
  if (const auto* ann = std::get_if<WatermarkAnnounce>(&msg.payload)) {
    if (ann->group != cfg_.group) return false;
    on_announce(ctx, from, *ann);
    return true;
  }
  if (const auto* req = std::get_if<RepairRequest>(&msg.payload)) {
    if (req->group != cfg_.group) return false;
    on_request(ctx, from, *req);
    return true;
  }
  if (const auto* snap = std::get_if<RepairSnapshot>(&msg.payload)) {
    if (snap->group != cfg_.group) return false;
    on_snapshot(ctx, from, *snap);
    return true;
  }
  return false;
}

}  // namespace fastcast::repair
