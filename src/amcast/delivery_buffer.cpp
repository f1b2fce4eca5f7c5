#include "fastcast/amcast/delivery_buffer.hpp"

#include <algorithm>

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"
#include "fastcast/obs/observability.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast {

TupleState* DeliveryBuffer::Record::tuple(TupleKind kind, GroupId group) {
  for (TupleState& t : tuples) {
    if (t.kind == kind && t.group == group) return &t;
  }
  return nullptr;
}

bool DeliveryBuffer::was_delivered(MsgId mid) const {
  const auto hw = start_hw_.find(msg_id_sender(mid));
  return hw != start_hw_.end() && msg_id_seq(mid) <= hw->second &&
         !msgs_.contains(mid);
}

DeliveryBuffer::Record* DeliveryBuffer::record(MsgId mid) {
  if (auto it = msgs_.find(mid); it != msgs_.end()) return &it->second;
  if (was_delivered(mid)) return nullptr;
  return &msgs_[mid];
}

DeliveryBuffer::Record* DeliveryBuffer::find(MsgId mid) {
  const auto it = msgs_.find(mid);
  return it == msgs_.end() ? nullptr : &it->second;
}

void DeliveryBuffer::raise_start_hw(MsgId mid) {
  const auto [it, inserted] = start_hw_.try_emplace(msg_id_sender(mid), msg_id_seq(mid));
  if (!inserted && it->second < msg_id_seq(mid)) it->second = msg_id_seq(mid);
}

void DeliveryBuffer::note_dst(MsgId mid, const std::vector<GroupId>& dst) {
  Record* rec = record(mid);
  if (rec != nullptr && !rec->dst_known) {
    rec->dst = dst;
    rec->dst_known = true;
  }
}

void DeliveryBuffer::store_body(Context& ctx, const MulticastMessage& msg) {
  Record* rec = record(msg.id);
  if (rec == nullptr) return;
  raise_start_hw(msg.id);
  auto& pm = *rec;
  if (!pm.body.has_value()) {
    pm.body = msg;
    note_dst(msg.id, msg.dst);
    if (storage::NodeStorage* st = ctx.storage()) {
      // Persist the payload: after the origin's retransmission settles,
      // replaying this record is the only way a restarted node can still
      // deliver the message. Input, not externalization — no gate. Flushed
      // at once, not left to the batch: the rmcast floor covering this
      // START is already durable and its ack leaves after this upcall, so
      // a crash before the next batch flush would lose the START for good.
      st->log(storage::WalRecord::body(msg));
      st->flush();
    }
    // A formed FINAL may have been waiting for this body.
    if (pm.final_formed) try_deliver(ctx);
  }
}

void DeliveryBuffer::restore_started(MsgId mid) { raise_start_hw(mid); }

void DeliveryBuffer::restore_body(const MulticastMessage& msg) {
  Record* rec = record(msg.id);
  if (rec == nullptr) return;
  raise_start_hw(msg.id);
  auto& pm = *rec;
  // Unlike store_body this does not attempt delivery when final_formed is
  // set — and must not need to: restore_body runs only from
  // restore_durable, before any add_entry, and timestamps are never
  // persisted (see timestamp_base.cpp), so no restored message can have a
  // formed FINAL yet. FINALs formed later by the consensus catch-up replay
  // go through add_entry → try_deliver, which sees this body.
  FC_ASSERT_MSG(!pm.final_formed,
                "restore_body after a FINAL formed: restore must precede "
                "consensus replay");
  if (!pm.body.has_value()) {
    pm.body = msg;
    if (!pm.dst_known) {
      pm.dst = msg.dst;
      pm.dst_known = true;
    }
  }
}

bool DeliveryBuffer::has_body(MsgId mid) const {
  auto it = msgs_.find(mid);
  return it != msgs_.end() && it->second.body.has_value();
}

void DeliveryBuffer::add_entry(Context& ctx, EntryKind kind, GroupId group,
                               Ts ts, MsgId mid) {
  Record* rec = record(mid);
  if (rec == nullptr) return;
  auto& pm = *rec;
  // A SYNC-SOFT can be ordered after the slow path already completed the
  // message's FINAL; it is no longer relevant (the paper's B would keep it
  // forever, blocking deliveries — see DESIGN.md).
  if (pm.final_formed) return;
  for (const Entry& e : pm.entries) {
    if (e.kind == kind && e.group == group) return;  // duplicate
  }
  pm.entries.push_back(Entry{kind, group, ts});
  blocking_.insert(TsKey{ts, mid});
  if (auto* o = ctx.obs()) {
    o->metrics.gauge("amcast.delivery_buffer.max_depth")
        .record_max(static_cast<std::int64_t>(msgs_.size()));
  }
  if (kind == EntryKind::kSyncHard) {
    ++pm.sync_hard_count;
    try_form_final(ctx, mid, pm);
  }
  try_deliver(ctx);
}

void DeliveryBuffer::remove_pending_hard(Context& ctx, MsgId mid, GroupId group) {
  auto it = msgs_.find(mid);
  if (it == msgs_.end()) return;
  auto& entries = it->second.entries;
  for (auto e = entries.begin(); e != entries.end(); ++e) {
    if (e->kind == EntryKind::kPendingHard && e->group == group) {
      auto b = blocking_.find(TsKey{e->ts, mid});
      FC_ASSERT(b != blocking_.end());
      blocking_.erase(b);
      entries.erase(e);
      // Deliberately no try_deliver() here: the caller immediately inserts
      // the ordered SYNC-HARD that replaces this placeholder (with the
      // same timestamp). Attempting delivery in the gap would let another
      // message with a larger final timestamp jump ahead of this one.
      (void)ctx;
      return;
    }
  }
}

std::vector<std::pair<MsgId, Ts>> DeliveryBuffer::pending_hards(GroupId group) const {
  std::vector<std::pair<MsgId, Ts>> out;
  for (const auto& [mid, rec] : msgs_) {
    for (const Entry& e : rec.entries) {
      if (e.kind == EntryKind::kPendingHard && e.group == group) {
        out.emplace_back(mid, e.ts);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<Ts> DeliveryBuffer::sync_soft_ts(MsgId mid, GroupId group) const {
  auto it = msgs_.find(mid);
  if (it == msgs_.end()) return std::nullopt;
  for (const Entry& e : it->second.entries) {
    if (e.kind == EntryKind::kSyncSoft && e.group == group) return e.ts;
  }
  return std::nullopt;
}

bool DeliveryBuffer::has_sync_hard(MsgId mid, GroupId group) const {
  auto it = msgs_.find(mid);
  if (it == msgs_.end()) return false;
  for (const Entry& e : it->second.entries) {
    if (e.kind == EntryKind::kSyncHard && e.group == group) return true;
  }
  return false;
}

void DeliveryBuffer::try_form_final(Context& ctx, MsgId mid, Record& pm) {
  (void)ctx;
  if (pm.final_formed || !pm.dst_known) return;
  if (pm.sync_hard_count < pm.dst.size()) return;
  // Sanity: one SYNC-HARD per destination group.
  Ts max_ts = 0;
  std::size_t hard_seen = 0;
  for (const Entry& e : pm.entries) {
    if (e.kind != EntryKind::kSyncHard) continue;
    FC_ASSERT_MSG(std::find(pm.dst.begin(), pm.dst.end(), e.group) != pm.dst.end(),
                  "SYNC-HARD from a non-destination group");
    max_ts = std::max(max_ts, e.ts);
    ++hard_seen;
  }
  FC_ASSERT(hard_seen == pm.dst.size());

  // Replace every tentative entry of this message by its FINAL.
  for (const Entry& e : pm.entries) {
    auto b = blocking_.find(TsKey{e.ts, mid});
    FC_ASSERT(b != blocking_.end());
    blocking_.erase(b);
  }
  pm.entries.clear();
  pm.final_formed = true;
  pm.final_key = TsKey{max_ts, mid};
  finals_.insert(pm.final_key);
  blocking_.insert(pm.final_key);
}

void DeliveryBuffer::try_deliver(Context& ctx) {
  // Deliver while the smallest FINAL is smaller than every other buffered
  // timestamp — since a FINAL's own tentative entries were removed, that
  // is exactly "the FINAL is the minimum of the blocking set".
  while (!finals_.empty()) {
    const TsKey f = *finals_.begin();
    FC_ASSERT(!blocking_.empty());
    if (*blocking_.begin() < f) return;  // some other message may precede
    FC_ASSERT(*blocking_.begin() == f);

    auto it = msgs_.find(f.mid);
    FC_ASSERT(it != msgs_.end());
    if (!it->second.body.has_value()) return;  // START still in flight; stall

    // The record retires here; the upcall sees it one last time.
    const auto retired = msgs_.extract(it);
    finals_.erase(finals_.begin());
    blocking_.erase(blocking_.find(f));
    ++delivered_count_;
    if (deliver_) deliver_(ctx, *retired.mapped().body, retired.mapped());
  }
}

}  // namespace fastcast
