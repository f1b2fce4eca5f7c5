#include "fastcast/storage/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "fastcast/common/assert.hpp"

namespace fastcast::storage {

// ---------------------------------------------------------------------------
// DurableState
// ---------------------------------------------------------------------------

void DurableState::apply(WalRecord rec) {
  switch (rec.type) {
    case WalRecordType::kPromise: {
      auto& g = groups[rec.group];
      if (rec.ballot > g.promised) g.promised = rec.ballot;
      break;
    }
    case WalRecordType::kAccept: {
      auto& g = groups[rec.group];
      // Accepting at a ballot implies having promised it.
      if (rec.ballot > g.promised) g.promised = rec.ballot;
      // Round 0 is only ever logged for a decided value (the acceptor's
      // alignment on the decide path), which replaces any earlier vote.
      auto& acc = g.accepted[rec.instance];
      if (rec.ballot.round == 0 || rec.ballot >= acc.ballot) {
        acc.ballot = rec.ballot;
        acc.value = std::move(rec.value);
      }
      break;
    }
    case WalRecordType::kRmNextSeq: {
      auto& next = rm_next_seq[rec.node];
      if (rec.seq > next) next = rec.seq;
      break;
    }
    case WalRecordType::kRmStage:
      rm_staged[{rec.node, rec.seq}] = std::move(rec.value);
      break;
    case WalRecordType::kRmSettle:
      rm_staged.erase({rec.node, rec.seq});
      break;
    case WalRecordType::kRmProgress: {
      auto& next = rm_next_expected[rec.node];
      if (rec.seq > next) next = rec.seq;
      break;
    }
    case WalRecordType::kDelivered:
      delivered.insert(rec.seq);
      bodies.erase(rec.seq);  // a delivered message's body is no longer needed
      break;
    case WalRecordType::kBody:
      if (!delivered.contains(rec.seq)) bodies[rec.seq] = std::move(rec.value);
      break;
    case WalRecordType::kSettled: {
      auto& g = groups[rec.group];
      if (rec.instance > g.settled) g.settled = rec.instance;
      if (rec.seq > g.settled_clock) g.settled_clock = rec.seq;
      break;
    }
    case WalRecordType::kPruneAccepted: {
      auto& g = groups[rec.group];
      if (rec.instance > g.pruned_below) g.pruned_below = rec.instance;
      g.accepted.erase(g.accepted.begin(),
                       g.accepted.lower_bound(rec.instance));
      break;
    }
    case WalRecordType::kDropBody:
      // Unlike kDelivered, no in-doubt delivery: the message never was.
      bodies.erase(rec.seq);
      break;
    case WalRecordType::kRepairInstall:
      // Transfer-boundary marker: the installed entries and deliveries are
      // carried by their own kAccept/kDelivered/kSettled records, so the
      // marker folds to nothing — it exists for replay visibility.
      break;
  }
}

namespace {

/// Snapshot body version; bumped on any layout change so stale snapshots
/// are rejected instead of misdecoded.
constexpr std::uint8_t kSnapshotVersion = 2;

/// A map entry of a node id and a varint sequence number.
template <class Io, class E>
void node_seq(Io& io, E& e) {
  io.u32(e.first);
  io.varint(e.second);
}

}  // namespace

template <class Io>
void layout(Io& io, DurableState::Accepted& acc) {
  layout(io, acc.ballot);
  io.bytes(acc.value);
}

template <class Io>
void layout(Io& io, DurableState::GroupState& g) {
  layout(io, g.promised);
  io.varint(g.settled);
  io.varint(g.settled_clock);
  io.varint(g.pruned_below);
  io.seq(g.accepted, [&io](auto& e) {
    io.varint(e.first);
    layout(io, e.second);
  });
}

template <class Io>
void layout(Io& io, DurableState& state) {
  std::uint8_t version = kSnapshotVersion;
  io.enum8(version, kSnapshotVersion, kSnapshotVersion);
  io.seq(state.groups, [&io](auto& e) {
    io.u32(e.first);
    layout(io, e.second);
  });
  io.seq(state.rm_next_seq, [&io](auto& e) { node_seq(io, e); });
  io.seq(state.rm_staged, [&io](auto& e) {
    node_seq(io, e.first);
    io.bytes(e.second);
  });
  io.seq(state.rm_next_expected, [&io](auto& e) { node_seq(io, e); });
  io.seq(state.delivered, [&io](auto& mid) { io.varint(mid); });
  io.seq(state.bodies, [&io](auto& e) {
    io.varint(e.first);
    io.bytes(e.second);
  });
}

void encode_state(Writer& w, const DurableState& state) {
  encode_layout(w, state);
}

bool decode_state(Reader& r, DurableState& state) {
  return decode_layout(r, state);
}

// ---------------------------------------------------------------------------
// SnapshotStore
// ---------------------------------------------------------------------------

SnapshotStore::SnapshotStore(StorageBackend* backend) : backend_(backend) {
  FC_ASSERT_MSG(backend_ != nullptr, "SnapshotStore needs a backend");
}

std::string SnapshotStore::snapshot_name(Lsn lsn) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "snap-%016llx.snap",
                static_cast<unsigned long long>(lsn));
  return buf;
}

bool SnapshotStore::parse_snapshot_name(const std::string& name, Lsn& lsn) {
  // "snap-" + 16 hex digits + ".snap"
  if (name.size() != 26 || !name.starts_with("snap-") ||
      !name.ends_with(".snap")) {
    return false;
  }
  Lsn v = 0;
  for (std::size_t i = 5; i < 21; ++i) {
    const char c = name[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a') + 10;
    else return false;
    v = (v << 4) | digit;
  }
  lsn = v;
  return true;
}

void SnapshotStore::write(Lsn lsn, const DurableState& state) {
  // Same [len][crc] guard as WAL frames, so bit rot is detected on load.
  encode_frame(scratch_, [&state](Writer& w) { encode_state(w, state); });
  backend_->write_atomic(snapshot_name(lsn), scratch_);

  // GC: keep the newest two snapshots (this one and its predecessor).
  std::vector<Lsn> lsns;
  for (const std::string& name : backend_->list()) {
    Lsn at = 0;
    if (parse_snapshot_name(name, at)) lsns.push_back(at);
  }
  std::sort(lsns.begin(), lsns.end());
  while (lsns.size() > 2) {
    backend_->remove(snapshot_name(lsns.front()));
    lsns.erase(lsns.begin());
  }
}

Lsn SnapshotStore::load_latest(DurableState& state, std::uint64_t* rejected) {
  std::vector<Lsn> lsns;
  for (const std::string& name : backend_->list()) {
    Lsn at = 0;
    if (parse_snapshot_name(name, at)) lsns.push_back(at);
  }
  std::sort(lsns.begin(), lsns.end());
  std::vector<std::byte> content;
  for (auto it = lsns.rbegin(); it != lsns.rend(); ++it) {
    if (!backend_->read(snapshot_name(*it), content)) continue;
    if (content.size() < kFrameHeader) {
      if (rejected != nullptr) ++*rejected;
      continue;
    }
    Reader header(content);
    const std::uint32_t len = header.u32();
    const std::uint32_t crc = header.u32();
    if (content.size() - kFrameHeader != len) {
      if (rejected != nullptr) ++*rejected;
      continue;
    }
    const std::span<const std::byte> body(content.data() + kFrameHeader, len);
    if (crc32(body) != crc) {
      if (rejected != nullptr) ++*rejected;
      continue;
    }
    Reader r(body);
    DurableState decoded;
    if (!decode_state(r, decoded)) {
      if (rejected != nullptr) ++*rejected;
      continue;
    }
    state = std::move(decoded);
    return *it;
  }
  return 0;
}

std::size_t SnapshotStore::count() const {
  std::size_t n = 0;
  for (const std::string& name : backend_->list()) {
    Lsn at = 0;
    if (parse_snapshot_name(name, at)) ++n;
  }
  return n;
}

}  // namespace fastcast::storage
