#include "fastcast/runtime/message.hpp"

#include <array>
#include <concepts>
#include <type_traits>

#include "fastcast/common/assert.hpp"

namespace fastcast {

namespace {

// Stable wire tags; order must never change once released.
enum class WireTag : std::uint8_t {
  kRmData = 1,
  kRmAck = 2,
  kP1a = 3,
  kP1b = 4,
  kP2a = 5,
  kP2b = 6,
  kPaxosNack = 7,
  kMpSubmit = 8,
  kAmAck = 9,
  kFdHeartbeat = 10,
  kP2bRequest = 11,
  kWatermarkAnnounce = 12,
  kRepairRequest = 13,
  kRepairSnapshot = 14,
  kP2bMore = 15,
  kMpBody = 16,
  kMpBodyRequest = 17,
  kBusy = 18,
};

/// Each Payload alternative's tag, in variant order.
constexpr std::array<WireTag, std::variant_size_v<Payload>> kWireTags = {
    WireTag::kRmData,         WireTag::kRmAck,
    WireTag::kP1a,            WireTag::kP1b,
    WireTag::kP2a,            WireTag::kP2b,
    WireTag::kPaxosNack,      WireTag::kP2bRequest,
    WireTag::kMpSubmit,       WireTag::kAmAck,
    WireTag::kFdHeartbeat,    WireTag::kWatermarkAnnounce,
    WireTag::kRepairRequest,  WireTag::kRepairSnapshot,
    WireTag::kP2bMore,        WireTag::kMpBody,
    WireTag::kMpBodyRequest,  WireTag::kBusy,
};

enum class AmTag : std::uint8_t { kStart = 1, kSendSoft = 2, kSendHard = 3 };

/// Each AmcastPayload alternative's tag, in variant order.
constexpr std::array<AmTag, std::variant_size_v<AmcastPayload>> kAmTags = {
    AmTag::kStart, AmTag::kSendSoft, AmTag::kSendHard};

template <class Io>
void groups(Io& io, std::vector<GroupId>& gs) {
  io.seq(gs, [&io](GroupId& g) { io.varint(g); });
}

/// The frames that end with one client message (MpSubmit, MpBody, an
/// RmData carrying AmStart) append its deadline/sent_at stamps. Only there:
/// the batch values carry no stamps, so they stay byte-stable.
template <class Io>
void stamps(Io& io, MulticastMessage& m) {
  io.optional_pair(m.deadline, m.sent_at);
}

}  // namespace

// ---------------------------------------------------------------------------
// Layouts: every type's fields in wire order (see common/codec.hpp). They
// live in namespace fastcast, not the anonymous one, so the codec's
// sequence and variant helpers find them by argument-dependent lookup.
// ---------------------------------------------------------------------------

template <class Io>
void layout(Io& io, MulticastMessage& m) {
  io.u64(m.id);
  io.u32(m.sender);
  groups(io, m.dst);
  io.str(m.payload);
}

template <class Io>
void layout(Io& io, Tuple& t) {
  io.enum8(t.kind, TupleKind::kSetHard, TupleKind::kSyncHard);
  io.varint(t.group);
  io.varint(t.ts);
  io.u64(t.mid);
  groups(io, t.dst);
}

template <class Io>
void layout(Io& io, MpIdRecord& rec) {
  io.u64(rec.mid);
  io.u32(rec.sender);
  groups(io, rec.dst);
}

template <class Io>
void layout(Io& io, AmStart& s) {
  layout(io, s.msg);
}

template <class Io, class S>
  requires std::same_as<S, AmSendSoft> || std::same_as<S, AmSendHard>
void layout(Io& io, S& s) {
  io.varint(s.from_group);
  io.varint(s.ts);
  io.u64(s.mid);
  groups(io, s.dst);
}

template <class Io>
void layout(Io& io, RmData& d) {
  io.u32(d.origin);
  // dest_nodes and dest_seqs are parallel: one count, then the pairs.
  FC_ASSERT(d.dest_nodes.size() == d.dest_seqs.size());
  const std::size_t n = io.count(d.dest_nodes.size());
  if constexpr (std::is_same_v<Io, Reader>) {
    d.dest_nodes.resize(n);
    d.dest_seqs.resize(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    io.u32(d.dest_nodes[i]);
    io.varint(d.dest_seqs[i]);
  }
  io.tagged(d.inner, kAmTags);
  if (auto* s = std::get_if<AmStart>(&d.inner)) stamps(io, s->msg);
}

template <class Io>
void layout(Io& io, RmAck& a) {
  io.u32(a.origin);
  io.u64(a.seq);
}

template <class Io>
void layout(Io& io, P1a& p) {
  io.varint(p.group);
  layout(io, p.ballot);
  io.u64(p.from_instance);
}

template <class Io>
void layout(Io& io, P1b::AcceptedEntry& e) {
  io.u64(e.instance);
  layout(io, e.vballot);
  io.bytes(e.value);
}

template <class Io>
void layout(Io& io, P1b& p) {
  io.varint(p.group);
  layout(io, p.ballot);
  io.u64(p.from_instance);
  io.seq(p.accepted);
}

template <class Io>
void layout(Io& io, P2a& p) {
  io.varint(p.group);
  layout(io, p.ballot);
  io.u64(p.instance);
  io.bytes(p.value);
}

template <class Io>
void layout(Io& io, P2b& p) {
  io.varint(p.group);
  layout(io, p.ballot);
  io.u64(p.instance);
  io.u32(p.acceptor);
  io.bytes(p.value);
}

template <class Io>
void layout(Io& io, PaxosNack& p) {
  io.varint(p.group);
  layout(io, p.promised);
  io.u64(p.instance);
}

template <class Io>
void layout(Io& io, P2bRequest& p) {
  io.varint(p.group);
  io.u64(p.from_instance);
}

template <class Io>
void layout(Io& io, MpSubmit& s) {
  layout(io, s.msg);
  stamps(io, s.msg);
}

template <class Io>
void layout(Io& io, AmAck& a) {
  io.u64(a.mid);
  io.varint(a.from_group);
  io.u32(a.deliverer);
}

template <class Io>
void layout(Io& io, FdHeartbeat& h) {
  io.varint(h.group);
  io.u32(h.from);
  io.u64(h.epoch);
}

template <class Io>
void layout(Io& io, WatermarkAnnounce& a) {
  io.varint(a.group);
  io.u32(a.from);
  io.u64(a.settled);
  io.u64(a.frontier);
}

template <class Io>
void layout(Io& io, RepairRequest& q) {
  io.varint(q.group);
  io.u64(q.from_instance);
}

template <class Io>
void layout(Io& io, RepairSnapshot& s) {
  io.varint(s.group);
  io.u64(s.from_instance);
  io.u64(s.watermark);
  io.enum8(s.last, false, true);
  io.u32(s.payload_crc);
  io.bytes(s.payload);
}

template <class Io>
void layout(Io& io, P2bMore& m) {
  io.varint(m.group);
  io.u64(m.next_instance);
}

template <class Io>
void layout(Io& io, MpBody& b) {
  layout(io, b.msg);
  stamps(io, b.msg);
}

template <class Io>
void layout(Io& io, MpBodyRequest& q) {
  io.u64(q.mid);
}

template <class Io>
void layout(Io& io, Busy& b) {
  io.u64(b.mid);
  io.enum8(b.reason, Busy::Reason::kOverload, Busy::Reason::kExpired);
  io.enum8(b.advisory, false, true);
  io.varint(b.retry_after);
}

template <class Io>
void layout(Io& io, Message& m) {
  io.tagged(m.payload, kWireTags);
}

const char* to_string(TupleKind k) {
  switch (k) {
    case TupleKind::kSetHard: return "SET-HARD";
    case TupleKind::kSyncSoft: return "SYNC-SOFT";
    case TupleKind::kSyncHard: return "SYNC-HARD";
  }
  return "?";
}

const char* message_kind(const Message& m) {
  struct Visitor {
    const char* operator()(const RmData&) const { return "RmData"; }
    const char* operator()(const RmAck&) const { return "RmAck"; }
    const char* operator()(const P1a&) const { return "P1a"; }
    const char* operator()(const P1b&) const { return "P1b"; }
    const char* operator()(const P2a&) const { return "P2a"; }
    const char* operator()(const P2b&) const { return "P2b"; }
    const char* operator()(const PaxosNack&) const { return "PaxosNack"; }
    const char* operator()(const P2bRequest&) const { return "P2bRequest"; }
    const char* operator()(const MpSubmit&) const { return "MpSubmit"; }
    const char* operator()(const AmAck&) const { return "AmAck"; }
    const char* operator()(const FdHeartbeat&) const { return "FdHeartbeat"; }
    const char* operator()(const WatermarkAnnounce&) const { return "WatermarkAnnounce"; }
    const char* operator()(const RepairRequest&) const { return "RepairRequest"; }
    const char* operator()(const RepairSnapshot&) const { return "RepairSnapshot"; }
    const char* operator()(const P2bMore&) const { return "P2bMore"; }
    const char* operator()(const MpBody&) const { return "MpBody"; }
    const char* operator()(const MpBodyRequest&) const { return "MpBodyRequest"; }
    const char* operator()(const Busy&) const { return "Busy"; }
  };
  return std::visit(Visitor{}, m.payload);
}

namespace {

// Member templates are illegal in local classes, so the visitor lives here.
struct WireBytesVisitor {
  std::size_t operator()(const RmData& d) const {
    std::size_t n = 8 * d.dest_nodes.size();
    if (const auto* s = std::get_if<AmStart>(&d.inner)) {
      n += s->msg.payload.size() + s->msg.dst.size();
    }
    return n;
  }
  std::size_t operator()(const P1b& p) const {
    std::size_t n = 0;
    for (const auto& e : p.accepted) n += 16 + e.value.size();
    return n;
  }
  std::size_t operator()(const P2a& p) const { return p.value.size(); }
  std::size_t operator()(const P2b& p) const { return p.value.size(); }
  std::size_t operator()(const MpSubmit& s) const {
    return s.msg.payload.size() + s.msg.dst.size();
  }
  std::size_t operator()(const MpBody& b) const {
    return b.msg.payload.size() + b.msg.dst.size();
  }
  std::size_t operator()(const RepairSnapshot& s) const {
    return s.payload.size();
  }
  template <typename T>
  std::size_t operator()(const T&) const {
    return 0;
  }
};

}  // namespace

std::size_t approx_wire_bytes(const Message& m) {
  // Fixed allowance for the tag plus small scalar fields; only the fields
  // that can dominate a frame are counted exactly.
  constexpr std::size_t kBase = 16;
  return kBase + std::visit(WireBytesVisitor{}, m.payload);
}

void encode(Writer& w, const Message& m) { encode_layout(w, m); }

bool decode(Reader& r, Message& out) {
  layout(r, out);
  return r.ok();
}

std::vector<std::byte> encode_message(const Message& m) {
  std::vector<std::byte> out;
  out.reserve(128);
  encode_message_into(m, out);
  return out;
}

void encode_message_into(const Message& m, std::vector<std::byte>& out) {
  out.clear();
  Writer w(std::move(out));
  encode(w, m);
  out = w.take();
}

bool decode_message(std::span<const std::byte> bytes, Message& out) {
  Reader r(bytes);
  return decode_layout(r, out);
}

std::vector<std::byte> encode_tuples(const std::vector<Tuple>& tuples) {
  return encode_seq(tuples);
}

bool decode_tuples(std::span<const std::byte> bytes, std::vector<Tuple>& out) {
  return decode_seq(bytes, out);
}

std::vector<std::byte> encode_msg_batch(const std::vector<MulticastMessage>& msgs) {
  return encode_seq(msgs);
}

std::vector<std::byte> encode_msg_batch_of_one(const MulticastMessage& msg) {
  // Reserved from an upper bound (count, fixed fields, varints at their
  // widest, the payload): a 2 KiB body lands in one allocation instead of
  // being copied as the buffer regrows.
  constexpr std::size_t kMaxVarint = 10;
  Writer w(12 + kMaxVarint * (3 + msg.dst.size()) + msg.payload.size());
  w.count(1);
  encode_layout(w, msg);
  return w.take();
}

bool decode_msg_batch(std::span<const std::byte> bytes,
                      std::vector<MulticastMessage>& out) {
  return decode_seq(bytes, out);
}

std::vector<std::byte> encode_id_batch(const std::vector<MpIdRecord>& records) {
  return encode_seq(records);
}

bool decode_id_batch(std::span<const std::byte> bytes,
                     std::vector<MpIdRecord>& out) {
  return decode_seq(bytes, out);
}

}  // namespace fastcast
