#pragma once

#include <cstdint>
#include <functional>

/// \file ids.hpp
/// Strongly-typed identifiers used across the stack.
///
/// Nodes are numbered densely 0..N-1 across the whole deployment (replicas
/// and clients alike). Groups are numbered 0..G-1. A message id packs the
/// sending node and a per-sender sequence number, which makes ids unique
/// without coordination and lets logs stay readable.

namespace fastcast {

using NodeId = std::uint32_t;
using GroupId = std::uint32_t;
using RegionId = std::uint32_t;

constexpr NodeId kInvalidNode = 0xffffffffu;
constexpr GroupId kNoGroup = 0xffffffffu;  ///< group of client nodes

/// Globally unique multicast-message id: (sender << 32) | per-sender counter.
/// A sender numbers its messages in multicast order (a retry reuses the id).
/// With rmcast's per-origin FIFO this lets a genuine replica tell delivered
/// messages from unseen ones by a per-sender START high-water alone
/// (DeliveryBuffer::was_delivered).
using MsgId = std::uint64_t;

constexpr MsgId make_msg_id(NodeId sender, std::uint32_t seq) {
  return (static_cast<MsgId>(sender) << 32) | seq;
}
constexpr NodeId msg_id_sender(MsgId id) {
  return static_cast<NodeId>(id >> 32);
}
constexpr std::uint32_t msg_id_seq(MsgId id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

/// Logical-clock value used for tentative/final timestamps.
using Ts = std::uint64_t;

/// Total order on (timestamp, message id) pairs. Final timestamps are
/// compared with this everywhere; the message-id tie-break makes the
/// delivery order total (Algorithms 1–2 leave equal-timestamp ties
/// unspecified, which would otherwise deadlock Task 5/7).
struct TsKey {
  Ts ts = 0;
  MsgId mid = 0;

  friend constexpr bool operator==(const TsKey&, const TsKey&) = default;
  friend constexpr auto operator<=>(const TsKey& a, const TsKey& b) {
    if (auto c = a.ts <=> b.ts; c != 0) return c;
    return a.mid <=> b.mid;
  }
};

/// Paxos ballot: (round, proposer id); round 0 is reserved for "never voted".
struct Ballot {
  std::uint32_t round = 0;
  NodeId node = kInvalidNode;

  friend constexpr bool operator==(const Ballot&, const Ballot&) = default;
  friend constexpr auto operator<=>(const Ballot& a, const Ballot& b) {
    if (auto c = a.round <=> b.round; c != 0) return c;
    return a.node <=> b.node;
  }
};

/// Wire layout (common/codec.hpp), shared by messages, WAL records and
/// snapshots.
template <class Io>
void layout(Io& io, Ballot& b) {
  io.u32(b.round);
  io.u32(b.node);
}

using InstanceId = std::uint64_t;

}  // namespace fastcast

template <>
struct std::hash<fastcast::TsKey> {
  std::size_t operator()(const fastcast::TsKey& k) const noexcept {
    return std::hash<std::uint64_t>()(k.ts * 0x9e3779b97f4a7c15ULL ^ k.mid);
  }
};
