#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "fastcast/common/codec.hpp"
#include "fastcast/common/time.hpp"
#include "fastcast/runtime/ids.hpp"

/// \file message.hpp
/// The complete wire model: every message any protocol in this repository
/// puts on the network. One tagged union keeps dispatch trivial and gives
/// the TCP transport a single encode/decode entry point; the simulator
/// passes Message values by shared pointer without serializing.
///
/// Layering (bottom to top):
///   * Paxos messages (P1a..P2b) — point-to-point within a group, plus
///     learner broadcast of P2b.
///   * Reliable-multicast envelope (RmData/RmAck) — carries an
///     AmcastPayload to the processes of the destination groups.
///   * Atomic-multicast payloads (AmStart/AmSendSoft/AmSendHard) — the
///     START / SEND-SOFT / SEND-HARD messages of Algorithms 1 and 2.
///   * Client-facing messages (MpSubmit for the non-genuine protocol,
///     AmAck delivery acknowledgements).

namespace fastcast {

/// An application message being atomically multicast ("m" in the paper).
struct MulticastMessage {
  MsgId id = 0;
  NodeId sender = kInvalidNode;       ///< node to send the delivery ack to
  std::vector<GroupId> dst;           ///< destination groups, sorted, unique
  std::string payload;

  /// Absolute completion deadline (0 = none). Stamped by the client; hops
  /// with admission authority may reject the message early (Busy/kExpired)
  /// when their estimated residual queueing delay already exceeds it. On
  /// the wire this rides as an optional trailing varint of the client-facing
  /// frames (MpSubmit/MpBody/RmData-with-AmStart) so pre-deadline frames
  /// still decode (deadline = 0) and batch codecs stay byte-stable.
  Time deadline = 0;

  /// Client send timestamp (0 = none), stamped alongside the deadline. The
  /// admission point turns `now - sent_at` into a sojourn sample, so the
  /// overload estimate sees queueing the protocol clock cannot — transport
  /// queues and the receiver's own event backlog — not just staging and
  /// propose→decide waits. Second optional trailing varint after deadline
  /// (both are emitted whenever either is set, so the pair stays ordered).
  Time sent_at = 0;

  bool is_global() const { return dst.size() > 1; }
  friend bool operator==(const MulticastMessage&, const MulticastMessage&) = default;
};

/// Tuple kinds ordered by the per-group consensus ("z" in the paper).
enum class TupleKind : std::uint8_t {
  kSetHard = 0,   ///< request to assign a hard tentative timestamp
  kSyncSoft = 1,  ///< a group's soft tentative timestamp (FastCast only)
  kSyncHard = 2,  ///< a group's hard tentative timestamp
};

const char* to_string(TupleKind k);

/// A "(z, h, x, m)" tuple. Carries the destination set so that a replica
/// can process tuples for messages whose START has not arrived yet.
struct Tuple {
  TupleKind kind = TupleKind::kSetHard;
  GroupId group = kNoGroup;  ///< h — the group this timestamp belongs to
  Ts ts = 0;                 ///< x — tentative timestamp (0 = ⊥ for SET-HARD)
  MsgId mid = 0;
  std::vector<GroupId> dst;

  friend bool operator==(const Tuple&, const Tuple&) = default;
};

/// Identity of a tuple for the ToOrder/Ordered bookkeeping: the paper's
/// "a SYNC-HARD for (h, m) was already included" tests ignore x.
struct TupleId {
  TupleKind kind;
  GroupId group;
  MsgId mid;

  friend bool operator==(const TupleId&, const TupleId&) = default;
  friend auto operator<=>(const TupleId&, const TupleId&) = default;
};

inline TupleId id_of(const Tuple& t) { return TupleId{t.kind, t.group, t.mid}; }

// ---------------------------------------------------------------------------
// Atomic-multicast payloads carried by reliable multicast.
// ---------------------------------------------------------------------------

/// (START, ⊥, ⊥, m): a-multicast request propagated to every destination.
struct AmStart {
  MulticastMessage msg;
};

/// (SEND-SOFT, h, x, m): group h's soft tentative timestamp (FastCast).
struct AmSendSoft {
  GroupId from_group = kNoGroup;
  Ts ts = 0;
  MsgId mid = 0;
  std::vector<GroupId> dst;
};

/// (SEND-HARD, h, x, m): group h's hard tentative timestamp.
struct AmSendHard {
  GroupId from_group = kNoGroup;
  Ts ts = 0;
  MsgId mid = 0;
  std::vector<GroupId> dst;
};

using AmcastPayload = std::variant<AmStart, AmSendSoft, AmSendHard>;

/// Multicast-message id an amcast payload is about (tracing, logging).
inline MsgId mid_of(const AmcastPayload& p) {
  if (const auto* start = std::get_if<AmStart>(&p)) return start->msg.id;
  if (const auto* soft = std::get_if<AmSendSoft>(&p)) return soft->mid;
  return std::get<AmSendHard>(p).mid;
}

// ---------------------------------------------------------------------------
// Reliable-multicast envelope.
// ---------------------------------------------------------------------------

/// A reliably-multicast message: one frame, identical for every
/// destination process. `dest_seqs[i]` is the per-(origin, dest_nodes[i])
/// FIFO sequence number, so a receiver reads its own from the entry that
/// names it, and a relay can re-send the same frame to the other
/// destinations if the origin crashes mid-multicast.
struct RmData {
  NodeId origin = kInvalidNode;
  std::vector<NodeId> dest_nodes;          ///< parallel to dest_seqs
  std::vector<std::uint64_t> dest_seqs;
  AmcastPayload inner;
};

/// Acknowledgement used only when links may drop messages.
struct RmAck {
  NodeId origin = kInvalidNode;  ///< origin whose copy is being acked
  std::uint64_t seq = 0;
};

// ---------------------------------------------------------------------------
// Paxos messages. `group` identifies the consensus engine; the non-genuine
// protocol uses a dedicated ordering group.
// ---------------------------------------------------------------------------

struct P1a {
  GroupId group = kNoGroup;
  Ballot ballot;
  InstanceId from_instance = 0;  ///< phase 1 covers all instances ≥ this
};

struct P1b {
  GroupId group = kNoGroup;
  Ballot ballot;                 ///< promise ballot
  InstanceId from_instance = 0;
  struct AcceptedEntry {
    InstanceId instance = 0;
    Ballot vballot;
    std::vector<std::byte> value;
    friend bool operator==(const AcceptedEntry&, const AcceptedEntry&) = default;
  };
  std::vector<AcceptedEntry> accepted;
};

struct P2a {
  GroupId group = kNoGroup;
  Ballot ballot;
  InstanceId instance = 0;
  std::vector<std::byte> value;
};

/// Acceptors broadcast P2b (with the value) to every learner so a decision
/// is learned two delays after the proposal — the latency structure
/// Propositions 1–2 assume.
struct P2b {
  GroupId group = kNoGroup;
  Ballot ballot;
  InstanceId instance = 0;
  NodeId acceptor = kInvalidNode;
  std::vector<std::byte> value;
};

/// Nack: tells a stale proposer which ballot it lost to (latency optimisation).
struct PaxosNack {
  GroupId group = kNoGroup;
  Ballot promised;
  InstanceId instance = 0;
};

/// Learner catch-up over lossy links: asks an acceptor to re-send its P2b
/// votes for instances ≥ from_instance (the learner's next undecided one).
struct P2bRequest {
  GroupId group = kNoGroup;
  InstanceId from_instance = 0;
};

// ---------------------------------------------------------------------------
// Client-facing messages.
// ---------------------------------------------------------------------------

/// Submission to the fixed ordering group of the non-genuine protocol.
struct MpSubmit {
  MulticastMessage msg;
};

/// Out-of-band payload dissemination for the non-genuine protocol's
/// id-ordering mode (Ring-Paxos style split): the ordering leader forwards
/// the body directly to every destination replica while consensus orders
/// only compact MpIdRecord batches. Also the reply to MpBodyRequest.
struct MpBody {
  MulticastMessage msg;
};

/// Pull-based body recovery: a replica whose ordered id-record stalled
/// without its body (dissemination lost, leader crashed mid-send) asks a
/// likely holder to re-send MpBody. The requester is the `from` of the
/// envelope; any node still retaining the body answers.
struct MpBodyRequest {
  MsgId mid = 0;
};

/// Compact ordering record proposed to consensus in id mode: everything a
/// replica needs to slot the message into the decision order and to locate
/// its body. The payload itself never flows through Paxos.
struct MpIdRecord {
  MsgId mid = 0;
  NodeId sender = kInvalidNode;
  std::vector<GroupId> dst;

  friend bool operator==(const MpIdRecord&, const MpIdRecord&) = default;
};

/// Sent by a destination replica to msg.sender when it a-delivers the
/// message; closed-loop clients complete a request on the first ack.
struct AmAck {
  MsgId mid = 0;
  GroupId from_group = kNoGroup;
  NodeId deliverer = kInvalidNode;
};

/// Overload-control reply to a client (src/flow/). Non-advisory Busy is a
/// terminal verdict from a node with admission authority (the MultiPaxos
/// ordering leader): the message was NOT accepted and will never be
/// delivered — the client should back off and, budget permitting, retry.
/// Advisory Busy (genuine protocols, which cannot renege on a message once
/// it is reliably multicast) only asks the client to slow down; the message
/// is still processed. `retry_after` is the server's current queueing-delay
/// estimate, a backoff hint.
struct Busy {
  enum class Reason : std::uint8_t {
    kOverload = 0,  ///< admission controller is shedding
    kExpired = 1,   ///< deadline unmeetable given estimated queueing delay
  };
  MsgId mid = 0;
  Reason reason = Reason::kOverload;
  bool advisory = false;
  Duration retry_after = 0;

  friend bool operator==(const Busy&, const Busy&) = default;
};

/// Failure-detector heartbeat (leader election oracle).
struct FdHeartbeat {
  GroupId group = kNoGroup;
  NodeId from = kInvalidNode;
  std::uint64_t epoch = 0;
};

// ---------------------------------------------------------------------------
// State transfer & replica repair (src/repair/).
// ---------------------------------------------------------------------------

/// Periodic gossip of a replica's delivery progress within its consensus
/// group. `settled` is the settled frontier — every instance below it is
/// fully reflected in the announcer's durable delivered set, so it is the
/// announcer's vote for the group-wide pruning floor. `frontier` is the
/// announcer's next undecided instance, used by peers to detect lag.
struct WatermarkAnnounce {
  GroupId group = kNoGroup;
  NodeId from = kInvalidNode;
  InstanceId settled = 0;
  InstanceId frontier = 0;
};

/// A lagging replica asks an up-to-date peer to ship the decided range
/// [from_instance, peer frontier) as RepairSnapshot chunks.
struct RepairRequest {
  GroupId group = kNoGroup;
  InstanceId from_instance = 0;
};

/// One chunk of a repair transfer: decided values for a contiguous run of
/// instances starting at from_instance, CRC-guarded as an opaque payload
/// (see repair.hpp for the entry codec). `watermark` is the server's
/// decided frontier at serve time; `last` marks the final chunk, after
/// which the requester covers any remaining tail via normal P2bRequest.
struct RepairSnapshot {
  GroupId group = kNoGroup;
  InstanceId from_instance = 0;
  InstanceId watermark = 0;
  bool last = false;
  std::uint32_t payload_crc = 0;
  std::vector<std::byte> payload;
};

/// Acceptor continuation hint: a capped P2bRequest reply batch stopped
/// before the acceptor ran out of entries; the learner should re-poll from
/// next_instance immediately instead of waiting out its retry timer.
struct P2bMore {
  GroupId group = kNoGroup;
  InstanceId next_instance = 0;
};

using Payload = std::variant<RmData, RmAck, P1a, P1b, P2a, P2b, PaxosNack,
                             P2bRequest, MpSubmit, AmAck, FdHeartbeat,
                             WatermarkAnnounce, RepairRequest, RepairSnapshot,
                             P2bMore, MpBody, MpBodyRequest, Busy>;

struct Message {
  Payload payload;
};

/// Human-readable payload-kind name (logging/tracing).
const char* message_kind(const Message& m);

/// Cheap estimate of the encoded wire size of a message: a fixed header
/// allowance plus the dominant variable-length fields (application
/// payloads, consensus values). Used by the simulator's optional per-byte
/// CPU model to charge bandwidth-proportional cost without serializing
/// every unicast; not byte-exact, but exact for the fields that dominate.
std::size_t approx_wire_bytes(const Message& m);

// ---------------------------------------------------------------------------
// Serialization. Each type's fields are listed once, in a layout function in
// message.cpp that both directions instantiate (common/codec.hpp). decode
// returns false on malformed input instead of throwing (transport input is
// untrusted with respect to framing bugs).
// ---------------------------------------------------------------------------

void encode(Writer& w, const Message& m);
bool decode(Reader& r, Message& out);

std::vector<std::byte> encode_message(const Message& m);
bool decode_message(std::span<const std::byte> bytes, Message& out);

/// Encodes into `out` (cleared first), reusing its capacity, byte-identical
/// to encode_message; hot paths pair it with a BufferPool so steady-state
/// encoding allocates nothing.
void encode_message_into(const Message& m, std::vector<std::byte>& out);

/// Encodes a batch of tuples as an opaque consensus value (and back).
std::vector<std::byte> encode_tuples(const std::vector<Tuple>& tuples);
bool decode_tuples(std::span<const std::byte> bytes, std::vector<Tuple>& out);

/// Encodes a batch of MulticastMessages as an opaque consensus value for
/// the non-genuine protocol (and back).
std::vector<std::byte> encode_msg_batch(const std::vector<MulticastMessage>& msgs);
/// encode_msg_batch({msg}), byte for byte, without copying `msg` into a
/// vector first: how the WAL stores a message body.
std::vector<std::byte> encode_msg_batch_of_one(const MulticastMessage& msg);
bool decode_msg_batch(std::span<const std::byte> bytes,
                      std::vector<MulticastMessage>& out);

/// Encodes a batch of id records as an opaque consensus value for the
/// non-genuine protocol's id-ordering mode (and back).
std::vector<std::byte> encode_id_batch(const std::vector<MpIdRecord>& records);
bool decode_id_batch(std::span<const std::byte> bytes,
                     std::vector<MpIdRecord>& out);

}  // namespace fastcast
