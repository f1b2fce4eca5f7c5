#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fastcast/common/codec.hpp"
#include "fastcast/runtime/ids.hpp"
#include "fastcast/runtime/message.hpp"
#include "fastcast/storage/backend.hpp"

/// \file wal.hpp
/// Segmented, CRC-checksummed write-ahead log of typed protocol records.
///
/// On-disk format, pinned by the golden-bytes test in storage_test.cpp:
/// each record is framed as
///
///     [u32 body length][u32 CRC-32 of body][body]
///
/// with a fixed-layout body (see encode_record). Records are numbered by a
/// 1-based log sequence number (LSN); segment files are named
/// `wal-<first lsn, 16 hex digits>.seg` so a lexicographic listing is also
/// LSN order.
///
/// Recovery scans segments in order and stops at the first invalid record:
/// a CRC mismatch (bit flip) or a short frame (torn tail from a crash
/// mid-write). The scanned valid prefix is authoritative — the offending
/// segment is atomically rewritten to that prefix and later segments are
/// deleted, so a subsequent append continues from the last valid record and
/// the log never resurrects corrupt bytes.

namespace fastcast::storage {

/// Log sequence number: 1-based count of records ever appended; 0 = none.
using Lsn = std::uint64_t;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320), eight bytes per
/// step (slice-by-8).
std::uint32_t crc32(std::span<const std::byte> data);

/// Bytes per frame header: u32 body length + u32 CRC-32 of the body. WAL
/// records and snapshots share this framing.
inline constexpr std::size_t kFrameHeader = 8;

/// Fills in the header of `frame`, a kFrameHeader-byte placeholder followed
/// by the body, from the body's length and CRC.
void seal_frame(std::span<std::byte> frame);

/// Frames what `encode` writes as [length][CRC][body] in `buf`, reusing its
/// capacity: the body is encoded once, straight after a header placeholder,
/// and checksummed in place — no second buffer, no copy.
template <class Encode>
void encode_frame(std::vector<std::byte>& buf, Encode&& encode) {
  buf.clear();
  Writer w(std::move(buf));
  w.u64(0);  // header placeholder, sealed below
  encode(w);
  buf = w.take();
  seal_frame(buf);
}

enum class WalRecordType : std::uint8_t {
  kPromise = 1,     ///< acceptor of `group` promised `ballot`
  kAccept = 2,      ///< acceptor accepted (instance, ballot, value); implies promise
  kRmNextSeq = 3,   ///< rmcast sender seq toward `node` advanced to `seq`
  kRmStage = 4,     ///< rmcast frame staged for `node` at `seq` (value = encoded frame)
  kRmSettle = 5,    ///< staged frame (node, seq) acked; retransmission over
  kRmProgress = 6,  ///< rmcast receiver next_expected for origin `node` = `seq`
  kDelivered = 7,   ///< message `seq` (a MsgId) externalized as a-delivered
  kBody = 8,        ///< undelivered message body (seq = MsgId, value = WalRecord::body)
  kSettled = 9,        ///< `group`'s settled frontier reached `instance`; `seq` = protocol clock
  kPruneAccepted = 10, ///< `group`'s accepted entries below `instance` pruned
  kRepairInstall = 11, ///< repair installed `group`'s decided range [seq, instance)
  kDropBody = 12,      ///< body of message `seq` no longer needed (never delivered here)
  kLast = kDropBody,   ///< the decoder's bound: keep it naming the last type
};

/// One typed WAL record. All fields are always encoded (unused ones at
/// their defaults) so the wire format stays a single fixed layout.
struct WalRecord {
  WalRecordType type = WalRecordType::kPromise;
  GroupId group = kNoGroup;
  Ballot ballot{};
  InstanceId instance = 0;
  NodeId node = kInvalidNode;
  std::uint64_t seq = 0;
  std::vector<std::byte> value;

  static WalRecord promise(GroupId g, Ballot b);
  static WalRecord accept(GroupId g, InstanceId inst, Ballot b,
                          std::span<const std::byte> value);
  static WalRecord rm_next_seq(NodeId dest, std::uint64_t next);
  static WalRecord rm_stage(NodeId dest, std::uint64_t seq,
                            std::span<const std::byte> frame);
  static WalRecord rm_settle(NodeId dest, std::uint64_t seq);
  static WalRecord rm_progress(NodeId origin, std::uint64_t next_expected);
  static WalRecord delivered(MsgId mid);
  /// The message as a one-element batch, encoded straight from `msg` into a
  /// buffer reserved for it (encode_msg_batch_of_one); decode_body reads it
  /// back.
  static WalRecord body(const MulticastMessage& msg);
  static WalRecord settled(GroupId g, InstanceId frontier, std::uint64_t clock);
  static WalRecord prune_accepted(GroupId g, InstanceId floor);
  static WalRecord repair_install(GroupId g, InstanceId from, InstanceId through);
  static WalRecord drop_body(MsgId mid);

  friend bool operator==(const WalRecord&, const WalRecord&) = default;
};

/// Reads a kBody record's value back into the message it stores; false
/// unless the value is exactly one encoded message.
bool decode_body(std::span<const std::byte> value, MulticastMessage& out);

/// Record-body codec; the [length][crc] framing is the Wal's job.
void encode_record(Writer& w, const WalRecord& rec);
bool decode_record(Reader& r, WalRecord& rec);

struct WalReplayStats {
  std::uint64_t records = 0;             ///< valid records scanned
  std::uint64_t replayed = 0;            ///< records handed to the callback
  std::uint64_t checksum_rejections = 0; ///< records dropped by CRC/decode failure
  bool torn_tail = false;                ///< trailing partial frame repaired
  std::uint64_t dropped_segments = 0;    ///< segments discarded after corruption
};

class Wal {
 public:
  /// `segment_bytes` caps a segment's payload before the writer rolls to a
  /// new file (records are never split across segments).
  Wal(StorageBackend* backend, std::size_t segment_bytes);

  /// Scans the backend, invokes `fn` for every valid record with
  /// lsn > `skip_through` (snapshot watermark), repairs a torn/corrupt
  /// tail, and positions the writer after the last valid record. Must be
  /// called before append(); may be called again to re-open after a crash.
  WalReplayStats open(Lsn skip_through,
                      const std::function<void(Lsn, const WalRecord&)>& fn);

  Lsn append(const WalRecord& rec);

  /// Declares everything appended so far committed, opening the durability
  /// gate. With `fsync` true the dirty segments are synced first; false is
  /// the never-for-sim policy — the gate opens but a crash may still lose
  /// the records.
  void commit_all(bool fsync);

  Lsn last_lsn() const { return last_lsn_; }
  Lsn durable_lsn() const { return durable_lsn_; }
  std::uint64_t pending_records() const { return last_lsn_ - durable_lsn_; }

  /// Deletes every segment whose records all have lsn <= `lsn` (never the
  /// active segment). Returns the number of segments removed.
  std::size_t truncate_through(Lsn lsn);
  std::size_t segment_count() const { return segments_.size(); }

 private:
  struct Segment {
    std::string name;
    Lsn first = 0;            ///< lsn of the segment's first record
    std::size_t bytes = 0;    ///< valid payload bytes
    bool dirty = false;       ///< has unsynced appends
  };

  static std::string segment_name(Lsn first);
  static bool parse_segment_name(const std::string& name, Lsn& first);
  void start_segment(Lsn first);

  StorageBackend* backend_;
  std::size_t segment_bytes_;
  std::vector<Segment> segments_;
  Lsn last_lsn_ = 0;
  Lsn durable_lsn_ = 0;
  std::vector<std::byte> frame_;  ///< the record being appended, reused
  bool opened_ = false;
};

}  // namespace fastcast::storage
