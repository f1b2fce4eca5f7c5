#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/// \file codec.hpp
/// Binary wire codec: little-endian fixed-width integers, LEB128 varints,
/// and length-prefixed byte strings. Used by the TCP transport and by the
/// simulator's optional serialize-everything mode (which exercises the same
/// encode/decode paths as the real network).
///
/// Decoding is defensive: Reader never reads past the buffer and reports
/// failure through ok()/fail() rather than exceptions, because transport
/// input is untrusted with respect to framing bugs.

namespace fastcast {

class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  /// Adopts `buf` (contents preserved, writes append) so hot paths can
  /// recycle a scratch buffer's capacity instead of allocating per message.
  /// Retrieve the buffer back with take().
  explicit Writer(std::vector<std::byte>&& buf) : buf_(std::move(buf)) {}

  /// Drops the accumulated bytes but keeps the capacity for reuse.
  void clear() { buf_.clear(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }

  void u16(std::uint16_t v) { append_le(&v, sizeof v); }
  void u32(std::uint32_t v) { append_le(&v, sizeof v); }
  void u64(std::uint64_t v) { append_le(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// Unsigned LEB128 varint; compact for small values (sequence numbers,
  /// sizes) which dominate the wire traffic. The plain loop: unrolling its
  /// 1- and 2-byte tiers measured slower, so only the reader is unrolled.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }

  void bytes(std::span<const std::byte> data) {
    varint(data.size());
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void str(std::string_view s) {
    varint(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  /// Raw append without a length prefix (for nested pre-encoded blobs).
  void raw(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  const std::vector<std::byte>& data() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append_le(const void* p, std::size_t n) {
    // Host is little-endian on every supported target; memcpy keeps this
    // free of strict-aliasing issues.
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::byte> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// LEB128 decode with a 1-byte fast path (the dominant case on this
  /// wire) and a bounds-check-free unrolled path whenever >=10 bytes
  /// remain — an encoded u64 never exceeds 10 bytes, so only reads near
  /// the end of the buffer need the per-byte ensure() of the slow loop.
  /// Accepts/rejects exactly what the slow loop does.
  std::uint64_t varint() {
    const std::size_t rem = remaining();
    if (rem > 0) [[likely]] {
      const auto b0 = static_cast<std::uint8_t>(data_[pos_]);
      if ((b0 & 0x80) == 0) {
        ++pos_;
        return b0;
      }
      if (rem >= 10) return varint_unrolled();
    }
    return varint_slow();
  }

  std::vector<std::byte> bytes() {
    const std::uint64_t n = varint();
    if (!ok_ || !ensure(n)) return {};
    std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::string str() {
    const std::uint64_t n = varint();
    if (!ok_ || !ensure(n)) return {};
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

 private:
  /// Continuation byte confirmed and >=10 bytes available: decode without
  /// per-byte bounds checks. The macro unrolls what the slow loop does at
  /// shift 7i; byte 9 lands at shift 63 with the same silent truncation of
  /// high bits, and a continuation bit on byte 9 fails exactly like the
  /// slow loop's shift > 63 guard.
  std::uint64_t varint_unrolled() {
    const std::byte* p = data_.data() + pos_;
    std::uint64_t v = static_cast<std::uint8_t>(p[0]) & 0x7fu;
#define FASTCAST_VARINT_STEP(i)                                     \
  {                                                                 \
    const auto b = static_cast<std::uint8_t>(p[i]);                 \
    v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * (i));         \
    if ((b & 0x80) == 0) {                                          \
      pos_ += (i) + 1;                                              \
      return v;                                                     \
    }                                                               \
  }
    FASTCAST_VARINT_STEP(1)
    FASTCAST_VARINT_STEP(2)
    FASTCAST_VARINT_STEP(3)
    FASTCAST_VARINT_STEP(4)
    FASTCAST_VARINT_STEP(5)
    FASTCAST_VARINT_STEP(6)
    FASTCAST_VARINT_STEP(7)
    FASTCAST_VARINT_STEP(8)
    FASTCAST_VARINT_STEP(9)
#undef FASTCAST_VARINT_STEP
    return fail_zero();  // 11th byte would need shift > 63
  }

  std::uint64_t varint_slow() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift > 63) return fail_zero();
      const std::uint8_t b = u8();
      if (!ok_) return 0;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  template <typename T>
  T read_le() {
    if (!ensure(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  bool ensure(std::uint64_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::uint64_t fail_zero() {
    ok_ = false;
    return 0;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Recycles byte buffers so per-message hot paths (TCP framing, batch
/// encoding, the simulator's serialize-everything mode) reuse capacity
/// instead of allocating a fresh vector per message. acquire() returns an
/// empty buffer (possibly with warm capacity); release() hands it back.
/// Not thread-safe: use one pool per thread/transport/context.
class BufferPool {
 public:
  std::vector<std::byte> acquire();
  void release(std::vector<std::byte>&& buf);

  std::size_t pooled() const { return pool_.size(); }

 private:
  /// Bounds idle memory: at most kMaxPooled buffers of kMaxRetainedBytes
  /// capacity are retained; anything beyond is simply freed.
  static constexpr std::size_t kMaxPooled = 64;
  static constexpr std::size_t kMaxRetainedBytes = 1 << 20;

  std::vector<std::vector<std::byte>> pool_;
};

/// Converts a string payload to bytes for Writer::bytes / tests.
std::vector<std::byte> to_bytes(std::string_view s);
std::string to_string(std::span<const std::byte> bytes);

}  // namespace fastcast
