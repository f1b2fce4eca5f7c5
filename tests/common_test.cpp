// Unit tests for the common substrate: RNG, codec primitives, statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "fastcast/common/codec.hpp"
#include "fastcast/common/rng.hpp"
#include "fastcast/common/stats.hpp"
#include "fastcast/common/time.hpp"

namespace fastcast {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += parent.next() == child.next();
  EXPECT_LT(equal, 3);
}

TEST(Time, Conversions) {
  EXPECT_EQ(milliseconds(1), 1000 * microseconds(1));
  EXPECT_EQ(seconds(1), 1000 * milliseconds(1));
  EXPECT_EQ(milliseconds_f(0.5), microseconds(500));
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(70)), 70.0);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
}

TEST(Codec, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.25);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, VarintBoundaries) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                          0xffffffffULL, ~0ULL}) {
    Writer w;
    w.varint(v);
    Reader r(w.data());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
  }
}

/// Pins the exact LEB128 byte sequences. The writer and the reader (its
/// 1-byte early exit and the bounds-checked loop) must stay byte-identical
/// to the canonical encoding — any deviation is a wire-format break, not a
/// perf tweak.
TEST(Codec, VarintGoldenBytes) {
  struct Golden {
    std::uint64_t value;
    std::vector<std::uint8_t> wire;
  };
  const std::vector<Golden> goldens = {
      {0, {0x00}},
      {1, {0x01}},
      {127, {0x7f}},                          // largest 1-byte value
      {128, {0x80, 0x01}},                    // first 2-byte value
      {300, {0xac, 0x02}},
      {16383, {0xff, 0x7f}},                  // largest 2-byte value
      {16384, {0x80, 0x80, 0x01}},            // first 3-byte value
      {0xffffffffULL, {0xff, 0xff, 0xff, 0xff, 0x0f}},
      {1ULL << 63, {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                    0x01}},
      {~0ULL, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
               0x01}},                        // max length: 10 bytes
  };
  for (const auto& g : goldens) {
    Writer w;
    w.varint(g.value);
    ASSERT_EQ(w.size(), g.wire.size()) << "value " << g.value;
    for (std::size_t i = 0; i < g.wire.size(); ++i) {
      EXPECT_EQ(static_cast<std::uint8_t>(w.data()[i]), g.wire[i])
          << "value " << g.value << " byte " << i;
    }
    // Decode with 10 spare bytes after the value...
    std::vector<std::byte> padded(w.data().begin(), w.data().end());
    padded.resize(padded.size() + 10);
    Reader fast(padded);
    EXPECT_EQ(fast.varint(), g.value);
    EXPECT_TRUE(fast.ok());
    // ...and from an exact-size buffer.
    Reader slow(w.data());
    EXPECT_EQ(slow.varint(), g.value);
    EXPECT_TRUE(slow.ok());
  }
}

TEST(Codec, VarintRejectsOverlongOnBothDecodePaths) {
  // 11 continuation-flagged bytes: invalid however many bytes remain.
  std::vector<std::byte> overlong(11, std::byte{0xff});
  overlong.push_back(std::byte{0x00});
  Reader fast(overlong);  // >= 10 remaining: fails on the 11th byte
  fast.varint();
  EXPECT_FALSE(fast.ok());

  std::vector<std::byte> truncated(3, std::byte{0x80});
  Reader tail(truncated);  // < 10 remaining: runs off the end
  tail.varint();
  EXPECT_FALSE(tail.ok());
}

// ---------------------------------------------------------------------------
// Adversarial varint fuzzing. Reader::varint — a 1-byte fast path ahead of
// a bounds-checked loop — must accept/reject exactly the same byte strings
// with the same value and consumed length whatever trails them: nothing
// (the buffer ends with the value) or spare bytes (it must stop at the
// value's own terminator). The oracle below is a deliberately naive LEB128
// decoder written straight from the spec, so a bug in the production
// reader still gets caught.

struct VarintOracle {
  std::uint64_t value = 0;
  std::size_t consumed = 0;
  bool ok = false;
};

VarintOracle reference_varint(std::span<const std::byte> in) {
  VarintOracle out;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (i >= 10) return out;  // an 11th byte would need shift > 63
    const auto b = static_cast<std::uint8_t>(in[i]);
    v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      out.value = v;
      out.consumed = i + 1;
      out.ok = true;
      return out;
    }
  }
  return out;  // ran off the end with the continuation bit still set
}

TEST(Codec, VarintFuzzRoundTripBothPaths) {
  Rng rng(0x5eed);
  for (int iter = 0; iter < 20000; ++iter) {
    // Mask to a random bit width so every encoded length 1..10 shows up.
    const auto bits = 1 + static_cast<unsigned>(rng.uniform(64));
    std::uint64_t v = rng.next();
    if (bits < 64) v &= (1ULL << bits) - 1;
    Writer w;
    w.varint(v);
    // Exact-size buffer: the value ends the input.
    Reader tail(w.data());
    ASSERT_EQ(tail.varint(), v);
    ASSERT_TRUE(tail.ok());
    ASSERT_TRUE(tail.at_end());
    // Adversarial 0xff padding (continuation bit everywhere): the reader
    // must stop at the value's own terminator, never read on.
    std::vector<std::byte> padded(w.data().begin(), w.data().end());
    padded.resize(padded.size() + 10, std::byte{0xff});
    Reader fast(padded);
    ASSERT_EQ(fast.varint(), v);
    ASSERT_TRUE(fast.ok());
    ASSERT_EQ(fast.remaining(), 10u);
  }
}

TEST(Codec, VarintFuzzRandomBytesMatchOracle) {
  Rng rng(0xfacade);
  for (int iter = 0; iter < 20000; ++iter) {
    // Continuation-biased bytes reach long encodings far more often than
    // uniform bytes would (a uniform byte terminates half the time).
    const auto len = static_cast<std::size_t>(1 + rng.uniform(14));
    std::vector<std::byte> buf(len);
    for (auto& slot : buf) {
      auto b = static_cast<std::uint8_t>(rng.next());
      if (rng.uniform(4) != 0) b |= 0x80;
      slot = std::byte{b};
    }
    const VarintOracle want = reference_varint(buf);
    Reader r(buf);  // len 1..14: truncated, valid and overlong inputs
    const std::uint64_t got = r.varint();
    ASSERT_EQ(r.ok(), want.ok) << "len " << len;
    if (!want.ok) continue;
    ASSERT_EQ(got, want.value);
    ASSERT_EQ(buf.size() - r.remaining(), want.consumed);
    // The same logical bytes must decode identically however much trails
    // them: exact size vs 10 spare bytes.
    std::vector<std::byte> exact(buf.begin(),
                                 buf.begin() + static_cast<std::ptrdiff_t>(
                                                   want.consumed));
    Reader t(exact);
    ASSERT_EQ(t.varint(), want.value);
    ASSERT_TRUE(t.ok());
    exact.resize(want.consumed + 10, std::byte{0xff});
    Reader f(exact);
    ASSERT_EQ(f.varint(), want.value);
    ASSERT_TRUE(f.ok());
    ASSERT_EQ(f.remaining(), 10u);
  }
}

TEST(Codec, VarintFuzzBoundaryTruncations) {
  Rng rng(0xb0b);
  for (int iter = 0; iter < 5000; ++iter) {
    const std::uint64_t v = rng.next() >> rng.uniform(64);
    Writer w;
    w.varint(v);
    const auto& wire = w.data();
    for (std::size_t k = 0; k < wire.size(); ++k) {
      // Every proper prefix ends on a continuation byte. The exact-size
      // reader must fail cleanly...
      std::vector<std::byte> prefix(wire.begin(),
                                    wire.begin() + static_cast<std::ptrdiff_t>(k));
      Reader t(prefix);
      t.varint();
      ASSERT_FALSE(t.ok()) << "prefix " << k << " of " << wire.size();
      // ...while the same prefix with garbage appended must agree with
      // the oracle byte-for-byte —
      // whether that means failing or decoding a different value.
      prefix.resize(k + 11);
      for (std::size_t i = k; i < prefix.size(); ++i) {
        prefix[i] = std::byte{static_cast<std::uint8_t>(rng.next())};
      }
      const VarintOracle want = reference_varint(prefix);
      Reader f(prefix);
      const std::uint64_t got = f.varint();
      ASSERT_EQ(f.ok(), want.ok);
      if (want.ok) {
        ASSERT_EQ(got, want.value);
        ASSERT_EQ(prefix.size() - f.remaining(), want.consumed);
      }
    }
  }
}

TEST(Codec, StringsAndBytes) {
  Writer w;
  w.str("hello");
  w.str("");
  w.bytes(to_bytes(std::string_view("\x00\x01\x02", 3)));
  Reader r(w.data());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.bytes().size(), 3u);
  EXPECT_TRUE(r.ok());
}

TEST(Codec, ReaderFailsOnTruncation) {
  Writer w;
  w.u64(42);
  auto data = w.take();
  data.resize(4);
  Reader r(data);
  (void)r.u64();
  EXPECT_FALSE(r.ok());
}

TEST(Codec, ReaderFailsOnOversizedVarint) {
  std::vector<std::byte> bad(11, std::byte{0xff});
  Reader r(bad);
  (void)r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(Codec, ReaderFailsOnBogusLengthPrefix) {
  Writer w;
  w.varint(1u << 20);  // claims a megabyte follows
  Reader r(w.data());
  (void)r.str();
  EXPECT_FALSE(r.ok());
}

TEST(Stats, PercentilesExact) {
  LatencyRecorder rec;
  for (int i = 100; i >= 1; --i) rec.add(milliseconds(i));
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_EQ(rec.median(), milliseconds(50));
  EXPECT_EQ(rec.percentile(95), milliseconds(95));
  EXPECT_EQ(rec.percentile(100), milliseconds(100));
  EXPECT_EQ(rec.min(), milliseconds(1));
  EXPECT_EQ(rec.max(), milliseconds(100));
}

TEST(Stats, EmptyRecorderIsSafe) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.median(), 0);
  EXPECT_EQ(rec.mean(), 0.0);
  EXPECT_EQ(rec.stddev(), 0.0);
}

TEST(Stats, MeanAndStddev) {
  LatencyRecorder rec;
  rec.add(2);
  rec.add(4);
  rec.add(4);
  rec.add(4);
  rec.add(5);
  rec.add(5);
  rec.add(7);
  rec.add(9);
  EXPECT_DOUBLE_EQ(rec.mean(), 5.0);
  EXPECT_NEAR(rec.stddev(), 2.138, 0.001);
}

TEST(Stats, ThroughputSummary) {
  const std::vector<std::uint64_t> slices = {100, 110, 90, 100, 100};
  const auto s = summarize_throughput(slices, milliseconds(100));
  EXPECT_EQ(s.total, 500u);
  EXPECT_NEAR(s.mean_per_sec, 1000.0, 1e-6);
  EXPECT_GT(s.ci95_per_sec, 0.0);
  EXPECT_LT(s.ci95_per_sec, 100.0);
}

TEST(Stats, ThroughputEmpty) {
  const auto s = summarize_throughput({}, milliseconds(100));
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.mean_per_sec, 0.0);
}

TEST(Stats, FormatMs) {
  EXPECT_EQ(format_ms(microseconds(691)), "0.691");
  EXPECT_EQ(format_ms(milliseconds(84)), "84.00");
  EXPECT_EQ(format_ms(milliseconds(163)), "163.0");
}

}  // namespace
}  // namespace fastcast
