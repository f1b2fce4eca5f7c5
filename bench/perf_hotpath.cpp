/// \file perf_hotpath.cpp
/// Tracked microbenchmark for the three hot paths this repo optimizes:
///
///   engine      steady-state simulator event loop (pop + push of a
///               deliver-sized closure), measured against an in-file
///               replica of the pre-optimization engine
///               (std::function + std::priority_queue) for an honest
///               before/after on the same machine;
///   codec       Message encoding throughput, fresh-allocation vs the
///               reusable-buffer `_into` path;
///   tcp         loopback TCP transport: one-way framed-message
///               throughput (gather-write coalescing) and ping-pong
///               round-trip p50/p99;
///   end_to_end  a full simulated FastCast experiment, reporting
///               wall-clock event rate and heap allocations per
///               client-observed delivery;
///   storage     WAL append+commit throughput (accept-sized records)
///               under the three fsync policies, on the deterministic
///               in-memory backend and on real files — pins the cost of
///               the durability gate so fsync-policy regressions show up
///               in the tracked BENCH output.
///
/// Emits BENCH_hotpath.json (override with --json); `--smoke` shrinks the
/// iteration counts so CI can run it as a build smoke test. Allocation
/// counts come from this binary's operator new/delete overrides.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fastcast/common/codec.hpp"
#include "fastcast/common/rng.hpp"
#include "fastcast/net/cpu_affinity.hpp"
#include "fastcast/net/tcp_transport.hpp"
#include "fastcast/obs/json.hpp"
#include "fastcast/obs/metrics.hpp"
#include "fastcast/sim/event_queue.hpp"
#include "fastcast/storage/storage.hpp"

// ---------------------------------------------------------------------------
// Heap instrumentation: every allocation in the process goes through these,
// so (allocs after - allocs before) around a loop is exact, not sampled.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fastcast::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Pre-optimization engine, replicated verbatim from the seed tree so the
// before/after comparison runs in one binary on identical hardware.
// ---------------------------------------------------------------------------

class LegacyEventQueue {
 public:
  struct Event {
    Time at = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };

  void push(Time at, std::function<void()> fn) {
    heap_.push(Event{at, next_seq_++, std::move(fn)});
  }
  bool empty() const { return heap_.empty(); }
  Event pop() {
    Event e = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

/// The simulator's deliver closure captures (this, to, from, shared_ptr) —
/// 32 bytes, past std::function's 16-byte inline buffer. The bench pushes
/// closures of the same shape so the legacy numbers include the per-event
/// heap allocation real runs paid.
struct DeliverLikeCapture {
  void* sim;
  std::uint32_t to;
  std::uint32_t from;
  std::shared_ptr<int> msg;
};

struct EngineResult {
  double legacy_ops_per_sec = 0;
  double pooled_ops_per_sec = 0;
  double legacy_allocs_per_op = 0;
  double pooled_allocs_per_op = 0;
  double speedup = 0;
};

EngineResult bench_engine(std::size_t ops) {
  constexpr std::size_t kDepth = 1024;  // steady-state queue depth
  std::uint64_t sink = 0;
  auto msg = std::make_shared<int>(7);
  DeliverLikeCapture cap{&sink, 1, 2, msg};

  EngineResult r;
  {
    LegacyEventQueue q;
    for (std::size_t i = 0; i < kDepth; ++i) {
      q.push(static_cast<Time>(i), [cap, &sink] { sink += cap.to; });
    }
    const std::uint64_t a0 = allocs_now();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      auto e = q.pop();
      e.fn();
      q.push(e.at + kDepth, [cap, &sink] { sink += cap.to; });
    }
    const double dt = seconds_since(t0);
    r.legacy_ops_per_sec = static_cast<double>(ops) / dt;
    r.legacy_allocs_per_op =
        static_cast<double>(allocs_now() - a0) / static_cast<double>(ops);
  }
  {
    sim::EventQueue q;
    for (std::size_t i = 0; i < kDepth; ++i) {
      q.push(static_cast<Time>(i), [cap, &sink] { sink += cap.to; });
    }
    const std::uint64_t a0 = allocs_now();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      auto e = q.pop();
      e.fn();
      q.push(e.at + kDepth, [cap, &sink] { sink += cap.to; });
    }
    const double dt = seconds_since(t0);
    r.pooled_ops_per_sec = static_cast<double>(ops) / dt;
    r.pooled_allocs_per_op =
        static_cast<double>(allocs_now() - a0) / static_cast<double>(ops);
  }
  if (sink == 0) std::fprintf(stderr, "unreachable\n");  // defeat DCE
  r.speedup = r.pooled_ops_per_sec / r.legacy_ops_per_sec;
  return r;
}

// ---------------------------------------------------------------------------
// Codec: encode the hot FastCast wire message (an RmData carrying a
// SEND-SOFT) fresh-allocating vs into a reused buffer.
// ---------------------------------------------------------------------------

Message hot_wire_message() {
  RmData rm;
  rm.origin = 3;
  rm.seq = 4242;
  rm.dst_groups = {0, 1};
  rm.dest_nodes = {0, 1, 2, 3, 4, 5};
  rm.dest_seqs = {100, 101, 102, 103, 104, 105};
  rm.inner = AmSendSoft{1, 987654, make_msg_id(3, 77), {0, 1}};
  return Message{rm};
}

struct CodecResult {
  double fresh_mb_per_sec = 0;
  double reused_mb_per_sec = 0;
  double fresh_allocs_per_msg = 0;
  double reused_allocs_per_msg = 0;
  std::uint64_t encoded_bytes = 0;
  double speedup = 0;
};

CodecResult bench_codec(std::size_t iters) {
  const Message msg = hot_wire_message();
  CodecResult r;
  r.encoded_bytes = encode_message(msg).size();
  const double mb =
      static_cast<double>(r.encoded_bytes) * static_cast<double>(iters) / 1e6;
  {
    const std::uint64_t a0 = allocs_now();
    const auto t0 = Clock::now();
    std::size_t total = 0;
    for (std::size_t i = 0; i < iters; ++i) {
      total += encode_message(msg).size();
    }
    const double dt = seconds_since(t0);
    r.fresh_mb_per_sec = mb / dt;
    r.fresh_allocs_per_msg =
        static_cast<double>(allocs_now() - a0) / static_cast<double>(iters);
    if (total == 0) std::fprintf(stderr, "unreachable\n");
  }
  {
    std::vector<std::byte> buf;
    const std::uint64_t a0 = allocs_now();
    const auto t0 = Clock::now();
    std::size_t total = 0;
    for (std::size_t i = 0; i < iters; ++i) {
      encode_message_into(msg, buf);
      total += buf.size();
    }
    const double dt = seconds_since(t0);
    r.reused_mb_per_sec = mb / dt;
    r.reused_allocs_per_msg =
        static_cast<double>(allocs_now() - a0) / static_cast<double>(iters);
    if (total == 0) std::fprintf(stderr, "unreachable\n");
  }
  r.speedup = r.reused_mb_per_sec / r.fresh_mb_per_sec;
  return r;
}

// ---------------------------------------------------------------------------
// Loopback TCP: one-way coalesced throughput and ping-pong latency.
// ---------------------------------------------------------------------------

struct TcpResult {
  double frames_per_sec = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  std::uint64_t frames = 0;
};

TcpResult bench_tcp(std::size_t frames, std::size_t pings) {
  using net::AddressBook;
  using net::TcpTransport;
  AddressBook book;
  static std::uint16_t port_salt = 0;
  book.base_port = static_cast<std::uint16_t>(23000 + (::getpid() % 500) +
                                              (port_salt += 16));

  TcpTransport a(0, book);
  TcpTransport b(1, book);
  a.listen();
  b.listen();

  std::uint64_t b_received = 0;
  b.set_receive([&](NodeId, const Message&) { ++b_received; });
  std::uint64_t a_received = 0;
  a.set_receive([&](NodeId, const Message&) { ++a_received; });

  const Message msg = hot_wire_message();
  TcpResult r;
  r.frames = frames;

  // One-way: enqueue everything, then pump both ends until B saw it all.
  // send() coalesces into per-peer queues; the syscall count is dominated
  // by gather-writes of up to 64 frames each.
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < frames; ++i) {
    a.send(1, msg);
    if ((i & 1023) == 1023) {
      a.poll_once(0);
      b.poll_once(0);
    }
  }
  while (b_received < frames) {
    a.poll_once(0);
    b.poll_once(1);
  }
  r.frames_per_sec = static_cast<double>(frames) / seconds_since(t0);

  // Ping-pong: measures per-message latency through frame + queue + poll.
  std::vector<double> rtts_us;
  rtts_us.reserve(pings);
  for (std::size_t i = 0; i < pings; ++i) {
    const std::uint64_t want_b = b_received + 1;
    const std::uint64_t want_a = a_received + 1;
    const auto p0 = Clock::now();
    a.send(1, msg);
    while (b_received < want_b) {
      a.poll_once(0);
      b.poll_once(0);
    }
    b.send(0, msg);
    while (a_received < want_a) {
      b.poll_once(0);
      a.poll_once(0);
    }
    rtts_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - p0)
                          .count());
  }
  std::sort(rtts_us.begin(), rtts_us.end());
  r.rtt_p50_us = rtts_us[rtts_us.size() / 2];
  r.rtt_p99_us = rtts_us[(rtts_us.size() * 99) / 100];

  a.close_all();
  b.close_all();
  return r;
}

// ---------------------------------------------------------------------------
// Varint decode: the reader's unrolled fast path against an in-file
// replica of the original byte-at-a-time loop, on a wire-realistic value
// mix (mostly 1-byte, a 2-byte tier, a tail of large values).
// ---------------------------------------------------------------------------

std::uint64_t legacy_varint_decode(std::span<const std::byte> data,
                                   std::size_t& pos, bool& ok) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift > 63 || pos >= data.size()) {
      ok = false;
      return 0;
    }
    const auto b = static_cast<std::uint8_t>(data[pos++]);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

struct VarintResult {
  double legacy_decode_mops = 0;
  double fast_decode_mops = 0;
  double decode_speedup = 0;
};

VarintResult bench_varint(std::size_t iters) {
  // Wire-realistic mix: ~70% 1-byte (flags, small counts), ~25% 2-byte
  // (seqs, sizes), ~5% wide (timestamps, ids).
  std::vector<std::uint64_t> values(4096);
  Rng rng(0x5eed);
  for (auto& v : values) {
    const std::uint64_t pick = rng.uniform(100);
    if (pick < 70) {
      v = rng.uniform(128);
    } else if (pick < 95) {
      v = 128 + rng.uniform(16384 - 128);
    } else {
      v = rng.next();
    }
  }
  const std::size_t rounds = iters / values.size();

  VarintResult r;
  std::uint64_t sink = 0;
  Writer encoded;
  for (std::uint64_t v : values) encoded.varint(v);
  {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < rounds; ++i) {
      std::size_t pos = 0;
      bool ok = true;
      for (std::size_t k = 0; k < values.size(); ++k) {
        sink += legacy_varint_decode(encoded.data(), pos, ok);
      }
      if (!ok) std::fprintf(stderr, "legacy decode failed\n");
    }
    r.legacy_decode_mops =
        static_cast<double>(rounds * values.size()) / seconds_since(t0) / 1e6;
  }
  {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < rounds; ++i) {
      Reader reader(encoded.data());
      for (std::size_t k = 0; k < values.size(); ++k) sink += reader.varint();
      if (!reader.ok()) std::fprintf(stderr, "fast decode failed\n");
    }
    r.fast_decode_mops =
        static_cast<double>(rounds * values.size()) / seconds_since(t0) / 1e6;
  }
  if (sink == 0) std::fprintf(stderr, "unreachable\n");
  r.decode_speedup = r.fast_decode_mops / r.legacy_decode_mops;
  return r;
}

// ---------------------------------------------------------------------------
// End-to-end: a short LAN FastCast experiment through the whole stack.
// ---------------------------------------------------------------------------

struct EndToEndResult {
  double events_per_sec = 0;
  double allocs_per_delivery = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
  bool check_ok = false;
};

EndToEndResult bench_end_to_end(bool smoke) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 2;
  cfg.topo.clients = 4;
  cfg.topo.protocol = Protocol::kFastCast;
  cfg.seed = 42;
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    if (i % 2 == 0) return fixed_group(static_cast<GroupId>(i % 2));
    return random_subset(2, 2);
  };
  cfg.warmup = milliseconds(smoke ? 20 : 50);
  cfg.measure = milliseconds(smoke ? 100 : 400);
  cfg.check_level = Checker::Level::kFast;

  const std::uint64_t a0 = allocs_now();
  const auto t0 = Clock::now();
  ExperimentResult res = run_experiment(cfg);
  const double dt = seconds_since(t0);
  const std::uint64_t allocs = allocs_now() - a0;

  EndToEndResult r;
  r.events = res.events_processed;
  r.deliveries = res.latency.count();
  r.events_per_sec = static_cast<double>(res.events_processed) / dt;
  r.allocs_per_delivery =
      r.deliveries == 0 ? 0
                        : static_cast<double>(allocs) /
                              static_cast<double>(r.deliveries);
  r.check_ok = res.report.ok;
  return r;
}

// ---------------------------------------------------------------------------
// Storage: WAL append + commit throughput per fsync policy. One accept-sized
// record (64-byte value) per iteration, commit() after every record — the
// exact shape of the acceptor hot path — with a final flush() so the batch
// policy settles its tail before the clock stops.
// ---------------------------------------------------------------------------

struct StoragePolicyResult {
  const char* name;
  double mem_records_per_sec = 0;
  double file_records_per_sec = 0;
  std::uint64_t mem_records = 0;
  std::uint64_t file_records = 0;
};

double bench_storage_one(std::unique_ptr<storage::StorageBackend> backend,
                         storage::FsyncPolicy policy, std::size_t records) {
  storage::NodeStorage::Config cfg;
  cfg.fsync = policy;
  storage::NodeStorage st(std::move(backend), cfg);
  std::array<std::byte, 64> value{};
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < records; ++i) {
    st.log_accept(0, i, Ballot{1, 0}, value);
    st.commit();
  }
  st.flush();
  return static_cast<double>(records) / seconds_since(t0);
}

std::vector<StoragePolicyResult> bench_storage(bool smoke) {
  storage::FsyncPolicy always;
  storage::FsyncPolicy batch;
  batch.mode = storage::FsyncPolicy::Mode::kBatch;
  storage::FsyncPolicy never;
  never.mode = storage::FsyncPolicy::Mode::kNever;

  const std::size_t mem_records = smoke ? 20'000 : 200'000;
  // A real fsync per record is orders of magnitude slower than the append;
  // keep the file/always cell honest but bounded.
  const std::size_t file_always_records = smoke ? 500 : 5'000;
  const std::size_t file_records = smoke ? 10'000 : 100'000;

  char tmpl[] = "./fc_bench_storage_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  std::vector<StoragePolicyResult> out;
  const struct {
    const char* name;
    storage::FsyncPolicy policy;
  } policies[] = {{"always", always}, {"batch", batch}, {"never", never}};
  int sub = 0;
  for (const auto& p : policies) {
    StoragePolicyResult r;
    r.name = p.name;
    r.mem_records = mem_records;
    r.mem_records_per_sec = bench_storage_one(
        std::make_unique<storage::MemBackend>(), p.policy, mem_records);
    if (dir != nullptr) {
      r.file_records = p.policy.mode == storage::FsyncPolicy::Mode::kAlways
                           ? file_always_records
                           : file_records;
      const std::string sub_dir =
          std::string(dir) + "/p" + std::to_string(sub++);
      r.file_records_per_sec =
          bench_storage_one(std::make_unique<storage::FileBackend>(sub_dir),
                            p.policy, r.file_records);
    }
    out.push_back(r);
  }
  if (dir != nullptr) {
    const std::string cleanup = std::string("rm -rf '") + dir + "'";
    [[maybe_unused]] const int rc = std::system(cleanup.c_str());
  }
  return out;
}

}  // namespace
}  // namespace fastcast::bench

int main(int argc, char** argv) {
  using namespace fastcast;
  using namespace fastcast::bench;

  bool smoke = false;
  std::string json_path = "BENCH_hotpath.json";
  double max_allocs_per_delivery = 0;  // 0 = no guard
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-allocs-per-delivery") == 0 &&
               i + 1 < argc) {
      max_allocs_per_delivery = std::atof(argv[++i]);
    } else {
      std::fprintf(
          stderr,
          "usage: perf_hotpath [--smoke] [--json <path>]\n"
          "                    [--max-allocs-per-delivery <N>]\n"
          "  --smoke  reduced iteration counts (CI smoke test)\n"
          "  --json   output path (default BENCH_hotpath.json)\n"
          "  --max-allocs-per-delivery  fail (exit 1) if the end-to-end\n"
          "           experiment allocates more than N times per delivery —\n"
          "           the allocation-regression guard CI runs in perf-smoke\n");
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }
  const bool grade = warn_if_not_benchmark_grade("perf_hotpath");

  const std::size_t engine_ops = smoke ? 200'000 : 5'000'000;
  const std::size_t codec_iters = smoke ? 100'000 : 2'000'000;
  const std::size_t tcp_frames = smoke ? 20'000 : 400'000;
  const std::size_t tcp_pings = smoke ? 200 : 2'000;
  const std::size_t varint_ops = smoke ? 4'000'000 : 40'000'000;

  const EngineResult eng = bench_engine(engine_ops);
  std::printf("engine      legacy %12.0f ops/s (%.2f allocs/op)\n",
              eng.legacy_ops_per_sec, eng.legacy_allocs_per_op);
  std::printf("            pooled %12.0f ops/s (%.2f allocs/op)  %.2fx\n",
              eng.pooled_ops_per_sec, eng.pooled_allocs_per_op, eng.speedup);

  const CodecResult cod = bench_codec(codec_iters);
  std::printf("codec       fresh  %12.1f MB/s (%.2f allocs/msg)\n",
              cod.fresh_mb_per_sec, cod.fresh_allocs_per_msg);
  std::printf("            reused %12.1f MB/s (%.2f allocs/msg)  %.2fx\n",
              cod.reused_mb_per_sec, cod.reused_allocs_per_msg, cod.speedup);

  const VarintResult vint = bench_varint(varint_ops);
  std::printf("varint      decode legacy %7.1f Mops/s  fast %7.1f Mops/s  %.2fx\n",
              vint.legacy_decode_mops, vint.fast_decode_mops,
              vint.decode_speedup);

  const TcpResult tcp = bench_tcp(tcp_frames, tcp_pings);
  std::printf("tcp         %12.0f frames/s   rtt p50 %.1fus p99 %.1fus\n",
              tcp.frames_per_sec, tcp.rtt_p50_us, tcp.rtt_p99_us);

  const EndToEndResult e2e = bench_end_to_end(smoke);
  std::printf("end_to_end  %12.0f events/s   %.1f allocs/delivery (%llu "
              "deliveries, check %s)\n",
              e2e.events_per_sec, e2e.allocs_per_delivery,
              static_cast<unsigned long long>(e2e.deliveries),
              e2e.check_ok ? "ok" : "FAILED");

  bool allocs_guard_ok = true;
  if (max_allocs_per_delivery > 0 &&
      e2e.allocs_per_delivery > max_allocs_per_delivery) {
    allocs_guard_ok = false;
    std::fprintf(stderr,
                 "perf_hotpath: ALLOCATION REGRESSION: %.1f allocs/delivery "
                 "exceeds the --max-allocs-per-delivery budget of %.1f\n",
                 e2e.allocs_per_delivery, max_allocs_per_delivery);
  }

  const std::vector<StoragePolicyResult> sto = bench_storage(smoke);
  for (const StoragePolicyResult& s : sto) {
    std::printf("storage     %-6s mem %12.0f rec/s   file %12.0f rec/s\n",
                s.name, s.mem_records_per_sec, s.file_records_per_sec);
  }

  // Fold the headline numbers into a MetricsRegistry so the JSON carries
  // the same instruments the runtime exports.
  obs::MetricsRegistry metrics;
  metrics.gauge("hotpath.engine.pooled_ops_per_sec")
      .set(static_cast<std::int64_t>(eng.pooled_ops_per_sec));
  metrics.gauge("hotpath.engine.legacy_ops_per_sec")
      .set(static_cast<std::int64_t>(eng.legacy_ops_per_sec));
  metrics.gauge("hotpath.codec.reused_mb_per_sec")
      .set(static_cast<std::int64_t>(cod.reused_mb_per_sec));
  metrics.gauge("hotpath.tcp.frames_per_sec")
      .set(static_cast<std::int64_t>(tcp.frames_per_sec));
  metrics.gauge("hotpath.e2e.events_per_sec")
      .set(static_cast<std::int64_t>(e2e.events_per_sec));
  for (const StoragePolicyResult& s : sto) {
    metrics.gauge(std::string("hotpath.storage.mem_") + s.name +
                  "_records_per_sec")
        .set(static_cast<std::int64_t>(s.mem_records_per_sec));
    metrics.gauge(std::string("hotpath.storage.file_") + s.name +
                  "_records_per_sec")
        .set(static_cast<std::int64_t>(s.file_records_per_sec));
  }

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "perf_hotpath: cannot write %s\n", json_path.c_str());
    return 1;
  }
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("bench", "perf_hotpath");
  write_build_flavor(w);
  w.kv("smoke", smoke);
  w.kv("host_cpus", static_cast<std::int64_t>(net::online_cpu_count()));
  w.key("engine").begin_object();
  w.kv("legacy_ops_per_sec", eng.legacy_ops_per_sec);
  w.kv("pooled_ops_per_sec", eng.pooled_ops_per_sec);
  w.kv("speedup", eng.speedup);
  w.kv("legacy_allocs_per_op", eng.legacy_allocs_per_op);
  w.kv("pooled_allocs_per_op", eng.pooled_allocs_per_op);
  w.end_object();
  w.key("codec").begin_object();
  w.kv("fresh_mb_per_sec", cod.fresh_mb_per_sec);
  w.kv("reused_mb_per_sec", cod.reused_mb_per_sec);
  w.kv("speedup", cod.speedup);
  w.kv("fresh_allocs_per_msg", cod.fresh_allocs_per_msg);
  w.kv("reused_allocs_per_msg", cod.reused_allocs_per_msg);
  w.kv("encoded_bytes", cod.encoded_bytes);
  w.end_object();
  w.key("varint").begin_object();
  w.kv("legacy_decode_mops", vint.legacy_decode_mops);
  w.kv("fast_decode_mops", vint.fast_decode_mops);
  w.kv("decode_speedup", vint.decode_speedup);
  w.end_object();
  w.key("tcp").begin_object();
  w.kv("frames_per_sec", tcp.frames_per_sec);
  w.kv("rtt_p50_us", tcp.rtt_p50_us);
  w.kv("rtt_p99_us", tcp.rtt_p99_us);
  w.kv("frames", tcp.frames);
  w.end_object();
  w.key("end_to_end").begin_object();
  w.kv("events_per_sec", e2e.events_per_sec);
  w.kv("allocs_per_delivery", e2e.allocs_per_delivery);
  w.kv("max_allocs_per_delivery", max_allocs_per_delivery);
  w.kv("deliveries", e2e.deliveries);
  w.kv("events", e2e.events);
  w.kv("check_ok", e2e.check_ok);
  w.end_object();
  w.key("storage").begin_array();
  for (const StoragePolicyResult& s : sto) {
    w.begin_object();
    w.kv("fsync_policy", s.name);
    w.kv("mem_records_per_sec", s.mem_records_per_sec);
    w.kv("mem_records", s.mem_records);
    w.kv("file_records_per_sec", s.file_records_per_sec);
    w.kv("file_records", s.file_records);
    w.end_object();
  }
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [n, v] : metrics.gauges()) w.kv(n, v);
  w.end_object();
  w.end_object();
  out << '\n';
  std::printf("wrote %s%s\n", json_path.c_str(),
              grade ? "" : " (NOT benchmark-grade — see warning above)");
  return (e2e.check_ok && allocs_guard_ok) ? 0 : 1;
}
