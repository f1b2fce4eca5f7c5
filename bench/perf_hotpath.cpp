/// \file perf_hotpath.cpp
/// Single-shot measurements of the two costs the repository benchmark
/// (perfbench/) does not cover:
///
///   tcp      loopback TCP transport: one-way framed-message throughput
///            (gather-write coalescing) and ping-pong round-trip p50/p99;
///   storage  WAL append+commit throughput (accept-sized records) under
///            the three fsync policies, on the deterministic in-memory
///            backend and on real files — pins the cost of the durability
///            gate so fsync-policy regressions show up in the tracked
///            BENCH output.
///
/// Emits BENCH_hotpath.json (override with --json); `--smoke` shrinks the
/// iteration counts so CI can run it as a build smoke test.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "bench_util.hpp"
#include "fastcast/net/cpu_affinity.hpp"
#include "fastcast/net/tcp_transport.hpp"
#include "fastcast/obs/json.hpp"
#include "fastcast/runtime/message.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The hot FastCast wire message: an RmData carrying a SEND-SOFT.
Message hot_wire_message() {
  RmData rm;
  rm.origin = 3;
  rm.dest_nodes = {0, 1, 2, 3, 4, 5};
  rm.dest_seqs = {100, 101, 102, 103, 104, 105};
  rm.inner = AmSendSoft{1, 987654, make_msg_id(3, 77), {0, 1}};
  return Message{rm};
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
  book.base_port = static_cast<std::uint16_t>(23000 + (::getpid() % 500));

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
    st.log(storage::WalRecord::accept(0, i, Ballot{1, 0}, value));
    st.commit();
  }
  st.flush();
  return static_cast<double>(records) / seconds_since(t0);
}

std::vector<StoragePolicyResult> bench_storage(bool smoke,
                                               const std::string& dir) {
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
    r.file_records = p.policy.mode == storage::FsyncPolicy::Mode::kAlways
                         ? file_always_records
                         : file_records;
    r.file_records_per_sec = bench_storage_one(
        std::make_unique<storage::FileBackend>(dir + "/p" +
                                               std::to_string(sub++)),
        p.policy, r.file_records);
    out.push_back(r);
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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_hotpath [--smoke] [--json <path>]\n"
                   "  --smoke  reduced iteration counts (CI smoke test)\n"
                   "  --json   output path (default BENCH_hotpath.json)\n");
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }
  const bool grade = warn_if_not_benchmark_grade("perf_hotpath");

  const std::size_t tcp_frames = smoke ? 20'000 : 400'000;
  const std::size_t tcp_pings = smoke ? 200 : 2'000;

  const TcpResult tcp = bench_tcp(tcp_frames, tcp_pings);
  std::printf("tcp         %12.0f frames/s   rtt p50 %.1fus p99 %.1fus\n",
              tcp.frames_per_sec, tcp.rtt_p50_us, tcp.rtt_p99_us);

  char dir[] = "./fc_bench_storage_XXXXXX";
  if (::mkdtemp(dir) == nullptr) {
    std::fprintf(stderr,
                 "perf_hotpath: cannot create a storage directory in the "
                 "working directory: %s\n",
                 std::strerror(errno));
    return 1;
  }
  const std::vector<StoragePolicyResult> sto = bench_storage(smoke, dir);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perf_hotpath: cannot remove %s: %s\n", dir,
                 ec.message().c_str());
  }
  for (const StoragePolicyResult& s : sto) {
    std::printf("storage     %-6s mem %12.0f rec/s   file %12.0f rec/s\n",
                s.name, s.mem_records_per_sec, s.file_records_per_sec);
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
  w.key("tcp").begin_object();
  w.kv("frames_per_sec", tcp.frames_per_sec);
  w.kv("rtt_p50_us", tcp.rtt_p50_us);
  w.kv("rtt_p99_us", tcp.rtt_p99_us);
  w.kv("frames", tcp.frames);
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
  w.end_object();
  out << '\n';
  std::printf("wrote %s%s\n", json_path.c_str(),
              grade ? "" : " (NOT benchmark-grade — see warning above)");
  return 0;
}
