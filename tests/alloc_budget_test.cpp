// Allocation budget: a fixed-seed FastCast run must not allocate more per
// delivery than the budget below. The count is deterministic (same seed,
// same events, same containers), so unlike a timing it holds on any host;
// a regression that puts a new per-message copy on the delivery path shows
// up here as a handful of allocations per delivery.
//
// The test replaces the global operator new with a counting one. Sanitizer
// builds (FASTCAST_SANITIZE, FASTCAST_TSAN) own the allocator themselves,
// so there the replacement is compiled out and the test skips.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "fastcast/harness/experiment.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

#if !defined(FASTCAST_SANITIZE) && !defined(FASTCAST_TSAN)
constexpr bool kCounting = true;

void* counted(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc needs a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
#else
constexpr bool kCounting = false;
#endif

}  // namespace

#if !defined(FASTCAST_SANITIZE) && !defined(FASTCAST_TSAN)
void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
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
#endif

namespace fastcast::harness {
namespace {

/// perfbench's genuine_lan shape, shortened: FastCast, 4 groups x 3
/// replicas, simulated LAN, 8 closed-loop clients, clients 0-3 local to one
/// group each and clients 4-7 multicasting to two random groups.
ExperimentConfig short_genuine_lan() {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 4;
  cfg.topo.replicas_per_group = 3;
  cfg.topo.clients = 8;
  cfg.topo.protocol = Protocol::kFastCast;
  cfg.seed = 301;
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    if (i < 4) return fixed_group(static_cast<GroupId>(i));
    return random_subset(4, 2);
  };
  cfg.payload_size = 64;
  cfg.warmup = milliseconds(50);
  cfg.measure = milliseconds(250);
  cfg.drain = true;
  cfg.check_level = Checker::Level::kFull;
  return cfg;
}

/// perfbench's ordered_durable_open shape, shortened: MultiPaxos ordering
/// by id, 3 groups x 3 replicas, 24 open-loop clients at 16k multicasts/s,
/// 2 KiB payloads, every replica logging to an in-memory WAL under the batch
/// fsync policy, admission control and client deadlines.
ExperimentConfig short_ordered_durable() {
  constexpr std::size_t kClients = 24;
  constexpr std::int64_t kOfferedPerSec = 16000;
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 3;
  cfg.topo.replicas_per_group = 3;
  cfg.topo.clients = kClients;
  cfg.topo.protocol = Protocol::kMultiPaxos;
  cfg.seed = 1505;
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.mp_batch_fill = 16;
  cfg.mp_batch_delay = microseconds(200);
  cfg.payload_size = 2048;
  cfg.open_loop_interval =
      kSecond * static_cast<Duration>(kClients) / kOfferedPerSec;
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    return fixed_group(static_cast<GroupId>(i % 3));
  };
  cfg.cpu_override =
      sim::CpuModel{microseconds(15), microseconds(2), nanoseconds(1)};
  cfg.durability.durable = true;
  cfg.durability.fsync.mode = storage::FsyncPolicy::Mode::kBatch;
  cfg.flow.enable = true;
  cfg.flow.target_delay = milliseconds(10);
  cfg.flow.trigger_window = milliseconds(4);
  cfg.client_flow.deadline = milliseconds(50);
  cfg.warmup = milliseconds(50);
  cfg.measure = milliseconds(250);
  cfg.drain = true;
  cfg.check_level = Checker::Level::kFull;
  return cfg;
}

/// Runs `cfg` and returns its allocations per delivery, counted from the
/// first event to the checker's verdict as perfbench's allocs_per_delivery
/// is; building the cluster is setup, not traffic.
double allocs_per_delivery(const ExperimentConfig& cfg) {
  Cluster cluster(cfg);
  cluster.start();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  sim::Simulator& sim = cluster.simulator();
  const Time window_end = cfg.warmup + cfg.measure;
  sim.run_until(window_end);
  cluster.stop_clients(window_end);
  bool drained;
  if (cfg.durability.durable) {
    // The batch-commit timer keeps the event queue from ever emptying: as
    // in perfbench, settle for a fixed simulated grace and count the run
    // as drained once no request is left unresolved.
    sim.run_until(window_end + milliseconds(200));
    drained = cluster.total_in_flight() == 0;
  } else {
    drained = sim.run_to_idle(window_end + cfg.drain_grace);
  }
  const Checker::Report report = cluster.checker().check(drained, cfg.check_level);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  EXPECT_TRUE(drained);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? std::string{}
                                 : report.violations.front());
  const std::uint64_t deliveries = cluster.total_deliveries();
  EXPECT_GT(deliveries, 10'000u);
  const double per_delivery =
      static_cast<double>(allocs) / static_cast<double>(deliveries);
  std::printf("allocs_per_delivery %.2f (%llu allocations, %llu deliveries)\n",
              per_delivery, static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(deliveries));
  return per_delivery;
}

// Measured at 64.16 allocations per delivery (Release and RelWithDebInfo
// alike), once every rmcast destination came to share one frame; the same
// run allocated 78.7 when each destination got its own copy, and 116.0
// before fan-out sends shared one Message at all. The budget leaves 5% on
// top of 64.16, so bringing back the per-destination copies fails here.
constexpr double kBudgetPerDelivery = 67.4;

TEST(AllocBudget, FastCastLanStaysWithinBudget) {
  if (!kCounting) GTEST_SKIP() << "sanitizer builds own operator new";
  EXPECT_LE(allocs_per_delivery(short_genuine_lan()), kBudgetPerDelivery);
}

// Measured at 38.26 allocations per delivery (Release and RelWithDebInfo
// alike) once a WAL record is encoded once into one reused frame and its
// body moved into the durable fold; the same run allocated 50.50 when each
// 2 KiB body was copied on its way into the WAL and the fold. The budget
// leaves 5% on top of 38.26, so bringing those copies back fails here.
constexpr double kDurableIdsBudgetPerDelivery = 40.2;

TEST(AllocBudget, DurableMultiPaxosIdsStaysWithinBudget) {
  if (!kCounting) GTEST_SKIP() << "sanitizer builds own operator new";
  EXPECT_LE(allocs_per_delivery(short_ordered_durable()),
            kDurableIdsBudgetPerDelivery);
}

}  // namespace
}  // namespace fastcast::harness
