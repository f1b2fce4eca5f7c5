#include "layers.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <variant>

#include "fastcast/paxos/group_consensus.hpp"
#include "fastcast/rmcast/reliable_multicast.hpp"
#include "fastcast/sim/simulator.hpp"

// ---------------------------------------------------------------------------
// Allocation counter. Each thread counts into a thread-local; a thread's
// count is folded into the global total when it exits, so node threads
// never contend on one cache line.
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_exited_allocs{0};

struct ThreadAllocs {
  std::uint64_t n = 0;
  ~ThreadAllocs() { g_exited_allocs.fetch_add(n, std::memory_order_relaxed); }
};
thread_local ThreadAllocs t_allocs;

void* counted_alloc(std::size_t n) {
  ++t_allocs.n;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocs.n;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
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

namespace perfbench {

std::uint64_t allocs_now() {
  return g_exited_allocs.load(std::memory_order_relaxed) + t_allocs.n;
}

// ---------------------------------------------------------------------------
// Layer scopes.
// ---------------------------------------------------------------------------

namespace {

struct ScopeStack {
  bool enabled = false;
  int depth = 0;
  std::array<Layer, 64> stack{};
  std::uint64_t t_mark = 0;
  std::uint64_t a_mark = 0;
  LayerTotals totals;
};
thread_local ScopeStack t_scopes;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Charges the interval since the last mark to the layer on top.
void charge_top(ScopeStack& s, std::uint64_t t, std::uint64_t a) {
  const Layer top = s.depth > 0 ? s.stack[s.depth - 1] : kLayerEngine;
  s.totals.ns[top] += t - s.t_mark;
  s.totals.allocs[top] += a - s.a_mark;
  s.t_mark = t;
  s.a_mark = a;
}

}  // namespace

void set_scopes_enabled(bool on) {
  t_scopes.enabled = on;
  t_scopes.depth = 0;
  t_scopes.t_mark = now_ns();
  t_scopes.a_mark = allocs_now();
}

LayerTotals scope_totals() {
  ScopeStack& s = t_scopes;
  if (s.enabled) charge_top(s, now_ns(), allocs_now());
  return s.totals;
}

Scope::Scope(Layer layer) : active_(t_scopes.enabled) {
  if (!active_) return;
  ScopeStack& s = t_scopes;
  if (s.depth == static_cast<int>(s.stack.size())) {
    active_ = false;  // pathological nesting: keep charging the outer scope
    return;
  }
  charge_top(s, now_ns(), allocs_now());
  s.stack[s.depth++] = layer;
  ++s.totals.entries[layer];
}

Scope::~Scope() {
  if (!active_) return;
  ScopeStack& s = t_scopes;
  charge_top(s, now_ns(), allocs_now());
  --s.depth;
}

// ---------------------------------------------------------------------------
// Process wrapper.
// ---------------------------------------------------------------------------

void SendLedger::merge(const SendLedger& other) {
  for (int c = 0; c < kMsgClassCount; ++c) msgs[c] += other.msgs[c];
  frames += other.frames;
  wire_bytes += other.wire_bytes;
  for (const auto& m : other.sample) sample.push_back(m);
}

namespace {

using fastcast::Context;
using fastcast::Message;
using fastcast::NodeId;

WrapOptions g_wrap_options;
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kSampleCap = 4096;

template <typename T, typename... Ts>
constexpr bool kIsOneOf = (std::is_same_v<T, Ts> || ...);

MsgClass classify(const Message& m) {
  namespace fc = fastcast;
  return std::visit(
      [](const auto& payload) {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (kIsOneOf<T, fc::RmData, fc::RmAck>) {
          return kMsgRmcast;
        } else if constexpr (kIsOneOf<T, fc::P1a, fc::P1b, fc::P2a, fc::P2b,
                                      fc::PaxosNack, fc::P2bRequest,
                                      fc::P2bMore>) {
          return kMsgPaxos;
        } else if constexpr (kIsOneOf<T, fc::MpSubmit, fc::MpBody,
                                      fc::MpBodyRequest>) {
          return kMsgMultipaxos;
        } else if constexpr (kIsOneOf<T, fc::AmAck, fc::Busy>) {
          return kMsgHarness;
        } else {
          return kMsgOther;
        }
      },
      m.payload);
}

/// Forwards every Context call to the environment's context, tallying sends
/// and running timer callbacks inside the owning process's layer scope.
class LedgerContext final : public Context {
 public:
  LedgerContext(Layer layer, WrapOptions options)
      : layer_(layer), options_(options) {}

  void bind(Context& real) {
    real_ = &real;
    set_observability(real.obs());
    set_storage(real.storage());
  }

  NodeId self() const override { return real_->self(); }
  fastcast::Time now() const override { return real_->now(); }
  void send(NodeId to, const Message& msg) override {
    note_send(msg);
    real_->send(to, msg);
  }
  void send(NodeId to, Message&& msg) override {
    note_send(msg);
    real_->send(to, std::move(msg));
  }
  fastcast::TimerId set_timer(fastcast::Duration delay,
                              std::function<void()> cb) override {
    return real_->set_timer(delay, [layer = layer_, cb = std::move(cb)] {
      Scope scope(layer);
      cb();
    });
  }
  void cancel_timer(fastcast::TimerId id) override { real_->cancel_timer(id); }
  fastcast::Rng& rng() override { return real_->rng(); }
  const fastcast::Membership& membership() const override {
    return real_->membership();
  }

  SendLedger ledger;

 private:
  void note_send(const Message& msg) {
    Scope scope(kLayerInstrument);
    ++ledger.msgs[classify(msg)];
    ++ledger.frames;
    if (options_.encode_bytes) {
      fastcast::encode_message_into(msg, scratch_);
      ledger.wire_bytes += scratch_.size() + 4;  // 4-byte length prefix
    }
    if (ledger.frames % kSampleEvery == 0 && ledger.sample.size() < kSampleCap) {
      ledger.sample.push_back(msg);
    }
  }

  Context* real_ = nullptr;
  Layer layer_;
  WrapOptions options_;
  std::vector<std::byte> scratch_;
};

class LedgerProcess final : public fastcast::Process {
 public:
  LedgerProcess(std::shared_ptr<fastcast::Process> inner, Layer layer,
                WrapOptions options)
      : inner_(std::move(inner)), layer_(layer), ctx_(layer, options) {}

  void on_start(Context& ctx) override {
    ctx_.bind(ctx);
    Scope scope(layer_);
    inner_->on_start(ctx_);
  }
  void on_recover(Context& ctx) override {
    ctx_.bind(ctx);
    Scope scope(layer_);
    inner_->on_recover(ctx_);
  }
  void on_message(Context& ctx, NodeId from, const Message& msg) override {
    ctx_.bind(ctx);
    Scope scope(layer_);
    inner_->on_message(ctx_, from, msg);
  }

  SendLedger& ledger() { return ctx_.ledger; }

 private:
  std::shared_ptr<fastcast::Process> inner_;
  Layer layer_;
  LedgerContext ctx_;
};

std::mutex g_registry_mu;
std::vector<std::shared_ptr<LedgerProcess>> g_registry;

}  // namespace

void set_wrap_options(WrapOptions options) { g_wrap_options = options; }

std::shared_ptr<fastcast::Process> wrap_process(
    std::shared_ptr<fastcast::Process> inner, Layer layer) {
  auto p = std::make_shared<LedgerProcess>(std::move(inner), layer,
                                           g_wrap_options);
  std::lock_guard<std::mutex> lock(g_registry_mu);
  g_registry.push_back(p);
  return p;
}

SendLedger collect_send_ledgers() {
  std::vector<std::shared_ptr<LedgerProcess>> procs;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    procs.swap(g_registry);
  }
  SendLedger total;
  for (const auto& p : procs) total.merge(p->ledger());
  return total;
}

}  // namespace perfbench

// ---------------------------------------------------------------------------
// Link-time wrappers (CMakeLists.txt passes --wrap=<symbol> for each). A
// call from another object file to a wrapped symbol lands here; __real_<sym>
// is the original. The __real_ declarations are weak so that a renamed entry
// point only leaves its layer unattributed instead of breaking the link.
// ---------------------------------------------------------------------------

using perfbench::Scope;

#define PB_RM_HANDLE _ZN8fastcast17ReliableMulticast6handleERNS_7ContextEjRKNS_7MessageE
#define PB_RM_MULTICAST                                                        \
  _ZN8fastcast17ReliableMulticast9multicastERNS_7ContextERKSt6vectorIjSaIjEESt7variantIJNS_7AmStartENS_10AmSendSoftENS_10AmSendHardEEE
#define PB_CONS_HANDLE _ZN8fastcast5paxos14GroupConsensus6handleERNS_7ContextEjRKNS_7MessageE
#define PB_CONS_PROPOSE _ZN8fastcast5paxos14GroupConsensus7proposeERNS_7ContextESt6vectorISt4byteSaIS5_EE
#define PB_ADD_PROCESS _ZN8fastcast3sim9Simulator11add_processEjSt10shared_ptrINS_7ProcessEE

#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)
#define PB_REAL(sym) PB_CAT(__real_, sym)
#define PB_WRAP(sym) PB_CAT(__wrap_, sym)

extern "C" {

bool PB_REAL(PB_RM_HANDLE)(fastcast::ReliableMulticast*, fastcast::Context&,
                           fastcast::NodeId, const fastcast::Message&)
    __attribute__((weak));
bool PB_WRAP(PB_RM_HANDLE)(fastcast::ReliableMulticast* self,
                           fastcast::Context& ctx, fastcast::NodeId from,
                           const fastcast::Message& msg) {
  Scope scope(perfbench::kLayerRmcast);
  return PB_REAL(PB_RM_HANDLE)(self, ctx, from, msg);
}

void PB_REAL(PB_RM_MULTICAST)(fastcast::ReliableMulticast*, fastcast::Context&,
                              const std::vector<fastcast::GroupId>&,
                              fastcast::AmcastPayload) __attribute__((weak));
void PB_WRAP(PB_RM_MULTICAST)(fastcast::ReliableMulticast* self,
                              fastcast::Context& ctx,
                              const std::vector<fastcast::GroupId>& dst,
                              fastcast::AmcastPayload inner) {
  Scope scope(perfbench::kLayerRmcast);
  PB_REAL(PB_RM_MULTICAST)(self, ctx, dst, std::move(inner));
}

bool PB_REAL(PB_CONS_HANDLE)(fastcast::paxos::GroupConsensus*,
                             fastcast::Context&, fastcast::NodeId,
                             const fastcast::Message&) __attribute__((weak));
bool PB_WRAP(PB_CONS_HANDLE)(fastcast::paxos::GroupConsensus* self,
                             fastcast::Context& ctx, fastcast::NodeId from,
                             const fastcast::Message& msg) {
  Scope scope(perfbench::kLayerPaxos);
  return PB_REAL(PB_CONS_HANDLE)(self, ctx, from, msg);
}

void PB_REAL(PB_CONS_PROPOSE)(fastcast::paxos::GroupConsensus*,
                              fastcast::Context&, std::vector<std::byte>)
    __attribute__((weak));
void PB_WRAP(PB_CONS_PROPOSE)(fastcast::paxos::GroupConsensus* self,
                              fastcast::Context& ctx,
                              std::vector<std::byte> value) {
  Scope scope(perfbench::kLayerPaxos);
  PB_REAL(PB_CONS_PROPOSE)(self, ctx, std::move(value));
}

void PB_REAL(PB_ADD_PROCESS)(fastcast::sim::Simulator*, fastcast::NodeId,
                             std::shared_ptr<fastcast::Process>)
    __attribute__((weak));
void PB_WRAP(PB_ADD_PROCESS)(fastcast::sim::Simulator* self,
                             fastcast::NodeId node,
                             std::shared_ptr<fastcast::Process> process) {
  if (perfbench::g_wrap_options.wrap) {
    const perfbench::Layer layer = self->membership().is_client(node)
                                       ? perfbench::kLayerClient
                                       : perfbench::kLayerReplica;
    process = perfbench::wrap_process(std::move(process), layer);
  }
  PB_REAL(PB_ADD_PROCESS)(self, node, std::move(process));
}

}  // extern "C"
