#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "fastcast/runtime/context.hpp"

/// \file layers.hpp
/// Measurement instruments the benchmark attaches from outside the program:
/// a process-wide allocation counter, a per-thread stack of layer scopes
/// that splits handler time and allocations by layer, and a Process wrapper
/// that counts what each node sends. Nothing here changes protocol
/// behaviour; every wrapper forwards to the wrapped object.
///
/// Scopes open at cross-library entry points that layers.cpp wraps at link
/// time (ReliableMulticast::handle/multicast, GroupConsensus::handle/propose)
/// and around every handler and timer of a wrapped process. A layer's self
/// time is the time its scope was on top of the stack, so nested scopes are
/// subtracted. An up-call a layer makes into the protocol above it (the
/// r-deliver and decide callbacks) has no library boundary to wrap and stays
/// in the calling layer's self time.

namespace perfbench {

/// Heap allocations made so far by this thread plus every thread that
/// already exited.
std::uint64_t allocs_now();

enum Layer : int {
  kLayerEngine = 0,  ///< no scope open: simulator or event loop
  kLayerClient,      ///< client process handlers and timers (harness)
  kLayerReplica,     ///< replica handlers outside rmcast/paxos (amcast)
  kLayerRmcast,
  kLayerPaxos,
  kLayerInstrument,  ///< the benchmark's own bookkeeping inside wrappers
  kLayerCount
};

struct LayerTotals {
  std::array<std::uint64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kLayerCount> allocs{};
  std::array<std::uint64_t, kLayerCount> entries{};
};

/// Turns layer scopes on or off for the calling thread.
void set_scopes_enabled(bool on);
/// The calling thread's totals so far.
LayerTotals scope_totals();

/// RAII layer scope; a no-op while scopes are disabled on this thread.
class Scope {
 public:
  explicit Scope(Layer layer);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
};

/// What a wrapped process sent, by message family.
enum MsgClass : int {
  kMsgRmcast = 0,   ///< RmData, RmAck
  kMsgPaxos,        ///< P1a/P1b/P2a/P2b/PaxosNack/P2bRequest/P2bMore
  kMsgMultipaxos,   ///< MpSubmit, MpBody, MpBodyRequest
  kMsgHarness,      ///< AmAck, Busy
  kMsgOther,
  kMsgClassCount
};

struct SendLedger {
  std::array<std::uint64_t, kMsgClassCount> msgs{};
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;       ///< encoded length + frame prefix
  std::vector<fastcast::Message> sample;  ///< every 64th send, at most 4096
  void merge(const SendLedger& other);
};

/// Options for processes wrapped from now on.
struct WrapOptions {
  bool wrap = false;           ///< wrap at all (Simulator::add_process)
  bool encode_bytes = false;   ///< measure wire bytes of every send
};
void set_wrap_options(WrapOptions options);

/// Wraps `inner` so its handlers and timers run inside `layer` scopes and
/// its sends are tallied. The wrapper forwards every call unchanged.
std::shared_ptr<fastcast::Process> wrap_process(
    std::shared_ptr<fastcast::Process> inner, Layer layer);

/// Sums the ledgers of every process wrapped since the last call and
/// forgets them.
SendLedger collect_send_ledgers();

}  // namespace perfbench
