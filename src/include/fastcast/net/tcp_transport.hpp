#pragma once

#include <poll.h>

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fastcast/common/codec.hpp"
#include "fastcast/common/rng.hpp"
#include "fastcast/net/frame.hpp"
#include "fastcast/runtime/ids.hpp"

namespace fastcast::obs {
class Observability;
class Counter;
class Gauge;
}  // namespace fastcast::obs

/// \file tcp_transport.hpp
/// A single node's TCP endpoint: listens on its own port, lazily connects
/// to peers, frames outbound Messages, and parses inbound streams. The
/// owner drives it from one thread via poll_once(); inbound messages are
/// surfaced through a callback carrying the sender's NodeId (peers
/// identify themselves with a hello frame when connecting).
///
/// Hot-path engineering:
///   * send() enqueues the framed message on a per-peer output queue of
///     pooled buffers; flush() drains a whole queue with one gather-write
///     syscall (sendmsg with an iovec per frame — writev-style coalescing
///     plus MSG_NOSIGNAL), so N frames cost one syscall, not N.
///   * The event loop is one poll(2) per poll_once() over a cached pollfd
///     array, rebuilt only when the connection set changes (listen, accept,
///     drop), never per cycle.
///   * Inbound reads land directly in each peer's FrameParser arena
///     (recv_buffer/commit): no intermediate stack buffer copy and no
///     per-cycle allocation.
/// Writes still block on localhost-scale deployments.
///
/// Failure handling: frames for an unreachable peer stay queued, and the
/// transport reconnects with exponential backoff + jitter (RetryPolicy).
/// Queued frames flush in order once the peer returns; the per-peer queue
/// is bounded, with overflow counted rather than silently lost.

namespace fastcast::net {

/// node → (host, port) resolution.
struct AddressBook {
  std::string host = "127.0.0.1";
  std::uint16_t base_port = 0;

  std::uint16_t port_of(NodeId n) const {
    return static_cast<std::uint16_t>(base_port + n);
  }
};

/// Reconnect/backoff behaviour for outbound connections.
struct RetryPolicy {
  int base_backoff_ms = 5;    ///< delay after the first failure
  int max_backoff_ms = 1000;  ///< backoff doubles per failure up to this cap
  double jitter = 0.2;        ///< ± fraction randomizing each backoff
  /// Per-peer queued-bytes bound while disconnected; frames arriving beyond
  /// it are dropped (and counted in stats().tx_frames_dropped).
  std::size_t max_queued_bytes = 8 * 1024 * 1024;
  /// Consecutive connect failures before the queued frames for that peer
  /// are discarded (counted as dropped). Reconnection attempts continue at
  /// max backoff so a recovered peer still re-establishes. 0 = never give
  /// up the queue.
  int max_attempts = 0;
};

class TcpTransport {
 public:
  using ReceiveFn = std::function<void(NodeId from, const Message& msg)>;

  TcpTransport(NodeId self, AddressBook addresses);
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds and listens; throws std::runtime_error on failure.
  void listen();

  void set_receive(ReceiveFn fn) { receive_ = std::move(fn); }

  /// Replaces the reconnect policy (call before traffic starts).
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  /// Wires degradation counters (net.reconnects, net.connect_failures,
  /// net.disconnects, net.tx_frames_dropped) plus the backpressure gauges
  /// net.tx_queued_bytes (current total queued across peers, the signal
  /// admission control samples) and net.tx_queued_bytes_hwm (run
  /// high-water mark). Pass null to detach.
  void set_observability(obs::Observability* o);

  /// Frames and queues one message. The frame leaves the socket at the next
  /// flush()/poll_once(), or immediately once the peer's queue passes the
  /// coalescing threshold. If the peer is unreachable the frame stays
  /// queued and departs once backoff reconnection succeeds.
  void send(NodeId to, const Message& msg);

  /// Writes every peer's queued frames (one gather syscall per peer),
  /// attempting due reconnects first.
  void flush();

  /// Bytes queued but not yet handed to the kernel (all peers).
  std::size_t pending_bytes() const;

  /// Flushes queued output, then accepts/reads once with the given
  /// timeout; dispatches every complete inbound message. Returns the
  /// number of messages dispatched.
  std::size_t poll_once(int timeout_ms);

  void close_all();

  NodeId self() const { return self_; }

  /// Degradation counters (also exported through set_observability).
  struct Stats {
    std::uint64_t reconnects = 0;        ///< successful connects after a loss
    std::uint64_t connect_failures = 0;  ///< failed connect attempts
    std::uint64_t disconnects = 0;       ///< established connections lost
    std::uint64_t tx_frames_dropped = 0;  ///< frames shed (overflow/budget)
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Peer {
    int fd = -1;
    FrameParser parser;
    NodeId id = kInvalidNode;  ///< learned from the hello frame
    std::byte hello[4];        ///< partial hello bytes
    std::size_t hello_got = 0;
  };

  /// Outbound connection with its coalescing queue: frames wait here and
  /// leave in one gather-write. head_offset tracks the partially-written
  /// prefix of frames.front() across flushes. While disconnected, frames
  /// accumulate (bounded by RetryPolicy) and next_attempt gates backoff.
  struct Outbound {
    int fd = -1;
    bool connected = false;
    /// True once this peer has ever been connected. With attempts, gates
    /// the reconnects counter per peer: a clean first-try connect is never
    /// a reconnect (it used to count as one whenever any *other* peer had
    /// disconnected before).
    bool ever_connected = false;
    std::deque<std::vector<std::byte>> frames;
    std::size_t head_offset = 0;
    std::size_t queued_bytes = 0;
    int attempts = 0;  ///< consecutive failed connects this episode
    std::chrono::steady_clock::time_point next_attempt{};  ///< epoch = now
  };

  int connect_to(NodeId to);
  bool try_connect(NodeId to, Outbound& ob);  ///< respects backoff schedule
  void disconnect(NodeId to, Outbound& ob);   ///< keep queue, arm reconnect
  std::chrono::milliseconds backoff_for(int attempts);
  void shed_queue(Outbound& ob);              ///< discard + count all frames
  void drop(int fd);
  void accept_one();
  void handle_hello(Peer& peer);
  std::size_t handle_data(Peer& peer);
  void rebuild_pollfds();
  bool write_pending(Outbound& ob);           ///< false = connection died
  void advance_written(Outbound& ob, std::size_t n);
  /// Applies a queued-bytes change (signed) to the running total and
  /// mirrors it into the tx-queue gauges when attached.
  void note_queued_delta(std::ptrdiff_t delta);

  NodeId self_;
  AddressBook addresses_;
  RetryPolicy retry_;
  int listen_fd_ = -1;
  std::map<NodeId, Outbound> outbound_;  // node → connection + queue
  std::map<int, Peer> inbound_;          // fd → peer state
  /// listen_fd_ plus every inbound fd; rebuilt only when pollfds_dirty_.
  std::vector<pollfd> pollfds_;
  bool pollfds_dirty_ = true;
  ReceiveFn receive_;
  BufferPool pool_;  ///< recycles frame buffers across sends
  Rng rng_;          ///< backoff jitter
  Stats stats_;
  obs::Counter* c_reconnects_ = nullptr;
  obs::Counter* c_connect_failures_ = nullptr;
  obs::Counter* c_disconnects_ = nullptr;
  obs::Counter* c_tx_dropped_ = nullptr;
  obs::Gauge* g_tx_queued_ = nullptr;
  obs::Gauge* g_tx_queued_hwm_ = nullptr;
  /// Incremental sum of every peer's queued_bytes (kept so gauge updates
  /// are O(1) on the send hot path, not a map walk).
  std::size_t total_queued_ = 0;
};

}  // namespace fastcast::net
