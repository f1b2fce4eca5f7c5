#include "fastcast/net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "fastcast/common/logging.hpp"
#include "fastcast/obs/observability.hpp"

namespace fastcast::net {

namespace {

/// Queue size at which send() flushes immediately instead of waiting for
/// the next poll_once(); bounds per-peer queued memory under bursts.
constexpr std::size_t kFlushThresholdBytes = 256 * 1024;

/// Gather-write width: frames coalesced into one sendmsg call. Linux's
/// UIO_MAXIOV is 1024; 64 already amortizes the syscall to noise.
constexpr int kMaxIov = 64;

/// recv chunk reserved in the parser arena per receive.
constexpr std::size_t kReadChunkBytes = 64 * 1024;

/// Writes the whole buffer, retrying on partial writes/EINTR.
bool write_all(int fd, const std::byte* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

TcpTransport::TcpTransport(NodeId self, AddressBook addresses)
    : self_(self), addresses_(addresses), rng_(0xbacc0ffULL + self) {}

void TcpTransport::set_observability(obs::Observability* o) {
  c_reconnects_ = o ? &o->metrics.counter("net.reconnects") : nullptr;
  c_connect_failures_ = o ? &o->metrics.counter("net.connect_failures") : nullptr;
  c_disconnects_ = o ? &o->metrics.counter("net.disconnects") : nullptr;
  c_tx_dropped_ = o ? &o->metrics.counter("net.tx_frames_dropped") : nullptr;
  g_tx_queued_ = o ? &o->metrics.gauge("net.tx_queued_bytes") : nullptr;
  g_tx_queued_hwm_ = o ? &o->metrics.gauge("net.tx_queued_bytes_hwm") : nullptr;
  if (g_tx_queued_ != nullptr) {
    g_tx_queued_->set(static_cast<std::int64_t>(total_queued_));
    g_tx_queued_hwm_->record_max(static_cast<std::int64_t>(total_queued_));
  }
}

void TcpTransport::note_queued_delta(std::ptrdiff_t delta) {
  total_queued_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(total_queued_) + delta);
  if (g_tx_queued_ != nullptr) {
    g_tx_queued_->set(static_cast<std::int64_t>(total_queued_));
    g_tx_queued_hwm_->record_max(static_cast<std::int64_t>(total_queued_));
  }
}

TcpTransport::~TcpTransport() { close_all(); }

void TcpTransport::listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(addresses_.port_of(self_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // SO_REUSEADDR covers TIME_WAIT, so a restarted node rebinds its port
  // at once; any other bind failure is a genuine conflict and fails fast.
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw std::runtime_error(
        "bind() failed for node " + std::to_string(self_) + " port " +
        std::to_string(addresses_.port_of(self_)) + ": " +
        std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) throw std::runtime_error("listen() failed");
  pollfds_dirty_ = true;
}

int TcpTransport::connect_to(NodeId to) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(addresses_.port_of(to));
  ::inet_pton(AF_INET, addresses_.host.c_str(), &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  // Hello: identify ourselves so the peer can attribute inbound frames.
  const std::uint32_t id = self_;
  if (!write_all(fd, reinterpret_cast<const std::byte*>(&id), sizeof id)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::chrono::milliseconds TcpTransport::backoff_for(int attempts) {
  const int shift = std::min(attempts > 0 ? attempts - 1 : 0, 20);
  double ms = static_cast<double>(retry_.base_backoff_ms) *
              static_cast<double>(1u << shift);
  ms = std::min(ms, static_cast<double>(retry_.max_backoff_ms));
  if (retry_.jitter > 0) {
    ms *= 1.0 + retry_.jitter * (2.0 * rng_.uniform_double() - 1.0);
  }
  return std::chrono::milliseconds(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(ms)));
}

bool TcpTransport::try_connect(NodeId to, Outbound& ob) {
  if (ob.connected) return true;
  const auto now = std::chrono::steady_clock::now();
  if (now < ob.next_attempt) return false;
  const int fd = connect_to(to);
  if (fd < 0) {
    ++ob.attempts;
    ++stats_.connect_failures;
    if (c_connect_failures_) c_connect_failures_->inc();
    ob.next_attempt = now + backoff_for(ob.attempts);
    if (ob.attempts == 1) {
      FC_WARN("node %u: connect to %u failed: %s (retrying with backoff)",
              self_, to, std::strerror(errno));
    }
    if (retry_.max_attempts > 0 && ob.attempts >= retry_.max_attempts) {
      // Retry budget exhausted: shed the queue so memory stays bounded, but
      // keep probing at max backoff so a recovered peer re-establishes.
      shed_queue(ob);
    }
    return false;
  }
  ob.fd = fd;
  ob.connected = true;
  // A reconnect is a successful connect to *this* peer after it failed or
  // dropped. The old condition also consulted the global disconnect count,
  // so a clean first-try connect to peer B was miscounted as a reconnect
  // whenever any other peer had ever disconnected.
  if (ob.attempts > 0 || ob.ever_connected) {
    ++stats_.reconnects;
    if (c_reconnects_) c_reconnects_->inc();
  }
  ob.ever_connected = true;
  ob.attempts = 0;
  return true;
}

void TcpTransport::disconnect(NodeId to, Outbound& ob) {
  FC_WARN("node %u: connection to %u lost; queueing for reconnect", self_, to);
  if (ob.fd >= 0) ::close(ob.fd);
  ob.fd = -1;
  ob.connected = false;
  // The partially-written head frame must be resent in full on the next
  // connection (the peer's parser starts fresh), so re-account its prefix.
  ob.queued_bytes += ob.head_offset;
  note_queued_delta(static_cast<std::ptrdiff_t>(ob.head_offset));
  ob.head_offset = 0;
  ++stats_.disconnects;
  if (c_disconnects_) c_disconnects_->inc();
  ob.next_attempt = std::chrono::steady_clock::now() + backoff_for(1);
  ob.attempts = 1;
}

void TcpTransport::shed_queue(Outbound& ob) {
  if (ob.frames.empty()) return;
  stats_.tx_frames_dropped += ob.frames.size();
  if (c_tx_dropped_) c_tx_dropped_->inc(ob.frames.size());
  for (auto& frame : ob.frames) pool_.release(std::move(frame));
  ob.frames.clear();
  note_queued_delta(-static_cast<std::ptrdiff_t>(ob.queued_bytes));
  ob.queued_bytes = 0;
  ob.head_offset = 0;
}

void TcpTransport::send(NodeId to, const Message& msg) {
  Outbound& ob = outbound_[to];
  if (!ob.connected && ob.queued_bytes >= retry_.max_queued_bytes) {
    // Unreachable peer with a full queue: shed the newest frame so memory
    // stays bounded while the backoff loop keeps probing.
    ++stats_.tx_frames_dropped;
    if (c_tx_dropped_) c_tx_dropped_->inc();
    return;
  }
  std::vector<std::byte> frame = pool_.acquire();
  frame_message_into(msg, frame);
  ob.queued_bytes += frame.size();
  note_queued_delta(static_cast<std::ptrdiff_t>(frame.size()));
  ob.frames.push_back(std::move(frame));
  if (!try_connect(to, ob)) return;  // queued; backoff flush will deliver
  if (ob.queued_bytes >= kFlushThresholdBytes && !write_pending(ob)) {
    disconnect(to, ob);
  }
}

void TcpTransport::flush() {
  for (auto& [to, ob] : outbound_) {
    if (ob.frames.empty()) continue;
    if (!try_connect(to, ob)) continue;
    if (!write_pending(ob)) disconnect(to, ob);
  }
}

std::size_t TcpTransport::pending_bytes() const {
  std::size_t total = 0;
  for (const auto& [node, ob] : outbound_) total += ob.queued_bytes;
  return total;
}

bool TcpTransport::write_pending(Outbound& ob) {
  while (!ob.frames.empty()) {
    iovec iov[kMaxIov];
    int iovcnt = 0;
    std::size_t offset = ob.head_offset;
    for (const auto& frame : ob.frames) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base =
          const_cast<std::byte*>(frame.data() + offset);
      iov[iovcnt].iov_len = frame.size() - offset;
      ++iovcnt;
      offset = 0;
    }
    // One gather syscall per kMaxIov frames (sendmsg == writev with
    // MSG_NOSIGNAL — plain writev raises SIGPIPE on a dead peer).
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(ob.fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    advance_written(ob, static_cast<std::size_t>(n));
  }
  return true;
}

void TcpTransport::advance_written(Outbound& ob, std::size_t n) {
  ob.queued_bytes -= n;
  note_queued_delta(-static_cast<std::ptrdiff_t>(n));
  while (n > 0) {
    std::vector<std::byte>& head = ob.frames.front();
    const std::size_t left = head.size() - ob.head_offset;
    if (n < left) {
      ob.head_offset += n;
      return;
    }
    n -= left;
    ob.head_offset = 0;
    pool_.release(std::move(head));
    ob.frames.pop_front();
  }
}

void TcpTransport::drop(int fd) {
  ::close(fd);
  inbound_.erase(fd);
  pollfds_dirty_ = true;
}

void TcpTransport::accept_one() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  set_nodelay(fd);
  Peer peer;
  peer.fd = fd;
  inbound_.emplace(fd, std::move(peer));
  pollfds_dirty_ = true;
}

void TcpTransport::handle_hello(Peer& peer) {
  // The 4 id bytes may fragment; poll reported readable, so recv won't block.
  const ssize_t n = ::recv(peer.fd, peer.hello + peer.hello_got,
                           sizeof peer.hello - peer.hello_got, 0);
  if (n <= 0) {
    if (n < 0 && errno == EINTR) return;
    drop(peer.fd);
    return;
  }
  peer.hello_got += static_cast<std::size_t>(n);
  if (peer.hello_got == sizeof peer.hello) {
    std::uint32_t id = 0;
    std::memcpy(&id, peer.hello, sizeof id);
    peer.id = id;
  }
}

std::size_t TcpTransport::handle_data(Peer& peer) {
  // Receive straight into the parser arena: no intermediate copy, and
  // recv_buffer only allocates when the arena must grow.
  const std::span<std::byte> dst = peer.parser.recv_buffer(kReadChunkBytes);
  const ssize_t n = ::recv(peer.fd, dst.data(), dst.size(), 0);
  if (n < 0 && errno == EINTR) return 0;  // retry next poll
  if (n <= 0) {
    drop(peer.fd);
    return 0;
  }
  peer.parser.commit(static_cast<std::size_t>(n));
  std::size_t dispatched = 0;
  while (auto msg = peer.parser.next()) {
    ++dispatched;
    if (receive_) receive_(peer.id, *msg);
  }
  if (peer.parser.corrupted()) {
    FC_ERROR("node %u: corrupted stream from %u", self_, peer.id);
    drop(peer.fd);
  }
  return dispatched;
}

void TcpTransport::rebuild_pollfds() {
  pollfds_.clear();
  if (listen_fd_ >= 0) pollfds_.push_back(pollfd{listen_fd_, POLLIN, 0});
  for (const auto& [fd, peer] : inbound_) {
    pollfds_.push_back(pollfd{fd, POLLIN, 0});
  }
  pollfds_dirty_ = false;
}

std::size_t TcpTransport::poll_once(int timeout_ms) {
  flush();
  if (pollfds_dirty_) rebuild_pollfds();
  if (::poll(pollfds_.data(), pollfds_.size(), timeout_ms) <= 0) return 0;

  // Handlers may drop peers, which only marks the array dirty. The listen
  // socket comes first, so an accept cannot reuse an fd number that a
  // later entry of this sweep still names.
  std::size_t dispatched = 0;
  for (const pollfd& p : pollfds_) {
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    if (p.fd == listen_fd_) {
      accept_one();
      continue;
    }
    const auto it = inbound_.find(p.fd);
    if (it == inbound_.end()) continue;  // dropped earlier this round
    // POLLHUP/POLLERR also route through recv, which reports the 0/-1.
    if (it->second.id == kInvalidNode) {
      handle_hello(it->second);
    } else {
      dispatched += handle_data(it->second);
    }
  }
  return dispatched;
}

void TcpTransport::close_all() {
  flush();  // best-effort: don't strand queued frames on shutdown
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [node, ob] : outbound_) {
    if (ob.fd >= 0) ::close(ob.fd);
  }
  outbound_.clear();
  for (auto& [fd, peer] : inbound_) ::close(fd);
  inbound_.clear();
  pollfds_dirty_ = true;
}

}  // namespace fastcast::net
