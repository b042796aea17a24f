#include "channel/tcp_transport.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define MONOCLE_HAVE_POSIX_SOCKETS 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define MONOCLE_HAVE_POSIX_SOCKETS 0
#endif

namespace monocle::channel {

#if MONOCLE_HAVE_POSIX_SOCKETS

namespace {

using Clock = std::chrono::steady_clock;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool would_block() { return errno == EAGAIN || errno == EWOULDBLOCK; }

}  // namespace

class TcpTransport::Conn final : public Connection {
 public:
  Conn(int fd, std::string desc, bool connecting)
      : fd_(fd), desc_(std::move(desc)), connecting_(connecting) {}

  ~Conn() override { close_fd(); }

  void set_callbacks(Callbacks callbacks) override {
    callbacks_ = std::make_shared<const Callbacks>(std::move(callbacks));
    // Bytes (or a close) may have arrived between accept and adoption —
    // e.g. a switch's HELLO fired the instant it connected, while the
    // connection still sat in a listener's accept queue.  Deliver them now.
    if (const auto cbs = callbacks_; cbs->on_bytes && !inbox_.empty()) {
      std::vector<std::uint8_t> pending;
      pending.swap(inbox_);
      cbs->on_bytes(pending);
    }
    if (!open_ && !locally_closed_ && !notified_) notify_closed();
  }

  bool send(std::span<const std::uint8_t> bytes) override {
    if (!open_) return false;
    if (write_through_ && drained() && !connecting_) {
      // The first send since the last pump: straight to the socket.
      write_through_ = false;
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0 && !would_block()) {
        open_ = false;  // peer reset underneath us; pump() reports it
        return false;
      }
      bytes = bytes.subspan(n < 0 ? 0 : static_cast<std::size_t>(n));
    }
    // Appended behind anything still queued; the next pump writes it.
    outbox_.insert(outbox_.end(), bytes.begin(), bytes.end());
    return true;
  }

  void close() override {
    if (locally_closed_) return;
    locally_closed_ = true;
    const bool failed = !open_;
    open_ = false;
    // Never invoked again; the pump holds its own reference while a
    // callback runs, so closing from inside one is safe.
    callbacks_.reset();
    stall_deadline_ = Clock::now() + kStall;
    if (failed || drained()) close_fd();
    // Otherwise the pump keeps writing and closes once the outbox drains.
  }

  [[nodiscard]] bool is_open() const override { return open_; }

  [[nodiscard]] std::string describe() const override { return desc_; }

 private:
  friend class TcpTransport;

  void close_fd() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  [[nodiscard]] bool drained() const { return head_ == outbox_.size(); }

  /// A closed connection still delivering its queued bytes.
  [[nodiscard]] bool lingering() const { return locally_closed_ && fd_ >= 0; }

  /// Writes the outbox from its head as far as the socket accepts.  A hard
  /// error ends the connection: a lingering one closes its socket, an open
  /// one is marked dead (on_closed follows from pump()).  Progress moves a
  /// lingering connection's stall deadline.
  void flush() {
    const std::size_t head0 = head_;
    while (!drained()) {
      const ssize_t n = ::send(fd_, outbox_.data() + head_,
                               outbox_.size() - head_, MSG_NOSIGNAL);
      if (n > 0) {
        head_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && would_block()) break;
      fail();
      return;
    }
    if (locally_closed_ && head_ != head0) {
      stall_deadline_ = Clock::now() + kStall;
    }
    if (drained()) {
      outbox_.clear();
      head_ = 0;
    } else if (head_ >= kCompactAt && head_ * 2 >= outbox_.size()) {
      outbox_.erase(outbox_.begin(),
                    outbox_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  void fail() {
    if (locally_closed_) {
      close_fd();
    } else {
      open_ = false;
    }
  }

  void notify_closed() {
    // Without an observer the notification waits for set_callbacks.
    const auto cbs = callbacks_;
    if (!cbs || !cbs->on_closed) return;
    notified_ = true;
    cbs->on_closed();
  }

  /// Ceiling on bytes buffered for a not-yet-adopted connection; a peer
  /// that floods past it before anyone listens is dropped.
  static constexpr std::size_t kMaxInbox = 1 << 20;
  /// Sent bytes at the outbox front are dropped once they are this many
  /// and at least half of it (a drained outbox rewinds for free).
  static constexpr std::size_t kCompactAt = 1 << 16;
  static constexpr std::chrono::nanoseconds kStall{kCloseStallTimeout};

  int fd_;
  std::string desc_;
  bool connecting_;  // non-blocking connect still in progress
  // Shared so that a running callback survives its own replacement.
  std::shared_ptr<const Callbacks> callbacks_;
  std::vector<std::uint8_t> outbox_;
  std::size_t head_ = 0;  // first byte of outbox_ not yet written
  std::vector<std::uint8_t> inbox_;  // received before callbacks were set
  bool write_through_ = true;  // no send since the transport's last pump
  bool peer_eof_ = false;  // lingering, and the peer has sent its EOF
  bool open_ = true;
  bool locally_closed_ = false;
  bool notified_ = false;
  // Lingering: closed once this passes without a byte written.
  Clock::time_point stall_deadline_{};
};

struct TcpTransport::Listener {
  int fd = -1;
  std::uint16_t port = 0;
  std::function<void(Connection*)> on_accept;

  ~Listener() {
    if (fd >= 0) ::close(fd);
  }
};

struct TcpTransport::PollSet {
  std::vector<pollfd> fds;  // listeners first, then conns
  std::vector<Conn*> conns;  // parallel to the conn entries of fds
};

TcpTransport::TcpTransport() : poll_(std::make_unique<PollSet>()) {}

TcpTransport::~TcpTransport() = default;

bool TcpTransport::listen(std::uint16_t port,
                          std::function<void(Connection*)> on_accept,
                          const std::string& bind_addr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0 || !set_nonblocking(fd)) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  auto listener = std::make_unique<Listener>();
  listener->fd = fd;
  listener->port = ntohs(addr.sin_port);
  listener->on_accept = std::move(on_accept);
  last_listen_port_ = listener->port;
  listeners_.push_back(std::move(listener));
  return true;
}

Connection* TcpTransport::dial(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      !set_nonblocking(fd)) {
    ::close(fd);
    return nullptr;
  }
  set_nodelay(fd);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  const bool connecting = rc != 0 && errno == EINPROGRESS;
  if (rc != 0 && !connecting) {
    ::close(fd);
    return nullptr;
  }
  auto conn = std::make_unique<Conn>(
      fd, host + ":" + std::to_string(port), connecting);
  Connection* raw = conn.get();
  conns_.push_back(std::move(conn));
  return raw;
}

std::size_t TcpTransport::pump() { return pump_with_timeout(0); }

std::size_t TcpTransport::pump_wait(netbase::SimTime max_wait) {
  const int ms = static_cast<int>(
      std::min<netbase::SimTime>(max_wait / netbase::kMillisecond, 1000));
  return pump_with_timeout(ms);
}

std::size_t TcpTransport::pump_with_timeout(int timeout_ms) {
  if (pumping_) return 0;
  pumping_ = true;
  // Reclaim connections that are fully dead: socket closed, and either
  // locally closed or already notified — owners dropped their pointers.
  std::erase_if(conns_, [](const std::unique_ptr<Conn>& c) {
    return c->fd_ < 0 && !c->open_ && (c->locally_closed_ || c->notified_);
  });

  // Write what was queued since the last pump, before polling, and let
  // each connection's next send go straight out again.  A lingering
  // connection closes once it drains or its peer has stalled too long.
  const Clock::time_point now = Clock::now();
  for (const auto& c : conns_) {
    Conn& conn = *c;
    conn.write_through_ = true;
    if (!conn.open_ && !conn.lingering()) continue;
    if (!conn.connecting_ && !conn.drained()) conn.flush();
    if (conn.lingering() && (conn.drained() || now >= conn.stall_deadline_)) {
      conn.close_fd();
    }
  }

  PollSet& ps = *poll_;
  ps.fds.clear();
  ps.conns.clear();
  for (const auto& listener : listeners_) {
    ps.fds.push_back({listener->fd, POLLIN, 0});
  }
  for (const auto& conn : conns_) {
    // A dead, not yet notified connection is left to the sweep below.
    if (!conn->open_ && !conn->lingering()) continue;
    short events = conn->peer_eof_ ? 0 : POLLIN;
    if (conn->connecting_ || !conn->drained()) events |= POLLOUT;
    ps.fds.push_back({conn->fd_, events, 0});
    ps.conns.push_back(conn.get());
  }
  const int ready =
      ps.fds.empty() ? 0 : ::poll(ps.fds.data(), ps.fds.size(), timeout_ms);

  std::size_t events = 0;
  // Accept new connections.
  for (std::size_t i = 0; ready > 0 && i < listeners_.size(); ++i) {
    if ((ps.fds[i].revents & POLLIN) == 0) continue;
    for (;;) {
      sockaddr_in peer{};
      socklen_t len = sizeof(peer);
      const int cfd =
          ::accept(listeners_[i]->fd, reinterpret_cast<sockaddr*>(&peer), &len);
      if (cfd < 0) break;
      if (!set_nonblocking(cfd)) {
        ::close(cfd);
        continue;
      }
      set_nodelay(cfd);
      char ip[INET_ADDRSTRLEN] = "?";
      ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
      auto conn = std::make_unique<Conn>(
          cfd, std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port)),
          /*connecting=*/false);
      Conn* raw = conn.get();
      conns_.push_back(std::move(conn));
      ++events;
      if (listeners_[i]->on_accept) listeners_[i]->on_accept(raw);
    }
  }
  // Service connections.
  for (std::size_t i = 0; ready > 0 && i < ps.conns.size(); ++i) {
    Conn& conn = *ps.conns[i];
    const short revents = ps.fds[listeners_.size() + i].revents;
    // A callback may have closed or failed this connection meanwhile.
    if (revents == 0 || (!conn.open_ && !conn.lingering())) continue;
    if (conn.connecting_) {
      if ((revents & (POLLOUT | POLLERR | POLLHUP)) == 0) continue;
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(conn.fd_, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        conn.fail();
        continue;
      }
      conn.connecting_ = false;
      ++events;
    }
    std::uint8_t buf[65536];
    if (conn.lingering()) {
      // Closed here: only the queued bytes still matter.  Input is read
      // and discarded, so that closing does not reset the stream under
      // them; the peer's EOF ends the reading, not the writing.
      if ((revents & (POLLERR | POLLHUP)) != 0) {
        conn.close_fd();  // reset or gone: nothing more can be delivered
        continue;
      }
      if ((revents & POLLOUT) != 0) conn.flush();
      if (conn.fd_ >= 0 && (revents & POLLIN) != 0) {
        const ssize_t n = ::recv(conn.fd_, buf, sizeof(buf), 0);
        if (n == 0) {
          conn.peer_eof_ = true;
        } else if (n < 0 && errno != EINTR && !would_block()) {
          conn.close_fd();
        }
      }
      if (conn.lingering() && conn.drained()) conn.close_fd();
      continue;
    }
    if ((revents & POLLOUT) != 0) conn.flush();
    if (!conn.open_ || (revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    for (;;) {
      const ssize_t n = ::recv(conn.fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && would_block()) break;
      if (n <= 0) {
        conn.open_ = false;  // orderly shutdown (n == 0) or hard error
        break;
      }
      const std::span<const std::uint8_t> got(buf, static_cast<std::size_t>(n));
      ++events;
      if (const auto cbs = conn.callbacks_; cbs && cbs->on_bytes) {
        cbs->on_bytes(got);
      } else {
        // Not yet adopted (sitting in an accept queue): buffer for
        // set_callbacks, bounded against hostile floods.
        conn.inbox_.insert(conn.inbox_.end(), got.begin(), got.end());
        if (conn.inbox_.size() > Conn::kMaxInbox) conn.open_ = false;
      }
      // The callback closed us or the inbox overflowed; or a short read:
      // poll(2) is level-triggered and reports whatever is left.
      if (!conn.open_ || n < static_cast<ssize_t>(sizeof(buf))) break;
    }
  }
  // Close-notification sweep over ALL connections, not just the polled
  // ones: a connection can die outside pump() too (a hard ::send error
  // from a timer-driven session write), and such a conn is excluded from
  // the poll set above.  Without an on_closed observer the notification is
  // deferred: the eventual adopter learns of the close from set_callbacks
  // (and the connection must stay alive for it — see the reclaim filter
  // above).
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = *conns_[i];
    if (conn.open_ || conn.locally_closed_ || conn.notified_) continue;
    conn.close_fd();
    conn.notify_closed();
    if (conn.notified_) ++events;
  }
  pumping_ = false;
  return events;
}

#else  // !MONOCLE_HAVE_POSIX_SOCKETS

class TcpTransport::Conn final : public Connection {};
struct TcpTransport::Listener {};
struct TcpTransport::PollSet {};

TcpTransport::TcpTransport() = default;
TcpTransport::~TcpTransport() = default;

bool TcpTransport::listen(std::uint16_t, std::function<void(Connection*)>,
                          const std::string&) {
  return false;
}

Connection* TcpTransport::dial(const std::string&, std::uint16_t) {
  return nullptr;
}

std::size_t TcpTransport::pump() { return 0; }

std::size_t TcpTransport::pump_wait(netbase::SimTime) { return 0; }

std::size_t TcpTransport::pump_with_timeout(int) { return 0; }

#endif  // MONOCLE_HAVE_POSIX_SOCKETS

}  // namespace monocle::channel
