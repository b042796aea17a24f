// Non-blocking TCP transport: poll(2)-driven listener + connections.
//
// The live-switch counterpart of LoopbackTransport.  All sockets are
// non-blocking; pump() (or pump_wait, which parks in poll(2) up to the
// caller's deadline) writes what was queued since the last pump, accepts
// pending connections, drains readable sockets into on_bytes callbacks,
// completes in-progress connects and flushes partial writes.  Multiple
// listeners are supported (one OpenFlow switch per port is the simplest way
// to tell OVS bridges apart before their FEATURES_REPLY arrives — see
// examples/live_monitor.cpp).
//
// Write policy (docs/DESIGN.md §8): each connection keeps one contiguous
// outbox.  The first send() on a connection since its transport's last pump
// goes straight to the socket, so a lone request or reply costs no extra
// latency; later sends are appended and the next pump writes them, in as
// few send(2) calls as the socket allows, before it polls.  A burst of
// thousands of PacketOuts therefore leaves in a handful of writes.
//
// close() honours the Connection contract: queued bytes are still
// delivered.  The connection keeps its socket until the outbox drains, a
// write fails, or kCloseStallTimeout passes without a byte written (a peer
// that stopped reading cannot pin it), and only then closes it.
//
// POSIX-only; on other platforms the class compiles to stubs that fail to
// listen/dial (the rest of the channel layer — loopback, session, backends —
// is fully portable).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "channel/transport.hpp"
#include "netbase/time.hpp"

namespace monocle::channel {

class TcpTransport final : public Transport {
 public:
  /// How long a closed connection that still holds queued bytes may go
  /// without writing one before the transport gives up on the peer and
  /// closes the socket.
  static constexpr netbase::SimTime kCloseStallTimeout = 1 * netbase::kSecond;

  TcpTransport();
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Starts listening on `port` (0 picks an ephemeral port — see
  /// listen_port); accepted connections are handed to `on_accept` from
  /// pump().  Returns false when the socket cannot be bound.
  bool listen(std::uint16_t port, std::function<void(Connection*)> on_accept,
              const std::string& bind_addr = "0.0.0.0");

  /// The actual port of the most recent successful listen() (resolves 0).
  [[nodiscard]] std::uint16_t listen_port() const { return last_listen_port_; }

  /// Starts a non-blocking connect to host:port (numeric IPv4).  Returns
  /// the connection immediately; connect failures surface as on_closed from
  /// a later pump().  nullptr only when the socket cannot be created.
  Connection* dial(const std::string& host, std::uint16_t port);

  /// Not re-entrant: called from inside one of its own callbacks, a pump
  /// does nothing and returns 0.
  std::size_t pump() override;
  std::size_t pump_wait(netbase::SimTime max_wait) override;

  /// Connections the transport still holds: open, delivering their queued
  /// bytes after close(), or awaiting reclamation on the next pump.
  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }

 private:
  class Conn;
  struct Listener;
  struct PollSet;

  std::size_t pump_with_timeout(int timeout_ms);

  std::vector<std::unique_ptr<Listener>> listeners_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unique_ptr<PollSet> poll_;  // kept from pump to pump
  std::uint16_t last_listen_port_ = 0;
  bool pumping_ = false;
};

}  // namespace monocle::channel
