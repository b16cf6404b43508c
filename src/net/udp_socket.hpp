/// \file
/// UdpSocketSet: a group of nonblocking UDP sockets behind one epoll
/// instance -- the OS-facing half of net::UdpTransport.
///
/// One socket per locally hosted node.  The set either binds fresh loopback
/// sockets itself (open_loopback, port 0 so the kernel assigns free ports
/// racelessly) or adopts file descriptors it inherited across fork() -- the
/// multi-process swarm launcher binds ALL sockets before forking, so every
/// worker knows every peer's port with no rendezvous protocol.
///
/// Everything here is non-template and Linux-only (epoll, SOCK_DGRAM); on
/// other platforms the methods compile as stubs that report unavailability
/// (available() == false) so the rest of the tree still builds.  No call
/// ever blocks except wait_readable, whose timeout the caller picks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "net/endpoint.hpp"

namespace ag::net {

class UdpSocketSet {
 public:
  /// Largest datagram recv_one reads: above the IPv4 UDP payload ceiling
  /// (65507 bytes), so no loopback datagram is ever truncated.
  static constexpr std::size_t kMaxDatagram = 65536;

  UdpSocketSet() = default;
  ~UdpSocketSet() { close_all(); }
  UdpSocketSet(const UdpSocketSet&) = delete;
  UdpSocketSet& operator=(const UdpSocketSet&) = delete;

  /// True when this build has a real implementation (Linux).
  static bool available() noexcept;

  /// Binds `count` nonblocking UDP sockets to 127.0.0.1, port 0 (kernel
  /// assigned), and registers them with epoll.  False on any syscall error
  /// (the set is closed again).
  bool open_loopback(std::size_t count);

  /// Takes ownership of already-bound descriptors (inherited across fork),
  /// sets them nonblocking and registers them with epoll.
  bool adopt(const std::vector<int>& fds);

  std::size_t size() const noexcept { return fds_.size(); }
  int fd(std::size_t i) const noexcept { return fds_[i]; }

  /// The port socket i is bound to (getsockname), 0 on error.
  std::uint16_t port(std::size_t i) const;

  /// Sends one datagram from socket i.  False on send error (full buffers
  /// included -- UDP is lossy; callers count, never retry).
  bool send_to(std::size_t i, Endpoint dst, const std::uint8_t* data, std::size_t len);

  struct Datagram {
    std::size_t socket = 0;  ///< index of the receiving socket
    Endpoint src;            ///< sender address (host order)
  };

  /// Receives one datagram from any readable socket.  On success `frame`
  /// views exactly the datagram's bytes inside the set's own receive buffer
  /// (kMaxDatagram bytes, allocated on the first receive and never zeroed
  /// again).  The view stays valid until the next recv_one call on this set
  /// or the set's destruction -- copy anything that must outlive it.  False
  /// when nothing is readable right now; `frame` is then left untouched.
  bool recv_one(Datagram& meta, std::span<const std::uint8_t>& frame);

  /// Count of hard recvfrom failures seen by recv_one -- anything other
  /// than EAGAIN/EWOULDBLOCK, e.g. a queued ECONNREFUSED from an ICMP
  /// port-unreachable bounced off a dead peer.  "Socket is dry" is not an
  /// error and is not counted.  Monotone over the set's lifetime.
  std::uint64_t recv_errors() const noexcept { return recv_errors_; }

  /// Blocks up to timeout_ms for any socket to become readable.  Returns
  /// true if at least one is.  timeout_ms = 0 polls.
  bool wait_readable(int timeout_ms);

  /// Closes every socket and the epoll fd.
  void close_all();

  /// Drops ownership of the sockets WITHOUT closing them (the epoll fd is
  /// closed).  fork() helper: a worker adopts its own nodes' descriptors
  /// into a fresh set and must stop the inherited parent set's destructor
  /// from closing them.
  void forget_sockets();

 private:
  bool setup_epoll_and_register();

  std::vector<int> fds_;
  int epoll_fd_ = -1;
  std::uint64_t recv_errors_ = 0;
  std::deque<std::size_t> ready_;  // socket indices epoll reported readable
  std::unique_ptr<std::uint8_t[]> rx_buf_;  // kMaxDatagram bytes, recv_one's target
};

}  // namespace ag::net
