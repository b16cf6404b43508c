#include "net/udp_socket.hpp"

#if defined(__linux__)

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ag::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

sockaddr_in to_sockaddr(Endpoint e) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(e.addr);
  sa.sin_port = htons(e.port);
  return sa;
}

Endpoint from_sockaddr(const sockaddr_in& sa) {
  return Endpoint{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

}  // namespace

bool UdpSocketSet::available() noexcept { return true; }

bool UdpSocketSet::setup_epoll_and_register() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return false;
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fds_[i], &ev) != 0) return false;
  }
  return true;
}

bool UdpSocketSet::open_loopback(std::size_t count) {
  close_all();
  fds_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      close_all();
      return false;
    }
    fds_.push_back(fd);
    sockaddr_in sa = to_sockaddr(Endpoint{kLoopbackAddr, 0});
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
      close_all();
      return false;
    }
  }
  if (!setup_epoll_and_register()) {
    close_all();
    return false;
  }
  return true;
}

bool UdpSocketSet::adopt(const std::vector<int>& fds) {
  close_all();
  fds_ = fds;
  for (const int fd : fds_) {
    if (!set_nonblocking(fd)) {
      close_all();
      return false;
    }
  }
  if (!setup_epoll_and_register()) {
    close_all();
    return false;
  }
  return true;
}

std::uint16_t UdpSocketSet::port(std::size_t i) const {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fds_[i], reinterpret_cast<sockaddr*>(&sa), &len) != 0) return 0;
  return ntohs(sa.sin_port);
}

bool UdpSocketSet::send_to(std::size_t i, Endpoint dst, const std::uint8_t* data,
                           std::size_t len) {
  const sockaddr_in sa = to_sockaddr(dst);
  const ssize_t n = ::sendto(fds_[i], data, len, 0,
                             reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  return n == static_cast<ssize_t>(len);
}

bool UdpSocketSet::recv_one(Datagram& meta, std::span<const std::uint8_t>& frame) {
  // One buffer for the set's lifetime, never zero-filled: recvfrom writes
  // the datagram and the view covers only the bytes it wrote, so a receive
  // costs the datagram's length, not kMaxDatagram.  Allocated lazily, so a
  // set that only ever sends (the multi-process launcher's) owns no buffer.
  if (!rx_buf_) rx_buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(kMaxDatagram);
  // Level-triggered epoll: refill the ready queue when empty, then read one
  // datagram from the front socket.  A socket stays at the front until its
  // queue is empty (EAGAIN), so bursts drain without re-polling per packet.
  for (int attempts = 0; attempts < 2; ++attempts) {
    while (!ready_.empty()) {
      const std::size_t idx = ready_.front();
      sockaddr_in sa{};
      socklen_t salen = sizeof(sa);
      const ssize_t n = ::recvfrom(fds_[idx], rx_buf_.get(), kMaxDatagram, 0,
                                   reinterpret_cast<sockaddr*>(&sa), &salen);
      if (n >= 0) {
        frame = std::span<const std::uint8_t>(rx_buf_.get(), static_cast<std::size_t>(n));
        meta.socket = idx;
        meta.src = from_sockaddr(sa);
        return true;
      }
      // EAGAIN/EWOULDBLOCK is the normal "socket is dry" signal.  Anything
      // else is a real failure -- e.g. a queued ECONNREFUSED from an ICMP
      // port-unreachable (Linux reports it on connected UDP sockets) --
      // which the old code silently conflated with dryness.  Count it so
      // transports can surface dead peers, then move past the socket; the
      // next epoll refill re-reports it if data sits behind the error.
      if (errno != EAGAIN && errno != EWOULDBLOCK) ++recv_errors_;
      ready_.pop_front();
    }
    if (attempts == 0 && epoll_fd_ >= 0) {
      epoll_event evs[64];
      const int nev = ::epoll_wait(epoll_fd_, evs, 64, 0);
      for (int e = 0; e < nev; ++e) ready_.push_back(evs[e].data.u64);
    }
  }
  return false;
}

bool UdpSocketSet::wait_readable(int timeout_ms) {
  if (!ready_.empty()) return true;
  if (epoll_fd_ < 0) return false;
  epoll_event evs[64];
  const int nev = ::epoll_wait(epoll_fd_, evs, 64, timeout_ms);
  for (int e = 0; e < nev; ++e) ready_.push_back(evs[e].data.u64);
  return nev > 0;
}

void UdpSocketSet::close_all() {
  for (const int fd : fds_) ::close(fd);
  fds_.clear();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  ready_.clear();
}

void UdpSocketSet::forget_sockets() {
  fds_.clear();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  ready_.clear();
}

}  // namespace ag::net

#else  // !__linux__: stubs so the library links everywhere.

namespace ag::net {

bool UdpSocketSet::available() noexcept { return false; }
bool UdpSocketSet::setup_epoll_and_register() { return false; }
bool UdpSocketSet::open_loopback(std::size_t) { return false; }
bool UdpSocketSet::adopt(const std::vector<int>&) { return false; }
std::uint16_t UdpSocketSet::port(std::size_t) const { return 0; }
bool UdpSocketSet::send_to(std::size_t, Endpoint, const std::uint8_t*, std::size_t) {
  return false;
}
bool UdpSocketSet::recv_one(Datagram&, std::span<const std::uint8_t>&) { return false; }
bool UdpSocketSet::wait_readable(int) { return false; }
void UdpSocketSet::close_all() { fds_.clear(); }
void UdpSocketSet::forget_sockets() { fds_.clear(); }

}  // namespace ag::net

#endif
