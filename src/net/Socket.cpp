//===- net/Socket.cpp --------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "net/Socket.h"

#include "support/Format.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace exochi;
using namespace exochi::net;

namespace {

Error errnoError(const char *What) {
  return Error::make(formatString("%s: %s", What, std::strerror(errno)));
}

/// The stable prefix isTimeoutError() keys on.
constexpr const char *TimeoutPrefix = "socket timeout: ";

struct timeval timevalFor(double Seconds) {
  struct timeval Tv;
  Tv.tv_sec = static_cast<time_t>(Seconds);
  Tv.tv_usec = static_cast<suseconds_t>(
      std::lround((Seconds - std::floor(Seconds)) * 1e6));
  return Tv;
}

} // namespace

bool net::isTimeoutError(const Error &E) {
  const std::string &M = E.message();
  return M.compare(0, std::strlen(TimeoutPrefix), TimeoutPrefix) == 0;
}

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Error Socket::setNonBlocking(bool On) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0)
    return errnoError("fcntl(F_GETFL)");
  if (On)
    Flags |= O_NONBLOCK;
  else
    Flags &= ~O_NONBLOCK;
  if (::fcntl(Fd, F_SETFL, Flags) < 0)
    return errnoError("fcntl(F_SETFL)");
  return Error::success();
}

Error Socket::setTimeout(double Seconds) {
  struct timeval Tv = timevalFor(Seconds);
  if (::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv)) < 0)
    return errnoError("setsockopt(SO_RCVTIMEO)");
  if (::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv)) < 0)
    return errnoError("setsockopt(SO_SNDTIMEO)");
  return Error::success();
}

Error Socket::setSendTimeout(double Seconds) {
  struct timeval Tv = timevalFor(Seconds);
  if (::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv)) < 0)
    return errnoError("setsockopt(SO_SNDTIMEO)");
  return Error::success();
}

Error Socket::sendAll(const uint8_t *Data, size_t N) {
  size_t Off = 0;
  while (Off < N) {
    ssize_t W = ::send(Fd, Data + Off, N - Off, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return Error::make(formatString(
            "%ssend stalled %zu/%zu bytes (SO_SNDTIMEO expired)",
            TimeoutPrefix, Off, N));
      return errnoError("send");
    }
    if (W == 0)
      return Error::make("send: connection closed");
    Off += static_cast<size_t>(W);
  }
  return Error::success();
}

long Socket::recvSome(uint8_t *Buf, size_t Max, std::string &Err) {
  for (;;) {
    ssize_t R = ::recv(Fd, Buf, Max, 0);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return -2;
      Err = std::strerror(errno);
      return -1;
    }
    return R;
  }
}

Expected<Socket> net::tcpListen(uint16_t Port, uint16_t &BoundPort) {
  Socket S(::socket(AF_INET, SOCK_STREAM, 0));
  if (!S.valid())
    return errnoError("socket(AF_INET)");
  int One = 1;
  ::setsockopt(S.fd(), SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return errnoError("bind");
  if (::listen(S.fd(), 64) < 0)
    return errnoError("listen");

  socklen_t Len = sizeof(Addr);
  if (::getsockname(S.fd(), reinterpret_cast<sockaddr *>(&Addr), &Len) < 0)
    return errnoError("getsockname");
  BoundPort = ntohs(Addr.sin_port);
  return S;
}

Expected<Socket> net::tcpConnect(const std::string &Host, uint16_t Port) {
  Socket S(::socket(AF_INET, SOCK_STREAM, 0));
  if (!S.valid())
    return errnoError("socket(AF_INET)");

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1)
    return Error::make(formatString("bad IPv4 address '%s'", Host.c_str()));
  if (::connect(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0)
    return errnoError("connect");
  int One = 1;
  ::setsockopt(S.fd(), IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return S;
}

Expected<Socket> net::unixListen(const std::string &Path) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path))
    return Error::make(formatString("unix socket path too long (%zu bytes)",
                                    Path.size()));
  Socket S(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!S.valid())
    return errnoError("socket(AF_UNIX)");
  ::unlink(Path.c_str());
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::bind(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return errnoError("bind(unix)");
  if (::listen(S.fd(), 64) < 0)
    return errnoError("listen(unix)");
  return S;
}

Expected<Socket> net::unixConnect(const std::string &Path) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path))
    return Error::make(formatString("unix socket path too long (%zu bytes)",
                                    Path.size()));
  Socket S(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!S.valid())
    return errnoError("socket(AF_UNIX)");
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0)
    return errnoError("connect(unix)");
  return S;
}

Expected<Socket> net::acceptOne(Socket &Listener) {
  for (;;) {
    int Fd = ::accept(Listener.fd(), nullptr, nullptr);
    if (Fd >= 0) {
      Socket S(Fd);
      // Result frames are small and latency-sensitive; without this,
      // Nagle + delayed ACK adds ~40ms stalls to the reply stream.
      // Harmless no-op on unix-domain sockets.
      int One = 1;
      ::setsockopt(S.fd(), IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      return S;
    }
    if (errno == EINTR)
      continue;
    return errnoError("accept");
  }
}
