//===- net/Socket.h - Minimal RAII sockets for ExoNet ------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thin RAII wrapper over POSIX stream sockets plus the four
/// connection helpers ExoNet needs: TCP listen/connect on 127.0.0.1 and
/// unix-domain listen/connect. No external dependencies — everything is
/// plain <sys/socket.h>, which the container toolchain always has.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_NET_SOCKET_H
#define EXOCHI_NET_SOCKET_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace exochi {
namespace net {

/// Move-only owner of one socket fd.
class Socket {
public:
  Socket() = default;
  explicit Socket(int Fd) : Fd(Fd) {}
  ~Socket() { close(); }

  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;
  Socket(Socket &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  Socket &operator=(Socket &&O) noexcept {
    if (this != &O) {
      close();
      Fd = O.Fd;
      O.Fd = -1;
    }
    return *this;
  }

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }
  void close();

  /// Sets O_NONBLOCK.
  Error setNonBlocking(bool On);
  /// Arms SO_RCVTIMEO/SO_SNDTIMEO (0 disables). Blocking reads/writes
  /// then fail instead of hanging — the client library's no-hang
  /// backstop.
  Error setTimeout(double Seconds);
  /// Arms only SO_SNDTIMEO (0 disables), leaving the receive timeout
  /// alone. A server streaming Results to a stalled peer must not hang
  /// in sendAll, but its reads are poll-driven and need no deadline.
  Error setSendTimeout(double Seconds);

  /// Writes all of \p Data (blocking; retries on EINTR / partial send).
  /// With SO_SNDTIMEO armed, a peer that stops draining makes this fail
  /// with a timeout error — recognizable via isTimeoutError() — instead
  /// of blocking forever.
  Error sendAll(const uint8_t *Data, size_t N);
  Error sendAll(const std::vector<uint8_t> &Data) {
    return sendAll(Data.data(), Data.size());
  }

  /// One recv() of at most \p Max bytes into the caller's \p Buf.
  /// Returns the byte count, 0 on orderly EOF; -1 with \p Err set on
  /// failure, or -2 when the socket is non-blocking and no data is ready.
  long recvSome(uint8_t *Buf, size_t Max, std::string &Err);

private:
  int Fd = -1;
};

/// Listens on 127.0.0.1:\p Port (0 = ephemeral). On success returns the
/// listening socket and stores the bound port in \p BoundPort.
Expected<Socket> tcpListen(uint16_t Port, uint16_t &BoundPort);

/// Connects to \p Host:\p Port.
Expected<Socket> tcpConnect(const std::string &Host, uint16_t Port);

/// Listens on the unix-domain socket at \p Path (unlinks a stale one).
Expected<Socket> unixListen(const std::string &Path);

/// Connects to the unix-domain socket at \p Path.
Expected<Socket> unixConnect(const std::string &Path);

/// accept() returning an owned socket (nullopt on transient failure).
Expected<Socket> acceptOne(Socket &Listener);

/// True when \p E is a socket-timeout failure (an armed SO_SNDTIMEO /
/// SO_RCVTIMEO expired). Error carries only a message, so the timeout
/// "type" is a stable prefix this predicate owns; retry layers use it
/// to tell a slow peer (transport fault, retryable) from a protocol
/// violation (never retryable).
bool isTimeoutError(const Error &E);

} // namespace net
} // namespace exochi

#endif // EXOCHI_NET_SOCKET_H
