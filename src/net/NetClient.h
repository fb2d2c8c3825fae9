//===- net/NetClient.h - ExoNet client library -------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Blocking client library for the ExoNet wire protocol: connect, say
/// hello, declare surfaces, submit jobs, and read back Results /
/// surface data / stats. One NetClient owns one connection; calls are
/// synchronous.
///
/// Threading: with Retries == 0 (the default) the send path
/// (surface/submit/runJobs/bye) and the read path (readResult) share no
/// mutable state, so one sender thread plus one reader thread on the
/// same NetClient is safe — but each path belongs to at most one
/// thread, and the request/reply calls (drain, stats, fetch) use both
/// paths and require exclusive use. With Retries > 0 the retry machinery
/// couples both paths (reconnect replaces the socket) and the whole
/// client requires exclusive use by one thread. Many NetClients (each
/// its own connection and server-side identity) may run concurrently.
///
/// Submission is pipelined: submit() only writes the frame, and the
/// matching Result arrives whenever the job reaches a terminal state —
/// possibly interleaved with other frame types, which the library
/// queues internally. Every read honors the socket timeout, so a dead
/// or wedged server surfaces as an Error, never a hang.
///
/// Exactly-once retries (DESIGN.md §17): with Retries > 0 and a nonzero
/// SessionId, the client keeps every unanswered Submit in an
/// outstanding set. A transport fault (timeout, reset, EOF — never a
/// protocol violation) triggers reconnect with capped exponential
/// backoff, a resuming Hello, and a resend of every outstanding Submit
/// with Attempt+1. The server's per-session dedup cache makes the
/// resend safe: a job that already ran is answered from the cache
/// (Replayed = 1), one that is still running is rebound, and only a
/// job the server never saw is admitted fresh. Duplicate Results (wire
/// dup faults) are suppressed by the same outstanding set.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_NET_NETCLIENT_H
#define EXOCHI_NET_NETCLIENT_H

#include "net/NetFault.h"
#include "net/Socket.h"
#include "net/Wire.h"

#include <deque>
#include <map>

namespace exochi {
namespace net {

/// How the last failed NetClient call failed. Retry layers act on
/// Transport only: a Protocol or Server error means the bytes were
/// delivered and understood — resending them cannot help and may harm.
enum class ErrKind : uint8_t {
  None,      ///< no failure recorded
  Transport, ///< timeout, reset, EOF: the network lost bytes, retryable
  Protocol,  ///< malformed or unexpected frames: wire poison, never retry
  Server,    ///< the server answered with an Error frame: never retry
};

const char *errKindName(ErrKind K);

struct NetClientConfig {
  /// Bounds every blocking read and write (the per-call timeout).
  double CallTimeoutSec = 120.0;
  /// Transparent reconnect+resend attempts on a transport fault
  /// (0 = fail fast, the pre-NetChaos behavior).
  unsigned Retries = 0;
  /// Reconnect backoff: min(CapMs, BaseMs << attempt) milliseconds.
  unsigned BackoffBaseMs = 10;
  unsigned BackoffCapMs = 500;
  /// Nonzero: a client-chosen resumable session id — jobs survive a
  /// disconnect server-side and a reconnect with the same id picks
  /// their results up. Zero: an anonymous single-connection session.
  uint64_t SessionId = 0;
  std::string Name = "client";
  /// Optional client-side NetChaos injector (owned by the caller),
  /// probed once per outbound frame.
  NetFault *Fault = nullptr;
};

/// Client-side resilience counters.
struct NetClientStats {
  uint64_t Reconnects = 0;
  uint64_t Resubmits = 0;
  uint64_t DupResultsSuppressed = 0;
};

class NetClient {
public:
  /// Connects and performs the Hello/Welcome handshake. \p TimeoutSec
  /// bounds every subsequent blocking read and write.
  static Expected<NetClient> connectTcp(const std::string &Host, uint16_t Port,
                                        double TimeoutSec = 120.0,
                                        const std::string &Name = "client");
  static Expected<NetClient> connectUnix(const std::string &Path,
                                         double TimeoutSec = 120.0,
                                         const std::string &Name = "client");
  /// Full-configuration variants (retries, session, fault injection).
  static Expected<NetClient> connectTcp(const std::string &Host, uint16_t Port,
                                        const NetClientConfig &Cfg);
  static Expected<NetClient> connectUnix(const std::string &Path,
                                         const NetClientConfig &Cfg);

  NetClient(NetClient &&) = default;
  NetClient &operator=(NetClient &&) = default;

  /// The server-assigned identity (ExoServe ClientId for quotas).
  uint32_t clientId() const { return ClientId; }
  /// 1 when the last (re)connect resumed an existing server session.
  bool resumed() const { return LastResumed != 0; }

  /// How the last failed call failed (None after successes are not
  /// guaranteed — check only after an error).
  ErrKind lastErrorKind() const { return LastKind; }

  const NetClientStats &clientStats() const { return CStats; }

  /// Declares or updates a named surface (no acknowledgement: protocol
  /// errors arrive as an Error frame on the next read). With retries
  /// the declaration is remembered and replayed when a reconnect lands
  /// on a server that lost the session.
  Error surface(const wire::SurfaceMsg &M);

  /// Submits one job; the Result arrives asynchronously (readResult).
  /// With retries the Submit is tracked until its Result is read.
  Error submit(const wire::SubmitMsg &M);

  /// Asks the server to run up to \p MaxJobs (0 = all) of this client's
  /// held jobs now.
  Error runJobs(uint32_t MaxJobs = 0);

  /// Blocks until the next Result frame for this client (FIFO across
  /// this connection's jobs in terminal order). Transport faults are
  /// retried transparently (reconnect + resend of outstanding Submits)
  /// up to Retries times per call.
  Expected<wire::ResultMsg> readResult();

  /// Drains the server; returns the DrainSummary JSON. Results for
  /// still-queued jobs arrive first and are queued for readResult().
  Expected<std::string> drain(bool Cancel = false);

  /// Combined serve+net stats JSON.
  Expected<std::string> stats();

  /// Reads back a named surface's contents.
  Expected<wire::SurfaceDataMsg> fetch(const std::string &Name);

  /// Orderly goodbye (the server closes the connection — and destroys
  /// the session, even a resumable one). Never retried.
  Error bye();

private:
  explicit NetClient(NetClientConfig Cfg) : Cfg(std::move(Cfg)) {}

  /// Where to (re)connect.
  struct Target {
    bool IsUnix = false;
    std::string Host;
    uint16_t Port = 0;
    std::string Path;
  };

  static Expected<NetClient> establish(NetClient C);

  /// One outbound frame: the client-side NetChaos probe site, then
  /// sendAll. Injected faults surface as later transport errors, never
  /// as immediate failures.
  Error sendFrame(wire::MsgType T, std::vector<uint8_t> Frame);
  /// Dials Target, handshakes (resuming Hello when SessionId is set).
  Error dial();
  /// Reconnect with capped exponential backoff, then replay state:
  /// surfaces if the server lost the session, every outstanding Submit
  /// with Attempt+1.
  Error recover();
  Error replayState();
  /// False for a Result no outstanding Submit is waiting on (a wire
  /// duplicate): suppressed, counted.
  bool acceptResult(const wire::ResultMsg &R);

  Error fail(ErrKind K, Error E) {
    LastKind = K;
    return E;
  }

  /// Blocks for the next frame on the wire (timeout-bounded).
  Expected<wire::Frame> readFrame();
  /// Blocks until a frame of type \p Want arrives; Result frames seen on
  /// the way are queued, an Error frame becomes an Error return.
  Expected<wire::Frame> expect(wire::MsgType Want);
  /// A request/reply exchange (drain/stats/fetch) with transport-fault
  /// retry: reconnect and resend the request, never resend on protocol
  /// or server errors.
  Expected<wire::Frame> requestReply(wire::MsgType ReqType,
                                     const std::vector<uint8_t> &Req,
                                     wire::MsgType Want);

  NetClientConfig Cfg;
  Target Targ;
  Socket Sock;
  wire::FrameParser In;
  /// readFrame's receive buffer (reader side only), allocated once.
  std::vector<uint8_t> RecvBuf = std::vector<uint8_t>(64 * 1024);
  std::deque<wire::ResultMsg> Results; ///< Results read while expecting
  /// tag -> the Submit to replay on reconnect (Retries > 0 only).
  std::map<uint64_t, wire::SubmitMsg> Outstanding;
  /// Declared surfaces, replayed when a reconnect is not resumed.
  std::vector<wire::SurfaceMsg> SurfaceCache;
  NetClientStats CStats;
  uint32_t ClientId = 0;
  uint8_t LastResumed = 0;
  ErrKind LastKind = ErrKind::None;
};

} // namespace net
} // namespace exochi

#endif // EXOCHI_NET_NETCLIENT_H
