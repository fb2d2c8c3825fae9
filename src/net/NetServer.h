//===- net/NetServer.h - The ExoNet socket front end -------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExoNetServer: a poll-based TCP / unix-domain socket front end over
/// serve::Server (DESIGN.md §13). One thread owns the event loop, the
/// admission queue, and the device — frames from many concurrent
/// clients are serialized into the same deterministic submission
/// sequence ExoServe has always consumed.
///
/// Responsibilities:
///  - accept multiple clients, each with a server-assigned identity
///    that becomes the ExoServe ClientId (quotas are per session);
///  - translate Submit frames into serve::Server::submit calls and
///    stream every job's terminal answer (including machine-readable
///    rejection reasons) back as Result frames;
///  - backpressure: while serve::Server::acceptingFrom(client) is
///    false the client's socket is simply not read — bytes pile up in
///    the kernel's TCP buffers and eventually block the sender, instead
///    of the server buffering unboundedly or shedding work it could
///    have answered later;
///  - request coalescing: with CoalesceWindow > 1, compatible
///    same-kernel jobs queued together are merged into one multi-shred
///    dispatch (serve::Server::runNextBatch) and their results
///    demultiplexed per client;
///  - exactly-once answers (DESIGN.md §17): every terminal answer is
///    cached per (session, tag) in a bounded FIFO dedup cache, so a
///    retried Submit whose original already completed is answered from
///    the cache (Replayed = 1) without ever re-entering admission — it
///    cannot re-count against the quota or join a batch. A retry whose
///    original is still in flight simply rebinds the answer to the new
///    connection. Resumable sessions (wire::HelloResumable) survive an
///    abrupt disconnect: their jobs keep running, results land in the
///    cache, and a reconnect with the same session id picks them up;
///  - output batching: frames only append to the connection's buffer,
///    and the loop sends each connection's pending bytes at two flush
///    points per turn — one send() per connection, not one per frame;
///  - NetChaos (net/NetFault.h): an armed injector perturbs every
///    outbound frame — drop / truncate+close / stall / duplicate /
///    disconnect — on a seeded deterministic schedule. Disarmed, the
///    probe is one branch per frame;
///  - reject malformed frames with a reason and close the offending
///    connection — never crash, never hang, never poison other
///    clients.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_NET_NETSERVER_H
#define EXOCHI_NET_NETSERVER_H

#include "net/NetFault.h"
#include "net/Socket.h"
#include "net/Wire.h"
#include "serve/Server.h"
#include "support/Json.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <list>
#include <map>
#include <optional>
#include <poll.h>
#include <set>

namespace exochi {
namespace net {

struct NetServerConfig {
  serve::ServerConfig Serve;
  /// Maximum jobs merged into one dispatch (1 = coalescing off).
  unsigned CoalesceWindow = 1;
  /// Gate socket reads on serve::Server::acceptingFrom. Off, overload
  /// is answered by admission rejections instead (PR 5 semantics, used
  /// by the deterministic replay soak).
  bool Backpressure = true;
  /// Leave the event loop once a Drain frame has been served and every
  /// client has disconnected (exochi-run --listen uses this so a
  /// client-issued drain terminates the process cleanly while the
  /// drainer can still fetch surfaces and stats first).
  bool ExitOnDrain = false;
  size_t ReadChunkBytes = 64 * 1024;
  size_t MaxConns = 64;
  /// Terminal answers remembered per session for retry replay. FIFO
  /// eviction: an evicted tag's retry is indistinguishable from a new
  /// job and re-executes — the cache bound is also the exactly-once
  /// window (DESIGN.md §17).
  size_t DedupCacheCap = 256;
  /// Resumable sessions allowed to linger with no connection. Beyond
  /// this the oldest detached session is destroyed (jobs cancelled,
  /// cache freed) so crashed-and-gone clients cannot pin the server.
  size_t MaxDetachedSessions = 8;
  /// Optional seeded wire-fault injector (NetChaos), owned by the
  /// caller. Probed once per outbound frame; null or disarmed costs
  /// one branch.
  NetFault *Fault = nullptr;
};

/// Transport-level counters (the serve-level ones live in ServeStats).
struct NetStats {
  uint64_t Accepted = 0;
  uint64_t Closed = 0;
  uint64_t FramesIn = 0;
  uint64_t FramesOut = 0;
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t Malformed = 0;      ///< connections killed by bad frames
  uint64_t BackpressureStalls = 0; ///< poll rounds a client went unread
  uint64_t ResultsDropped = 0; ///< results whose session had vanished
  // Exactly-once / NetChaos counters (PR 10).
  uint64_t RetrySubmits = 0;   ///< Submit frames with Attempt > 0
  uint64_t DedupReplays = 0;   ///< retries answered from the cache
  uint64_t DedupEvictions = 0; ///< cached answers evicted (FIFO bound)
  uint64_t InFlightRebinds = 0; ///< retries whose original still runs
  uint64_t SessionsResumed = 0; ///< Hello reattached to a live session
  uint64_t SessionsEvicted = 0; ///< detached sessions destroyed (bound)
  uint64_t ResultsCachedDetached = 0; ///< results held for a reconnect
  uint64_t FaultsInjected = 0; ///< outbound frames perturbed by NetChaos

  static constexpr auto jsonFields() {
    using S = NetStats;
    return json::fields(
        "accepted", &S::Accepted, "closed", &S::Closed,
        "frames_in", &S::FramesIn, "frames_out", &S::FramesOut,
        "bytes_in", &S::BytesIn, "bytes_out", &S::BytesOut,
        "malformed", &S::Malformed,
        "backpressure_stalls", &S::BackpressureStalls,
        "results_dropped", &S::ResultsDropped,
        "retry_submits", &S::RetrySubmits, "dedup_replays", &S::DedupReplays,
        "dedup_evictions", &S::DedupEvictions,
        "inflight_rebinds", &S::InFlightRebinds,
        "sessions_resumed", &S::SessionsResumed,
        "sessions_evicted", &S::SessionsEvicted,
        "results_cached_detached", &S::ResultsCachedDetached,
        "faults_injected", &S::FaultsInjected);
  }
};

class NetServer {
public:
  /// Binds to \p RT like serve::Server does; the injector (optional)
  /// feeds breaker signals exactly as in the in-process stack.
  NetServer(chi::Runtime &RT, NetServerConfig Config = {},
            fault::FaultInjector *Inj = nullptr);
  ~NetServer();

  NetServer(const NetServer &) = delete;
  NetServer &operator=(const NetServer &) = delete;

  /// Listens on 127.0.0.1:\p Port (0 = ephemeral); returns the bound
  /// port. May be combined with listenUnix — the loop serves both.
  /// All listeners must be set up before run() starts: the loop reads
  /// the listener list without locks, so both calls fail once the loop
  /// is live.
  Expected<uint16_t> listenTcp(uint16_t Port);
  /// Listens on a unix-domain socket at \p Path.
  Error listenUnix(const std::string &Path);

  /// Runs the event loop until stop() (thread-safe) or — with
  /// ExitOnDrain — until a drain has been served and flushed. Everything
  /// except stop() happens on the calling thread; stats accessors are
  /// only meaningful once run() has returned.
  void run();
  void stop();

  const NetStats &netStats() const { return Net; }
  const serve::Server &server() const { return Srv; }
  /// One JSON object combining ServeStats and NetStats.
  std::string statsJson() const;

private:
  struct SurfaceRec {
    uint32_t Desc = 0;
    mem::VirtAddr Base = 0;
    uint32_t W = 0, H = 1;
    uint8_t Mode = 2;
  };

  struct Conn;

  /// The client-visible identity: quota, surfaces, and exactly-once
  /// state all hang off the session, not the socket, so a resumable
  /// session survives its connection.
  struct Session {
    uint64_t WireId = 0;   ///< client-chosen id (0 = anonymous)
    uint32_t ClientId = 0; ///< the ExoServe admission identity
    bool Resumable = false;
    Conn *Attached = nullptr; ///< null while detached
    uint64_t DetachSeq = 0; ///< eviction order among detached sessions
    std::map<std::string, SurfaceRec> Surfaces;
    /// tag -> terminal answer, FIFO-bounded by DedupCacheCap.
    std::map<uint64_t, wire::ResultMsg> Cache;
    std::deque<uint64_t> CacheOrder;
    /// Tags submitted but not yet terminal: a retry of one of these
    /// must not re-admit.
    std::set<uint64_t> InFlight;
  };

  /// A frame held back by a Stall fault (and everything queued behind
  /// it — per-connection frame order is never reordered by a stall).
  struct DelayedFrame {
    std::vector<uint8_t> Bytes;
    std::chrono::steady_clock::time_point ReleaseAt;
  };

  struct Conn {
    Socket Sock;
    Session *Sess = nullptr; ///< set by the Hello handshake
    wire::FrameParser In;
    std::vector<uint8_t> Out;
    size_t OutOff = 0;
    bool SaidHello = false;
    bool SaidBye = false; ///< clean goodbye: destroy even a resumable session
    bool Closing = false; ///< flush Out, then close
    /// A Submit frame parked because the client's admission quota is
    /// exhausted (backpressure). Later frames wait behind it in the
    /// parser so per-connection order is preserved; while it is parked
    /// the socket goes unread and TCP pushes back on the sender.
    std::optional<wire::Frame> Deferred;
    /// Frames held back by Stall faults, in send order.
    std::deque<DelayedFrame> Delayed;
  };

  struct PendingJob {
    uint32_t ClientId = 0;
    uint64_t Tag = 0;
    bool Hold = false;
  };

  void acceptClients(Socket &Listener);
  /// Reads one chunk off the socket into the frame parser.
  void serviceRead(Conn &C);
  /// Handles parked + parsed frames in order, stopping at a Submit the
  /// admission quota cannot take yet (it parks in Conn::Deferred).
  void pumpFrames(Conn &C);
  void pumpAll();
  void handleFrame(Conn &C, const wire::Frame &F);
  void handleHello(Conn &C, const wire::HelloMsg &M);
  void handleSubmit(Conn &C, const std::vector<uint8_t> &Body);
  /// Declare-or-update a per-session surface.
  Error ensureSurface(Conn &C, const wire::SurfaceMsg &M);
  void fillSurface(const SurfaceRec &Rec, const wire::SurfaceMsg &M);

  /// Appends a frame to the connection's outgoing buffer; run() sends
  /// it at the turn's next flush point. The NetChaos probe site: an
  /// armed injector may drop, truncate, stall, duplicate, or
  /// disconnect-after this frame.
  void queueFrame(Conn &C, wire::MsgType T, std::vector<uint8_t> Frame);
  /// The post-fault enqueue path (also used to release stalled frames).
  void enqueueBytes(Conn &C, std::vector<uint8_t> Frame);
  /// Moves Delayed frames whose release time has passed into Out.
  void releaseDelayed(Conn &C);
  /// Non-blocking send of the connection's pending bytes; on EAGAIN the
  /// rest waits for POLLOUT.
  void flushOut(Conn &C);
  /// flushOut for every connection with pending bytes.
  void flushAll();
  /// Sends a protocol Error frame and marks the connection closing.
  void protocolError(Conn &C, const std::string &Reason);

  /// Remembers \p R as the one terminal answer for its tag (FIFO
  /// eviction at DedupCacheCap) and clears the tag's in-flight mark.
  void cacheResult(Session &S, const wire::ResultMsg &R);
  /// Streams Result frames for every pending job that reached a
  /// terminal state (called after every submit / run / drain step).
  void sweepResults();
  /// Runs at most one autonomous (non-held) batch.
  void runAutonomous();
  bool wantRead(const Conn &C);
  Session *sessionByClient(uint32_t ClientId);
  /// Cancels the session's jobs and erases it everywhere.
  void destroySession(Session *S);
  /// Destroys the oldest detached sessions beyond MaxDetachedSessions.
  void evictDetached();

  chi::Runtime &RT;
  NetServerConfig Config;
  serve::Server Srv;
  std::vector<Socket> Listeners;
  std::string UnixPath; ///< unlinked on destruction
  std::list<Conn> Conns;
  std::list<Session> Sessions;
  std::map<uint64_t, Session *> ByWireId; ///< resumable sessions only
  std::map<uint32_t, Session *> ByClient;
  std::map<serve::JobId, PendingJob> Pending;
  std::set<serve::JobId> Held;
  NetStats Net;
  uint32_t NextClientId = 1;
  uint64_t DetachCounter = 0;
  bool Drained = false;
  std::atomic<bool> Running{false};
  int WakeR = -1, WakeW = -1; ///< self-pipe: stop() wakes poll()
  /// Loop-thread scratch reused every turn: the poll set, the
  /// connections behind its entries, and the receive buffer.
  std::vector<pollfd> PollFds;
  std::vector<Conn *> Polled;
  std::vector<uint8_t> RecvBuf;
};

} // namespace net
} // namespace exochi

#endif // EXOCHI_NET_NETSERVER_H
