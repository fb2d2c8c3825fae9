//===- net/NetServer.cpp -------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "net/NetServer.h"

#include "support/Format.h"

#include <algorithm>
#include <iterator>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

// A peer's close() arrives as readable-EOF (POLLIN), which a parked
// connection masks out; POLLRDHUP is the event that still fires. Glibc
// exposes it under _GNU_SOURCE (implied by g++); elsewhere fall back to
// 0, degrading to the POLLHUP/POLLERR paths.
#ifndef POLLRDHUP
#define POLLRDHUP 0
#endif

using namespace exochi;
using namespace exochi::net;

NetServer::NetServer(chi::Runtime &RT, NetServerConfig Config,
                     fault::FaultInjector *Inj)
    : RT(RT), Config(Config), Srv(RT, Config.Serve, Inj),
      RecvBuf(Config.ReadChunkBytes) {
  int Pipe[2] = {-1, -1};
  if (::pipe(Pipe) == 0) {
    WakeR = Pipe[0];
    WakeW = Pipe[1];
    // Both ends non-blocking: the drain loop in run() reads until
    // EAGAIN, and a full pipe must never block stop().
    ::fcntl(WakeR, F_SETFL, O_NONBLOCK);
    ::fcntl(WakeW, F_SETFL, O_NONBLOCK);
  }
}

NetServer::~NetServer() {
  if (WakeR >= 0)
    ::close(WakeR);
  if (WakeW >= 0)
    ::close(WakeW);
  if (!UnixPath.empty())
    ::unlink(UnixPath.c_str());
}

Expected<uint16_t> NetServer::listenTcp(uint16_t Port) {
  if (Running.load(std::memory_order_relaxed))
    return Error::make("cannot add a listener while the loop is running");
  uint16_t Bound = 0;
  auto L = tcpListen(Port, Bound);
  if (!L)
    return L.takeError();
  if (Error E = L->setNonBlocking(true))
    return E;
  Listeners.push_back(std::move(*L));
  return Bound;
}

Error NetServer::listenUnix(const std::string &Path) {
  if (Running.load(std::memory_order_relaxed))
    return Error::make("cannot add a listener while the loop is running");
  auto L = unixListen(Path);
  if (!L)
    return L.takeError();
  if (Error E = L->setNonBlocking(true))
    return E;
  Listeners.push_back(std::move(*L));
  UnixPath = Path;
  return Error::success();
}

void NetServer::stop() {
  Running.store(false, std::memory_order_relaxed);
  if (WakeW >= 0) {
    uint8_t B = 1;
    while (::write(WakeW, &B, 1) < 0 && errno == EINTR)
      ;
  }
}

NetServer::Session *NetServer::sessionByClient(uint32_t ClientId) {
  auto It = ByClient.find(ClientId);
  return It == ByClient.end() ? nullptr : It->second;
}

bool NetServer::wantRead(const Conn &C) {
  if (C.Closing || C.In.poisoned())
    return false;
  // Backpressure: once a Submit is parked on the quota, stop reading
  // the socket — frames already buffered wait behind the parked one and
  // TCP pushes back on the sender instead of the server buffering
  // unboundedly.
  if (C.Deferred) {
    ++Net.BackpressureStalls;
    return false;
  }
  return true;
}

void NetServer::flushOut(Conn &C) {
  while (C.OutOff < C.Out.size()) {
    long K = ::send(C.Sock.fd(), C.Out.data() + C.OutOff,
                    C.Out.size() - C.OutOff, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (K > 0) {
      C.OutOff += static_cast<size_t>(K);
      Net.BytesOut += static_cast<uint64_t>(K);
      continue;
    }
    if (K < 0 && errno == EINTR)
      continue;
    if (K < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return; // poll for POLLOUT
    // Peer vanished mid-write: close without retry.
    C.Closing = true;
    C.Out.clear();
    C.OutOff = 0;
    C.Delayed.clear();
    return;
  }
  C.Out.clear();
  C.OutOff = 0;
}

void NetServer::flushAll() {
  for (Conn &C : Conns)
    if (C.OutOff < C.Out.size())
      flushOut(C);
}

void NetServer::enqueueBytes(Conn &C, std::vector<uint8_t> Frame) {
  if (!C.Delayed.empty()) {
    // Frames never overtake a stalled predecessor: queue behind it and
    // release together, preserving per-connection frame order.
    C.Delayed.push_back({std::move(Frame), C.Delayed.back().ReleaseAt});
    return;
  }
  C.Out.insert(C.Out.end(), Frame.begin(), Frame.end());
}

void NetServer::releaseDelayed(Conn &C) {
  auto Now = std::chrono::steady_clock::now();
  while (!C.Delayed.empty() && C.Delayed.front().ReleaseAt <= Now) {
    DelayedFrame &F = C.Delayed.front();
    C.Out.insert(C.Out.end(), F.Bytes.begin(), F.Bytes.end());
    C.Delayed.pop_front();
  }
}

void NetServer::queueFrame(Conn &C, wire::MsgType T,
                           std::vector<uint8_t> Frame) {
  ++Net.FramesOut;
  NetFault *FI = Config.Fault;
  // The server-side NetChaos probe site: one branch when disarmed.
  if (FI && FI->armed() && C.Sess) {
    uint64_t Stream = C.Sess->WireId ? C.Sess->WireId : C.Sess->ClientId;
    if (auto K = FI->decide(Stream, T)) {
      ++Net.FaultsInjected;
      switch (*K) {
      case NetFaultKind::Drop:
        return; // the frame is never sent
      case NetFaultKind::Truncate:
        // Send a prefix, then close: the peer sees a partial frame +
        // EOF — a transport error, never parser poison.
        Frame.resize(Frame.size() / 2);
        enqueueBytes(C, std::move(Frame));
        C.Closing = true;
        return;
      case NetFaultKind::Stall: {
        auto Release =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(
                static_cast<long>(FI->stallMs() * 1000.0));
        if (!C.Delayed.empty() && C.Delayed.back().ReleaseAt > Release)
          Release = C.Delayed.back().ReleaseAt;
        C.Delayed.push_back({std::move(Frame), Release});
        return;
      }
      case NetFaultKind::Dup:
        ++Net.FramesOut;
        enqueueBytes(C, Frame);
        enqueueBytes(C, std::move(Frame));
        return;
      case NetFaultKind::Disconnect:
        // The frame is delivered, then the connection force-closes.
        enqueueBytes(C, std::move(Frame));
        C.Closing = true;
        return;
      }
    }
  }
  enqueueBytes(C, std::move(Frame));
}

void NetServer::protocolError(Conn &C, const std::string &Reason) {
  ++Net.Malformed;
  queueFrame(C, wire::MsgType::Error, wire::encode(wire::ErrorMsg{Reason}));
  C.Closing = true;
}

void NetServer::fillSurface(const SurfaceRec &Rec, const wire::SurfaceMsg &M) {
  exo::ExoPlatform &P = RT.platform();
  uint64_t Elems = static_cast<uint64_t>(Rec.W) * Rec.H;
  switch (M.Fill) {
  case wire::SurfaceFill::Data:
    P.write(Rec.Base, M.Data.data(), M.Data.size());
    break;
  case wire::SurfaceFill::Zero:
    for (uint64_t E = 0; E < Elems; ++E)
      P.store<uint32_t>(Rec.Base + E * 4, 0);
    break;
  case wire::SurfaceFill::Seq:
    for (uint64_t E = 0; E < Elems; ++E)
      P.store<uint32_t>(Rec.Base + E * 4, static_cast<uint32_t>(E));
    break;
  }
}

Error NetServer::ensureSurface(Conn &C, const wire::SurfaceMsg &M) {
  Session &S = *C.Sess;
  auto It = S.Surfaces.find(M.Name);
  if (It == S.Surfaces.end()) {
    uint64_t Bytes = static_cast<uint64_t>(M.Width) * M.Height * 4;
    if (!RT.platform().canAllocateShared(Bytes))
      return Error::make(formatString(
          "no room below 4 GiB for surface '%s'", M.Name.c_str()));
    exo::SharedBuffer Buf = RT.platform().allocateShared(
        Bytes, formatString("net:c%u:%s", S.ClientId, M.Name.c_str()));
    auto Desc = RT.allocDesc(chi::TargetIsa::X3000, Buf.Base,
                             static_cast<chi::SurfaceMode>(M.Mode), M.Width,
                             M.Height);
    if (!Desc)
      return Desc.takeError();
    It = S.Surfaces
             .emplace(M.Name,
                      SurfaceRec{*Desc, Buf.Base, M.Width, M.Height, M.Mode})
             .first;
  } else if (It->second.W != M.Width || It->second.H != M.Height) {
    // Reshape would invalidate the descriptor queued jobs already bind.
    return Error::make(formatString(
        "surface '%s' is %ux%u; redeclaring as %ux%u is a protocol error",
        M.Name.c_str(), It->second.W, It->second.H, M.Width, M.Height));
  }
  fillSurface(It->second, M);
  return Error::success();
}

void NetServer::cacheResult(Session &S, const wire::ResultMsg &R) {
  S.InFlight.erase(R.Tag);
  if (S.Cache.count(R.Tag))
    return; // exactly one terminal answer per tag
  if (Config.DedupCacheCap == 0)
    return;
  while (S.Cache.size() >= Config.DedupCacheCap) {
    // FIFO eviction: the bound is the exactly-once window — a retry of
    // an evicted tag re-executes as a fresh job (DESIGN.md §17).
    S.Cache.erase(S.CacheOrder.front());
    S.CacheOrder.pop_front();
    ++Net.DedupEvictions;
  }
  S.Cache[R.Tag] = R;
  S.CacheOrder.push_back(R.Tag);
}

void NetServer::handleHello(Conn &C, const wire::HelloMsg &M) {
  if (M.WireVersion != wire::Version) {
    protocolError(C, formatString("wire version %u not supported (want %u)",
                                  M.WireVersion, wire::Version));
    return;
  }
  if (C.SaidHello) {
    // A duplicated handshake frame (wire-level dup): re-welcome with
    // the same identity, change nothing.
    queueFrame(C, wire::MsgType::Welcome,
               wire::encode(
                   wire::WelcomeMsg{wire::Version, C.Sess->ClientId, 0}));
    return;
  }
  bool Resumable = (M.Flags & wire::HelloResumable) != 0;
  if (M.SessionId != 0 && !Resumable) {
    protocolError(C, "session id requires the resumable flag");
    return;
  }
  if (Resumable) {
    if (auto It = ByWireId.find(M.SessionId); It != ByWireId.end()) {
      Session &S = *It->second;
      if (Conn *Old = S.Attached; Old && Old != &C) {
        // The stale attachment loses: a client only re-hellos when it
        // believes its old connection is dead. Its unsent frames are
        // dropped — retries replay them from the dedup cache.
        Old->Sess = nullptr;
        Old->Closing = true;
        Old->Deferred.reset();
        Old->Delayed.clear();
      }
      S.Attached = &C;
      C.Sess = &S;
      C.SaidHello = true;
      ++Net.SessionsResumed;
      queueFrame(C, wire::MsgType::Welcome,
                 wire::encode(wire::WelcomeMsg{wire::Version, S.ClientId, 1}));
      return;
    }
  }
  Sessions.emplace_back();
  Session &S = Sessions.back();
  S.WireId = M.SessionId;
  S.ClientId = NextClientId++;
  S.Resumable = Resumable;
  S.Attached = &C;
  ByClient[S.ClientId] = &S;
  if (Resumable)
    ByWireId[S.WireId] = &S;
  C.Sess = &S;
  C.SaidHello = true;
  queueFrame(C, wire::MsgType::Welcome,
             wire::encode(wire::WelcomeMsg{wire::Version, S.ClientId, 0}));
}

void NetServer::handleSubmit(Conn &C, const std::vector<uint8_t> &Body) {
  auto M = wire::decodeSubmit(Body);
  if (!M) {
    protocolError(C, "bad submit: " + M.message());
    return;
  }
  Session &S = *C.Sess;
  if (M->Attempt > 0)
    ++Net.RetrySubmits;

  // Exactly-once: one terminal answer per (session, tag). A tag whose
  // answer is cached is replayed — regardless of Attempt, which also
  // absorbs wire-level duplicates of the first send — without ever
  // reaching Srv.submit: a replay never re-counts against the quota
  // and never joins a batch.
  if (auto It = S.Cache.find(M->Tag); It != S.Cache.end()) {
    wire::ResultMsg R = It->second;
    R.Replayed = 1;
    ++Net.DedupReplays;
    queueFrame(C, wire::MsgType::Result, wire::encode(R));
    return;
  }
  if (S.InFlight.count(M->Tag)) {
    // The original was admitted and is still running; its Result will
    // route to whatever connection the session has when it lands.
    ++Net.InFlightRebinds;
    return;
  }

  // Pre-admission failures (upload/bind problems) are answered with a
  // Failed Result carrying the reason and JobId 0 — the job never
  // existed server-side, but the client still gets a terminal answer
  // for its tag, and the answer is cached like any other.
  auto failNow = [&](const std::string &Why) {
    wire::ResultMsg R;
    R.Tag = M->Tag;
    R.JobId = 0;
    R.State = static_cast<uint8_t>(serve::JobState::Failed);
    R.Error = Why;
    cacheResult(S, R);
    queueFrame(C, wire::MsgType::Result, wire::encode(R));
  };

  for (const wire::SurfaceMsg &U : M->Uploads)
    if (Error E = ensureSurface(C, U)) {
      failNow(E.message());
      return;
    }

  serve::JobSpec Spec;
  Spec.ClientId = S.ClientId;
  Spec.Pri = static_cast<serve::Priority>(M->Pri);
  Spec.DeadlineCycles = M->DeadlineCycles;
  Spec.ExpiresAtUnixNs = M->ExpiresAtUnixNs;
  Spec.Region.KernelName = M->Kernel;
  Spec.Region.NumThreads = M->Shreds;
  for (const std::string &Name : M->Bind) {
    auto It = S.Surfaces.find(Name);
    if (It == S.Surfaces.end()) {
      failNow(formatString("unknown surface '%s'", Name.c_str()));
      return;
    }
    Spec.Region.SharedDescs[Name] = It->second.Desc;
  }
  for (const wire::ParamArg &P : M->Params) {
    switch (P.Kind) {
    case wire::ParamKind::Value:
      Spec.Region.Firstprivate[P.Name] = P.Value;
      break;
    case wire::ParamKind::Shred:
      Spec.Region.Private[P.Name] = [](unsigned T) {
        return static_cast<int32_t>(T);
      };
      break;
    case wire::ParamKind::ShredOffset: {
      int32_t Off = P.Value;
      Spec.Region.Private[P.Name] = [Off](unsigned T) {
        return static_cast<int32_t>(T) + Off;
      };
      break;
    }
    }
  }

  serve::Server::SubmitResult Res = Srv.submit(std::move(Spec));
  bool Hold = (M->Flags & wire::SubmitHold) != 0;
  Pending[Res.Id] = PendingJob{S.ClientId, M->Tag, Hold && Res.Admitted};
  S.InFlight.insert(M->Tag);
  if (Res.Admitted && Hold)
    Held.insert(Res.Id);
  // Rejections (and shed victims) are terminal already; the sweep
  // answers them immediately.
  sweepResults();
}

void NetServer::handleFrame(Conn &C, const wire::Frame &F) {
  ++Net.FramesIn;
  if (!C.SaidHello && F.Type != wire::MsgType::Hello) {
    protocolError(C, formatString("expected hello, got %s frame",
                                  wire::msgTypeName(F.Type)));
    return;
  }

  switch (F.Type) {
  case wire::MsgType::Hello: {
    auto M = wire::decodeHello(F.Body);
    if (!M) {
      protocolError(C, "bad hello: " + M.message());
      return;
    }
    handleHello(C, *M);
    return;
  }
  case wire::MsgType::Surface: {
    auto M = wire::decodeSurface(F.Body);
    if (!M) {
      protocolError(C, "bad surface: " + M.message());
      return;
    }
    if (Error E = ensureSurface(C, *M))
      protocolError(C, E.message());
    return;
  }
  case wire::MsgType::Submit:
    handleSubmit(C, F.Body);
    return;
  case wire::MsgType::Run: {
    auto M = wire::decodeRun(F.Body);
    if (!M) {
      protocolError(C, "bad run: " + M.message());
      return;
    }
    // Run up to MaxJobs (0 = all) of the *sender's* held jobs, oldest
    // first, each as a coalescable batch head. Held jobs of other
    // clients stay put: the served schedule is a pure function of each
    // connection's own frame order.
    uint32_t Budget = M->MaxJobs ? M->MaxJobs : ~0u;
    auto Mine = [&](serve::JobId Id) {
      auto It = Pending.find(Id);
      return Held.count(Id) && It != Pending.end() &&
             It->second.ClientId == C.Sess->ClientId;
    };
    while (Budget > 0) {
      std::vector<serve::JobId> Ran =
          Srv.runNextBatch(Config.CoalesceWindow, Mine);
      if (Ran.empty())
        break;
      for (serve::JobId Id : Ran)
        Held.erase(Id);
      Budget -= std::min<uint32_t>(Budget, static_cast<uint32_t>(Ran.size()));
      sweepResults();
    }
    return;
  }
  case wire::MsgType::Drain: {
    auto M = wire::decodeDrain(F.Body);
    if (!M) {
      protocolError(C, "bad drain: " + M.message());
      return;
    }
    serve::DrainSummary D = Srv.drain(M->Cancel != 0);
    Held.clear();
    Drained = true;
    sweepResults();
    queueFrame(C, wire::MsgType::DrainDone,
               wire::encode(wire::DrainDoneMsg{D.toJson()}));
    return;
  }
  case wire::MsgType::StatsReq: {
    queueFrame(C, wire::MsgType::StatsJson,
               wire::encode(wire::StatsJsonMsg{statsJson()}));
    return;
  }
  case wire::MsgType::Fetch: {
    auto M = wire::decodeFetch(F.Body);
    if (!M) {
      protocolError(C, "bad fetch: " + M.message());
      return;
    }
    auto It = C.Sess->Surfaces.find(M->Name);
    if (It == C.Sess->Surfaces.end()) {
      protocolError(C, formatString("unknown surface '%s'", M->Name.c_str()));
      return;
    }
    const SurfaceRec &Rec = It->second;
    wire::SurfaceDataMsg Out;
    Out.Name = M->Name;
    Out.Width = Rec.W;
    Out.Height = Rec.H;
    Out.Data.resize(static_cast<size_t>(Rec.W) * Rec.H * 4);
    RT.platform().read(Rec.Base, Out.Data.data(), Out.Data.size());
    queueFrame(C, wire::MsgType::SurfaceData, wire::encode(Out));
    return;
  }
  case wire::MsgType::Bye:
    // A clean goodbye destroys even a resumable session at reap time.
    C.SaidBye = true;
    C.Closing = true;
    return;
  default:
    protocolError(C, formatString("unexpected %s frame from a client",
                                  wire::msgTypeName(F.Type)));
    return;
  }
}

void NetServer::serviceRead(Conn &C) {
  std::string Err;
  long K = C.Sock.recvSome(RecvBuf.data(), RecvBuf.size(), Err);
  if (K == 0 || K == -1) {
    C.Closing = true; // orderly EOF or a dead peer
    return;
  }
  if (K == -2)
    return; // spurious wakeup
  Net.BytesIn += static_cast<uint64_t>(K);
  C.In.feed(RecvBuf.data(), static_cast<size_t>(K));
  pumpFrames(C);
}

void NetServer::pumpFrames(Conn &C) {
  while (!C.Closing) {
    wire::Frame F;
    if (C.Deferred) {
      // Retry the parked Submit only once the quota has room again;
      // everything behind it keeps waiting so frame order holds.
      if (Config.Backpressure && !Srv.draining() &&
          !Srv.acceptingFrom(C.Sess->ClientId))
        return;
      F = std::move(*C.Deferred);
      C.Deferred.reset();
    } else if (auto N = C.In.next()) {
      F = std::move(*N);
      if (F.Type == wire::MsgType::Submit && Config.Backpressure &&
          C.SaidHello && !Srv.draining() &&
          !Srv.acceptingFrom(C.Sess->ClientId)) {
        C.Deferred = std::move(F);
        return;
      }
    } else {
      break;
    }
    handleFrame(C, F);
  }
  if (!C.Closing && C.In.poisoned())
    protocolError(C, C.In.error());
}

void NetServer::pumpAll() {
  for (Conn &C : Conns)
    if (C.Deferred)
      pumpFrames(C);
}

void NetServer::acceptClients(Socket &Listener) {
  for (;;) {
    auto S = acceptOne(Listener);
    if (!S) {
      S.takeError(); // transient (EAGAIN etc.): try again next round
      return;
    }
    if (Error E = S->setNonBlocking(true)) {
      (void)E.message();
      continue;
    }
    ++Net.Accepted;
    Conns.emplace_back();
    Conn &C = Conns.back();
    C.Sock = std::move(*S);
    if (Conns.size() > Config.MaxConns)
      protocolError(C, "server full");
  }
}

void NetServer::sweepResults() {
  for (auto It = Pending.begin(); It != Pending.end();) {
    const serve::JobRecord *J = Srv.job(It->first);
    if (!J || !J->terminal()) {
      ++It;
      continue;
    }
    Held.erase(It->first);
    wire::ResultMsg R;
    R.Tag = It->second.Tag;
    R.JobId = J->Id;
    R.State = static_cast<uint8_t>(J->State);
    R.Reason = static_cast<uint8_t>(J->Reason);
    R.BatchSize = J->BatchSize;
    R.ShredsPreempted = J->ShredsPreempted;
    R.SubmitNs = J->SubmitNs;
    R.StartNs = J->StartNs;
    R.EndNs = J->EndNs;
    R.Error = J->Error;
    // Wire v2: per-lane rows of the dispatch that ran this job (empty
    // for jobs that never dispatched).
    if (J->Region)
      if (const chi::RegionStats *RS = RT.regionStats(J->Region))
        std::copy_if(RS->Shards.begin(), RS->Shards.end(),
                     std::back_inserter(R.Shards),
                     [](const chi::ShardStat &S) { return S.Shreds > 0; });
    if (Session *S = sessionByClient(It->second.ClientId)) {
      cacheResult(*S, R);
      if (Conn *C = S->Attached; C && !C->Closing)
        queueFrame(*C, wire::MsgType::Result, wire::encode(R));
      else if (S->Resumable)
        ++Net.ResultsCachedDetached; // a reconnect's retry replays it
      else
        ++Net.ResultsDropped;
    } else {
      ++Net.ResultsDropped;
    }
    It = Pending.erase(It);
  }
}

void NetServer::runAutonomous() {
  // One non-held batch per loop iteration keeps the loop responsive to
  // new frames between dispatches (a dispatch is synchronous simulated
  // work).
  if (Srv.queue().size() <= Held.size())
    return;
  auto NotHeld = [&](serve::JobId Id) { return Held.count(Id) == 0; };
  std::vector<serve::JobId> Ran =
      Srv.runNextBatch(Config.CoalesceWindow, NotHeld);
  if (!Ran.empty())
    sweepResults();
}

void NetServer::destroySession(Session *S) {
  // Release everything the session still held server-side: its queued
  // jobs (and with them its admission quota — the slot a parked peer
  // was waiting on), plus its held-job markers so the autonomous
  // scheduler's held-count bookkeeping stays exact.
  Srv.cancelClient(S->ClientId);
  for (const auto &[Id, PJ] : Pending)
    if (PJ.ClientId == S->ClientId)
      Held.erase(Id);
  ByClient.erase(S->ClientId);
  if (S->WireId)
    ByWireId.erase(S->WireId);
  for (auto It = Sessions.begin(); It != Sessions.end(); ++It)
    if (&*It == S) {
      Sessions.erase(It);
      return;
    }
}

void NetServer::evictDetached() {
  for (;;) {
    size_t NDetached = 0;
    Session *Oldest = nullptr;
    for (Session &S : Sessions)
      if (S.Resumable && !S.Attached) {
        ++NDetached;
        if (!Oldest || S.DetachSeq < Oldest->DetachSeq)
          Oldest = &S;
      }
    if (NDetached <= Config.MaxDetachedSessions || !Oldest)
      return;
    ++Net.SessionsEvicted;
    destroySession(Oldest);
  }
}

void NetServer::run() {
  Running.store(true, std::memory_order_relaxed);
  // The poll set is rebuilt every turn in storage reused across turns.
  std::vector<pollfd> &P = PollFds;
  while (Running.load(std::memory_order_relaxed)) {
    P.clear();
    P.push_back({WakeR, POLLIN, 0});
    for (Socket &L : Listeners)
      P.push_back({L.fd(), POLLIN, 0});
    Polled.clear();
    for (Conn &C : Conns) {
      short Ev = 0;
      if (wantRead(C))
        Ev |= POLLIN;
      if (C.OutOff < C.Out.size())
        Ev |= POLLOUT;
      // A parked connection (backpressure) is not read, but it must
      // still be polled for peer death: a close() lands as readable-EOF
      // (plain POLLIN, masked out here on purpose), so ask for POLLRDHUP
      // — with POLLHUP/POLLERR always reported regardless of the mask —
      // so a client that dies while parked is noticed and reaped instead
      // of holding its queue slot and quota forever.
      if (Ev || C.Deferred) {
        if (C.Deferred)
          Ev |= POLLRDHUP;
        P.push_back({C.Sock.fd(), Ev, 0});
        Polled.push_back(&C);
      }
    }

    bool Runnable = Srv.queue().size() > Held.size();
    int Timeout = Runnable ? 0 : 50;
    // Stalled frames cap the wait so their release is not late.
    if (Timeout > 0) {
      auto Now = std::chrono::steady_clock::now();
      for (Conn &C : Conns)
        if (!C.Delayed.empty()) {
          auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        C.Delayed.front().ReleaseAt - Now)
                        .count();
          int Wait = Ms < 0 ? 0 : static_cast<int>(Ms) + 1;
          Timeout = std::min(Timeout, Wait);
        }
    }
    int N = ::poll(P.data(), P.size(), Timeout);
    if (N < 0 && errno != EINTR)
      break;

    size_t Idx = 0;
    if (P[Idx].revents & POLLIN) {
      uint8_t Sink[64];
      while (::read(WakeR, Sink, sizeof(Sink)) > 0)
        ;
    }
    ++Idx;
    for (Socket &L : Listeners) {
      if (P[Idx].revents & POLLIN)
        acceptClients(L);
      ++Idx;
    }
    for (Conn *C : Polled) {
      short Re = P[Idx++].revents;
      if (Re & POLLOUT)
        flushOut(*C);
      if (Re & (POLLIN | POLLHUP | POLLERR | POLLRDHUP)) {
        if (C->Deferred && !(Re & POLLIN)) {
          // The peer vanished while its Submit was parked: there is
          // nothing to read (the socket is unread by design), so close
          // directly and let the reap path release its jobs.
          C->Closing = true;
          C->Deferred.reset();
        } else {
          serviceRead(*C);
        }
      }
    }

    for (Conn &C : Conns)
      releaseDelayed(C);
    // Output batching (DESIGN.md §13): frames only append to Conn::Out;
    // the loop sends at two points per turn. This one puts the answers
    // produced while reading on the wire before device work can delay
    // them.
    flushAll();
    runAutonomous();
    pumpAll(); // completed work freed quota: retry parked submits
    // The second: a batch's Results leave in one send per connection,
    // and a closing connection's last frame is out before the reap
    // check below treats it as flushed.
    flushAll();

    // Reap connections that are closing and fully flushed (or dead).
    bool Reaped = false;
    for (auto It = Conns.begin(); It != Conns.end();) {
      bool Flushed = It->OutOff >= It->Out.size() && It->Delayed.empty();
      if (It->Closing && Flushed) {
        ++Net.Closed;
        Session *S = It->Sess;
        if (S && S->Attached == &*It)
          S->Attached = nullptr;
        It->Sess = nullptr;
        bool SaidBye = It->SaidBye;
        It = Conns.erase(It);
        if (S) {
          if (!S->Resumable || SaidBye) {
            destroySession(S);
            Reaped = true;
          } else {
            // Detach: jobs keep running, results land in the dedup
            // cache for the reconnect. Bound the detached set.
            S->DetachSeq = ++DetachCounter;
            evictDetached();
          }
        }
      } else {
        ++It;
      }
    }
    if (Reaped) {
      // Cancelled jobs just reached a terminal state; sweep them out of
      // Pending (their results are dropped — the client is gone) and
      // retry parked submits now that the freed quota re-arms them.
      sweepResults();
      pumpAll();
      flushAll();
    }

    // Exit-on-drain waits for every client to say goodbye so a drainer
    // can still fetch surfaces / stats after its DrainDone.
    if (Drained && Config.ExitOnDrain && Conns.empty())
      break;
  }
  Running.store(false, std::memory_order_relaxed);
}

std::string NetServer::statsJson() const {
  json::Writer W;
  W.beginObject().key("serve").raw(Srv.statsJson()).member("net", Net);
  return W.endObject().take();
}
