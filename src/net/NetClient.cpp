//===- net/NetClient.cpp -------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "net/NetClient.h"

#include "support/Format.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace exochi;
using namespace exochi::net;

const char *net::errKindName(ErrKind K) {
  switch (K) {
  case ErrKind::None:
    return "none";
  case ErrKind::Transport:
    return "transport";
  case ErrKind::Protocol:
    return "protocol";
  case ErrKind::Server:
    return "server";
  }
  exochiUnreachable("bad ErrKind");
}

Error NetClient::sendFrame(wire::MsgType T, std::vector<uint8_t> Frame) {
  // The client-side NetChaos probe site: one branch when disarmed.
  // Injected faults model the network, not the API — the call still
  // "succeeds" and the damage surfaces as a later transport error.
  if (NetFault *FI = Cfg.Fault; FI && FI->armed()) {
    uint64_t Stream = Cfg.SessionId ? Cfg.SessionId : 1;
    if (auto K = FI->decide(Stream, T)) {
      switch (*K) {
      case NetFaultKind::Drop:
        return Error::success(); // the network ate the frame
      case NetFaultKind::Truncate: {
        // The peer sees a partial frame + EOF: a transport error on
        // its side, never parser poison.
        Frame.resize(Frame.size() / 2);
        Error E = Sock.sendAll(Frame);
        (void)E.message();
        Sock.close();
        return Error::success();
      }
      case NetFaultKind::Stall:
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<long>(FI->stallMs() * 1000.0)));
        break; // then send normally
      case NetFaultKind::Dup:
        if (Error E = Sock.sendAll(Frame))
          return fail(ErrKind::Transport, std::move(E));
        break; // the normal send below is the duplicate
      case NetFaultKind::Disconnect: {
        Error E = Sock.sendAll(Frame);
        (void)E.message();
        Sock.close();
        return Error::success();
      }
      }
    }
  }
  if (Error E = Sock.sendAll(Frame))
    return fail(ErrKind::Transport, std::move(E));
  return Error::success();
}

Error NetClient::dial() {
  auto S = Targ.IsUnix ? unixConnect(Targ.Path)
                       : tcpConnect(Targ.Host, Targ.Port);
  if (!S)
    return fail(ErrKind::Transport, S.takeError());
  if (Error E = S->setTimeout(Cfg.CallTimeoutSec))
    return fail(ErrKind::Transport, E);
  Sock = std::move(*S);
  In = wire::FrameParser();
  wire::HelloMsg H;
  H.WireVersion = wire::Version;
  H.ClientName = Cfg.Name;
  H.SessionId = Cfg.SessionId;
  H.Flags = Cfg.SessionId ? wire::HelloResumable : 0;
  if (Error E = sendFrame(wire::MsgType::Hello, wire::encode(H)))
    return E;
  auto F = expect(wire::MsgType::Welcome);
  if (!F)
    return F.takeError();
  auto W = wire::decodeWelcome(F->Body);
  if (!W)
    return fail(ErrKind::Protocol, W.takeError());
  if (W->WireVersion != wire::Version)
    return fail(ErrKind::Protocol,
                Error::make(formatString(
                    "server speaks wire version %u, not %u", W->WireVersion,
                    wire::Version)));
  ClientId = W->ClientId;
  LastResumed = W->Resumed;
  return Error::success();
}

Error NetClient::replayState() {
  if (!LastResumed)
    // The server lost (or never had) the session: its surfaces are
    // gone too, so re-declare them before any Submit binds them.
    for (const wire::SurfaceMsg &SM : SurfaceCache)
      if (Error E = sendFrame(wire::MsgType::Surface, wire::encode(SM)))
        return E;
  for (auto &[Tag, SM] : Outstanding) {
    ++SM.Attempt;
    ++CStats.Resubmits;
    if (Error E = sendFrame(wire::MsgType::Submit, wire::encode(SM)))
      return E;
  }
  return Error::success();
}

Error NetClient::recover() {
  Error Last = Error::make("transport fault");
  for (unsigned A = 0; A < Cfg.Retries; ++A) {
    Sock.close();
    unsigned Ms = std::min<unsigned>(Cfg.BackoffCapMs,
                                     Cfg.BackoffBaseMs << std::min(A, 16u));
    if (Ms)
      std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
    if (Error E = dial()) {
      if (LastKind != ErrKind::Transport)
        return E; // wire poison / server refusal: retrying cannot help
      Last = std::move(E);
      continue;
    }
    ++CStats.Reconnects;
    if (Error E = replayState()) {
      if (LastKind != ErrKind::Transport)
        return E;
      Last = std::move(E);
      continue;
    }
    return Error::success();
  }
  LastKind = ErrKind::Transport;
  return Last;
}

Expected<NetClient> NetClient::establish(NetClient C) {
  Error E = C.dial();
  if (E && C.Cfg.Retries && C.LastKind == ErrKind::Transport)
    E = C.recover();
  if (E)
    return E;
  return C;
}

Expected<NetClient> NetClient::connectTcp(const std::string &Host,
                                          uint16_t Port,
                                          const NetClientConfig &Cfg) {
  NetClient C(Cfg);
  C.Targ.IsUnix = false;
  C.Targ.Host = Host;
  C.Targ.Port = Port;
  return establish(std::move(C));
}

Expected<NetClient> NetClient::connectUnix(const std::string &Path,
                                           const NetClientConfig &Cfg) {
  NetClient C(Cfg);
  C.Targ.IsUnix = true;
  C.Targ.Path = Path;
  return establish(std::move(C));
}

Expected<NetClient> NetClient::connectTcp(const std::string &Host,
                                          uint16_t Port, double TimeoutSec,
                                          const std::string &Name) {
  NetClientConfig Cfg;
  Cfg.CallTimeoutSec = TimeoutSec;
  Cfg.Name = Name;
  return connectTcp(Host, Port, Cfg);
}

Expected<NetClient> NetClient::connectUnix(const std::string &Path,
                                           double TimeoutSec,
                                           const std::string &Name) {
  NetClientConfig Cfg;
  Cfg.CallTimeoutSec = TimeoutSec;
  Cfg.Name = Name;
  return connectUnix(Path, Cfg);
}

Error NetClient::surface(const wire::SurfaceMsg &M) {
  if (Cfg.Retries) {
    auto It = std::find_if(SurfaceCache.begin(), SurfaceCache.end(),
                           [&](const wire::SurfaceMsg &S) {
                             return S.Name == M.Name;
                           });
    if (It != SurfaceCache.end())
      *It = M;
    else
      SurfaceCache.push_back(M);
  }
  Error E = sendFrame(wire::MsgType::Surface, wire::encode(M));
  if (E && Cfg.Retries && LastKind == ErrKind::Transport)
    return recover(); // the replay re-declares every cached surface
  return E;
}

Error NetClient::submit(const wire::SubmitMsg &M) {
  if (Cfg.Retries)
    Outstanding[M.Tag] = M;
  Error E = sendFrame(wire::MsgType::Submit, wire::encode(M));
  if (E && Cfg.Retries && LastKind == ErrKind::Transport)
    return recover(); // the replay resends every outstanding Submit
  return E;
}

Error NetClient::runJobs(uint32_t MaxJobs) {
  Error E = sendFrame(wire::MsgType::Run, wire::encode(wire::RunMsg{MaxJobs}));
  if (E && Cfg.Retries && LastKind == ErrKind::Transport)
    return recover();
  return E;
}

Error NetClient::bye() {
  return sendFrame(wire::MsgType::Bye, wire::encode(wire::ByeMsg{}));
}

Expected<wire::Frame> NetClient::readFrame() {
  for (;;) {
    if (auto F = In.next())
      return std::move(*F);
    // Check poison *after* the parse attempt: bytes already buffered can
    // poison the stream without another recv, and that must classify as
    // a protocol error, never as whatever the socket does next.
    if (In.poisoned())
      return fail(ErrKind::Protocol,
                  Error::make("stream error: " + In.error()));
    if (!Sock.valid())
      return fail(ErrKind::Transport, Error::make("connection is closed"));
    std::string Err;
    long K = Sock.recvSome(RecvBuf.data(), RecvBuf.size(), Err);
    if (K == 0)
      return fail(ErrKind::Transport,
                  Error::make("connection closed by server"));
    if (K == -2)
      return fail(ErrKind::Transport,
                  Error::make(formatString("recv timed out after %.1fs",
                                           Cfg.CallTimeoutSec)));
    if (K == -1)
      return fail(ErrKind::Transport, Error::make("recv failed: " + Err));
    In.feed(RecvBuf.data(), static_cast<size_t>(K));
  }
}

bool NetClient::acceptResult(const wire::ResultMsg &R) {
  if (!Cfg.Retries)
    return true; // no tracking: deliver everything (legacy behavior)
  auto It = Outstanding.find(R.Tag);
  if (It == Outstanding.end()) {
    // A wire-level duplicate (or a result for a tag answered on a
    // previous attempt): exactly-once delivery suppresses it.
    ++CStats.DupResultsSuppressed;
    return false;
  }
  Outstanding.erase(It);
  return true;
}

Expected<wire::Frame> NetClient::expect(wire::MsgType Want) {
  for (;;) {
    auto F = readFrame();
    if (!F)
      return F.takeError();
    if (F->Type == Want)
      return F;
    if (F->Type == wire::MsgType::Result) {
      auto R = wire::decodeResult(F->Body);
      if (!R)
        return fail(ErrKind::Protocol, R.takeError());
      if (acceptResult(*R))
        Results.push_back(std::move(*R));
      continue;
    }
    if (F->Type == wire::MsgType::Error) {
      auto E = wire::decodeError(F->Body);
      return fail(ErrKind::Server,
                  Error::make("server error: " +
                              (E ? E->Reason
                                 : std::string("unreadable reason"))));
    }
    return fail(ErrKind::Protocol,
                Error::make(formatString("unexpected %s frame (wanted %s)",
                                         wire::msgTypeName(F->Type),
                                         wire::msgTypeName(Want))));
  }
}

Expected<wire::ResultMsg> NetClient::readResult() {
  unsigned Recovered = 0;
  for (;;) {
    if (!Results.empty()) {
      wire::ResultMsg R = std::move(Results.front());
      Results.pop_front();
      return R;
    }
    auto F = expect(wire::MsgType::Result);
    if (!F) {
      // Only a transport fault with answers still owed is recoverable:
      // reconnect and resend — the server's dedup cache replays what
      // already ran, so nothing executes twice.
      if (Cfg.Retries && LastKind == ErrKind::Transport &&
          !Outstanding.empty() && Recovered < Cfg.Retries) {
        ++Recovered;
        if (Error E = recover())
          return E;
        continue;
      }
      return F.takeError();
    }
    auto R = wire::decodeResult(F->Body);
    if (!R)
      return fail(ErrKind::Protocol, R.takeError());
    if (!acceptResult(*R))
      continue;
    return std::move(*R);
  }
}

Expected<wire::Frame> NetClient::requestReply(wire::MsgType ReqType,
                                              const std::vector<uint8_t> &Req,
                                              wire::MsgType Want) {
  unsigned Attempt = 0;
  for (;;) {
    Error SendErr = sendFrame(ReqType, Req);
    if (!SendErr) {
      auto F = expect(Want);
      if (F)
        return F;
      if (!(Cfg.Retries && LastKind == ErrKind::Transport &&
            Attempt < Cfg.Retries))
        return F.takeError();
    } else if (!(Cfg.Retries && LastKind == ErrKind::Transport &&
                 Attempt < Cfg.Retries)) {
      return SendErr;
    }
    ++Attempt;
    if (Error E = recover())
      return E;
    // The request itself is re-sent by the loop; drain/stats/fetch are
    // idempotent, so a reply lost on the wire is safe to ask for again.
  }
}

Expected<std::string> NetClient::drain(bool Cancel) {
  auto F = requestReply(
      wire::MsgType::Drain,
      wire::encode(wire::DrainMsg{static_cast<uint8_t>(Cancel ? 1 : 0)}),
      wire::MsgType::DrainDone);
  if (!F)
    return F.takeError();
  auto M = wire::decodeDrainDone(F->Body);
  if (!M)
    return fail(ErrKind::Protocol, M.takeError());
  return std::move(M->Json);
}

Expected<std::string> NetClient::stats() {
  auto F = requestReply(wire::MsgType::StatsReq,
                        wire::frame(wire::MsgType::StatsReq, {}),
                        wire::MsgType::StatsJson);
  if (!F)
    return F.takeError();
  auto M = wire::decodeStatsJson(F->Body);
  if (!M)
    return fail(ErrKind::Protocol, M.takeError());
  return std::move(M->Json);
}

Expected<wire::SurfaceDataMsg> NetClient::fetch(const std::string &Name) {
  auto F = requestReply(wire::MsgType::Fetch,
                        wire::encode(wire::FetchMsg{Name}),
                        wire::MsgType::SurfaceData);
  if (!F)
    return F.takeError();
  auto M = wire::decodeSurfaceData(F->Body);
  if (!M)
    return fail(ErrKind::Protocol, M.takeError());
  return M;
}
