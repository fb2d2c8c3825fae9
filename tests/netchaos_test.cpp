//===- tests/netchaos_test.cpp - NetChaos resilience tests --------------------===//
//
// NetChaos (DESIGN.md §17): deterministic seeded wire-fault injection
// plus end-to-end exactly-once retry semantics across the ExoNet path.
// Covers the NetFault schedule (seed replay, kind filters, fire caps),
// the typed socket send-timeout, the client's transport/protocol/server
// error taxonomy, wire-level deadline propagation, dedup-cache replay
// under dropped and truncated Results, cache eviction as the
// exactly-once window, duplicate-Result suppression, resumable-session
// reconnect across a drain, and the 8-seed chaos soak replayed
// bit-identically at devices {1,1,2}.
//
//===----------------------------------------------------------------------===//

#include "net/NetClient.h"
#include "net/NetServer.h"

#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "exo/ExoPlatform.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace exochi;
using namespace exochi::net;

namespace {

constexpr const char *VecAddAsm = R"(
  shl.1.dw vr1 = i, 3
  ld.8.dw  [vr2..vr9]   = (A, vr1, 0)
  ld.8.dw  [vr10..vr17] = (B, vr1, 0)
  add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]
  st.8.dw  (C, vr1, 0)  = [vr18..vr25]
  halt
)";

/// C += A: deliberately non-idempotent, so a job that executes twice
/// corrupts the surface — the exactly-once proofs hinge on it.
constexpr const char *AccumAsm = R"(
  shl.1.dw vr1 = i, 3
  ld.8.dw  [vr2..vr9]   = (A, vr1, 0)
  ld.8.dw  [vr10..vr17] = (C, vr1, 0)
  add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]
  st.8.dw  (C, vr1, 0)  = [vr18..vr25]
  halt
)";

/// Platform + runtime (vecadd and the accumulating kernel) + a NetServer
/// loop on a background thread, parameterized over device count for the
/// chaos soak's replay matrix.
struct ChaosRig {
  exo::ExoPlatform Platform;
  chi::Runtime RT;
  std::unique_ptr<NetServer> Server;
  std::thread Loop;
  uint16_t Port = 0;

  static exo::PlatformConfig configFor(unsigned Devices) {
    exo::PlatformConfig C;
    C.NumDevices = Devices;
    return C;
  }

  explicit ChaosRig(NetServerConfig NC = {}, unsigned Devices = 1)
      : Platform(configFor(Devices)), RT(Platform) {
    chi::ProgramBuilder PB;
    cantFail(PB.addXgmaKernel("vecadd", VecAddAsm, {"i"}, {"A", "B", "C"})
                 .takeError());
    cantFail(
        PB.addXgmaKernel("accum", AccumAsm, {"i"}, {"A", "C"}).takeError());
    cantFail(RT.loadBinary(PB.take()));
    Server = std::make_unique<NetServer>(RT, NC);
    Port = cantFail(Server->listenTcp(0));
    Loop = std::thread([this] { Server->run(); });
  }

  void shutdown() {
    if (!Loop.joinable())
      return;
    Server->stop();
    Loop.join();
  }

  /// Stats snapshot via a StatsReq round-trip: the loop thread computes
  /// the JSON, so polling this while the loop runs is race-free. Raw
  /// netStats()/stats() reads are only safe after shutdown().
  std::string statsJsonViaWire() {
    auto C = NetClient::connectTcp("127.0.0.1", Port, 10.0);
    if (!C)
      return "";
    auto S = C->stats();
    return S ? *S : "";
  }

  /// Polls statsJsonViaWire() until \p Needle appears (~1 s cap).
  bool awaitStatsContain(const std::string &Needle) {
    for (unsigned I = 0; I < 200; ++I) {
      if (statsJsonViaWire().find(Needle) != std::string::npos)
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  ~ChaosRig() { shutdown(); }
};

std::vector<uint8_t> surfaceWords(unsigned N, int32_t (*Fn)(unsigned)) {
  std::vector<uint8_t> Out;
  Out.reserve(N * 4);
  for (unsigned K = 0; K < N; ++K) {
    uint32_t V = static_cast<uint32_t>(Fn(K));
    for (int B = 0; B < 4; ++B)
      Out.push_back(static_cast<uint8_t>(V >> (B * 8)));
  }
  return Out;
}

int32_t wordAt(const std::vector<uint8_t> &Data, unsigned K) {
  uint32_t V = 0;
  for (int B = 0; B < 4; ++B)
    V |= static_cast<uint32_t>(Data[K * 4 + B]) << (B * 8);
  return static_cast<int32_t>(V);
}

void declareVecAddSurfaces(NetClient &C, unsigned N = 64) {
  wire::SurfaceMsg A;
  A.Name = "A";
  A.Width = N;
  A.Mode = 0;
  A.Fill = wire::SurfaceFill::Data;
  A.Data = surfaceWords(N, [](unsigned K) { return static_cast<int32_t>(K); });
  ASSERT_FALSE(static_cast<bool>(C.surface(A)));
  wire::SurfaceMsg B = A;
  B.Name = "B";
  B.Data =
      surfaceWords(N, [](unsigned K) { return static_cast<int32_t>(K * 10); });
  ASSERT_FALSE(static_cast<bool>(C.surface(B)));
  wire::SurfaceMsg Out;
  Out.Name = "C";
  Out.Width = N;
  Out.Mode = 1;
  Out.Fill = wire::SurfaceFill::Zero;
  ASSERT_FALSE(static_cast<bool>(C.surface(Out)));
}

/// A[k] = k (input), C zeroed (inout — the accumulator).
void declareAccumSurfaces(NetClient &C, unsigned N = 64) {
  wire::SurfaceMsg A;
  A.Name = "A";
  A.Width = N;
  A.Mode = 0;
  A.Fill = wire::SurfaceFill::Data;
  A.Data = surfaceWords(N, [](unsigned K) { return static_cast<int32_t>(K); });
  ASSERT_FALSE(static_cast<bool>(C.surface(A)));
  wire::SurfaceMsg Acc;
  Acc.Name = "C";
  Acc.Width = N;
  Acc.Mode = 2;
  Acc.Fill = wire::SurfaceFill::Zero;
  ASSERT_FALSE(static_cast<bool>(C.surface(Acc)));
}

wire::SubmitMsg vecAddSubmit(uint64_t Tag, uint32_t Shreds = 8,
                             uint8_t Flags = 0) {
  wire::SubmitMsg M;
  M.Tag = Tag;
  M.Flags = Flags;
  M.Shreds = Shreds;
  M.Kernel = "vecadd";
  M.Params = {{"i", wire::ParamKind::Shred, 0}};
  M.Bind = {"A", "B", "C"};
  return M;
}

wire::SubmitMsg accumSubmit(uint64_t Tag) {
  wire::SubmitMsg M;
  M.Tag = Tag;
  M.Shreds = 8;
  M.Kernel = "accum";
  M.Params = {{"i", wire::ParamKind::Shred, 0}};
  M.Bind = {"A", "C"};
  return M;
}

/// Fetches surface "C" and asserts element K == Scale*K over [0, N).
void expectScaledC(NetClient &C, int32_t Scale, unsigned N = 64) {
  auto D = C.fetch("C");
  ASSERT_TRUE(static_cast<bool>(D)) << D.message();
  ASSERT_EQ(D->Data.size(), N * 4u);
  for (unsigned K = 0; K < N; ++K)
    ASSERT_EQ(wordAt(D->Data, K), Scale * static_cast<int32_t>(K))
        << "element " << K;
}

/// A hand-rolled peer speaking raw frames, for exercising the client's
/// error taxonomy without a real server.
struct FakeServer {
  uint16_t Port = 0;
  std::thread T;

  explicit FakeServer(std::function<void(Socket &)> Fn) {
    auto L = std::make_shared<Socket>(cantFail(tcpListen(0, Port)));
    T = std::thread([L, Fn = std::move(Fn)] {
      auto S = acceptOne(*L);
      if (S)
        Fn(*S);
    });
  }

  ~FakeServer() {
    if (T.joinable())
      T.join();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// NetFault: the seeded deterministic schedule
//===----------------------------------------------------------------------===//

TEST(NetFaultTest, SameSeedReplaysTheSameSchedule) {
  auto Probe = [](NetFault &F) {
    for (unsigned Round = 0; Round < 200; ++Round)
      for (uint64_t Stream : {1u, 2u, 7u}) {
        (void)F.decide(Stream, wire::MsgType::Submit);
        (void)F.decide(Stream, wire::MsgType::Result);
      }
  };
  NetFault A = cantFail(NetFault::parse("drop:0.2,dup:0.1", 42));
  NetFault B = cantFail(NetFault::parse("drop:0.2,dup:0.1", 42));
  Probe(A);
  Probe(B);
  EXPECT_FALSE(A.fired().empty());
  EXPECT_EQ(A.firedSorted(), B.firedSorted());

  // A different seed yields a different schedule.
  NetFault C = cantFail(NetFault::parse("drop:0.2,dup:0.1", 43));
  Probe(C);
  EXPECT_NE(A.firedSorted(), C.firedSorted());

  // reset() replays from the top.
  A.reset();
  EXPECT_TRUE(A.fired().empty());
  Probe(A);
  EXPECT_EQ(A.firedSorted(), B.firedSorted());
}

TEST(NetFaultTest, DisarmedInjectorNeverFires) {
  NetFault F(99);
  EXPECT_FALSE(F.armed());
  for (unsigned I = 0; I < 100; ++I)
    EXPECT_FALSE(F.decide(1, wire::MsgType::Result).has_value());
  EXPECT_TRUE(F.fired().empty());
}

TEST(NetFaultTest, OnlyFilterAndMaxFiresBoundTheSchedule) {
  NetFault F(7);
  F.setRate(NetFaultKind::Drop, 1.0);
  F.setOnly(NetFaultKind::Drop, wire::MsgType::Result);
  EXPECT_FALSE(F.decide(1, wire::MsgType::Submit).has_value());
  ASSERT_TRUE(F.decide(1, wire::MsgType::Result).has_value());

  F.setMaxFires(2);
  ASSERT_TRUE(F.decide(1, wire::MsgType::Result).has_value());
  // The cap: probes keep advancing the schedule but nothing fires.
  for (unsigned I = 0; I < 10; ++I)
    EXPECT_FALSE(F.decide(1, wire::MsgType::Result).has_value());
  EXPECT_EQ(F.fired().size(), 2u);
}

TEST(NetFaultTest, ParseRejectsBadSpecs) {
  EXPECT_FALSE(static_cast<bool>(NetFault::parse("drop:0.5,stall:0.1")
                                     .takeError()));
  NetFault All = cantFail(NetFault::parse("all:0.25"));
  for (unsigned K = 0; K < NumNetFaultKinds; ++K)
    EXPECT_EQ(All.rate(static_cast<NetFaultKind>(K)), 0.25);

  EXPECT_TRUE(static_cast<bool>(NetFault::parse("bogus:0.5").takeError()));
  EXPECT_TRUE(static_cast<bool>(NetFault::parse("drop:1.5").takeError()));
  EXPECT_TRUE(static_cast<bool>(NetFault::parse("drop:nope").takeError()));
}

//===----------------------------------------------------------------------===//
// Socket send timeout (typed)
//===----------------------------------------------------------------------===//

TEST(SocketTimeoutTest, SendAllTimesOutTypedInsteadOfHanging) {
  uint16_t Port = 0;
  auto L = cantFail(tcpListen(0, Port));
  auto C = cantFail(tcpConnect("127.0.0.1", Port));
  auto S = cantFail(acceptOne(L)); // accepted but never read
  ASSERT_FALSE(static_cast<bool>(C.setSendTimeout(0.2)));

  // Push until the kernel buffers fill and SO_SNDTIMEO expires.
  std::vector<uint8_t> Chunk(8u << 20, 0xab);
  Error E = Error::success();
  for (unsigned I = 0; I < 8 && !E; ++I)
    E = C.sendAll(Chunk);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_TRUE(isTimeoutError(E)) << E.message();
  EXPECT_NE(E.message().find("SO_SNDTIMEO"), std::string::npos) << E.message();
  (void)S;
}

TEST(SocketTimeoutTest, PredicateIgnoresOtherErrors) {
  EXPECT_FALSE(isTimeoutError(Error::make("send failed: broken pipe")));
  EXPECT_FALSE(isTimeoutError(Error::success()));
}

//===----------------------------------------------------------------------===//
// Client error taxonomy: transport vs protocol vs server
//===----------------------------------------------------------------------===//

TEST(ErrKindTest, ServerThenProtocolErrorsAreNotRetryable) {
  // A peer that welcomes, then sends an Error frame, then raw garbage.
  FakeServer F([](Socket &S) {
    uint8_t Hello[4096];
    std::string Err;
    (void)S.recvSome(Hello, sizeof(Hello), Err);
    wire::WelcomeMsg W;
    W.ClientId = 7;
    (void)S.sendAll(wire::encode(W));
    (void)S.sendAll(wire::encode(wire::ErrorMsg{"boom"}));
    std::vector<uint8_t> Garbage(16, 0xee);
    (void)S.sendAll(Garbage);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  auto C = NetClient::connectTcp("127.0.0.1", F.Port, 2.0);
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  EXPECT_EQ(C->clientId(), 7u);

  auto R1 = C->readResult();
  ASSERT_FALSE(static_cast<bool>(R1));
  EXPECT_EQ(C->lastErrorKind(), ErrKind::Server);
  EXPECT_NE(R1.message().find("boom"), std::string::npos);

  auto R2 = C->readResult();
  ASSERT_FALSE(static_cast<bool>(R2));
  EXPECT_EQ(C->lastErrorKind(), ErrKind::Protocol);
}

TEST(ErrKindTest, EofIsATransportError) {
  FakeServer F([](Socket &S) {
    uint8_t Hello[4096];
    std::string Err;
    (void)S.recvSome(Hello, sizeof(Hello), Err);
    wire::WelcomeMsg W;
    W.ClientId = 3;
    (void)S.sendAll(wire::encode(W));
    // Close immediately: the next client read sees a clean EOF.
  });
  auto C = NetClient::connectTcp("127.0.0.1", F.Port, 2.0);
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  auto R = C->readResult();
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(C->lastErrorKind(), ErrKind::Transport);
}

TEST(ErrKindTest, RecvTimeoutIsATransportErrorNotProtocol) {
  // The pre-NetChaos client collapsed timeouts and wire poison into one
  // error string; retry layers need them distinguishable.
  FakeServer F([](Socket &S) {
    uint8_t Hello[4096];
    std::string Err;
    (void)S.recvSome(Hello, sizeof(Hello), Err);
    wire::WelcomeMsg W;
    W.ClientId = 5;
    (void)S.sendAll(wire::encode(W));
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
  });
  auto C = NetClient::connectTcp("127.0.0.1", F.Port, 0.3);
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  auto R = C->readResult();
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(C->lastErrorKind(), ErrKind::Transport);
  EXPECT_NE(R.message().find("timed out"), std::string::npos) << R.message();
}

//===----------------------------------------------------------------------===//
// Wire-level deadline propagation
//===----------------------------------------------------------------------===//

TEST(NetDeadlineTest, ExpiredAbsoluteDeadlineRejectedAtAdmission) {
  NetServerConfig NC;
  NC.Serve.WallClock = [] { return int64_t(1'000'000'000); };
  ChaosRig R(NC);
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, 10.0);
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareVecAddSurfaces(*C);

  // Already expired at admission: rejected, never dispatched.
  wire::SubmitMsg Stale = vecAddSubmit(1);
  Stale.ExpiresAtUnixNs = 999'999'999;
  ASSERT_FALSE(static_cast<bool>(C->submit(Stale)));
  auto R1 = C->readResult();
  ASSERT_TRUE(static_cast<bool>(R1)) << R1.message();
  EXPECT_EQ(R1->State, static_cast<uint8_t>(serve::JobState::Rejected));
  EXPECT_EQ(R1->Reason,
            static_cast<uint8_t>(serve::RejectReason::DeadlineExpired));

  // Still-future deadline: runs normally.
  wire::SubmitMsg Fresh = vecAddSubmit(2);
  Fresh.ExpiresAtUnixNs = 2'000'000'000;
  ASSERT_FALSE(static_cast<bool>(C->submit(Fresh)));
  auto R2 = C->readResult();
  ASSERT_TRUE(static_cast<bool>(R2)) << R2.message();
  EXPECT_EQ(R2->State, static_cast<uint8_t>(serve::JobState::Completed));

  auto J = C->stats();
  ASSERT_TRUE(static_cast<bool>(J)) << J.message();
  EXPECT_NE(J->find("\"rejected_deadline_expired\": 1"), std::string::npos)
      << *J;
  (void)C->bye();
  R.shutdown();
  EXPECT_EQ(R.Server->server().stats().RejectedDeadlineExpired, 1u);
}

//===----------------------------------------------------------------------===//
// Exactly-once: dedup replay, eviction, duplicate suppression, resume
//===----------------------------------------------------------------------===//

TEST(ExactlyOnceTest, DroppedResultIsReplayedFromCacheNotReexecuted) {
  NetFault F(11);
  F.setRate(NetFaultKind::Drop, 1.0);
  F.setOnly(NetFaultKind::Drop, wire::MsgType::Result);
  F.setMaxFires(1); // eat exactly the first Result
  NetServerConfig NC;
  NC.Fault = &F;
  ChaosRig R(NC);

  NetClientConfig CC;
  CC.CallTimeoutSec = 0.4;
  CC.Retries = 3;
  CC.BackoffBaseMs = 1;
  CC.BackoffCapMs = 8;
  CC.SessionId = 7;
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, CC);
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareAccumSurfaces(*C);

  ASSERT_FALSE(static_cast<bool>(C->submit(accumSubmit(1))));
  auto Res = C->readResult(); // times out, reconnects, resends, replays
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(Res->Tag, 1u);
  EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed));
  EXPECT_EQ(Res->Replayed, 1u);
  EXPECT_GE(C->clientStats().Reconnects, 1u);
  EXPECT_GE(C->clientStats().Resubmits, 1u);

  expectScaledC(*C, 1); // ran exactly once
  (void)C->bye();
  R.shutdown();
  EXPECT_EQ(R.Server->server().stats().Admitted, 1u);
  EXPECT_EQ(R.Server->netStats().DedupReplays, 1u);
  EXPECT_GE(R.Server->netStats().RetrySubmits, 1u);
  EXPECT_EQ(R.Server->netStats().SessionsResumed, 1u);
  EXPECT_EQ(R.Server->netStats().FaultsInjected, 1u);
}

TEST(ExactlyOnceTest, TruncatedResultDisconnectReplaysFromCache) {
  // The satellite scenario: the connection dies *between* Submit and
  // Result (mid-frame, even) — the retry must replay, not re-execute.
  NetFault F(12);
  F.setRate(NetFaultKind::Truncate, 1.0);
  F.setOnly(NetFaultKind::Truncate, wire::MsgType::Result);
  F.setMaxFires(1);
  NetServerConfig NC;
  NC.Fault = &F;
  ChaosRig R(NC);

  NetClientConfig CC;
  CC.CallTimeoutSec = 2.0; // EOF arrives fast; the timeout is backstop
  CC.Retries = 3;
  CC.BackoffBaseMs = 1;
  CC.BackoffCapMs = 8;
  CC.SessionId = 8;
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, CC);
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareAccumSurfaces(*C);

  ASSERT_FALSE(static_cast<bool>(C->submit(accumSubmit(1))));
  auto Res = C->readResult(); // partial frame + EOF -> reconnect -> replay
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed));
  EXPECT_EQ(Res->Replayed, 1u);

  expectScaledC(*C, 1);
  (void)C->bye();
  R.shutdown();
  EXPECT_EQ(R.Server->server().stats().Admitted, 1u);
  EXPECT_EQ(R.Server->netStats().DedupReplays, 1u);
}

TEST(ExactlyOnceTest, DedupCacheEvictionIsTheExactlyOnceWindow) {
  NetServerConfig NC;
  NC.DedupCacheCap = 4;
  ChaosRig R(NC);
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, 10.0);
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareAccumSurfaces(*C);

  for (uint64_t Tag = 0; Tag < 8; ++Tag) {
    ASSERT_FALSE(static_cast<bool>(C->submit(accumSubmit(Tag))));
    auto Res = C->readResult();
    ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
    EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed));
  }
  expectScaledC(*C, 8);

  // Tag 7 is still cached: its retry replays.
  wire::SubmitMsg Retry7 = accumSubmit(7);
  Retry7.Attempt = 1;
  ASSERT_FALSE(static_cast<bool>(C->submit(Retry7)));
  auto Rep = C->readResult();
  ASSERT_TRUE(static_cast<bool>(Rep)) << Rep.message();
  EXPECT_EQ(Rep->Replayed, 1u);
  expectScaledC(*C, 8); // did not re-execute

  // Tag 0 was evicted by the FIFO bound: its retry is
  // indistinguishable from a new job and re-executes (at-most-once
  // only inside the window — documented, counted).
  wire::SubmitMsg Retry0 = accumSubmit(0);
  Retry0.Attempt = 1;
  ASSERT_FALSE(static_cast<bool>(C->submit(Retry0)));
  auto Re = C->readResult();
  ASSERT_TRUE(static_cast<bool>(Re)) << Re.message();
  EXPECT_EQ(Re->Replayed, 0u);
  EXPECT_EQ(Re->State, static_cast<uint8_t>(serve::JobState::Completed));
  expectScaledC(*C, 9); // the ninth execution

  (void)C->bye();
  R.shutdown();
  EXPECT_EQ(R.Server->server().stats().Admitted, 9u);
  EXPECT_EQ(R.Server->netStats().DedupReplays, 1u);
  EXPECT_EQ(R.Server->netStats().DedupEvictions, 5u);
  EXPECT_EQ(R.Server->netStats().RetrySubmits, 2u);
}

TEST(ExactlyOnceTest, DuplicateResultFramesAreSuppressed) {
  NetFault F(13);
  F.setRate(NetFaultKind::Dup, 1.0);
  F.setOnly(NetFaultKind::Dup, wire::MsgType::Result);
  NetServerConfig NC;
  NC.Fault = &F;
  ChaosRig R(NC);

  NetClientConfig CC;
  CC.CallTimeoutSec = 5.0;
  CC.Retries = 1; // arms the outstanding-set dup filter
  CC.SessionId = 11;
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, CC);
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareVecAddSurfaces(*C);

  for (uint64_t Tag = 1; Tag <= 2; ++Tag) {
    ASSERT_FALSE(static_cast<bool>(C->submit(vecAddSubmit(Tag))));
    auto Res = C->readResult();
    ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
    EXPECT_EQ(Res->Tag, Tag);
    EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed));
  }
  // A request/reply pumps the trailing duplicate off the wire.
  auto J = C->stats();
  ASSERT_TRUE(static_cast<bool>(J)) << J.message();
  EXPECT_EQ(C->clientStats().DupResultsSuppressed, 2u);
  (void)C->bye();
}

TEST(ExactlyOnceTest, ResumableSessionSurvivesDisconnectAcrossDrain) {
  ChaosRig R;
  constexpr uint64_t Session = 9;
  constexpr unsigned Jobs = 3;

  {
    NetClientConfig CC;
    CC.CallTimeoutSec = 10.0;
    CC.SessionId = Session;
    auto C1 = NetClient::connectTcp("127.0.0.1", R.Port, CC);
    ASSERT_TRUE(static_cast<bool>(C1)) << C1.message();
    EXPECT_FALSE(C1->resumed());
    declareVecAddSurfaces(*C1);
    for (uint64_t Tag = 1; Tag <= Jobs; ++Tag)
      ASSERT_FALSE(static_cast<bool>(
          C1->submit(vecAddSubmit(Tag, 8, wire::SubmitHold))));
    // C1 dies abruptly here: no Bye, just a closed socket. The session
    // is resumable, so its held jobs and surfaces must survive.
  }

  NetClientConfig CC;
  CC.CallTimeoutSec = 10.0;
  CC.Retries = 1;
  CC.SessionId = Session;
  auto C2 = NetClient::connectTcp("127.0.0.1", R.Port, CC);
  ASSERT_TRUE(static_cast<bool>(C2)) << C2.message();
  EXPECT_TRUE(C2->resumed());

  // Retry the in-flight tags: they rebind, not re-admit.
  for (uint64_t Tag = 1; Tag <= Jobs; ++Tag) {
    wire::SubmitMsg M = vecAddSubmit(Tag, 8, wire::SubmitHold);
    M.Attempt = 1;
    ASSERT_FALSE(static_cast<bool>(C2->submit(M)));
  }

  // Drain runs the held jobs; their Results precede the summary.
  auto Summary = C2->drain();
  ASSERT_TRUE(static_cast<bool>(Summary)) << Summary.message();
  for (unsigned I = 0; I < Jobs; ++I) {
    auto Res = C2->readResult();
    ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
    EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed));
    EXPECT_EQ(Res->Replayed, 0u);
  }
  expectScaledC(*C2, 11); // surfaces survived the disconnect

  (void)C2->bye();
  R.shutdown();
  EXPECT_EQ(R.Server->server().stats().Admitted, Jobs);
  EXPECT_EQ(R.Server->server().stats().CancelledDisconnect, 0u);
  EXPECT_EQ(R.Server->netStats().SessionsResumed, 1u);
  EXPECT_EQ(R.Server->netStats().InFlightRebinds, Jobs);
}

TEST(ExactlyOnceTest, AnonymousSessionsKeepDisconnectCancellation) {
  // Without a session id, the pre-NetChaos contract holds: a vanished
  // client's queued jobs are cancelled, nothing lingers.
  ChaosRig R;
  {
    auto C = NetClient::connectTcp("127.0.0.1", R.Port, 10.0);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    declareVecAddSurfaces(*C);
    ASSERT_FALSE(static_cast<bool>(
        C->submit(vecAddSubmit(1, 8, wire::SubmitHold))));
    // Abrupt close with a held job queued.
  }
  // Poll until the reap lands (the loop notices EOF asynchronously).
  EXPECT_TRUE(R.awaitStatsContain("\"cancelled_disconnect\": 1"));
  R.shutdown();
  EXPECT_EQ(R.Server->server().stats().CancelledDisconnect, 1u);
  EXPECT_EQ(R.Server->netStats().SessionsResumed, 0u);
}

TEST(ExactlyOnceTest, DetachedSessionBoundEvictsTheOldest) {
  NetServerConfig NC;
  NC.MaxDetachedSessions = 2;
  ChaosRig R(NC);
  for (uint64_t Session = 1; Session <= 4; ++Session) {
    NetClientConfig CC;
    CC.CallTimeoutSec = 10.0;
    CC.SessionId = Session;
    auto C = NetClient::connectTcp("127.0.0.1", R.Port, CC);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    declareVecAddSurfaces(*C);
    ASSERT_FALSE(static_cast<bool>(C->submit(vecAddSubmit(1))));
    auto Res = C->readResult();
    ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
    // Abrupt close: the session detaches.
  }
  // Sessions 1 and 2 must have been evicted to honor the bound.
  EXPECT_TRUE(R.awaitStatsContain("\"sessions_evicted\": 2"));
  R.shutdown();
  EXPECT_EQ(R.Server->netStats().SessionsEvicted, 2u);
}

//===----------------------------------------------------------------------===//
// The chaos soak: 8 seeds x devices {1,1,2}
//===----------------------------------------------------------------------===//

namespace {

struct SoakOutcome {
  std::vector<NetFaultSite> ServerSched, ClientSched;
  std::vector<uint8_t> SurfaceC;
  uint64_t Admitted = 0;
  uint64_t Completed = 0;
};

/// One closed-loop accumulation run under two-sided injection. Client
/// faults perturb Submit frames, server faults perturb Result frames;
/// both schedules derive only from per-stream frame order, so the same
/// seed must replay them at any device count.
SoakOutcome runChaosSoak(uint64_t Seed, unsigned Devices) {
  constexpr unsigned Jobs = 6;
  constexpr unsigned N = 64;

  NetFault SrvF(Seed);
  SrvF.setRate(NetFaultKind::Drop, 0.06);
  SrvF.setRate(NetFaultKind::Truncate, 0.05);
  SrvF.setRate(NetFaultKind::Stall, 0.20);
  SrvF.setRate(NetFaultKind::Dup, 0.12);
  SrvF.setRate(NetFaultKind::Disconnect, 0.06);
  SrvF.setStallMs(5.0);
  for (unsigned K = 0; K < NumNetFaultKinds; ++K)
    SrvF.setOnly(static_cast<NetFaultKind>(K), wire::MsgType::Result);

  // Client side: Dup and Disconnect on Submit frames would make the
  // server's Result-frame count depend on read-chunk timing (a dup
  // arriving after the original finished replays an extra Result), so
  // the deterministic-replay soak sticks to the kinds whose recovery
  // path is timing-independent. Dup/Disconnect are exercised from the
  // server side above.
  NetFault CliF(Seed ^ 0x9e3779b9u);
  CliF.setRate(NetFaultKind::Drop, 0.06);
  CliF.setRate(NetFaultKind::Truncate, 0.05);
  CliF.setRate(NetFaultKind::Stall, 0.15);
  CliF.setStallMs(3.0);
  for (unsigned K = 0; K < NumNetFaultKinds; ++K)
    CliF.setOnly(static_cast<NetFaultKind>(K), wire::MsgType::Submit);

  NetServerConfig NC;
  NC.Fault = &SrvF;
  ChaosRig R(NC, Devices);

  SoakOutcome Out;
  {
    NetClientConfig CC;
    CC.CallTimeoutSec = 0.4;
    CC.Retries = 12;
    CC.BackoffBaseMs = 1;
    CC.BackoffCapMs = 8;
    CC.SessionId = 42;
    CC.Fault = &CliF;
    auto C = NetClient::connectTcp("127.0.0.1", R.Port, CC);
    EXPECT_TRUE(static_cast<bool>(C)) << C.message();
    if (!C)
      return Out;
    declareAccumSurfaces(*C, N);

    for (uint64_t Tag = 0; Tag < Jobs; ++Tag) {
      Error E = C->submit(accumSubmit(Tag));
      EXPECT_FALSE(static_cast<bool>(E)) << E.message();
      auto Res = C->readResult();
      EXPECT_TRUE(static_cast<bool>(Res)) << Res.message();
      if (!Res)
        return Out;
      EXPECT_EQ(Res->Tag, Tag);
      EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed));
    }

    auto D = C->fetch("C");
    EXPECT_TRUE(static_cast<bool>(D)) << D.message();
    if (D) {
      Out.SurfaceC = D->Data;
      for (unsigned K = 0; K < N; ++K)
        EXPECT_EQ(wordAt(D->Data, K),
                  static_cast<int32_t>(Jobs) * static_cast<int32_t>(K))
            << "seed " << Seed << " dev " << Devices << " element " << K;
    }
    (void)C->bye();
  }
  R.shutdown();
  Out.ServerSched = SrvF.firedSorted();
  Out.ClientSched = CliF.firedSorted();
  Out.Admitted = R.Server->server().stats().Admitted;
  Out.Completed = R.Server->server().stats().Completed;
  return Out;
}

} // namespace

class ChaosSoakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSoakTest, ExactlyOnceAndBitIdenticalAcrossConfigs) {
  const uint64_t Seed = GetParam() + 1;
  SoakOutcome Base = runChaosSoak(Seed, 1);
  // Exactly-once side effects: every job admitted and executed exactly
  // once, no matter how many retries the wire faults forced.
  EXPECT_EQ(Base.Admitted, 6u);
  EXPECT_EQ(Base.Completed, 6u);
  EXPECT_FALSE(Base.ServerSched.empty() && Base.ClientSched.empty())
      << "the soak injected nothing — rates too low to test anything";

  // A replay of the same configuration, then a second device.
  for (unsigned Dev : {1u, 2u}) {
    SoakOutcome O = runChaosSoak(Seed, Dev);
    EXPECT_EQ(O.Admitted, 6u) << "dev " << Dev;
    EXPECT_EQ(O.Completed, 6u) << "dev " << Dev;
    // Bit-identical surfaces across the whole matrix.
    EXPECT_EQ(O.SurfaceC, Base.SurfaceC) << "dev " << Dev;
    // The same seed replays the same fault schedule at any device count.
    EXPECT_EQ(O.ServerSched, Base.ServerSched) << "dev " << Dev;
    EXPECT_EQ(O.ClientSched, Base.ClientSched) << "dev " << Dev;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoakTest,
                         ::testing::Range<uint64_t>(0, 8));
