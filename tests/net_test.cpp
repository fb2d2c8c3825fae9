//===- tests/net_test.cpp - ExoNet socket front end ---------------------------===//
//
// Tests for the ExoNet layer (DESIGN.md §13): wire-protocol round-trips
// and strict rejection, the TCP and unix-socket end-to-end paths through
// serve::Server, zero-budget rejection over the wire, backpressure by
// unread sockets, request coalescing, malformed-frame survival, the
// multi-client concurrency soak (the TSan lane for this label), and the
// 8-seed chaos soak replayed twice through the socket path,
// bit-identically.
//
//===----------------------------------------------------------------------===//

#include "net/NetClient.h"
#include "net/NetServer.h"

#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "exo/ExoPlatform.h"
#include "fault/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
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

/// One shred counting to its parameter n: holds the loop thread inside a
/// dispatch for as long as the test needs.
constexpr const char *SpinAsm = R"(
  mov.1.dw vr1 = 0
loop:
  add.1.dw vr1 = vr1, 1
  cmp.lt.1.dw p1 = vr1, n
  br p1, loop
  halt
)";

/// Platform + runtime + vecadd (plus "spin" and the surface-less,
/// parameter-less "nop", whose jobs coalesce across sessions) + a
/// NetServer event loop on a background thread, listening on an
/// ephemeral TCP port.
struct NetRig {
  exo::ExoPlatform Platform;
  chi::Runtime RT;
  std::unique_ptr<NetServer> Server;
  std::thread Loop;
  uint16_t Port = 0;

  explicit NetRig(NetServerConfig NC = {}, fault::FaultInjector *Inj = nullptr,
                  const std::string &UnixPath = "")
      : RT(Platform) {
    if (Inj)
      Platform.armFaultInjection(Inj);
    chi::ProgramBuilder PB;
    cantFail(PB.addXgmaKernel("vecadd", VecAddAsm, {"i"}, {"A", "B", "C"})
                 .takeError());
    cantFail(PB.addXgmaKernel("spin", SpinAsm, {"n"}, {}).takeError());
    cantFail(PB.addXgmaKernel("nop", "  halt\n", {}, {}).takeError());
    cantFail(RT.loadBinary(PB.take()));
    Server = std::make_unique<NetServer>(RT, NC, Inj);
    Port = cantFail(Server->listenTcp(0));
    // Listeners must exist before the loop thread: run() reads the
    // listener list without locks.
    if (!UnixPath.empty())
      cantFail(Server->listenUnix(UnixPath));
    Loop = std::thread([this] { Server->run(); });
  }

  /// Stops the loop; NetServer stats accessors are valid afterwards.
  void shutdown() {
    if (!Loop.joinable())
      return;
    Server->stop();
    Loop.join();
  }

  ~NetRig() { shutdown(); }
};

/// A 32-bit little-endian surface payload: element K = Fn(K).
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

/// Declares the vecadd surfaces on \p C: A[k]=k, B[k]=10k, C zeroed.
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

/// Reads \p S until EOF (true) or an error or timeout (false), appending
/// every received byte to \p In.
bool readToEof(Socket &S, std::vector<uint8_t> &In, std::string &Err) {
  uint8_t Buf[4096];
  for (int K = 0; K < 100; ++K) {
    long N = S.recvSome(Buf, sizeof(Buf), Err);
    if (N == 0)
      return true;
    if (N < 0)
      return false;
    In.insert(In.end(), Buf, Buf + N);
  }
  return false;
}

/// A client speaking raw frames, for asserting exactly which frames the
/// server sends on one connection and in what order.
struct RawPeer {
  Socket S;
  wire::FrameParser In;

  explicit RawPeer(uint16_t Port) : S(cantFail(tcpConnect("127.0.0.1", Port))) {
    cantFail(S.setTimeout(30.0));
  }

  void send(const std::vector<uint8_t> &Bytes) {
    ASSERT_FALSE(static_cast<bool>(S.sendAll(Bytes)));
  }

  /// The next frame; nullopt on EOF, error or timeout.
  std::optional<wire::Frame> next() {
    uint8_t Buf[4096];
    for (;;) {
      if (auto F = In.next())
        return F;
      std::string Err;
      long N = S.recvSome(Buf, sizeof(Buf), Err);
      if (N <= 0)
        return std::nullopt;
      In.feed(Buf, static_cast<size_t>(N));
    }
  }

  /// The next frame, which must be a Result; decoded.
  wire::ResultMsg nextResult() {
    auto F = next();
    if (!F || F->Type != wire::MsgType::Result) {
      ADD_FAILURE() << "expected a Result frame";
      return {};
    }
    return cantFail(wire::decodeResult(F->Body));
  }
};

/// Concatenates encoded frames into one buffer: sent with one sendAll,
/// the server reads them in one poll round.
std::vector<uint8_t>
frames(std::initializer_list<std::vector<uint8_t>> Parts) {
  std::vector<uint8_t> Out;
  for (const auto &P : Parts)
    Out.insert(Out.end(), P.begin(), P.end());
  return Out;
}

/// Fetches surface "C" and checks element K == 11*K over [0, N).
void expectVecAddResult(NetClient &C, unsigned N = 64) {
  auto D = C.fetch("C");
  ASSERT_TRUE(static_cast<bool>(D)) << D.message();
  ASSERT_EQ(D->Data.size(), N * 4u);
  for (unsigned K = 0; K < N; ++K) {
    uint32_t V = 0;
    for (int B = 0; B < 4; ++B)
      V |= static_cast<uint32_t>(D->Data[K * 4 + B]) << (B * 8);
    ASSERT_EQ(static_cast<int32_t>(V), static_cast<int32_t>(K * 11))
        << "element " << K;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire round-trips
//===----------------------------------------------------------------------===//

TEST(WireTest, SubmitRoundTripsThroughParser) {
  wire::SubmitMsg M;
  M.Tag = 0xdeadbeefcafeull;
  M.Pri = 2;
  M.Flags = wire::SubmitHold;
  M.DeadlineCycles = 1234;
  M.Shreds = 8;
  M.Kernel = "vecadd";
  M.Params = {{"i", wire::ParamKind::Shred, 0},
              {"base", wire::ParamKind::ShredOffset, 16},
              {"gain", wire::ParamKind::Value, -7}};
  M.Bind = {"A", "B", "C"};
  wire::SurfaceMsg Up;
  Up.Name = "A";
  Up.Width = 8;
  Up.Fill = wire::SurfaceFill::Data;
  Up.Data.assign(32, 0xab);
  M.Uploads = {Up};

  wire::FrameParser P;
  P.feed(wire::encode(M));
  auto F = P.next();
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Type, wire::MsgType::Submit);
  EXPECT_FALSE(P.next().has_value());
  EXPECT_EQ(P.buffered(), 0u);

  auto D = wire::decodeSubmit(F->Body);
  ASSERT_TRUE(static_cast<bool>(D)) << D.message();
  EXPECT_EQ(D->Tag, M.Tag);
  EXPECT_EQ(D->Pri, M.Pri);
  EXPECT_EQ(D->Flags, M.Flags);
  EXPECT_EQ(D->DeadlineCycles, M.DeadlineCycles);
  EXPECT_EQ(D->Shreds, M.Shreds);
  EXPECT_EQ(D->Kernel, M.Kernel);
  ASSERT_EQ(D->Params.size(), 3u);
  EXPECT_EQ(D->Params[1].Name, "base");
  EXPECT_EQ(D->Params[1].Kind, wire::ParamKind::ShredOffset);
  EXPECT_EQ(D->Params[1].Value, 16);
  EXPECT_EQ(D->Params[2].Value, -7);
  EXPECT_EQ(D->Bind, M.Bind);
  ASSERT_EQ(D->Uploads.size(), 1u);
  EXPECT_EQ(D->Uploads[0].Name, "A");
  EXPECT_EQ(D->Uploads[0].Data, Up.Data);
}

TEST(WireTest, ResultRoundTripPreservesClocks) {
  wire::ResultMsg M;
  M.Tag = 7;
  M.JobId = 42;
  M.State = static_cast<uint8_t>(serve::JobState::DeadlinePreempted);
  M.Reason = static_cast<uint8_t>(serve::RejectReason::None);
  M.BatchSize = 4;
  M.ShredsPreempted = 3;
  M.SubmitNs = 1.25;
  M.StartNs = 2.5;
  M.EndNs = 1e9 + 0.125;
  M.Error = "";
  auto Enc = wire::encode(M);
  wire::FrameParser P;
  P.feed(Enc);
  auto F = P.next();
  ASSERT_TRUE(F.has_value());
  auto D = wire::decodeResult(F->Body);
  ASSERT_TRUE(static_cast<bool>(D)) << D.message();
  EXPECT_EQ(D->BatchSize, 4u);
  EXPECT_EQ(D->ShredsPreempted, 3u);
  EXPECT_EQ(D->SubmitNs, 1.25);
  EXPECT_EQ(D->EndNs, 1e9 + 0.125);
}

TEST(WireTest, StrictDecodeRejectsTrailingGarbage) {
  auto Enc = wire::encode(wire::RunMsg{3});
  wire::FrameParser P;
  P.feed(Enc);
  auto F = P.next();
  ASSERT_TRUE(F.has_value());
  F->Body.push_back(0); // one trailing byte
  auto D = wire::decodeRun(F->Body);
  EXPECT_FALSE(static_cast<bool>(D));
}

TEST(WireTest, ParserPoisonsOnBadMagicAndStaysPoisoned) {
  wire::FrameParser P;
  std::vector<uint8_t> Junk = {'X', 'N', 'O', 'T', 1, 0, 1, 0, 0, 0, 0, 0};
  P.feed(Junk);
  EXPECT_FALSE(P.next().has_value());
  EXPECT_TRUE(P.poisoned());
  EXPECT_NE(P.error().find("magic"), std::string::npos) << P.error();
  // A valid frame after the poison must NOT resynchronize the stream.
  P.feed(wire::encode(wire::ByeMsg{}));
  EXPECT_FALSE(P.next().has_value());
  EXPECT_TRUE(P.poisoned());
}

TEST(WireTest, ParserRejectsOversizedBodyLengthAtHeader) {
  wire::Writer W;
  W.u8('X');
  W.u8('N');
  W.u8('E');
  W.u8('T');
  W.u16(wire::Version);
  W.u16(static_cast<uint16_t>(wire::MsgType::Submit));
  W.u32(wire::MaxBodyBytes + 1);
  wire::FrameParser P;
  P.feed(W.bytes());
  EXPECT_FALSE(P.next().has_value());
  EXPECT_TRUE(P.poisoned());
  EXPECT_EQ(P.buffered(), 0u) << "oversized bodies must not be buffered";
}

TEST(WireTest, DribbledBytesYieldSameFrames) {
  std::vector<uint8_t> Stream = wire::encode(wire::HelloMsg{1, "dribble"});
  auto Run = wire::encode(wire::RunMsg{5});
  Stream.insert(Stream.end(), Run.begin(), Run.end());

  wire::FrameParser Whole, ByByte;
  Whole.feed(Stream);
  for (uint8_t B : Stream)
    ByByte.feed(&B, 1);
  for (int K = 0; K < 2; ++K) {
    auto A = Whole.next(), B = ByByte.next();
    ASSERT_TRUE(A.has_value());
    ASSERT_TRUE(B.has_value());
    EXPECT_EQ(A->Type, B->Type);
    EXPECT_EQ(A->Body, B->Body);
  }
  EXPECT_FALSE(Whole.next().has_value());
  EXPECT_FALSE(ByByte.next().has_value());
}

//===----------------------------------------------------------------------===//
// FrameParser buffer: one contiguous buffer read from an offset
//===----------------------------------------------------------------------===//

namespace {

/// A framed body of \p Bytes bytes, each K-th byte (K + Seed) mod 251.
std::vector<uint8_t> sizedFrame(size_t Bytes, unsigned Seed) {
  std::vector<uint8_t> Body(Bytes);
  for (size_t K = 0; K < Bytes; ++K)
    Body[K] = static_cast<uint8_t>((K + Seed) % 251);
  return wire::frame(wire::MsgType::SurfaceData, Body);
}

/// The body \p Framed carries.
std::vector<uint8_t> bodyOf(const std::vector<uint8_t> &Framed) {
  return {Framed.begin() + wire::HeaderBytes, Framed.end()};
}

} // namespace

TEST(FrameParserTest, OneByteFeedsBufferEveryPartialByte) {
  std::vector<std::vector<uint8_t>> Frames = {sizedFrame(0, 1),
                                              sizedFrame(5, 2),
                                              sizedFrame(300, 3)};
  wire::FrameParser P;
  size_t Got = 0, Pending = 0;
  for (const std::vector<uint8_t> &F : Frames)
    for (uint8_t B : F) {
      P.feed(&B, 1);
      ++Pending;
      EXPECT_EQ(P.buffered(), Pending);
      if (auto Out = P.next()) {
        ASSERT_LT(Got, Frames.size());
        EXPECT_EQ(Pending, Frames[Got].size());
        EXPECT_EQ(Out->Body, bodyOf(Frames[Got]));
        ++Got;
        Pending = 0;
        EXPECT_EQ(P.buffered(), 0u);
        EXPECT_EQ(P.held(), 0u);
      }
    }
  EXPECT_EQ(Got, Frames.size());
  EXPECT_FALSE(P.poisoned());
}

TEST(FrameParserTest, ManyFramesInOneFeed) {
  std::vector<uint8_t> Stream;
  std::vector<std::vector<uint8_t>> Frames;
  for (unsigned K = 0; K < 100; ++K) {
    Frames.push_back(sizedFrame(K * 7, K));
    Stream.insert(Stream.end(), Frames.back().begin(), Frames.back().end());
  }
  wire::FrameParser P;
  P.feed(Stream);
  size_t Left = Stream.size();
  EXPECT_EQ(P.buffered(), Left);
  for (const std::vector<uint8_t> &F : Frames) {
    auto Out = P.next();
    ASSERT_TRUE(Out.has_value());
    EXPECT_EQ(Out->Body, bodyOf(F));
    Left -= F.size();
    EXPECT_EQ(P.buffered(), Left);
  }
  EXPECT_FALSE(P.next().has_value());
  EXPECT_EQ(P.buffered(), 0u);
}

// A partial frame left behind once more than CompactBytes were consumed
// moves to the front on the next feed and completes intact.
TEST(FrameParserTest, PartialFrameSurvivesCompaction) {
  std::vector<uint8_t> Stream;
  unsigned Whole = 0;
  while (Stream.size() <= wire::FrameParser::CompactBytes) {
    std::vector<uint8_t> F = sizedFrame(1000, Whole++);
    Stream.insert(Stream.end(), F.begin(), F.end());
  }
  std::vector<uint8_t> Last = sizedFrame(5000, 99);
  const size_t Cut = 1234;
  Stream.insert(Stream.end(), Last.begin(), Last.begin() + Cut);

  wire::FrameParser P;
  P.feed(Stream);
  for (unsigned K = 0; K < Whole; ++K)
    ASSERT_TRUE(P.next().has_value());
  EXPECT_FALSE(P.next().has_value());
  EXPECT_EQ(P.buffered(), Cut);
  EXPECT_EQ(P.held(), Stream.size()) << "compaction waits for the next feed";

  P.feed(Last.data() + Cut, Last.size() - Cut);
  EXPECT_EQ(P.buffered(), Last.size());
  EXPECT_EQ(P.held(), Last.size()) << "the consumed prefix was dropped";
  auto Out = P.next();
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(Out->Body, bodyOf(Last));
  EXPECT_EQ(P.buffered(), 0u);
}

TEST(FrameParserTest, PoisonDropsBufferAndIgnoresLaterFeeds) {
  std::vector<uint8_t> Good = sizedFrame(64, 1);
  std::vector<uint8_t> Stream = Good;
  const uint8_t Junk[] = {'X', 'N', 'O', 'T', 1, 0, 1, 0, 0, 0, 0, 0, 9, 9};
  Stream.insert(Stream.end(), std::begin(Junk), std::end(Junk));
  wire::FrameParser P;
  P.feed(Stream);
  auto Out = P.next();
  ASSERT_TRUE(Out.has_value()) << "frames before the poison still parse";
  EXPECT_EQ(Out->Body, bodyOf(Good));
  EXPECT_EQ(P.buffered(), sizeof(Junk));
  EXPECT_FALSE(P.next().has_value());
  EXPECT_TRUE(P.poisoned());
  EXPECT_EQ(P.buffered(), 0u);
  EXPECT_EQ(P.held(), 0u);
  P.feed(Good);
  EXPECT_EQ(P.buffered(), 0u);
  EXPECT_EQ(P.held(), 0u);
  EXPECT_FALSE(P.next().has_value());
}

// 256 frames of 32 KB arrive in 4 KB reads, drained after each read as a
// connection does: the buffer stays within one frame, one read and the
// compaction threshold instead of growing with the stream.
TEST(FrameParserTest, LongStreamOf32KFramesDoesNotGrow) {
  const size_t Body = 32u << 10, Read = 4096;
  std::vector<uint8_t> Stream;
  for (unsigned K = 0; K < 256; ++K) {
    std::vector<uint8_t> F = sizedFrame(Body, K);
    Stream.insert(Stream.end(), F.begin(), F.end());
  }
  wire::FrameParser P;
  unsigned Got = 0;
  size_t MaxBuffered = 0, MaxHeld = 0;
  for (size_t Off = 0; Off < Stream.size(); Off += Read) {
    P.feed(Stream.data() + Off, std::min(Read, Stream.size() - Off));
    MaxBuffered = std::max(MaxBuffered, P.buffered());
    MaxHeld = std::max(MaxHeld, P.held());
    while (auto Out = P.next()) {
      ASSERT_EQ(Out->Body.size(), Body);
      EXPECT_EQ(Out->Body[Body - 1],
                static_cast<uint8_t>((Body - 1 + Got) % 251));
      ++Got;
    }
  }
  EXPECT_EQ(Got, 256u);
  EXPECT_EQ(P.buffered(), 0u);
  EXPECT_LE(MaxBuffered, wire::HeaderBytes + Body + Read);
  EXPECT_LE(MaxHeld, wire::FrameParser::CompactBytes + wire::HeaderBytes +
                         Body + Read);
}

//===----------------------------------------------------------------------===//
// End-to-end over TCP and unix sockets
//===----------------------------------------------------------------------===//

TEST(NetServerTest, TcpEndToEndVecAdd) {
  NetRig R;
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, 30.0, "e2e");
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  EXPECT_NE(C->clientId(), 0u);
  declareVecAddSurfaces(*C);
  ASSERT_FALSE(static_cast<bool>(C->submit(vecAddSubmit(99))));
  auto Res = C->readResult();
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(Res->Tag, 99u);
  EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed));
  EXPECT_EQ(Res->BatchSize, 1u);
  EXPECT_GE(Res->EndNs, Res->StartNs);
  expectVecAddResult(*C);
  EXPECT_FALSE(static_cast<bool>(C->bye()));
  R.shutdown();
  EXPECT_EQ(R.Server->netStats().Malformed, 0u);
  EXPECT_EQ(R.Server->server().stats().Completed, 1u);
}

TEST(NetServerTest, UnixSocketEndToEndVecAdd) {
  std::string Path = testing::TempDir() + "/exonet_test.sock";
  ::unlink(Path.c_str());
  NetRig R({}, nullptr, Path);
  auto C = NetClient::connectUnix(Path, 30.0, "unix-e2e");
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareVecAddSurfaces(*C);
  ASSERT_FALSE(static_cast<bool>(C->submit(vecAddSubmit(1))));
  auto Res = C->readResult();
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed));
  expectVecAddResult(*C);
}

TEST(NetServerTest, ZeroBudgetRejectedOverWire) {
  NetRig R;
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, 30.0, "budget");
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareVecAddSurfaces(*C);
  wire::SubmitMsg M = vecAddSubmit(5);
  M.DeadlineCycles = 0;
  ASSERT_FALSE(static_cast<bool>(C->submit(M)));
  auto Res = C->readResult();
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(Res->Tag, 5u);
  EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Rejected));
  EXPECT_EQ(Res->Reason, static_cast<uint8_t>(serve::RejectReason::ZeroBudget));
}

TEST(NetServerTest, UnknownSurfaceBindFailsJobNotConnection) {
  NetRig R;
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, 30.0, "badbind");
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareVecAddSurfaces(*C);
  wire::SubmitMsg Bad = vecAddSubmit(1);
  Bad.Bind.push_back("undeclared");
  ASSERT_FALSE(static_cast<bool>(C->submit(Bad)));
  auto Res = C->readResult();
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Failed));
  EXPECT_EQ(Res->JobId, 0u) << "never reached admission";
  EXPECT_NE(Res->Error.find("undeclared"), std::string::npos) << Res->Error;
  // The connection survives: the next submit completes normally.
  ASSERT_FALSE(static_cast<bool>(C->submit(vecAddSubmit(2))));
  auto Ok = C->readResult();
  ASSERT_TRUE(static_cast<bool>(Ok)) << Ok.message();
  EXPECT_EQ(Ok->State, static_cast<uint8_t>(serve::JobState::Completed));
}

TEST(NetServerTest, ReshapingASurfaceIsAProtocolError) {
  NetRig R;
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, 30.0, "reshape");
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  wire::SurfaceMsg S;
  S.Name = "A";
  S.Width = 64;
  ASSERT_FALSE(static_cast<bool>(C->surface(S)));
  S.Width = 32;
  ASSERT_FALSE(static_cast<bool>(C->surface(S)));
  // The server answers with an Error frame and closes.
  auto Res = C->readResult();
  ASSERT_FALSE(static_cast<bool>(Res));
  EXPECT_NE(Res.message().find("protocol error"), std::string::npos)
      << Res.message();
}

//===----------------------------------------------------------------------===//
// Backpressure & coalescing
//===----------------------------------------------------------------------===//

// With backpressure on, a client that bursts far past its admission
// quota sees zero quota rejections: the server parks the overflow
// submit and stops reading that socket until completed work frees
// quota. Every job completes.
TEST(NetServerTest, BackpressureAbsorbsBurstWithoutRejections) {
  NetServerConfig NC;
  NC.Serve.Queue.PerClientCap = 4;
  NetRig R(NC);
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, 30.0, "burst");
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareVecAddSurfaces(*C);
  constexpr unsigned Jobs = 32;
  for (unsigned J = 0; J < Jobs; ++J)
    ASSERT_FALSE(static_cast<bool>(C->submit(vecAddSubmit(J))));
  for (unsigned J = 0; J < Jobs; ++J) {
    auto Res = C->readResult();
    ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
    EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed))
        << "job " << Res->Tag;
  }
  expectVecAddResult(*C);
  EXPECT_FALSE(static_cast<bool>(C->bye()));
  R.shutdown();
  EXPECT_EQ(R.Server->server().stats().RejectedClientQuota, 0u);
  EXPECT_EQ(R.Server->server().stats().Completed, Jobs);
  EXPECT_GT(R.Server->netStats().BackpressureStalls, 0u);
}

// Regression: a client that disconnects *while parked* under
// backpressure must release its queue slot and re-arm the other parked
// clients — not leak the slot forever. The doomed client fills the
// queue with a held job (never runs), gets its next submit parked, and
// then vanishes without a Bye; the reaper must cancel the held job so
// the live client's parked submit is admitted and completes.
TEST(NetServerTest, DisconnectWhileParkedReleasesSlotAndRearms) {
  NetServerConfig NC;
  NC.Serve.Queue.PerClientCap = 1;
  NC.Serve.Queue.Capacity = 1;
  NetRig R(NC);

  auto Live = NetClient::connectTcp("127.0.0.1", R.Port, 30.0, "live");
  ASSERT_TRUE(static_cast<bool>(Live)) << Live.message();
  declareVecAddSurfaces(*Live);
  {
    auto Doomed = NetClient::connectTcp("127.0.0.1", R.Port, 30.0, "doomed");
    ASSERT_TRUE(static_cast<bool>(Doomed)) << Doomed.message();
    declareVecAddSurfaces(*Doomed);
    // Job 1 fills the queue (and the client quota) and is held, so it
    // never runs; job 2 busts the quota and parks the connection. The
    // stats round-trip between them pins the admission order: job 1 is
    // in the queue before anyone else's submit is read.
    ASSERT_FALSE(
        static_cast<bool>(Doomed->submit(vecAddSubmit(1, 8, wire::SubmitHold))));
    ASSERT_TRUE(static_cast<bool>(Doomed->stats()));
    ASSERT_FALSE(static_cast<bool>(Doomed->submit(vecAddSubmit(2))));
    // Parking is quota-based; the live client is not parked but finds
    // the queue full — proof the held job owns the capacity slot.
    ASSERT_FALSE(static_cast<bool>(Live->submit(vecAddSubmit(3))));
    auto Rej = Live->readResult();
    ASSERT_TRUE(static_cast<bool>(Rej)) << Rej.message();
    EXPECT_EQ(Rej->State, static_cast<uint8_t>(serve::JobState::Rejected));
    // Give the loop a poll round to actually park the doomed socket, so
    // the close below exercises the disconnect-while-parked path.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Scope exit: abrupt close, no Bye frame.
  }
  // The reaper must drop the parked frame and cancel the held job,
  // freeing the slot; the live client's retry is then admitted.
  bool Completed = false;
  for (unsigned Try = 0; Try < 200 && !Completed; ++Try) {
    ASSERT_FALSE(static_cast<bool>(Live->submit(vecAddSubmit(100 + Try))));
    auto Res = Live->readResult();
    ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
    if (Res->State == static_cast<uint8_t>(serve::JobState::Completed)) {
      Completed = true;
    } else {
      ASSERT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Rejected));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_TRUE(Completed) << "the dead client's slot was never released";
  expectVecAddResult(*Live);
  EXPECT_FALSE(static_cast<bool>(Live->bye()));
  R.shutdown();
  EXPECT_EQ(R.Server->server().stats().CancelledDisconnect, 1u);
  EXPECT_EQ(R.Server->server().stats().Completed, 1u);
  EXPECT_TRUE(R.Server->server().queue().empty());
  EXPECT_GT(R.Server->netStats().BackpressureStalls, 0u);
  // The doomed client was reaped during the run; the live client's Bye
  // may still be in flight at shutdown, so only the reap is guaranteed.
  EXPECT_GE(R.Server->netStats().Closed, 1u);
}

// Held single-shred jobs that tile a 64-element range via ShredOffset
// merge into multi-shred dispatches under CoalesceWindow=4; every
// member completes and the full output range is correct.
TEST(NetServerTest, CoalescingMergesHeldTiledJobs) {
  NetServerConfig NC;
  NC.CoalesceWindow = 4;
  NetRig R(NC);
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, 30.0, "coalesce");
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareVecAddSurfaces(*C);
  for (unsigned J = 0; J < 8; ++J) {
    wire::SubmitMsg M = vecAddSubmit(J, /*Shreds=*/1, wire::SubmitHold);
    M.Params = {{"i", wire::ParamKind::ShredOffset,
                 static_cast<int32_t>(J)}};
    ASSERT_FALSE(static_cast<bool>(C->submit(M)));
  }
  ASSERT_FALSE(static_cast<bool>(C->runJobs()));
  unsigned Merged = 0;
  for (unsigned J = 0; J < 8; ++J) {
    auto Res = C->readResult();
    ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
    EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed))
        << "job " << Res->Tag;
    Merged += Res->BatchSize > 1;
  }
  EXPECT_GT(Merged, 0u) << "no result carried a batch size > 1";
  expectVecAddResult(*C);
  EXPECT_FALSE(static_cast<bool>(C->bye()));
  R.shutdown();
  EXPECT_GE(R.Server->server().stats().CoalescedBatches, 1u);
  EXPECT_GE(R.Server->server().stats().CoalescedJobs, 3u);
}

//===----------------------------------------------------------------------===//
// Malformed frames over a real socket
//===----------------------------------------------------------------------===//

TEST(NetServerTest, GarbageBytesGetErrorFrameAndClose) {
  NetRig R;
  auto S = tcpConnect("127.0.0.1", R.Port);
  ASSERT_TRUE(static_cast<bool>(S)) << S.message();
  ASSERT_FALSE(static_cast<bool>(S->setTimeout(30.0)));
  std::vector<uint8_t> Garbage(64, 0x5a);
  ASSERT_FALSE(static_cast<bool>(S->sendAll(Garbage)));

  // The server answers with one Error frame, then EOF.
  wire::FrameParser P;
  std::vector<uint8_t> In;
  std::string RecvErr;
  EXPECT_TRUE(readToEof(*S, In, RecvErr))
      << "server must close a poisoned connection: " << RecvErr;
  P.feed(In);
  auto F = P.next();
  ASSERT_TRUE(F.has_value()) << "no Error frame before close";
  EXPECT_EQ(F->Type, wire::MsgType::Error);
  auto E = wire::decodeError(F->Body);
  ASSERT_TRUE(static_cast<bool>(E)) << E.message();
  EXPECT_FALSE(E->Reason.empty());

  // The server survives: a well-behaved client is unaffected.
  auto C = NetClient::connectTcp("127.0.0.1", R.Port, 30.0, "after");
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareVecAddSurfaces(*C);
  ASSERT_FALSE(static_cast<bool>(C->submit(vecAddSubmit(0))));
  auto Res = C->readResult();
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed));
  R.shutdown();
  EXPECT_GE(R.Server->netStats().Malformed, 1u);
}

TEST(NetServerTest, MidFrameDisconnectDoesNotWedgeServer) {
  NetRig R;
  {
    auto S = tcpConnect("127.0.0.1", R.Port);
    ASSERT_TRUE(static_cast<bool>(S)) << S.message();
    // A valid header promising a 100-byte Submit body, then only 10
    // bytes, then close.
    wire::Writer W;
    W.u8('X');
    W.u8('N');
    W.u8('E');
    W.u8('T');
    W.u16(wire::Version);
    W.u16(static_cast<uint16_t>(wire::MsgType::Submit));
    W.u32(100);
    for (int K = 0; K < 10; ++K)
      W.u8(0);
    ASSERT_FALSE(static_cast<bool>(S->sendAll(W.bytes())));
  } // socket closes here, mid-frame

  auto C = NetClient::connectTcp("127.0.0.1", R.Port, 30.0, "post-cut");
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  declareVecAddSurfaces(*C);
  ASSERT_FALSE(static_cast<bool>(C->submit(vecAddSubmit(0))));
  auto Res = C->readResult();
  ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
  EXPECT_EQ(Res->State, static_cast<uint8_t>(serve::JobState::Completed));
}

//===----------------------------------------------------------------------===//
// Output batching: frames are sent at the loop's per-turn flush points
//===----------------------------------------------------------------------===//

// A well-framed but out-of-protocol frame (a Submit before the Hello)
// is answered by exactly one Error frame, which is on the wire before
// the reap closes the connection.
TEST(NetFlushTest, MalformedFrameGetsErrorFrameThenEof) {
  NetRig R;
  RawPeer P(R.Port);
  P.send(wire::encode(vecAddSubmit(1)));
  auto F = P.next();
  ASSERT_TRUE(F.has_value()) << "no Error frame before close";
  ASSERT_EQ(F->Type, wire::MsgType::Error);
  auto E = wire::decodeError(F->Body);
  ASSERT_TRUE(static_cast<bool>(E)) << E.message();
  EXPECT_NE(E->Reason.find("expected hello"), std::string::npos) << E->Reason;
  EXPECT_FALSE(P.next().has_value()) << "EOF must follow the Error frame";
  R.shutdown();
  EXPECT_EQ(R.Server->netStats().Malformed, 1u);
}

// One coalesced dispatch carries jobs of two sessions: each Result goes
// exactly once to its own connection, in that connection's submit order.
// The loop is held in a long "spin" dispatch while both clients submit,
// so the next turn reads all four Submits before it dispatches.
TEST(NetFlushTest, CoalescedBatchAcrossSessionsAnswersEachConnection) {
  NetServerConfig NC;
  NC.CoalesceWindow = 8;
  NetRig R(NC);
  RawPeer A(R.Port), B(R.Port);
  for (RawPeer *P : {&A, &B}) {
    P->send(wire::encode(wire::HelloMsg{wire::Version, "flush", 0, 0}));
    auto W = P->next();
    ASSERT_TRUE(W && W->Type == wire::MsgType::Welcome);
  }
  auto nop = [](uint64_t Tag) {
    wire::SubmitMsg M;
    M.Tag = Tag;
    M.Shreds = 2;
    M.Kernel = "nop";
    return wire::encode(M);
  };

  bool SpannedSessions = false;
  for (unsigned Try = 0; Try < 3 && !SpannedSessions; ++Try) {
    wire::SubmitMsg Spin;
    Spin.Tag = 100 + Try;
    Spin.Kernel = "spin";
    Spin.Params = {{"n", wire::ParamKind::Value, 2'000'000 << Try}};
    A.send(wire::encode(Spin));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    uint64_t Base = 10 * (Try + 1);
    A.send(frames({nop(Base + 1), nop(Base + 2)}));
    B.send(frames({nop(Base + 3), nop(Base + 4)}));

    wire::ResultMsg S = A.nextResult();
    EXPECT_EQ(S.Tag, Spin.Tag);
    EXPECT_EQ(S.State, static_cast<uint8_t>(serve::JobState::Completed));
    std::vector<wire::ResultMsg> Got = {A.nextResult(), A.nextResult(),
                                        B.nextResult(), B.nextResult()};
    std::vector<uint64_t> Tags;
    bool AllFour = true;
    for (const wire::ResultMsg &Res : Got) {
      Tags.push_back(Res.Tag);
      EXPECT_EQ(Res.State, static_cast<uint8_t>(serve::JobState::Completed));
      AllFour = AllFour && Res.BatchSize == 4;
    }
    EXPECT_EQ(Tags, (std::vector<uint64_t>{Base + 1, Base + 2, Base + 3,
                                           Base + 4}));
    SpannedSessions = AllFour;
  }
  EXPECT_TRUE(SpannedSessions) << "no dispatch merged both sessions' jobs";

  // Exactly once: the next frame on each connection answers a StatsReq,
  // so no duplicate Result is queued behind the ones read above.
  for (RawPeer *P : {&A, &B}) {
    P->send(wire::frame(wire::MsgType::StatsReq, {}));
    auto F = P->next();
    ASSERT_TRUE(F.has_value());
    EXPECT_EQ(F->Type, wire::MsgType::StatsJson);
  }
  R.shutdown();
  EXPECT_EQ(R.Server->netStats().ResultsDropped, 0u);
}

// NetChaos Truncate and Disconnect close the connection right after the
// faulted frame: its prefix (Truncate) or the whole frame (Disconnect)
// still reaches the peer before EOF.
TEST(NetFlushTest, TruncateAndDisconnectDeliverBeforeClose) {
  const size_t WelcomeBytes =
      wire::encode(wire::WelcomeMsg{wire::Version, 1, 0}).size();
  for (NetFaultKind K : {NetFaultKind::Truncate, NetFaultKind::Disconnect}) {
    NetFault Fault(1);
    Fault.setRate(K, 1.0);
    Fault.setOnly(K, wire::MsgType::Welcome);
    NetServerConfig NC;
    NC.Fault = &Fault;
    NetRig R(NC);
    auto S = tcpConnect("127.0.0.1", R.Port);
    ASSERT_TRUE(static_cast<bool>(S)) << S.message();
    ASSERT_FALSE(static_cast<bool>(S->setTimeout(30.0)));
    ASSERT_FALSE(static_cast<bool>(
        S->sendAll(wire::encode(wire::HelloMsg{wire::Version, "chaos", 0, 0}))));
    std::vector<uint8_t> In;
    std::string Err;
    ASSERT_TRUE(readToEof(*S, In, Err)) << Err;
    if (K == NetFaultKind::Truncate) {
      EXPECT_EQ(In.size(), WelcomeBytes / 2);
    } else {
      ASSERT_EQ(In.size(), WelcomeBytes);
      wire::FrameParser P;
      P.feed(In);
      auto F = P.next();
      ASSERT_TRUE(F.has_value());
      EXPECT_EQ(F->Type, wire::MsgType::Welcome);
    }
    R.shutdown();
    EXPECT_EQ(R.Server->netStats().FaultsInjected, 1u);
    EXPECT_EQ(R.Server->netStats().Closed, 1u);
  }
}

/// Polls the server's stats over a second connection until it reports a
/// backpressure stall: the loop has seen a parked Submit. False after
/// about 10 s. The stats travel over the wire because netStats() is the
/// loop thread's, unsynchronised, until shutdown.
bool awaitBackpressureStall(uint16_t Port) {
  RawPeer Probe(Port);
  Probe.send(wire::encode(wire::HelloMsg{wire::Version, "probe", 0, 0}));
  auto W = Probe.next();
  if (!W || W->Type != wire::MsgType::Welcome)
    return false;
  const std::string Key = "\"backpressure_stalls\": ";
  for (int K = 0; K < 1000; ++K) {
    Probe.send(wire::frame(wire::MsgType::StatsReq, {}));
    auto F = Probe.next();
    if (!F || F->Type != wire::MsgType::StatsJson)
      return false;
    std::string Json = cantFail(wire::decodeStatsJson(F->Body)).Json;
    size_t At = Json.find(Key);
    if (At != std::string::npos &&
        std::strtoull(Json.c_str() + At + Key.size(), nullptr, 10) > 0)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// A connection whose Submit is parked on its quota is never read again
// until the quota frees, yet the answers it earned before parking are
// flushed: the loop sends every connection's pending bytes, read or not.
TEST(NetFlushTest, ParkedSubmitStillFlushesEarlierAnswers) {
  NetServerConfig NC;
  NC.Serve.Queue.PerClientCap = 1;
  NetRig R(NC);
  {
    RawPeer P(R.Port);
    wire::SurfaceMsg C;
    C.Name = "C";
    C.Width = 64;
    C.Mode = 1;
    wire::SurfaceMsg A = C, B = C;
    A.Name = "A";
    B.Name = "B";
    // The held job fills the quota, so Submit 2 parks behind the Fetch.
    P.send(frames({wire::encode(wire::HelloMsg{wire::Version, "park", 0, 0}),
                   wire::encode(A), wire::encode(B), wire::encode(C),
                   wire::encode(vecAddSubmit(1, 8, wire::SubmitHold)),
                   wire::encode(wire::FetchMsg{"C"}),
                   wire::encode(vecAddSubmit(2))}));
    auto W = P.next();
    ASSERT_TRUE(W.has_value());
    EXPECT_EQ(W->Type, wire::MsgType::Welcome);
    auto D = P.next();
    ASSERT_TRUE(D.has_value());
    ASSERT_EQ(D->Type, wire::MsgType::SurfaceData);
    EXPECT_EQ(cantFail(wire::decodeSurfaceData(D->Body)).Data.size(), 256u);
    // The Fetch answer can leave before Submit 2 is parked: wait for the
    // park, or the abrupt close below may beat it.
    EXPECT_TRUE(awaitBackpressureStall(R.Port));
    // Scope exit: abrupt close while parked.
  }
  R.shutdown();
  EXPECT_GT(R.Server->netStats().BackpressureStalls, 0u);
  EXPECT_EQ(R.Server->server().stats().Completed, 0u);
}

// Surface declarations take fresh addresses too: one that no longer fits
// below 4 GiB is refused with a reason instead of wrapping onto live
// page-table entries. The address space is filled before the loop starts.
TEST(NetServerTest, SurfaceBeyondAddressSpaceIsRefused) {
  exo::ExoPlatform Platform;
  chi::Runtime RT(Platform);
  mem::VirtAddr Next =
      Platform.allocateShared(1, "probe").Base + mem::PageSize;
  Platform.allocateShared(mem::VirtualAllocator::Limit - Next - mem::PageSize,
                          "filler");
  NetServer Server(RT);
  uint16_t Port = cantFail(Server.listenTcp(0));
  std::thread Loop([&] { Server.run(); });
  {
    RawPeer P(Port);
    wire::SurfaceMsg Big;
    Big.Name = "big";
    Big.Width = 2048; // two pages; one is left
    P.send(frames({wire::encode(wire::HelloMsg{wire::Version, "full", 0, 0}),
                   wire::encode(Big)}));
    auto W = P.next();
    EXPECT_TRUE(W && W->Type == wire::MsgType::Welcome);
    auto E = P.next();
    bool IsError = E && E->Type == wire::MsgType::Error;
    EXPECT_TRUE(IsError) << "no Error frame for the oversized surface";
    if (IsError) {
      EXPECT_NE(cantFail(wire::decodeError(E->Body)).Reason.find("4 GiB"),
                std::string::npos);
    }
  }
  Server.stop();
  Loop.join();
  EXPECT_EQ(Server.netStats().Malformed, 1u);
}

//===----------------------------------------------------------------------===//
// Multi-client concurrency soak (the TSan lane: client threads + the
// server loop under EXOCHI_SANITIZE=thread)
//===----------------------------------------------------------------------===//

TEST(NetServerTest, ConcurrentClientsAllAnswered) {
  NetServerConfig NC;
  // Per-client quotas bind before global capacity, so overload is
  // absorbed by backpressure instead of queue-full rejections.
  NC.Serve.Queue.Capacity = 64;
  NetRig R(NC);
  constexpr unsigned Clients = 4, Jobs = 16;
  std::atomic<unsigned> Completed{0};
  std::vector<std::thread> Threads;
  for (unsigned K = 0; K < Clients; ++K) {
    Threads.emplace_back([&, K] {
      auto C = NetClient::connectTcp("127.0.0.1", R.Port, 60.0,
                                     "soak-" + std::to_string(K));
      ASSERT_TRUE(static_cast<bool>(C)) << C.message();
      declareVecAddSurfaces(*C);
      for (unsigned J = 0; J < Jobs; ++J)
        ASSERT_FALSE(static_cast<bool>(C->submit(vecAddSubmit(J))));
      for (unsigned J = 0; J < Jobs; ++J) {
        auto Res = C->readResult();
        ASSERT_TRUE(static_cast<bool>(Res)) << Res.message();
        if (Res->State == static_cast<uint8_t>(serve::JobState::Completed))
          ++Completed;
      }
      expectVecAddResult(*C);
      EXPECT_FALSE(static_cast<bool>(C->bye()));
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Completed.load(), Clients * Jobs)
      << "every job from every client must complete";
  R.shutdown();
  EXPECT_EQ(R.Server->netStats().ResultsDropped, 0u);
}

//===----------------------------------------------------------------------===//
// Chaos soak through the socket path: liveness + determinism
//===----------------------------------------------------------------------===//

namespace {

/// Everything observable about one served-over-sockets workload. Jobs is
/// indexed by Tag so cross-connection delivery order doesn't matter.
struct NetSoakOutcome {
  std::vector<std::tuple<uint8_t, uint8_t, uint64_t, double, double>> Jobs;
  std::string DrainJson;

  bool operator==(const NetSoakOutcome &) const = default;
};

/// The serve_test chaos mix replayed through sockets: 64 mixed-priority
/// jobs from 4 connections against a 24-deep queue under `all:0.1`
/// injection, 6 of each client's held jobs run, then a graceful drain.
/// Hold/run/drain plus a stats round-trip after every frame serialize
/// the cross-connection arrival order, making the workload a pure
/// function of the seed (DESIGN.md §13). Backpressure is off: quota
/// rejections are part of the workload here.
NetSoakOutcome runNetSoak(uint64_t Seed) {
  fault::FaultInjector Inj =
      cantFail(fault::FaultInjector::parse("all:0.1", Seed));
  NetServerConfig NC;
  NC.Serve.Queue.Capacity = 24;
  NC.Serve.Queue.PerClientCap = 10;
  NC.Serve.Breaker.TripThreshold = 1;
  NC.Serve.Watchdog.DefaultBudgetCycles = 100000;
  NC.Backpressure = false;
  NetRig R(NC, &Inj);

  constexpr unsigned Conns = 4, NumJobs = 64;
  std::vector<NetClient> Cs;
  for (unsigned K = 0; K < Conns; ++K) {
    auto C = NetClient::connectTcp("127.0.0.1", R.Port, 60.0,
                                   "chaos-" + std::to_string(K));
    EXPECT_TRUE(static_cast<bool>(C)) << C.message();
    declareVecAddSurfaces(*C);
    Cs.push_back(std::move(*C));
  }

  // A stats round-trip after every frame: the reply proves the server
  // consumed the frame, so the global arrival order is exactly the
  // submission order regardless of TCP timing.
  auto Sync = [&](NetClient &C) {
    auto S = C.stats();
    EXPECT_TRUE(static_cast<bool>(S)) << S.message();
  };

  for (unsigned J = 0; J < NumJobs; ++J) {
    int64_t Cycles = -1;
    if (J % 8 == 7)
      Cycles = 0;
    else if (J % 5 == 0)
      Cycles = 40;
    wire::SubmitMsg M = vecAddSubmit(J, /*Shreds=*/8, wire::SubmitHold);
    M.Pri = static_cast<uint8_t>(J % serve::NumPriorities);
    M.DeadlineCycles = Cycles;
    NetClient &C = Cs[J % Conns];
    EXPECT_FALSE(static_cast<bool>(C.submit(M)));
    Sync(C);
  }
  for (unsigned K = 0; K < Conns; ++K) {
    EXPECT_FALSE(static_cast<bool>(Cs[K].runJobs(6)));
    Sync(Cs[K]);
  }

  NetSoakOutcome Out;
  auto D = Cs[0].drain();
  EXPECT_TRUE(static_cast<bool>(D)) << D.message();
  Out.DrainJson = *D;

  Out.Jobs.resize(NumJobs);
  for (unsigned K = 0; K < Conns; ++K) {
    for (unsigned N = 0; N < NumJobs / Conns; ++N) {
      auto Res = Cs[K].readResult();
      EXPECT_TRUE(static_cast<bool>(Res)) << Res.message();
      if (!Res)
        return Out;
      EXPECT_LT(Res->Tag, NumJobs);
      Out.Jobs[Res->Tag] = {Res->State, Res->Reason, Res->ShredsPreempted,
                            Res->StartNs, Res->EndNs};
    }
    EXPECT_FALSE(static_cast<bool>(Cs[K].bye()));
  }
  return Out;
}

} // namespace

TEST(NetSoakTest, ChaosSoakTerminalAndBitIdenticalOnReplay) {
  for (uint64_t Seed : {1u, 2u, 3u, 5u, 7u, 11u, 13u, 42u}) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    NetSoakOutcome First = runNetSoak(Seed);

    // Liveness: all 64 jobs answered with a terminal state over the
    // wire; injected faults degrade, never fail.
    ASSERT_EQ(First.Jobs.size(), 64u);
    unsigned ZeroBudget = 0;
    for (size_t K = 0; K < First.Jobs.size(); ++K) {
      uint8_t St = std::get<0>(First.Jobs[K]);
      EXPECT_NE(St, static_cast<uint8_t>(serve::JobState::Queued))
          << "job " << K;
      EXPECT_NE(St, static_cast<uint8_t>(serve::JobState::Running))
          << "job " << K;
      EXPECT_NE(St, static_cast<uint8_t>(serve::JobState::Failed))
          << "job " << K;
      ZeroBudget +=
          St == static_cast<uint8_t>(serve::JobState::Rejected) &&
          std::get<1>(First.Jobs[K]) ==
              static_cast<uint8_t>(serve::RejectReason::ZeroBudget);
    }
    EXPECT_EQ(ZeroBudget, 8u);

    NetSoakOutcome Replay = runNetSoak(Seed);
    EXPECT_TRUE(Replay == First) << "socket-served workload diverges on replay";
  }
}
