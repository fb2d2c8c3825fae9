//===- bench/exobench/Serving.cpp -------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Serving.h"

#include "chi/ProgramBuilder.h"
#include "support/Random.h"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <time.h>

using namespace exobench;
using namespace exochi;
namespace wire = exochi::net::wire;

namespace {

/// C = A + B, eight elements per shred.
const char *VecaddAsm = R"(
  shl.1.dw vr1 = i, 3
  ld.8.dw  [vr2..vr9]   = (A, vr1, 0)
  ld.8.dw  [vr10..vr17] = (B, vr1, 0)
  add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]
  st.8.dw  (C, vr1, 0)  = [vr18..vr25]
  halt
)";

/// C = A + B over a 64-element strip per shred (eight 8-wide blocks).
std::string stripVecaddAsm() {
  std::string Asm = "  shl.1.dw vr1 = i, 6\n";
  for (unsigned B = 0; B < 8; ++B)
    Asm += "  ld.8.dw  [vr2..vr9]   = (A, vr1, 0)\n"
           "  ld.8.dw  [vr10..vr17] = (B, vr1, 0)\n"
           "  add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]\n"
           "  st.8.dw  (C, vr1, 0)  = [vr18..vr25]\n"
           "  add.1.dw vr1 = vr1, 8\n";
  return Asm + "  halt\n";
}

double cpuSeconds(clockid_t Id) {
  timespec TS{};
  clock_gettime(Id, &TS);
  return TS.tv_sec + TS.tv_nsec * 1e-9;
}

wire::SurfaceMsg surfaceMsg(const char *Name, unsigned Elems, uint8_t Mode,
                            const std::vector<uint8_t> *Data) {
  wire::SurfaceMsg S;
  S.Name = Name;
  S.Width = Elems;
  S.Height = 1;
  S.Mode = Mode;
  S.Fill = Data ? wire::SurfaceFill::Data : wire::SurfaceFill::Zero;
  if (Data)
    S.Data = *Data;
  return S;
}

} // namespace

void exobench::pinThread(pthread_t Thread, unsigned Cpu) {
  // The kernel refuses a CPU outside the process's cpuset; the thread
  // then stays where it was.
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  (void)pthread_setaffinity_np(Thread, sizeof(One), &One);
}

ShapeInfo exobench::shapeInfo(JobShape S) {
  return S == JobShape::Small ? ShapeInfo{"vecadd", 8, 64}
                              : ShapeInfo{"strip_vecadd", 64, 4096};
}

std::vector<uint8_t> exobench::randomSurface(Rng &R, unsigned Elems) {
  std::vector<uint8_t> B(static_cast<size_t>(Elems) * 4);
  for (uint8_t &X : B)
    X = R.nextByte();
  return B;
}

std::vector<uint8_t> exobench::surfaceSum(const std::vector<uint8_t> &A,
                                          const std::vector<uint8_t> &B) {
  std::vector<uint8_t> S(A.size());
  for (size_t K = 0; K < A.size(); K += 4) {
    uint32_t X, Y;
    std::memcpy(&X, &A[K], 4);
    std::memcpy(&Y, &B[K], 4);
    uint32_t Z = X + Y;
    std::memcpy(&S[K], &Z, 4);
  }
  return S;
}

ServingRuntime::ServingRuntime() : RT(Platform) {
  Platform.setSimThreads(1);
  chi::ProgramBuilder PB;
  cantFail(PB.addXgmaKernel("vecadd", VecaddAsm, {"i"}, {"A", "B", "C"})
               .takeError());
  cantFail(PB.addXgmaKernel("strip_vecadd", stripVecaddAsm(), {"i"},
                            {"A", "B", "C"})
               .takeError());
  cantFail(PB.addXgmaKernel(NullKernel, "  halt\n", {}, {}).takeError());
  cantFail(RT.loadBinary(PB.take()));
  RT.setFeature(chi::Feature::Backend, 1);
}

void PhaseStats::add(const PhaseStats &O) {
  LatencyMs.append(O.LatencyMs);
  LagMs.append(O.LagMs);
  Attempted += O.Attempted;
  Completed += O.Completed;
  Failed += O.Failed;
  SloMiss += O.SloMiss;
  Seconds += O.Seconds;
  LoopCpuS += O.LoopCpuS;
}

//===----------------------------------------------------------------------===//
// ServerRig
//===----------------------------------------------------------------------===//

ServerRig::ServerRig(const std::string &UnixPath) : UnixPath(UnixPath) {
  net::NetServerConfig NC;
  NC.CoalesceWindow = 8;
  // Per-client quotas (16) bind before global capacity, so a burst is
  // absorbed by backpressure, never by rejections.
  NC.Serve.Queue.Capacity = 64;
  Server = std::make_unique<net::NetServer>(Rt.RT, NC);
  if (UnixPath.empty())
    Port = cantFail(Server->listenTcp(0));
  else
    cantFail(Server->listenUnix(UnixPath));
  Loop = std::thread([this] { Server->run(); });
  pinThread(Loop.native_handle(), ServerCpu);
  // Keeps the loop's CPU from going idle: waking an idle virtual CPU costs
  // tens of microseconds that depend on the host's load, not on the code
  // measured. At SCHED_IDLE it runs only when the loop thread does not.
  Keeper = std::thread([this] {
    sched_param P{};
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &P);
    while (KeepAwake.load(std::memory_order_relaxed)) {
    }
  });
  pinThread(Keeper.native_handle(), ServerCpu);
  if (pthread_getcpuclockid(Loop.native_handle(), &LoopClock) != 0)
    fatal("no CPU clock for the server's loop thread");
}

void ServerRig::shutdown() {
  if (!Loop.joinable())
    return;
  Server->stop();
  Loop.join();
  KeepAwake.store(false, std::memory_order_relaxed);
  Keeper.join();
}

double ServerRig::loopCpuSeconds() const { return cpuSeconds(LoopClock); }

Expected<net::Socket> ServerRig::connect() const {
  return UnixPath.empty() ? net::tcpConnect("127.0.0.1", Port)
                          : net::unixConnect(UnixPath);
}

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

Generator::Generator(const ServerRig &Rig, JobShape Shape, unsigned NConns,
                     uint64_t Seed, Trace *TraceTo, CodecSamples *CodecTo)
    : Rig(Rig), Shape(Shape), T(nullptr), Codec(nullptr),
      RecvBuf(256 * 1024) {
  const ShapeInfo Info = shapeInfo(Shape);
  Rng R(Seed);
  Conns.resize(NConns);
  for (Conn &C : Conns) {
    unsigned NPairs = Shape == JobShape::Small ? 1 : 8;
    for (unsigned P = 0; P < NPairs; ++P) {
      Pair Pr;
      Pr.A = randomSurface(R, Info.Elems);
      Pr.B = randomSurface(R, Info.Elems);
      Pr.Sum = surfaceSum(Pr.A, Pr.B);
      C.Pairs.push_back(std::move(Pr));
    }
    auto S = Rig.connect();
    if (!S)
      fatal("connect: %s", S.message().c_str());
    C.Sock = std::move(*S);
    cantFail(C.Sock.setNonBlocking(true));
    sendFrame(C, wire::encode(wire::HelloMsg{wire::Version, "exobench", 0, 0}));
    sendFrame(C, wire::encode(surfaceMsg("A", Info.Elems, 0, &C.Pairs[0].A)));
    sendFrame(C, wire::encode(surfaceMsg("B", Info.Elems, 0, &C.Pairs[0].B)));
    sendFrame(C, wire::encode(surfaceMsg("C", Info.Elems, 1, nullptr)));
  }
  auto Limit = Clock::now() + std::chrono::seconds(30);
  for (Conn &C : Conns)
    while (!C.Welcomed) {
      if (Clock::now() > Limit)
        fatal("no Welcome from the server within 30 s");
      pump(Clock::now() + std::chrono::milliseconds(10));
    }

  // Warm-up: one untraced job per session (the first XJIT compile and
  // the XVerify elision verdict land here).
  PhaseStats Warm = closedLoop(NConns, 1, 30.0, NConns);
  if (Warm.Completed != NConns)
    fatal("warm-up: %llu of %u jobs completed",
          static_cast<unsigned long long>(Warm.Completed), NConns);
  setTracing(TraceTo, CodecTo);
}

void Generator::setTracing(Trace *NewT, CodecSamples *NewCodec) {
  T = NewT;
  Codec = NewCodec;
  if (!T)
    return;
  SpanJob = T->intern("job");
  SpanEncodeSubmit = T->intern("wire.encode_submit");
  SpanDecodeSubmit = T->intern("wire.decode_submit");
  SpanDecodeResult = T->intern("wire.decode_result");
  SpanEncodeResult = T->intern("wire.encode_result");
  SpanParse = T->intern("wire.parse");
}

void Generator::sendFrame(Conn &C, std::vector<uint8_t> Bytes) {
  // Sent by the next pump(): frames queued while handling one read go out
  // in one send.
  if (C.OutOff == C.Out.size()) {
    C.Out = std::move(Bytes);
    C.OutOff = 0;
  } else {
    C.Out.insert(C.Out.end(), Bytes.begin(), Bytes.end());
  }
}

void Generator::flush(Conn &C) {
  while (C.OutOff < C.Out.size()) {
    long K = ::send(C.Sock.fd(), C.Out.data() + C.OutOff,
                    C.Out.size() - C.OutOff, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (K > 0) {
      C.OutOff += static_cast<size_t>(K);
      continue;
    }
    if (K < 0 && errno == EINTR)
      continue;
    if (K < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break; // backpressure: poll for POLLOUT
    fatal("send: %s", std::strerror(errno));
  }
  if (C.OutOff == C.Out.size()) {
    C.Out.clear();
    C.OutOff = 0;
  } else if (C.OutOff > (1u << 20)) {
    C.Out.erase(C.Out.begin(), C.Out.begin() + C.OutOff);
    C.OutOff = 0;
  }
}

void Generator::submit(unsigned CI, Clock::time_point Due) {
  Conn &C = Conns[CI];
  const ShapeInfo Info = shapeInfo(Shape);
  uint64_t Tag = NextTag++;
  wire::SubmitMsg M;
  M.Tag = Tag;
  M.Shreds = Info.Shreds;
  M.Kernel = Info.Kernel;
  M.Params = {{"i", wire::ParamKind::Shred, 0}};
  M.Bind = {"A", "B", "C"};
  unsigned P = 0;
  if (Shape == JobShape::Payload) {
    P = C.NextPair++ % C.Pairs.size();
    M.Uploads = {surfaceMsg("A", Info.Elems, 0, &C.Pairs[P].A),
                 surfaceMsg("B", Info.Elems, 0, &C.Pairs[P].B)};
  }
  std::vector<uint8_t> Bytes;
  timed(T, Codec ? &Codec->EncodeSubmit : nullptr, SpanEncodeSubmit, Tag,
        [&] { Bytes = wire::encode(M); });
  if (Codec) {
    // Decode the exact frame just sent, as the server will.
    std::vector<uint8_t> Body(Bytes.begin() + wire::HeaderBytes, Bytes.end());
    timed(T, &Codec->DecodeSubmit, SpanDecodeSubmit, Tag, [&] {
      if (!wire::decodeSubmit(Body))
        fatal("the generator's own Submit frame does not decode");
    });
  }
  InFlight[Tag] = Job{Due, CI, P};
  ++Phase->Attempted;
  sendFrame(C, std::move(Bytes));
  Phase->LagMs.add(msBetween(Due, Clock::now()));
}

void Generator::pump(Clock::time_point Deadline) {
  std::vector<pollfd> P;
  P.reserve(Conns.size());
  for (Conn &C : Conns) {
    flush(C);
    P.push_back({C.Sock.fd(),
                 static_cast<short>(POLLIN |
                                    (C.OutOff < C.Out.size() ? POLLOUT : 0)),
                 0});
  }
  // Spin rather than sleep: a sleeping generator would add its own wake-up
  // latency, which on a virtual machine varies with the host's load, to
  // every job it times, and would wake late for its own schedule.
  const timespec Zero{};
  int N = 0;
  do
    N = ::ppoll(P.data(), P.size(), &Zero, nullptr);
  while (N == 0 && Clock::now() < Deadline);
  if (N < 0 && errno != EINTR)
    fatal("ppoll: %s", std::strerror(errno));
  if (N <= 0)
    return;

  for (unsigned CI = 0; CI < Conns.size(); ++CI) {
    Conn &C = Conns[CI];
    if (P[CI].revents & POLLOUT)
      flush(C);
    if (!(P[CI].revents & (POLLIN | POLLHUP | POLLERR)))
      continue;
    for (;;) {
      long K = ::recv(C.Sock.fd(), RecvBuf.data(), RecvBuf.size(),
                      MSG_DONTWAIT);
      if (K < 0 && errno == EINTR)
        continue;
      if (K < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        break;
      if (K <= 0)
        fatal("the server closed connection %u", CI);
      std::vector<wire::Frame> Frames;
      auto T0 = Clock::now();
      C.In.feed(RecvBuf.data(), static_cast<size_t>(K));
      while (auto F = C.In.next())
        Frames.push_back(std::move(*F));
      if (Codec) {
        auto T1 = Clock::now();
        Codec->ParseUs += usBetween(T0, T1);
        Codec->ParseBytes += static_cast<uint64_t>(K);
        if (T)
          T->add(SpanParse, 0, T0, T1);
      }
      if (C.In.poisoned())
        fatal("unparseable server stream: %s", C.In.error().c_str());
      for (const wire::Frame &F : Frames)
        handleFrame(CI, F);
    }
  }
}

void Generator::handleFrame(unsigned CI, const wire::Frame &F) {
  Conn &C = Conns[CI];
  switch (F.Type) {
  case wire::MsgType::Welcome:
    if (!wire::decodeWelcome(F.Body))
      fatal("bad Welcome frame");
    C.Welcomed = true;
    return;
  case wire::MsgType::Result: {
    Expected<wire::ResultMsg> R = Error::make("not decoded");
    timed(T, Codec ? &Codec->DecodeResult : nullptr, SpanDecodeResult, 0,
          [&] { R = wire::decodeResult(F.Body); });
    if (!R)
      fatal("bad Result frame: %s", R.message().c_str());
    if (Codec)
      timed(T, &Codec->EncodeResult, SpanEncodeResult, R->Tag,
            [&] { (void)wire::encode(*R); });
    if (!InFlight.count(R->Tag))
      fatal("Result for unknown tag %llu",
            static_cast<unsigned long long>(R->Tag));
    bool Ok = static_cast<serve::JobState>(R->State) ==
              serve::JobState::Completed;
    if (Ok && Shape == JobShape::Payload) {
      // The job is answered once its output is back and checked.
      C.FetchTag = R->Tag;
      sendFrame(C, wire::encode(wire::FetchMsg{"C"}));
      return;
    }
    finishJob(CI, R->Tag, Ok);
    return;
  }
  case wire::MsgType::SurfaceData: {
    auto D = wire::decodeSurfaceData(F.Body);
    if (!D)
      fatal("bad SurfaceData frame: %s", D.message().c_str());
    if (C.FetchTag) {
      uint64_t Tag = C.FetchTag;
      C.FetchTag = 0;
      if (D->Data != C.Pairs[InFlight.at(Tag).Pair].Sum)
        fatal("job %llu: fetched output differs from the host reference",
              static_cast<unsigned long long>(Tag));
      finishJob(CI, Tag, true);
    } else {
      C.Fetched = std::move(D->Data);
      C.HasFetched = true;
    }
    return;
  }
  case wire::MsgType::Error: {
    auto E = wire::decodeError(F.Body);
    fatal("server error on connection %u: %s", CI,
          E ? E->Reason.c_str() : "(undecodable)");
  }
  default:
    fatal("unexpected %s frame from the server", wire::msgTypeName(F.Type));
  }
}

void Generator::finishJob(unsigned CI, uint64_t Tag, bool Ok) {
  auto It = InFlight.find(Tag);
  Job J = It->second;
  InFlight.erase(It);
  auto Now = Clock::now();
  LastAnswer = Now;
  double Ms = msBetween(J.Due, Now);
  if (Ok) {
    ++Phase->Completed;
    Phase->LatencyMs.add(Ms);
  } else {
    ++Phase->Failed;
  }
  if (!Ok || Ms > SloMs)
    ++Phase->SloMiss;
  if (T)
    T->add(SpanJob, Tag, J.Due, Now);
  if (CI < RefillConns && RefillLeft > 0 && Now < RefillUntil) {
    --RefillLeft;
    submit(CI, Now);
  }
}

void Generator::drain(Clock::time_point Limit) {
  while (!InFlight.empty()) {
    if (Clock::now() > Limit)
      fatal("%zu jobs unanswered at the end of a phase", InFlight.size());
    pump(Clock::now() + std::chrono::milliseconds(20));
  }
}

void Generator::beginPhase(PhaseStats &S) {
  Phase = &S;
  PhaseStart = LastAnswer = Clock::now();
  LoopCpu0 = Rig.loopCpuSeconds();
}

void Generator::endPhase() {
  Phase->Seconds = msBetween(PhaseStart, LastAnswer) / 1e3;
  Phase->LoopCpuS = Rig.loopCpuSeconds() - LoopCpu0;
  Phase = nullptr;
}

PhaseStats Generator::openLoop(double Rate, double Seconds, uint64_t Seed) {
  PhaseStats S;
  beginPhase(S);
  Rng R(Seed);
  auto Gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - R.nextDouble()) /
                                      Rate));
  };
  auto End = PhaseStart + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(Seconds));
  auto Next = PhaseStart + Gap();
  unsigned K = 0;
  while (Next < End) {
    auto Now = Clock::now();
    while (Next <= Now && Next < End) {
      submit(K++ % Conns.size(), Next);
      Next += Gap();
    }
    pump(std::min(Next, End));
  }
  drain(End + std::chrono::seconds(30));
  endPhase();
  return S;
}

PhaseStats Generator::closedLoop(unsigned NConns, unsigned Depth,
                                 double Seconds, uint64_t MaxJobs) {
  if (Shape == JobShape::Payload && Depth != 1)
    fatal("payload jobs upload their inputs inline: one outstanding job "
          "per connection");
  PhaseStats S;
  beginPhase(S);
  RefillUntil = PhaseStart + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(Seconds));
  RefillConns = NConns;
  RefillLeft = MaxJobs ? MaxJobs : ~0ull;
  for (unsigned D = 0; D < Depth; ++D)
    for (unsigned CI = 0; CI < NConns && RefillLeft > 0; ++CI, --RefillLeft)
      submit(CI, Clock::now());
  drain(RefillUntil + std::chrono::seconds(30));
  RefillConns = 0;
  endPhase();
  return S;
}

void Generator::verifyOutputs() {
  if (Shape != JobShape::Small)
    return;
  for (Conn &C : Conns) {
    C.HasFetched = false;
    sendFrame(C, wire::encode(wire::FetchMsg{"C"}));
  }
  auto Limit = Clock::now() + std::chrono::seconds(30);
  for (unsigned CI = 0; CI < Conns.size(); ++CI) {
    Conn &C = Conns[CI];
    while (!C.HasFetched) {
      if (Clock::now() > Limit)
        fatal("no SurfaceData answer within 30 s");
      pump(Clock::now() + std::chrono::milliseconds(10));
    }
    if (C.Fetched != C.Pairs[0].Sum)
      fatal("connection %u: fetched output differs from the host reference",
            CI);
  }
}

void Generator::bye() {
  // Only flush: the server answers Bye by closing, which pump() would
  // report as a failure.
  auto Limit = Clock::now() + std::chrono::seconds(10);
  for (Conn &C : Conns) {
    sendFrame(C, wire::encode(wire::ByeMsg{}));
    for (flush(C); C.OutOff < C.Out.size(); flush(C)) {
      if (Clock::now() > Limit)
        fatal("could not send Bye within 10 s");
      pollfd P{C.Sock.fd(), POLLOUT, 0};
      ::poll(&P, 1, 10);
    }
  }
}
