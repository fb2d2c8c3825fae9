//===- bench/exobench/Serving.h - ExoNet rigs and the load generator --------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving side of exobench: the job shapes the serving workloads
/// send, an ExoNet server on its own runtime (XJIT fast lane, one device,
/// SimThreads 1) with its event loop on one thread, and the load
/// generator — a single thread spinning on ppoll over raw net::Sockets
/// that speaks the wire protocol itself, so every encode, decode and parse
/// it does can be timed from outside the server.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_BENCH_EXOBENCH_SERVING_H
#define EXOCHI_BENCH_EXOBENCH_SERVING_H

#include "Measure.h"

#include "chi/Runtime.h"
#include "exo/ExoPlatform.h"
#include "net/NetServer.h"
#include "support/Random.h"

#include <atomic>
#include <memory>
#include <pthread.h>
#include <string>
#include <thread>
#include <time.h>
#include <unordered_map>
#include <vector>

namespace exobench {

/// Pins \p Thread to CPU \p Cpu when the process may use it (no-op
/// otherwise).
void pinThread(pthread_t Thread, unsigned Cpu);
/// The CPUs the benchmark's threads run on: the main thread (the load
/// generator, or the Table 2 dispatcher) on one, the server's event loop
/// on another, so an open-loop generator is never queued behind the
/// server it loads and no thread migrates between runs. CPU 0 is avoided
/// because it usually takes device interrupts.
constexpr unsigned GeneratorCpu = 1, ServerCpu = 2;

/// The jobs the serving workloads send.
enum class JobShape {
  /// 8-shred vecadd over 64-element surfaces declared once per session.
  Small,
  /// 64-shred strip vecadd over 4096-element surfaces: each job uploads
  /// both 16 KB inputs inline and fetches its 16 KB output afterwards.
  Payload,
};

struct ShapeInfo {
  const char *Kernel;
  unsigned Shreds;
  unsigned Elems; ///< elements per surface
};
ShapeInfo shapeInfo(JobShape S);

/// \p Elems 32-bit elements of random bytes drawn from \p R.
std::vector<uint8_t> randomSurface(exochi::Rng &R, unsigned Elems);
/// Element-wise 32-bit wrapping sum of two surfaces' bytes: the host
/// reference for vecadd and strip_vecadd.
std::vector<uint8_t> surfaceSum(const std::vector<uint8_t> &A,
                                const std::vector<uint8_t> &B);

/// Name of the halt-only kernel (the fixed per-dispatch cost probe).
constexpr const char *NullKernel = "null";

/// A platform and runtime set up like every serving workload: one
/// device, SimThreads 1, the XJIT fast lane, and the serving kernels
/// (vecadd, strip_vecadd, null) loaded.
struct ServingRuntime {
  ServingRuntime();
  exochi::exo::ExoPlatform Platform;
  exochi::chi::Runtime RT;
};

/// An ExoNet server over its own ServingRuntime, coalesce window 8,
/// queue sized so per-client backpressure binds before capacity.
class ServerRig {
public:
  /// Listens on TCP loopback when \p UnixPath is empty, else on the unix
  /// socket at \p UnixPath.
  explicit ServerRig(const std::string &UnixPath);
  ~ServerRig() { shutdown(); }
  ServerRig(const ServerRig &) = delete;
  ServerRig &operator=(const ServerRig &) = delete;

  /// Stops and joins the event loop; stats are readable afterwards.
  void shutdown();
  exochi::Expected<exochi::net::Socket> connect() const;
  /// CPU seconds the event-loop thread has used (while it runs).
  double loopCpuSeconds() const;
  const exochi::net::NetServer &server() const { return *Server; }

private:
  ServingRuntime Rt;
  std::unique_ptr<exochi::net::NetServer> Server;
  uint16_t Port = 0;
  std::string UnixPath;
  // The threads come after what they use; shutdown() joins them.
  std::thread Loop;
  std::atomic<bool> KeepAwake{true};
  std::thread Keeper; ///< spins at SCHED_IDLE on the loop's CPU
  clockid_t LoopClock = 0; ///< the loop thread's CPU-time clock
};

/// Per-call wire codec timings of a traced run, taken on the exact frames
/// the generator sends and receives (microseconds).
struct CodecSamples {
  Samples EncodeSubmit, DecodeSubmit, EncodeResult, DecodeResult;
  double ParseUs = 0;
  uint64_t ParseBytes = 0;
};

/// What one load phase observed.
struct PhaseStats {
  Samples LatencyMs; ///< per answered job, from the time it was due
  Samples LagMs;     ///< how late each submit left the generator
  uint64_t Attempted = 0, Completed = 0, Failed = 0;
  /// Attempted jobs that failed, were refused, or were answered more than
  /// SloMs after they were due.
  uint64_t SloMiss = 0;
  double Seconds = 0; ///< from the phase start to its last answer
  /// CPU seconds the server's loop thread used in the phase: near Seconds,
  /// the server saturated.
  double LoopCpuS = 0;
  double jobsPerSec() const { return Seconds > 0 ? Completed / Seconds : 0; }
  void add(const PhaseStats &O);
};

constexpr double SloMs = 5.0;

/// The load generator.
class Generator {
public:
  /// Connects \p Conns sessions, declares their surfaces, and runs one
  /// warm-up job on each (the first XJIT compile). \p Seed makes every
  /// surface's contents. \p T and \p Codec may be null (untraced).
  Generator(const ServerRig &Rig, JobShape Shape, unsigned Conns,
            uint64_t Seed, Trace *T, CodecSamples *Codec);

  /// Starts (or stops, with nulls) recording spans and codec timings.
  void setTracing(Trace *NewT, CodecSamples *NewCodec);

  /// Poisson arrivals at \p Rate jobs/s for \p Seconds, round-robin over
  /// every connection; then waits for every answer.
  PhaseStats openLoop(double Rate, double Seconds, uint64_t Seed);
  /// The first \p Conns connections keep \p Depth jobs outstanding each
  /// until \p Seconds have passed or \p MaxJobs were sent (0 = no cap).
  PhaseStats closedLoop(unsigned Conns, unsigned Depth, double Seconds,
                        uint64_t MaxJobs = 0);
  /// Fetches every connection's output surface and compares it with the
  /// host reference; FATAL on a mismatch. (Payload jobs are checked one
  /// by one as they finish.)
  void verifyOutputs();
  /// Orderly goodbye on every connection.
  void bye();

private:
  struct Pair {
    std::vector<uint8_t> A, B, Sum; ///< inputs and expected output bytes
  };
  struct Conn {
    exochi::net::Socket Sock;
    exochi::net::wire::FrameParser In;
    std::vector<uint8_t> Out; ///< bytes the socket has not taken yet
    size_t OutOff = 0;
    std::vector<Pair> Pairs; ///< Small: the declared pair; Payload: a pool
    unsigned NextPair = 0;
    bool Welcomed = false;
    uint64_t FetchTag = 0; ///< Payload: the job whose output is in flight
    bool HasFetched = false;
    std::vector<uint8_t> Fetched; ///< verifyOutputs' readback
  };
  struct Job {
    Clock::time_point Due;
    unsigned Conn;
    unsigned Pair;
  };

  void sendFrame(Conn &C, std::vector<uint8_t> Bytes);
  void flush(Conn &C);
  /// Sends the next job on connection \p CI, due at \p Due.
  void submit(unsigned CI, Clock::time_point Due);
  /// One poll round (returns by \p Deadline), handling every frame that
  /// arrived.
  void pump(Clock::time_point Deadline);
  /// Pumps until every job is answered; FATAL past \p Limit.
  void drain(Clock::time_point Limit);
  void handleFrame(unsigned CI, const exochi::net::wire::Frame &F);
  void finishJob(unsigned CI, uint64_t Tag, bool Ok);
  /// Opens and closes a phase: the clocks, the loop's CPU time.
  void beginPhase(PhaseStats &S);
  void endPhase();

  const ServerRig &Rig;
  JobShape Shape;
  Trace *T;
  CodecSamples *Codec;
  uint16_t SpanJob = 0, SpanEncodeSubmit = 0, SpanDecodeSubmit = 0,
           SpanDecodeResult = 0, SpanEncodeResult = 0, SpanParse = 0;
  std::vector<Conn> Conns;
  std::unordered_map<uint64_t, Job> InFlight;
  uint64_t NextTag = 1;
  PhaseStats *Phase = nullptr; ///< the running phase
  Clock::time_point PhaseStart, LastAnswer;
  double LoopCpu0 = 0;
  /// Closed loop: connections [0, RefillConns) send a new job for each
  /// answer until RefillUntil, at most RefillLeft more.
  unsigned RefillConns = 0;
  Clock::time_point RefillUntil;
  uint64_t RefillLeft = 0;
  std::vector<uint8_t> RecvBuf;
};

} // namespace exobench

#endif // EXOCHI_BENCH_EXOBENCH_SERVING_H
