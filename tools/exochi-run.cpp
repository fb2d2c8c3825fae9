//===- tools/exochi-run.cpp - Run a fat-binary kernel on the platform ---------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Loads a fat binary, allocates surfaces in shared virtual memory, and
// dispatches heterogeneous shreds onto the simulated platform — the whole
// EXOCHI stack driven from the command line.
//
//   exochi-run file.xfb --kernel vecadd --shreds 100
//              --surface A=800x1:seq --surface B=800x1:seq
//              --surface C=800x1:zero --param i=shred
//
// Surface fills: zero | seq (element index) | rand. Param values: an
// integer, or `shred` for the shred's index.
//
// --serve N runs the same dispatch as N ExoServe jobs through the
// admission queue / watchdog / circuit breaker instead of one direct
// region (--clients, --deadline, --drain-after shape the workload).
//
//===----------------------------------------------------------------------===//

#include "chi/ParallelRegion.h"
#include "fault/FaultInjector.h"
#include "gma/Gma.h"
#include "gma/Trace.h"
#include "chi/Runtime.h"
#include "net/NetServer.h"
#include "serve/Server.h"
#include "isa/Encoding.h"
#include "support/File.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "xopt/Verify.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

using namespace exochi;

namespace {

struct SurfaceArg {
  std::string Name;
  uint32_t W = 0, H = 1;
  std::string Fill = "zero";
};

bool parseSurfaceArg(const std::string &Spec, SurfaceArg &Out) {
  // name=WxH[:fill]
  size_t Eq = Spec.find('=');
  if (Eq == std::string::npos)
    return false;
  Out.Name = Spec.substr(0, Eq);
  std::string Rest = Spec.substr(Eq + 1);
  size_t Colon = Rest.find(':');
  if (Colon != std::string::npos) {
    Out.Fill = Rest.substr(Colon + 1);
    Rest = Rest.substr(0, Colon);
  }
  size_t X = Rest.find('x');
  if (X == std::string::npos)
    return false;
  auto W = parseInt(Rest.substr(0, X));
  auto H = parseInt(Rest.substr(X + 1));
  if (!W || !H || *W <= 0 || *H <= 0)
    return false;
  Out.W = static_cast<uint32_t>(*W);
  Out.H = static_cast<uint32_t>(*H);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Input, Kernel, TracePath, LintMode = "collect";
  std::string InjectSpec;
  uint64_t InjectSeed = 1;
  int MaxRetries = -1; ///< -1 = leave the platform default
  unsigned Shreds = 1;
  std::string Backend; ///< --backend: cycle|fast ("" = EXOCHI_BACKEND/default)
  int64_t ServeJobs = 0;      ///< --serve: number of ExoServe jobs (0 = off)
  int64_t ServeClients = 4;   ///< --clients: synthetic client count
  int64_t DeadlineCycles = -1; ///< --deadline: per-job budget (-1 = none)
  bool CostAdmission = false; ///< --cost-admission: XCost admission gate
  int64_t DrainAfter = -1;    ///< --drain-after: jobs to run before drain
  int64_t ListenPort = -1;    ///< --listen: TCP port (0 = ephemeral, -1 = off)
  std::string ListenUnix;     ///< --listen-unix: unix socket path
  int64_t CoalesceWindow = 1; ///< --coalesce-window: max jobs per dispatch
  std::string StatsOut;       ///< --stats-out: stats JSON file
  int64_t Devices = -1;  ///< --devices: GMA device count (-1 = EXOCHI_DEVICES/1)
  int64_t Steal = -1;    ///< --steal: cluster work stealing (-1 = default on)
  int64_t StealSeed = 0; ///< --steal-seed: steal tie-break seed
  std::string NetInject;      ///< --net-inject: NetChaos wire-fault spec
  int64_t NetInjectSeed = 1;  ///< --net-inject-seed
  std::vector<SurfaceArg> Surfaces;
  std::map<std::string, std::string> Params;

  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    auto Next = [&]() -> const char * {
      if (K + 1 >= Argc) {
        std::fprintf(stderr, "exochi-run: missing value for %s\n",
                     A.c_str());
        std::exit(2);
      }
      return Argv[++K];
    };
    // Matches `--flag V` and `--flag=V`, leaving the value in Val.
    auto matchValueOpt = [&](const char *Name, std::string &Val) -> bool {
      std::string Prefix = std::string(Name) + "=";
      if (A == Name) {
        Val = Next();
        return true;
      }
      if (A.rfind(Prefix, 0) == 0) {
        Val = A.substr(Prefix.size());
        return true;
      }
      return false;
    };
    // Numeric option values are validated, never silently defaulted: a
    // malformed or out-of-range value is a usage error.
    auto parseCount = [&](const char *Flag, const std::string &V,
                          int64_t Min) -> int64_t {
      auto N = parseInt(V);
      if (!N || *N < Min) {
        std::fprintf(stderr, "exochi-run: bad %s value '%s'\n", Flag,
                     V.c_str());
        std::exit(2);
      }
      return *N;
    };
    std::string Val;
    if (A == "--kernel")
      Kernel = Next();
    else if (A == "--trace")
      TracePath = Next();
    else if (matchValueOpt("--shreds", Val))
      Shreds = static_cast<unsigned>(parseCount("--shreds", Val, 1));
    else if (matchValueOpt("--serve", Val))
      ServeJobs = parseCount("--serve", Val, 1);
    else if (matchValueOpt("--clients", Val))
      ServeClients = parseCount("--clients", Val, 1);
    else if (matchValueOpt("--deadline", Val))
      DeadlineCycles = parseCount("--deadline", Val, 0);
    else if (A == "--cost-admission")
      CostAdmission = true;
    else if (matchValueOpt("--drain-after", Val))
      DrainAfter = parseCount("--drain-after", Val, 0);
    else if (matchValueOpt("--listen", Val)) {
      ListenPort = parseCount("--listen", Val, 0);
      if (ListenPort > 65535) {
        std::fprintf(stderr, "exochi-run: bad --listen port '%s'\n",
                     Val.c_str());
        return 2;
      }
    } else if (matchValueOpt("--listen-unix", Val))
      ListenUnix = Val;
    else if (matchValueOpt("--net-inject", Val))
      NetInject = Val;
    else if (matchValueOpt("--net-inject-seed", Val))
      NetInjectSeed = parseCount("--net-inject-seed", Val, 0);
    else if (matchValueOpt("--coalesce-window", Val))
      CoalesceWindow = parseCount("--coalesce-window", Val, 1);
    else if (matchValueOpt("--devices", Val))
      Devices = parseCount("--devices", Val, 1);
    else if (matchValueOpt("--steal", Val)) {
      Steal = parseCount("--steal", Val, 0);
      if (Steal > 1) {
        std::fprintf(stderr, "exochi-run: bad --steal value '%s' (need 0 "
                             "or 1)\n",
                     Val.c_str());
        return 2;
      }
    } else if (matchValueOpt("--steal-seed", Val))
      StealSeed = parseCount("--steal-seed", Val, 0);
    else if (matchValueOpt("--stats-out", Val))
      StatsOut = Val;
    else if (matchValueOpt("--backend", Val)) {
      if (!gma::parseBackendName(Val)) {
        std::fprintf(stderr,
                     "exochi-run: bad --backend value '%s' (need cycle or "
                     "fast)\n",
                     Val.c_str());
        return 2;
      }
      Backend = Val;
    }
    else if (A == "--inject" || A.rfind("--inject=", 0) == 0)
      InjectSpec = A.size() > 8 && A[8] == '=' ? A.substr(9)
                                               : std::string(Next());
    else if (A == "--inject-seed" || A.rfind("--inject-seed=", 0) == 0) {
      std::string V = A.size() > 13 && A[13] == '='
                          ? A.substr(14)
                          : std::string(Next());
      auto N = parseInt(V);
      if (!N || *N < 0) {
        std::fprintf(stderr, "exochi-run: bad --inject-seed value '%s'\n",
                     V.c_str());
        return 2;
      }
      InjectSeed = static_cast<uint64_t>(*N);
    } else if (A == "--max-retries" || A.rfind("--max-retries=", 0) == 0) {
      std::string V = A.size() > 13 && A[13] == '='
                          ? A.substr(14)
                          : std::string(Next());
      auto N = parseInt(V);
      if (!N || *N < 0) {
        std::fprintf(stderr, "exochi-run: bad --max-retries value '%s'\n",
                     V.c_str());
        return 2;
      }
      MaxRetries = static_cast<int>(*N);
    } else if (A == "--lint" || A.rfind("--lint=", 0) == 0) {
      LintMode = A.size() > 6 && A[6] == '=' ? A.substr(7)
                                             : std::string(Next());
      if (LintMode != "ignore" && LintMode != "collect" &&
          LintMode != "reject") {
        std::fprintf(stderr,
                     "exochi-run: --lint must be ignore, collect, or "
                     "reject (got '%s')\n",
                     LintMode.c_str());
        return 2;
      }
    } else if (A == "--surface") {
      SurfaceArg S;
      if (!parseSurfaceArg(Next(), S)) {
        std::fprintf(stderr, "exochi-run: bad --surface spec\n");
        return 2;
      }
      Surfaces.push_back(S);
    } else if (A == "--param") {
      std::string Spec = Next();
      size_t Eq = Spec.find('=');
      if (Eq == std::string::npos) {
        std::fprintf(stderr, "exochi-run: bad --param spec\n");
        return 2;
      }
      std::string Value = Spec.substr(Eq + 1);
      if (Value != "shred" && !parseInt(Value)) {
        std::fprintf(stderr,
                     "exochi-run: bad --param value '%s' (need an integer "
                     "or 'shred')\n",
                     Value.c_str());
        return 2;
      }
      Params[Spec.substr(0, Eq)] = std::move(Value);
    } else if (A == "--help" || A == "-h") {
      std::fprintf(stderr,
                   "usage: exochi-run <file.xfb> --kernel <name> "
                   "[--shreds N] [--surface n=WxH[:zero|seq|rand]] "
                   "[--param n=<int>|shred] [--trace out.json] "
                   "[--backend cycle|fast] "
                   "[--lint=ignore|collect|reject]\n"
                   "       [--inject <kind:rate,...|all:rate>] "
                   "[--inject-seed N] [--max-retries K]\n"
                   "       [--serve N] [--clients M] [--deadline CYCLES] "
                   "[--cost-admission] [--drain-after K] [--stats-out FILE]\n"
                   "       [--listen PORT] [--listen-unix PATH] "
                   "[--coalesce-window N] [--net-inject kind:rate,...] "
                   "[--net-inject-seed N]\n"
                   "       [--devices N] [--steal 0|1] [--steal-seed N]\n"
                   "  --devices N: simulate N GMA devices (ExoCluster); "
                   "shardable parallel\n"
                   "               regions split across them with "
                   "cooperative work stealing\n"
                   "               (EXOCHI_DEVICES env works too; flag "
                   "wins; default 1);\n"
                   "               --steal 0 disables stealing, "
                   "--steal-seed varies victim\n"
                   "               tie-breaks (surfaces stay bit-identical "
                   "either way)\n"
                   "  --backend fast: run verified kernels on the XJIT "
                   "host-native lane\n"
                   "                  (EXOCHI_BACKEND env works too; flag "
                   "wins; default cycle)\n"
                   "  --inject kinds: atr-transient, atr-fatal, ceh-timeout,"
                   " eu-hard-fail,\n"
                   "                  mailbox-drop, mailbox-dup, all\n"
                   "  --serve N: submit the dispatch as N ExoServe jobs "
                   "(mixed priorities,\n"
                   "             round-robin over --clients M); --deadline "
                   "sets each job's\n"
                   "             cycle budget; --drain-after K drains "
                   "gracefully after K jobs;\n"
                   "             --cost-admission rejects jobs whose XCost "
                   "static lower bound\n"
                   "             already exceeds the deadline "
                   "(cost-over-deadline, not preempted)\n"
                   "  --listen PORT: serve the loaded kernels over the "
                   "ExoNet wire protocol on\n"
                   "                 127.0.0.1:PORT (0 = ephemeral; the "
                   "bound port is printed);\n"
                   "                 --coalesce-window N merges up to N "
                   "compatible jobs per dispatch\n"
                   "  --net-inject kind:rate,... (listen mode): NetChaos "
                   "wire-fault injection on\n"
                   "                 outbound frames; kinds: drop, truncate, "
                   "stall, dup, disconnect,\n"
                   "                 all; --net-inject-seed N replays the "
                   "same fault schedule\n");
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "exochi-run: unknown option '%s'\n", A.c_str());
      return 2;
    } else {
      Input = A;
    }
  }
  bool ListenMode = ListenPort >= 0 || !ListenUnix.empty();
  if (Input.empty() || (Kernel.empty() && !ListenMode)) {
    std::fprintf(stderr, "exochi-run: need an input file and --kernel "
                         "(unless listening)\n");
    return 2;
  }

  auto Bytes = readFileBytes(Input);
  if (!Bytes) {
    std::fprintf(stderr, "exochi-run: %s\n", Bytes.message().c_str());
    return 1;
  }
  auto FB = fatbin::FatBinary::deserialize(*Bytes);
  if (!FB) {
    std::fprintf(stderr, "exochi-run: %s\n", FB.message().c_str());
    return 1;
  }

  // --lint: statically verify the kernel before dispatch, sharpened with
  // the geometry and parameter values this invocation actually binds.
  if (LintMode != "ignore" && !Kernel.empty()) {
    const fatbin::CodeSection *Sec = FB->findByName(Kernel);
    if (Sec && Sec->Isa == fatbin::IsaTag::XGMA) {
      auto Prog = isa::decodeProgram(Sec->Code);
      if (!Prog) {
        std::fprintf(stderr, "exochi-run: %s\n", Prog.message().c_str());
        return 1;
      }
      xopt::LintReport R = xopt::lintKernel(
          *Prog, static_cast<unsigned>(Sec->ScalarParams.size()), Kernel);
      xopt::VerifySpec Spec;
      Spec.NumScalarParams = static_cast<unsigned>(Sec->ScalarParams.size());
      Spec.NumSurfaceSlots = static_cast<int32_t>(Sec->SurfaceParams.size());
      for (size_t Slot = 0; Slot < Sec->SurfaceParams.size(); ++Slot)
        for (const SurfaceArg &S : Surfaces)
          if (S.Name == Sec->SurfaceParams[Slot])
            Spec.Surfaces[static_cast<int32_t>(Slot)] = {S.W, S.H};
      for (size_t P = 0; P < Sec->ScalarParams.size(); ++P) {
        auto It = Params.find(Sec->ScalarParams[P]);
        if (It != Params.end() && It->second != "shred")
          Spec.ParamRanges[static_cast<unsigned>(P)] =
              xopt::Range::point(*parseInt(It->second)); // validated above
      }
      R.append(xopt::verifyKernel(*Prog, Spec, Kernel));
      for (const xopt::LintDiag &D : R.Diags)
        std::fprintf(stderr, "exochi-run: %s: %s\n",
                     xopt::severityName(D.Sev), D.render(R.Kernel).c_str());
      if (LintMode == "reject" && !R.clean()) {
        std::fprintf(stderr,
                     "exochi-run: kernel '%s' rejected by --lint=reject\n",
                     Kernel.c_str());
        return 1;
      }
    }
  }

  // --devices wins over the EXOCHI_DEVICES env (same discipline as
  // --backend / EXOCHI_BACKEND); both are validated, never defaulted.
  if (Devices < 0)
    if (const char *Env = std::getenv("EXOCHI_DEVICES")) {
      auto N = parseInt(Env);
      if (!N || *N < 1) {
        std::fprintf(stderr,
                     "exochi-run: bad EXOCHI_DEVICES value '%s' (need a "
                     "positive device count)\n",
                     Env);
        return 2;
      }
      Devices = *N;
    }
  exo::PlatformConfig PC;
  PC.NumDevices = Devices > 0 ? static_cast<unsigned>(Devices) : 1;
  exo::ExoPlatform Platform(PC);
  chi::Runtime RT(Platform);
  {
    cluster::ClusterConfig CC;
    CC.Steal = Steal != 0;
    CC.StealSeed = static_cast<uint64_t>(StealSeed);
    RT.setClusterConfig(CC);
  }
  fault::FaultInjector Inj;
  if (!InjectSpec.empty()) {
    auto Parsed = fault::FaultInjector::parse(InjectSpec, InjectSeed);
    if (!Parsed) {
      std::fprintf(stderr, "exochi-run: %s\n", Parsed.message().c_str());
      return 2;
    }
    Inj = std::move(*Parsed);
    Platform.armFaultInjection(&Inj);
  }
  if (MaxRetries >= 0)
    Platform.setMaxRetries(static_cast<unsigned>(MaxRetries));
  if (Backend.empty())
    if (const char *Env = std::getenv("EXOCHI_BACKEND"))
      Backend = Env;
  if (!Backend.empty()) {
    auto B = gma::parseBackendName(Backend);
    if (!B) { // only reachable via EXOCHI_BACKEND; the flag is pre-checked
      std::fprintf(stderr,
                   "exochi-run: bad EXOCHI_BACKEND value '%s' (need cycle "
                   "or fast)\n",
                   Backend.c_str());
      return 2;
    }
    RT.setFeature(chi::Feature::Backend,
                  *B == gma::BackendKind::Fast ? 1 : 0);
  }
  gma::TraceRecorder Tracer;
  if (!TracePath.empty())
    for (unsigned D = 0; D < Platform.numDevices(); ++D)
      Platform.device(D).setTracer(&Tracer);
  if (Error E = RT.loadBinary(*FB)) {
    std::fprintf(stderr, "exochi-run: %s\n", E.message().c_str());
    return 1;
  }

  if (ListenMode) {
    // ExoNet mode: serve the loaded fat binary's kernels to socket
    // clients. Kernels, surfaces, and geometry all come from the wire;
    // the process exits after a client-issued Drain.
    net::NetFault NetInj(static_cast<uint64_t>(NetInjectSeed));
    if (!NetInject.empty()) {
      auto Parsed = net::NetFault::parse(NetInject,
                                         static_cast<uint64_t>(NetInjectSeed));
      if (!Parsed) {
        std::fprintf(stderr, "exochi-run: bad --net-inject: %s\n",
                     Parsed.message().c_str());
        return 2;
      }
      NetInj = std::move(*Parsed);
    }
    net::NetServerConfig NC;
    NC.Serve.CostAdmission = CostAdmission;
    NC.CoalesceWindow = static_cast<unsigned>(CoalesceWindow);
    NC.ExitOnDrain = true;
    NC.Fault = NetInj.armed() ? &NetInj : nullptr;
    net::NetServer Server(RT, NC, Inj.armed() ? &Inj : nullptr);
    if (ListenPort >= 0) {
      auto Port = Server.listenTcp(static_cast<uint16_t>(ListenPort));
      if (!Port) {
        std::fprintf(stderr, "exochi-run: %s\n", Port.message().c_str());
        return 1;
      }
      std::printf("exochi-run: listening on 127.0.0.1:%u\n", *Port);
    }
    if (!ListenUnix.empty()) {
      if (Error E = Server.listenUnix(ListenUnix)) {
        std::fprintf(stderr, "exochi-run: %s\n", E.message().c_str());
        return 1;
      }
      std::printf("exochi-run: listening on unix:%s\n", ListenUnix.c_str());
    }
    std::fflush(stdout); // let a parent scrape the bound port now
    Server.run();
    std::string Json = Server.statsJson();
    std::printf("net-stats: %s\n", Json.c_str());
    if (NetInj.armed())
      std::printf("net-chaos: %zu wire faults fired (seed %llu)\n",
                  NetInj.fired().size(),
                  static_cast<unsigned long long>(NetInj.seed()));
    if (!StatsOut.empty()) {
      if (Error E = writeFileBytes(
              StatsOut, std::vector<uint8_t>(Json.begin(), Json.end()))) {
        std::fprintf(stderr, "exochi-run: %s\n", E.message().c_str());
        return 1;
      }
      std::printf("wrote stats to %s\n", StatsOut.c_str());
    }
    return 0;
  }

  // Allocate and fill surfaces; build the region.
  chi::ParallelRegion Region(RT, chi::TargetIsa::X3000, Kernel);
  std::vector<std::pair<std::string, mem::VirtAddr>> Bases;
  for (const SurfaceArg &S : Surfaces) {
    exo::SharedBuffer Buf = Platform.allocateShared(
        static_cast<uint64_t>(S.W) * S.H * 4, S.Name);
    Rng R(0x9e0c41);
    for (uint64_t E = 0; E < static_cast<uint64_t>(S.W) * S.H; ++E) {
      uint32_t V = 0;
      if (S.Fill == "seq")
        V = static_cast<uint32_t>(E);
      else if (S.Fill == "rand")
        V = static_cast<uint32_t>(R.next());
      Platform.store<uint32_t>(Buf.Base + E * 4, V);
    }
    auto Desc = RT.allocDesc(chi::TargetIsa::X3000, Buf.Base,
                             chi::SurfaceMode::InputOutput, S.W, S.H);
    if (!Desc) {
      std::fprintf(stderr, "exochi-run: %s\n", Desc.message().c_str());
      return 1;
    }
    Region.shared(S.Name, *Desc);
    Bases.emplace_back(S.Name, Buf.Base);
  }
  for (const auto &[Name, Value] : Params) {
    if (Value == "shred")
      Region.privateVar(Name,
                        [](unsigned T) { return static_cast<int32_t>(T); });
    else
      Region.firstprivate(Name,
                          static_cast<int32_t>(*parseInt(Value))); // validated
  }
  Region.numThreads(Shreds);

  if (ServeJobs > 0) {
    // ExoServe mode: the same dispatch becomes N jobs with mixed
    // priorities from a round-robin of synthetic clients, submitted up
    // front so the admission queue, quotas, and load shedding engage.
    serve::ServerConfig SC;
    SC.CostAdmission = CostAdmission;
    serve::Server Srv(RT, SC, Inj.armed() ? &Inj : nullptr);
    for (int64_t J = 0; J < ServeJobs; ++J) {
      serve::JobSpec JS;
      JS.ClientId = static_cast<uint32_t>(J % ServeClients);
      JS.Pri = static_cast<serve::Priority>(J % serve::NumPriorities);
      JS.Region = Region.spec();
      JS.DeadlineCycles = DeadlineCycles;
      Srv.submit(std::move(JS));
    }
    int64_t Ran = 0;
    while ((DrainAfter < 0 || Ran < DrainAfter) && Srv.runNext())
      ++Ran;
    serve::DrainSummary D = Srv.drain();

    const serve::ServeStats &SS = Srv.stats();
    std::printf("served '%s': %llu jobs from %lld clients: %llu completed, "
                "%llu deadline-preempted, %llu rejected, %llu shed, "
                "%llu failed\n",
                Kernel.c_str(),
                static_cast<unsigned long long>(SS.Submitted),
                static_cast<long long>(ServeClients),
                static_cast<unsigned long long>(SS.Completed),
                static_cast<unsigned long long>(SS.DeadlinePreempted),
                static_cast<unsigned long long>(
                    SS.RejectedQueueFull + SS.RejectedClientQuota +
                    SS.RejectedZeroBudget + SS.RejectedDraining +
                    SS.RejectedCostOverDeadline),
                static_cast<unsigned long long>(SS.Shed),
                static_cast<unsigned long long>(SS.Failed));
    std::printf("serve-stats: %s\n", Srv.statsJson().c_str());
    std::printf("drain-summary: %s\n", D.toJson().c_str());

    if (!StatsOut.empty()) {
      json::Writer W;
      W.beginObject().key("serve_stats").raw(Srv.statsJson());
      std::string Json =
          W.member("drain_summary", D).endObject().take() + "\n";
      if (Error E = writeFileBytes(
              StatsOut, std::vector<uint8_t>(Json.begin(), Json.end()))) {
        std::fprintf(stderr, "exochi-run: %s\n", E.message().c_str());
        return 1;
      }
      std::printf("wrote stats to %s\n", StatsOut.c_str());
    }

    if (Inj.armed()) {
      const chi::ChiStats &FS = RT.faultStats();
      std::printf("faults: %llu injected, %llu retried, %llu shreds "
                  "re-dispatched, %llu EUs offlined, %llu breaker trips\n",
                  static_cast<unsigned long long>(FS.FaultsInjected),
                  static_cast<unsigned long long>(FS.Retried),
                  static_cast<unsigned long long>(FS.Redispatched),
                  static_cast<unsigned long long>(FS.Offlined),
                  static_cast<unsigned long long>(SS.BreakerTrips));
    }

    if (!TracePath.empty()) {
      std::string Json = Tracer.toChromeJson();
      if (Error E = writeFileBytes(
              TracePath, std::vector<uint8_t>(Json.begin(), Json.end()))) {
        std::fprintf(stderr, "exochi-run: %s\n", E.message().c_str());
        return 1;
      }
      std::printf("wrote %zu shred spans to %s\n", Tracer.spans().size(),
                  TracePath.c_str());
    }
    return 0;
  }

  auto H = Region.execute();
  if (!H) {
    std::fprintf(stderr, "exochi-run: %s\n", H.message().c_str());
    return 1;
  }
  const chi::RegionStats *S = RT.regionStats(*H);
  std::printf("ran '%s' on the %s backend: %llu shreds, %.3f ms simulated, "
              "%llu instructions, %llu TLB misses, %llu exceptions handled\n",
              Kernel.c_str(), gma::backendName(S->Device.Backend),
              static_cast<unsigned long long>(S->ShredsSpawned),
              S->totalNs() / 1e6,
              static_cast<unsigned long long>(S->Device.Instructions),
              static_cast<unsigned long long>(S->Device.TlbMisses),
              static_cast<unsigned long long>(S->Device.ExceptionsHandled));

  if (Inj.armed()) {
    const chi::ChiStats &FS = RT.faultStats();
    std::printf("faults: %llu injected (%zu sites), %llu retried, "
                "%llu shreds re-dispatched (%llu on IA32), %llu EUs "
                "offlined\n",
                static_cast<unsigned long long>(FS.FaultsInjected),
                Inj.fired().size(),
                static_cast<unsigned long long>(FS.Retried),
                static_cast<unsigned long long>(FS.Redispatched),
                static_cast<unsigned long long>(S->Device.HostRedispatches),
                static_cast<unsigned long long>(FS.Offlined));
  }

  if (!TracePath.empty()) {
    std::string Json = Tracer.toChromeJson();
    if (Error E = writeFileBytes(
            TracePath, std::vector<uint8_t>(Json.begin(), Json.end()))) {
      std::fprintf(stderr, "exochi-run: %s\n", E.message().c_str());
      return 1;
    }
    std::printf("wrote %zu shred spans to %s (occupancy %.0f%%)\n",
                Tracer.spans().size(), TracePath.c_str(),
                Tracer.occupancy() * 100);
  }

  for (const auto &[Name, Base] : Bases) {
    std::printf("%s[0..7] =", Name.c_str());
    for (unsigned K = 0; K < 8; ++K)
      std::printf(" %d", Platform.load<int32_t>(Base + K * 4));
    std::printf("\n");
  }
  return 0;
}
