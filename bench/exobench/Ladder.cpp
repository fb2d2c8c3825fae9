//===- bench/exobench/Ladder.cpp --------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Ladder.h"

#include "serve/Server.h"

using namespace exobench;
using namespace exochi;

namespace {

constexpr unsigned WarmReps = 20, Reps = 400;

/// One job shape's surfaces on the direct rung's platform.
struct DirectSurfaces {
  uint32_t A = 0, B = 0, C = 0;
  mem::VirtAddr COut = 0;
  std::vector<uint8_t> Sum; ///< expected C bytes
};

DirectSurfaces makeSurfaces(ServingRuntime &Rt, JobShape Shape, Rng &R) {
  unsigned Elems = shapeInfo(Shape).Elems;
  DirectSurfaces S;
  std::vector<uint8_t> In[2];
  uint32_t *Desc[2] = {&S.A, &S.B};
  for (unsigned K = 0; K < 2; ++K) {
    In[K] = randomSurface(R, Elems);
    exo::SharedBuffer Buf = Rt.Platform.allocateShared(In[K].size(), "in");
    Rt.Platform.write(Buf.Base, In[K].data(), In[K].size());
    *Desc[K] = cantFail(Rt.RT.allocDesc(chi::TargetIsa::X3000, Buf.Base,
                                        chi::SurfaceMode::Input, Elems, 1));
  }
  exo::SharedBuffer Out = Rt.Platform.allocateShared(Elems * 4u, "out");
  std::vector<uint8_t> Zero(Elems * 4u, 0);
  Rt.Platform.write(Out.Base, Zero.data(), Zero.size());
  S.COut = Out.Base;
  S.C = cantFail(Rt.RT.allocDesc(chi::TargetIsa::X3000, Out.Base,
                                 chi::SurfaceMode::Output, Elems, 1));
  S.Sum = surfaceSum(In[0], In[1]);
  return S;
}

chi::RegionSpec jobSpec(JobShape Shape, const DirectSurfaces &S) {
  chi::RegionSpec Spec;
  Spec.KernelName = shapeInfo(Shape).Kernel;
  Spec.NumThreads = shapeInfo(Shape).Shreds;
  Spec.SharedDescs = {{"A", S.A}, {"B", S.B}, {"C", S.C}};
  Spec.Private["i"] = [](unsigned T) { return static_cast<int32_t>(T); };
  return Spec;
}

chi::RegionSpec nullSpec() {
  chi::RegionSpec Spec;
  Spec.KernelName = NullKernel;
  Spec.NumThreads = 1;
  return Spec;
}

/// Median wall time (us) of dispatching \p Spec directly.
double timeDispatch(chi::Runtime &RT, const chi::RegionSpec &Spec, Trace &T) {
  uint16_t Span = T.intern("chi.dispatch." + Spec.KernelName);
  Samples S;
  for (unsigned R = 0; R < WarmReps + Reps; ++R) {
    auto T0 = Clock::now();
    auto H = RT.dispatch(Spec);
    auto T1 = Clock::now();
    if (!H)
      fatal("direct %s: %s", Spec.KernelName.c_str(), H.message().c_str());
    if (RT.regionStats(*H)->Device.Backend != gma::BackendKind::Fast)
      fatal("direct %s fell back from the fast lane", Spec.KernelName.c_str());
    if (R >= WarmReps) {
      S.add(usBetween(T0, T1));
      T.add(Span, R, T0, T1);
    }
  }
  return S.median();
}

void checkSurface(ServingRuntime &Rt, const DirectSurfaces &S,
                  const char *What) {
  std::vector<uint8_t> Got(S.Sum.size());
  Rt.Platform.read(S.COut, Got.data(), Got.size());
  if (Got != S.Sum)
    fatal("%s: output differs from the host reference", What);
}

} // namespace

LadderResult exobench::runLadder(JobShape Shape, const std::string &UnixPath,
                                 uint64_t Seed, Trace &T) {
  LadderResult L;
  Rng R(Seed ^ 0x1add3e5ull);

  // Rung 1: direct Runtime::dispatch.
  ServingRuntime Rt;
  DirectSurfaces Small = makeSurfaces(Rt, JobShape::Small, R);
  DirectSurfaces Payload = makeSurfaces(Rt, JobShape::Payload, R);
  L.DispatchNullUs = timeDispatch(Rt.RT, nullSpec(), T);
  L.DispatchSmallUs = timeDispatch(Rt.RT, jobSpec(JobShape::Small, Small), T);
  L.DispatchPayloadUs =
      timeDispatch(Rt.RT, jobSpec(JobShape::Payload, Payload), T);
  checkSurface(Rt, Small, "direct vecadd");
  checkSurface(Rt, Payload, "direct strip_vecadd");

  // Rung 2: in-process serve::Server, the same job.
  const DirectSurfaces &Mine = Shape == JobShape::Small ? Small : Payload;
  {
    serve::Server Srv(Rt.RT);
    uint16_t SpanSubmit = T.intern("serve.submit");
    uint16_t SpanRun = T.intern("serve.run_next_batch");
    Samples Submit, Run;
    for (unsigned K = 0; K < WarmReps + Reps; ++K) {
      serve::JobSpec J;
      J.Region = jobSpec(Shape, Mine);
      auto T0 = Clock::now();
      serve::Server::SubmitResult Res = Srv.submit(std::move(J));
      auto T1 = Clock::now();
      std::vector<serve::JobId> Ran = Srv.runNextBatch(1);
      auto T2 = Clock::now();
      if (!Res.Admitted || Ran.size() != 1 ||
          Srv.job(Ran[0])->State != serve::JobState::Completed)
        fatal("in-process serve: job %u did not complete", Res.Id);
      if (K >= WarmReps) {
        Submit.add(usBetween(T0, T1));
        Run.add(usBetween(T1, T2));
        T.add(SpanSubmit, Res.Id, T0, T1);
        T.add(SpanRun, Res.Id, T1, T2);
      }
    }
    if (Srv.stats().FastLaneJobs != WarmReps + Reps)
      fatal("in-process serve: %llu of %u jobs ran on the fast lane",
            static_cast<unsigned long long>(Srv.stats().FastLaneJobs),
            WarmReps + Reps);
    checkSurface(Rt, Mine, "in-process serve");
    L.SubmitUs = Submit.median();
    L.RunNextBatchUs = Run.median();
    L.RunSelfUs = L.RunNextBatchUs - (Shape == JobShape::Small
                                          ? L.DispatchSmallUs
                                          : L.DispatchPayloadUs);
  }

  // Rung 3: ExoNet, one connection, one job at a time.
  ServerRig Rig(UnixPath);
  Generator G(Rig, Shape, 1, Seed, &T, &L.Codec);
  PhaseStats Unloaded = G.closedLoop(1, 1, 30.0, Reps);
  L.UnloadedP50Ms = Unloaded.LatencyMs.median();
  L.NetSelfUs = L.UnloadedP50Ms * 1e3 - (L.SubmitUs + L.RunNextBatchUs);
  L.Load.add(Unloaded);
  if (Shape == JobShape::Small) {
    // A burst as deep as one client's quota queues behind itself.
    PhaseStats Burst = G.closedLoop(1, 16, 30.0, 256);
    L.BurstP50Ms = Burst.LatencyMs.median();
    L.Load.add(Burst);
  }
  G.verifyOutputs();
  G.bye();
  Rig.shutdown();
  L.Net = Rig.server().netStats();
  L.Serve = Rig.server().server().stats();
  return L;
}
