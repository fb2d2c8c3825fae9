//===- bench/exobench/Table2.cpp --------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Table2.h"

#include "chi/ProgramBuilder.h"

#include <algorithm>

using namespace exobench;
using namespace exochi;

Table2Config exobench::fastConfig() { return {0.5, true, 1}; }
Table2Config exobench::clusterCycleConfig() { return {0.25, false, 2}; }

Table2Rig::Table2Rig(const Table2Config &C) : Config(C) {
  for (auto &WL : kernels::createTable2Workloads(C.Scale)) {
    Kernel K;
    exo::PlatformConfig PC;
    PC.NumDevices = C.Devices;
    K.Platform = std::make_unique<exo::ExoPlatform>(PC);
    K.Platform->setSimThreads(1);
    K.RT = std::make_unique<chi::Runtime>(*K.Platform);
    cluster::ClusterConfig CC;
    CC.Steal = true;
    CC.StealSeed = 0x5eed;
    CC.HostLane = true;
    K.RT->setClusterConfig(CC);
    K.RT->setFeature(chi::Feature::Backend, C.Fast ? 1 : 0);
    chi::ProgramBuilder PB;
    const char *Name = WL->abbrev().c_str();
    if (Error E = WL->compile(PB))
      fatal("%s: %s", Name, E.message().c_str());
    if (Error E = K.RT->loadBinary(PB.binary()))
      fatal("%s: %s", Name, E.message().c_str());
    if (Error E = WL->setup(*K.RT))
      fatal("%s: %s", Name, E.message().c_str());
    K.WL = std::move(WL);
    Kernels.push_back(std::move(K));
  }
  std::vector<unsigned> Order(Kernels.size());
  for (unsigned K = 0; K < Order.size(); ++K)
    Order[K] = K;
  PassResult Warm = pass(Order, nullptr, 0);
  for (double Ms : Warm.FirstJobMs)
    FirstDispatchMs += Ms;
}

Table2Rig::~Table2Rig() = default;

const std::string &Table2Rig::name(size_t K) const {
  return Kernels[K].WL->abbrev();
}

uint64_t Table2Rig::jobsPerPass() const {
  uint64_t N = 0;
  for (const Kernel &K : Kernels)
    N += K.WL->totalStrips() / K.WL->stripsPerFrame();
  return N;
}

PassResult Table2Rig::pass(const std::vector<unsigned> &Order, Trace *T,
                           uint64_t FirstId) {
  PassResult R;
  R.KernelMs.assign(Kernels.size(), 0.0);
  R.FirstJobMs.assign(Kernels.size(), 0.0);
  R.Counts.assign(Kernels.size(), KernelCounts());
  uint64_t Id = FirstId;
  auto PassStart = Clock::now();
  for (unsigned KI : Order) {
    Kernel &K = Kernels[KI];
    KernelCounts &KC = R.Counts[KI];
    const std::string &Name = K.WL->abbrev();
    uint16_t Span = T ? T->intern("chi.dispatch." + Name) : 0;
    uint64_t Spf = K.WL->stripsPerFrame();
    for (uint64_t S0 = 0; S0 < K.WL->totalStrips(); S0 += Spf, ++Id) {
      auto T0 = Clock::now();
      auto H = K.WL->dispatchDevice(*K.RT, S0, S0 + Spf);
      auto T1 = Clock::now();
      if (!H)
        fatal("%s: %s", Name.c_str(), H.message().c_str());
      double Ms = msBetween(T0, T1);
      if (S0 == 0)
        R.FirstJobMs[KI] = Ms;
      R.KernelMs[KI] += Ms;
      R.JobMs.add(Ms);
      if (T)
        T->add(Span, Id, T0, T1);

      const chi::RegionStats &RS = *K.RT->regionStats(*H);
      gma::BackendKind Want =
          Config.Fast ? gma::BackendKind::Fast : gma::BackendKind::Cycle;
      if (RS.Device.Backend != Want)
        fatal("%s ran on the %s backend, not %s (silent fallback)",
              Name.c_str(), gma::backendName(RS.Device.Backend),
              gma::backendName(Want));
      KC.Instructions += RS.Device.Instructions;
      KC.MemoryOps += RS.Device.MemoryOps;
      KC.CacheMisses += RS.Device.CacheMisses;
      KC.TlbMisses += RS.Device.TlbMisses;
      KC.ProxyCalls += RS.Device.ProxyCalls;
      KC.IssueCycles += RS.Device.IssueCycles;
      KC.SimNs += RS.totalNs();
      double MinFinish = 0, MaxFinish = 0;
      unsigned Lanes = 0;
      for (const chi::ShardStat &L : RS.Shards) {
        KC.StolenShreds += L.Stolen;
        if (L.HostLane) {
          KC.HostShreds += L.Shreds;
          continue;
        }
        MinFinish = Lanes ? std::min(MinFinish, L.FinishNs) : L.FinishNs;
        MaxFinish = Lanes ? std::max(MaxFinish, L.FinishNs) : L.FinishNs;
        ++Lanes;
      }
      KC.FinishSpreadNs += MaxFinish - MinFinish;
      KC.DeviceLanes = std::max(KC.DeviceLanes, Lanes);
    }
    if (KC.DeviceLanes != Config.Devices)
      fatal("%s used %u device lanes, not %u (the cluster did not shard it)",
            Name.c_str(), KC.DeviceLanes, Config.Devices);
  }
  R.Ms = msBetween(PassStart, Clock::now());
  return R;
}

void Table2Rig::computeReferences() {
  for (Kernel &K : Kernels)
    if (Error E = K.WL->hostCompute(0, K.WL->totalStrips()))
      fatal("%s reference: %s", K.WL->abbrev().c_str(), E.message().c_str());
}

void Table2Rig::clearOutputs() {
  for (Kernel &K : Kernels) {
    // Descriptor ids are handed out densely from 1.
    for (uint32_t D = 1; const chi::Descriptor *Desc = K.RT->descriptor(D);
         ++D) {
      if (Desc->Mode != chi::SurfaceMode::Output)
        continue;
      std::vector<uint8_t> Zero(Desc->totalBytes(), 0);
      K.Platform->write(Desc->Ptr, Zero.data(), Zero.size());
    }
  }
}

void Table2Rig::checkOutputs() {
  for (Kernel &K : Kernels)
    if (Error E = K.WL->compareSharedToReference(*K.RT))
      fatal("wrong output: %s", E.message().c_str());
}
