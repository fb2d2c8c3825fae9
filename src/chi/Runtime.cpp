//===- chi/Runtime.cpp ---------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "chi/Runtime.h"

#include "isa/Encoding.h"
#include "support/Format.h"
#include "xjit/Xjit.h"
#include "xopt/Lint.h"
#include "xopt/Verify.h"

#include <algorithm>

using namespace exochi;
using namespace exochi::chi;

const char *chi::memoryModelName(MemoryModel M) {
  switch (M) {
  case MemoryModel::DataCopy:
    return "DataCopy";
  case MemoryModel::NonCCShared:
    return "Non-CC Shared";
  case MemoryModel::CCShared:
    return "CC Shared";
  }
  exochiUnreachable("bad MemoryModel");
}

Runtime::Runtime(exo::ExoPlatform &Platform, MemoryModel Model)
    : Platform(Platform), Model(Model) {}

Runtime::~Runtime() = default;

Error Runtime::loadBinary(const fatbin::FatBinary &Binary) {
  for (const fatbin::CodeSection &S : Binary.sections()) {
    if (S.Isa != fatbin::IsaTag::XGMA)
      continue;
    if (Loaded.count(S.Name))
      return Error::make(
          formatString("kernel '%s' already loaded", S.Name.c_str()));
    auto Prog = isa::decodeProgram(S.Code);
    if (!Prog)
      return Error::make(formatString("kernel '%s': %s", S.Name.c_str(),
                                      Prog.message().c_str()));
    LoadedKernel LK;
    // XJIT eligibility gate: the fast lane only accepts kernels it can
    // represent (no spawn) whose static lint + ABI-level XVerify pass is
    // free of Error-severity findings. Ineligible kernels silently stay
    // on the cycle backend whatever Feature::Backend says.
    LK.FastEligible = xjit::JitEngine::supports(*Prog);
    // ExoCluster shardability gate: a kernel free of cross-shred
    // synchronization (xmit/wait/spawn) never observes which device a
    // sibling runs on, so any partition of the shred range yields the
    // same surfaces. The same Error-free lint/XVerify requirement as the
    // fast lane proves the per-shred accesses are also in bounds.
    bool HasSync = false;
    for (const isa::Instruction &I : *Prog)
      HasSync = HasSync || I.Op == isa::Opcode::Xmit ||
                I.Op == isa::Opcode::Wait || I.Op == isa::Opcode::Spawn;
    LK.Shardable = !HasSync;
    if (LK.FastEligible || LK.Shardable) {
      unsigned NumParams = static_cast<unsigned>(S.ScalarParams.size());
      xopt::LintReport Rep = xopt::lintKernel(*Prog, NumParams, S.Name);
      xopt::VerifySpec Spec;
      Spec.NumScalarParams = NumParams;
      Spec.NumSurfaceSlots = static_cast<int32_t>(S.SurfaceParams.size());
      Rep.append(xopt::verifyKernel(*Prog, Spec, S.Name));
      bool Clean = Rep.count(xopt::Severity::Error) == 0;
      LK.FastEligible = LK.FastEligible && Clean;
      LK.Shardable = LK.Shardable && Clean;
    }
    gma::KernelImage Img;
    Img.Code = std::move(*Prog);
    Img.Name = S.Name;
    LK.DeviceKernelId = Platform.device().registerKernel(std::move(Img));
    LK.Section = S;
    Loaded.emplace(S.Name, std::move(LK));
  }
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Table 1 APIs
//===----------------------------------------------------------------------===//

Expected<uint32_t> Runtime::allocDesc(TargetIsa Target, mem::VirtAddr Ptr,
                                      SurfaceMode Mode, uint32_t Width,
                                      uint32_t Height) {
  if (Target != TargetIsa::X3000)
    return Error::make("descriptors describe accelerator surfaces; "
                       "target must be X3000");
  if (Width == 0 || Height == 0)
    return Error::make("descriptor width/height must be positive");
  Descriptor D;
  D.Ptr = Ptr;
  D.Mode = Mode;
  D.Width = Width;
  D.Height = Height;
  if (auto It = GlobalFeatures.find(Feature::DefaultSurfaceTiling);
      It != GlobalFeatures.end())
    D.MemType = static_cast<mem::GpuMemType>(It->second);
  D.HostDirtyBytes = D.totalBytes(); // freshly produced by the host
  uint32_t Id = NextDesc++;
  Descriptors.emplace(Id, D);
  return Id;
}

Error Runtime::freeDesc(uint32_t Desc) {
  auto It = Descriptors.find(Desc);
  if (It == Descriptors.end())
    return Error::make(formatString("chi_free_desc: unknown descriptor %u",
                                    Desc));
  Descriptors.erase(It);
  return Error::success();
}

Error Runtime::modifyDesc(uint32_t Desc, DescAttr Attr, int64_t Value) {
  auto It = Descriptors.find(Desc);
  if (It == Descriptors.end())
    return Error::make(formatString("chi_modify_desc: unknown descriptor %u",
                                    Desc));
  Descriptor &D = It->second;
  switch (Attr) {
  case DescAttr::Width:
    if (Value <= 0)
      return Error::make("descriptor width must be positive");
    D.Width = static_cast<uint32_t>(Value);
    break;
  case DescAttr::Height:
    if (Value <= 0)
      return Error::make("descriptor height must be positive");
    D.Height = static_cast<uint32_t>(Value);
    break;
  case DescAttr::Mode:
    D.Mode = static_cast<SurfaceMode>(Value);
    break;
  case DescAttr::ElemType:
    if (Value < 0 || Value > static_cast<int64_t>(isa::ElemType::F64))
      return Error::make("bad element type value");
    D.Elem = static_cast<isa::ElemType>(Value);
    break;
  case DescAttr::Tiling:
    if (Value < 0 || Value > static_cast<int64_t>(mem::GpuMemType::Cached))
      return Error::make("bad tiling value");
    D.MemType = static_cast<mem::GpuMemType>(Value);
    break;
  }
  return Error::success();
}

void Runtime::setFeature(Feature F, int64_t Value) {
  GlobalFeatures[F] = Value;
}

void Runtime::setFeaturePerShred(uint32_t ShredId, Feature F, int64_t Value) {
  PerShredFeatures[{ShredId, F}] = Value;
}

int64_t Runtime::feature(Feature F) const {
  auto It = GlobalFeatures.find(F);
  return It == GlobalFeatures.end() ? 0 : It->second;
}

int64_t Runtime::featureForShred(uint32_t ShredId, Feature F) const {
  auto It = PerShredFeatures.find({ShredId, F});
  if (It != PerShredFeatures.end())
    return It->second;
  return feature(F);
}

const Descriptor *Runtime::descriptor(uint32_t Desc) const {
  auto It = Descriptors.find(Desc);
  return It == Descriptors.end() ? nullptr : &It->second;
}

Error Runtime::markHostWrote(uint32_t Desc, uint64_t Bytes) {
  auto It = Descriptors.find(Desc);
  if (It == Descriptors.end())
    return Error::make("markHostWrote: unknown descriptor");
  It->second.HostDirtyBytes =
      std::min(It->second.totalBytes(), It->second.HostDirtyBytes + Bytes);
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

Expected<std::shared_ptr<gma::SurfaceTable>>
Runtime::buildSurfaces(const fatbin::CodeSection &Section,
                       const RegionSpec &Spec) {
  auto Table = std::make_shared<gma::SurfaceTable>();
  for (const std::string &Name : Section.SurfaceParams) {
    auto It = Spec.SharedDescs.find(Name);
    if (It == Spec.SharedDescs.end())
      return Error::make(formatString(
          "kernel '%s' requires shared variable '%s' with a descriptor",
          Section.Name.c_str(), Name.c_str()));
    const Descriptor *D = descriptor(It->second);
    if (!D)
      return Error::make(formatString(
          "shared variable '%s' references a freed descriptor",
          Name.c_str()));
    gma::SurfaceBinding B;
    B.Base = D->Ptr;
    B.Width = D->Width;
    B.Height = D->Height;
    B.Elem = D->Elem;
    B.Mode = D->Mode;
    B.MemType = D->MemType;
    Table->push_back(B);
  }
  return Table;
}

Expected<RegionHandle> Runtime::dispatch(const RegionSpec &Spec) {
  auto KIt = Loaded.find(Spec.KernelName);
  if (KIt == Loaded.end())
    return Error::make(formatString("kernel '%s' is not in the fat binary",
                                    Spec.KernelName.c_str()));
  const LoadedKernel &LK = KIt->second;
  if (Spec.NumThreads == 0)
    return Error::make("num_threads must be positive");

  auto Surfaces = buildSurfaces(LK.Section, Spec);
  if (!Surfaces)
    return Surfaces.takeError();

  // Each dispatch with scalar params takes a fresh shred-record buffer
  // from the bump allocator. Refuse, before any side effect, once that
  // buffer would cross the top of the 32-bit address space.
  size_t NumParams = LK.Section.ScalarParams.size();
  uint64_t RecordBytes = static_cast<uint64_t>(Spec.NumThreads) * NumParams * 4;
  if (NumParams > 0 && !Platform.canAllocateShared(RecordBytes))
    return Error::make(formatString(
        "shared virtual memory exhausted: no room below 4 GiB for the "
        "%llu-byte shred records of '%s'",
        static_cast<unsigned long long>(RecordBytes),
        Spec.KernelName.c_str()));

  RegionStats Stats;
  Stats.SubmitNs = Clock;
  Stats.ShredsSpawned = Spec.NumThreads;

  cpu::CpuModel &Cpu = Platform.cpuModel();

  // Gather the input and output footprints for the memory-model prologue
  // and epilogue.
  uint64_t InputDirtyBytes = 0, InputTotalBytes = 0, OutputBytes = 0;
  std::vector<uint32_t> InputDescs;
  for (const auto &[Name, DescId] : Spec.SharedDescs) {
    const Descriptor *D = descriptor(DescId);
    if (!D)
      continue;
    if (D->Mode != SurfaceMode::Output) {
      InputDirtyBytes += D->HostDirtyBytes;
      InputTotalBytes += D->totalBytes();
      InputDescs.push_back(DescId);
    }
    if (D->Mode != SurfaceMode::Input)
      OutputBytes += D->totalBytes();
  }

  TimeNs DeviceStart = Clock;
  TimeNs BackgroundFlushDone = Clock;

  switch (Model) {
  case MemoryModel::CCShared:
    break; // coherent shared virtual memory: nothing to do

  case MemoryModel::NonCCShared: {
    // The IA32 producer must flush its dirty lines before exo-sequencer
    // shreds may consume them. Dirty data is bounded by the L2 capacity.
    InputDirtyBytes =
        std::min<uint64_t>(InputDirtyBytes, Cpu.config().L2CacheBytes);
    if (IntelligentFlush && Spec.NumThreads > 1) {
      // Intelligent scheme: flush only the data the first wave of shreds
      // (one per hardware context) touches, then overlap the rest of the
      // flush with execution.
      unsigned Contexts = Platform.config().Gma.totalContexts();
      double FirstWaveFrac =
          std::min(1.0, static_cast<double>(Contexts) / Spec.NumThreads);
      uint64_t Critical = static_cast<uint64_t>(
          static_cast<double>(InputDirtyBytes) * FirstWaveFrac);
      Critical = std::max<uint64_t>(Critical,
                                    std::min<uint64_t>(InputDirtyBytes,
                                                       mem::PageSize));
      DeviceStart = Cpu.flushCache(Clock, Critical);
      BackgroundFlushDone =
          Cpu.flushCache(DeviceStart, InputDirtyBytes - Critical);
      Stats.FlushNs = DeviceStart - Clock;
    } else {
      DeviceStart = Cpu.flushCache(Clock, InputDirtyBytes);
      BackgroundFlushDone = DeviceStart;
      Stats.FlushNs = DeviceStart - Clock;
    }
    break;
  }

  case MemoryModel::DataCopy: {
    // No shared virtual memory: every input surface is copied into the
    // accelerator's address space through the WC path, in full.
    DeviceStart = Cpu.copyWriteCombining(Clock, InputTotalBytes);
    BackgroundFlushDone = DeviceStart;
    Stats.CopyNs = DeviceStart - Clock;
    break;
  }
  }

  Stats.DeviceStartNs = DeviceStart;

  // Fork the team: SIGNAL one shred continuation per thread. The
  // continuation records (the per-shred parameter blocks) are written
  // into shared virtual memory, where the device firmware fetches them
  // through ATR-translated reads — the paper's "software work queue in
  // shared virtual memory". (The records are tiny relative to surface
  // data, so the non-coherent models do not charge extra flushes for
  // them.)
  gma::GmaDevice &Device = Platform.device();
  Device.resetStats();
  mem::VirtAddr RecordBase = 0;
  if (NumParams > 0) {
    exo::SharedBuffer Records =
        Platform.allocateShared(RecordBytes, Spec.KernelName + ".shredq");
    RecordBase = Records.Base;
  }
  // Resolve each scalar param once: a firstprivate value, a private
  // per-shred function, or neither (0).
  struct ParamSource {
    const int32_t *Value = nullptr;
    const std::function<int32_t(unsigned)> *PerShred = nullptr;
  };
  std::vector<ParamSource> Sources(NumParams);
  for (size_t P = 0; P < NumParams; ++P) {
    const std::string &Param = LK.Section.ScalarParams[P];
    if (auto FIt = Spec.Firstprivate.find(Param);
        FIt != Spec.Firstprivate.end())
      Sources[P].Value = &FIt->second;
    else if (auto PIt = Spec.Private.find(Param); PIt != Spec.Private.end())
      Sources[P].PerShred = &PIt->second;
  }
  // Every shred's record, in shred order, written with one Platform.write:
  // the same pages fault in, in the same order, as record-by-record writes.
  std::vector<int32_t> Records(static_cast<size_t>(Spec.NumThreads) *
                               NumParams);
  std::vector<gma::ShredDescriptor> Descs(Spec.NumThreads);
  for (unsigned T = 0; T < Spec.NumThreads; ++T) {
    int32_t *Rec = Records.data() + static_cast<size_t>(T) * NumParams;
    for (size_t P = 0; P < NumParams; ++P)
      Rec[P] = Sources[P].Value      ? *Sources[P].Value
               : Sources[P].PerShred ? (*Sources[P].PerShred)(T)
                                     : 0;
    gma::ShredDescriptor &D = Descs[T];
    D.KernelId = LK.DeviceKernelId;
    D.Surfaces = *Surfaces;
    D.Params.assign(Rec, Rec + NumParams);
    if (NumParams > 0)
      D.RecordVa = RecordBase + static_cast<uint64_t>(T) * NumParams * 4;
  }
  if (NumParams > 0)
    Platform.write(RecordBase, Records.data(), RecordBytes);
  TotalShreds += Spec.NumThreads;

  // Backend selection (Feature::Backend): XJIT, the host-native fast
  // lane, runs eligible kernels with surface outputs bit-identical to
  // the cycle model. Execution hooks and tracers need the cycle
  // backend's per-instruction event stream, so they force a fallback.
  int64_t BackendSel = feature(Feature::Backend);
  bool UseFast =
      BackendSel != 0 && LK.FastEligible && !Device.hasExecutionHooks();
  // ExoCluster: shard the team across the device fleet when the platform
  // has one. A tracer is fine (each device records its own spans under
  // its process id); a debugger step hook pins execution to a single
  // serial device, and single-shred teams have nothing to shard.
  bool UseCluster = !UseFast && Platform.numDevices() > 1 && LK.Shardable &&
                    !Device.hasStepHook() && Spec.NumThreads > 1;
  if (UseFast) {
    if (!Jit)
      Jit = std::make_unique<xjit::JitEngine>(
          Device, Platform.physicalMemory(), &Platform.proxy());
    xjit::JitRunRequest Req;
    Req.KernelId = LK.DeviceKernelId;
    Req.Shreds = std::move(Descs);
    Req.StartNs = DeviceStart;
    Req.DeadlineNs = Spec.DeadlineNs > 0 ? DeviceStart + Spec.DeadlineNs : 0;
    Req.ForceChecked = BackendSel == 2;
    auto Res = Jit->run(std::move(Req));
    if (!Res)
      return Res.takeError();
    Stats.DeadlinePreempted = (Res->Exit == gma::RunExit::DeadlinePreempted);
    Stats.Device = std::move(Res->Stats);
  } else if (UseCluster) {
    cluster::ClusterScheduler Sched(Platform, ClusterCfg);
    auto Res = Sched.run(std::move(Descs), DeviceStart,
                         Spec.DeadlineNs > 0 ? DeviceStart + Spec.DeadlineNs
                                             : 0);
    if (!Res)
      return Res.takeError();
    Stats.DeadlinePreempted = (Res->Exit == gma::RunExit::DeadlinePreempted);
    Stats.Device = std::move(Res->Total);
    // Idle lanes (typically the host lane when nothing was worth
    // stealing) are omitted: a shard row means "executed shreds here".
    Stats.Shards = std::move(Res->Lanes);
    std::erase_if(Stats.Shards,
                  [](const ShardStat &S) { return S.Shreds == 0; });
  } else {
    for (gma::ShredDescriptor &D : Descs)
      Device.enqueueShred(std::move(D));
    if (Spec.DeadlineNs > 0)
      Device.setDeadlineNs(DeviceStart + Spec.DeadlineNs);
    auto Exit = Device.run(DeviceStart);
    Device.setDeadlineNs(0);
    if (!Exit)
      return Exit.takeError();
    Stats.DeadlinePreempted = (*Exit == gma::RunExit::DeadlinePreempted);
    Stats.Device = Device.stats();
  }
  // Non-cluster dispatches report one shard row for device 0 so stats
  // consumers see a uniform per-lane shape at any device count.
  if (Stats.Shards.empty())
    Stats.Shards.push_back({.Shreds = Stats.Device.ShredsExecuted,
                            .FinishNs = Stats.Device.FinishNs,
                            .IssueCycles = Stats.Device.IssueCycles});
  Stats.DeviceFinishNs = Stats.Device.FinishNs;

  // Accumulate FaultLab resilience totals: device counters reset per run,
  // proxy counters persist across dispatches, so the latter are deltas.
  const exo::ProxyStats &PS = Platform.proxy().stats();
  uint64_t ProxyRetries = PS.TransientRetries + PS.CehRetries;
  FaultStats.FaultsInjected += Stats.Device.FaultsInjected +
                               (PS.InjectedFaults - LastProxyInjected);
  FaultStats.Retried += ProxyRetries - LastProxyRetries;
  FaultStats.Redispatched +=
      Stats.Device.ShredsRedispatched + Stats.Device.HostRedispatches;
  FaultStats.Offlined += Stats.Device.EusOfflined;
  LastProxyInjected = PS.InjectedFaults;
  LastProxyRetries = ProxyRetries;

  TimeNs End = std::max(Stats.DeviceFinishNs, BackgroundFlushDone);

  switch (Model) {
  case MemoryModel::CCShared:
    break;
  case MemoryModel::NonCCShared: {
    // The exo-sequencers flush their dirty output lines (bounded by the
    // device cache capacity) before releasing the completion semaphore;
    // the on-die flush drains at full bus bandwidth.
    uint64_t DeviceDirty = std::min<uint64_t>(
        OutputBytes, Platform.config().Gma.CacheBytes);
    End += static_cast<double>(DeviceDirty) /
           Platform.bus().params().BandwidthBytesPerNs;
    break;
  }
  case MemoryModel::DataCopy:
    // Results are copied back to the IA32 address space. The return
    // direction is a cacheable-to-cacheable copy at full memory
    // bandwidth (the 3.1 GB/s WC rate only applies towards the device).
    End += static_cast<double>(OutputBytes) /
           Platform.bus().params().BandwidthBytesPerNs;
    break;
  }
  Stats.EndNs = End;

  // Input buffers have been synchronized with memory.
  for (uint32_t DescId : InputDescs)
    Descriptors[DescId].HostDirtyBytes = 0;

  RegionHandle H = NextRegion++;
  Regions.emplace(H, Stats);

  if (!Spec.MasterNowait)
    advanceTo(End);
  return H;
}

Error Runtime::wait(RegionHandle H) {
  auto It = Regions.find(H);
  if (It == Regions.end())
    return Error::make(formatString("wait on unknown region %u", H));
  advanceTo(It->second.EndNs);
  return Error::success();
}

void Runtime::waitAll() {
  for (const auto &[H, S] : Regions)
    advanceTo(S.EndNs);
}

const RegionStats *Runtime::regionStats(RegionHandle H) const {
  auto It = Regions.find(H);
  return It == Regions.end() ? nullptr : &It->second;
}

TimeNs Runtime::runHostWork(const cpu::WorkEstimate &Work) {
  Clock = Platform.cpuModel().execute(Clock, Work);
  return Clock;
}
