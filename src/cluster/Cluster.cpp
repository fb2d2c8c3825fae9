//===- cluster/Cluster.cpp ---------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "cluster/Cluster.h"

#include "support/Format.h"

#include <algorithm>

using namespace exochi;
using namespace exochi::cluster;

namespace {

/// splitmix64: the deterministic steal-order hash. Cheap, well-mixed,
/// and independent of host threading — the steal trace is a pure
/// function of (seed, steal sequence number, victim lane).
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// One scheduling lane: a device (or the IA32 host) owning a contiguous
/// half-open shred range. Execution consumes from the front, steals take
/// the back half, so the range stays contiguous for the lane's lifetime.
struct Lane {
  size_t Lo = 0, Hi = 0; ///< remaining range into the region's Descs
  mem::TimeNs ReadyNs = 0;
  bool Retired = false; ///< idle with nothing left to steal
  gma::ShardStat Stats; ///< Stats.Lane is the device index, or NumDevices
                        ///< with Stats.HostLane set for the host lane
};

/// Folds one device chunk's stats into the fleet aggregate. OfflinedEus
/// are remapped to cluster-wide indices (device × NumEus + EU); the
/// serial chunk order makes the concatenation deterministic.
void accumulate(gma::GmaRunStats &Total, const gma::GmaRunStats &Chunk,
                unsigned Device, unsigned NumEus) {
  Total.ShredsExecuted += Chunk.ShredsExecuted;
  Total.Instructions += Chunk.Instructions;
  Total.MemoryOps += Chunk.MemoryOps;
  Total.BytesLoaded += Chunk.BytesLoaded;
  Total.BytesStored += Chunk.BytesStored;
  Total.TlbMisses += Chunk.TlbMisses;
  Total.ProxyCalls += Chunk.ProxyCalls;
  Total.ExceptionsHandled += Chunk.ExceptionsHandled;
  Total.CacheHits += Chunk.CacheHits;
  Total.CacheMisses += Chunk.CacheMisses;
  Total.SamplerOps += Chunk.SamplerOps;
  Total.IssueCycles += Chunk.IssueCycles;
  Total.ProxyStallNs += Chunk.ProxyStallNs;
  Total.FaultsInjected += Chunk.FaultsInjected;
  Total.EusOfflined += Chunk.EusOfflined;
  Total.ShredsRedispatched += Chunk.ShredsRedispatched;
  Total.HostRedispatches += Chunk.HostRedispatches;
  Total.MailboxDropped += Chunk.MailboxDropped;
  Total.MailboxDuplicated += Chunk.MailboxDuplicated;
  Total.ShredsPreempted += Chunk.ShredsPreempted;
  Total.FinishNs = std::max(Total.FinishNs, Chunk.FinishNs);
  for (unsigned Eu : Chunk.OfflinedEus)
    Total.OfflinedEus.push_back(Device * NumEus + Eu);
}

} // namespace

Expected<ClusterResult>
ClusterScheduler::run(std::vector<gma::ShredDescriptor> Descs,
                      mem::TimeNs StartNs, mem::TimeNs DeadlineNs) {
  const unsigned NumDevices = Platform.numDevices();
  const unsigned NumEus = Platform.config().Gma.NumEus;
  const size_t N = Descs.size();

  ClusterResult Res;
  Res.Total.StartNs = StartNs;
  Res.Total.FinishNs = StartNs;

  // Pin shred identity up front: shred i is Base+i on whichever lane
  // runs it. Ids come from device 0's sequence so they line up with what
  // a single-device dispatch (or the XJIT fast lane) would have drawn.
  uint32_t Base =
      N ? Platform.device(0).allocShredIds(static_cast<uint32_t>(N)) : 0;
  for (size_t I = 0; I < N; ++I)
    if (!Descs[I].FixedShredId)
      Descs[I].FixedShredId = Base + static_cast<uint32_t>(I);

  // Available lanes: devices with at least one non-quarantined EU. A
  // fully-quarantined device degrades its shard to the rest of the
  // fleet, not the whole region.
  std::vector<Lane> Lanes;
  for (unsigned D = 0; D < NumDevices; ++D) {
    bool AnyEu = false;
    for (unsigned K = 0; K < NumEus; ++K)
      AnyEu = AnyEu || !Platform.device(D).euQuarantined(K);
    if (!AnyEu)
      continue;
    Lanes.push_back({.ReadyNs = StartNs, .Stats = {.Lane = D}});
  }
  const size_t NumDeviceLanes = Lanes.size();
  if (Config.HostLane && Config.Steal && !Descs.empty()) {
    Lanes.push_back(
        {.ReadyNs = StartNs, .Stats = {.Lane = NumDevices, .HostLane = true}});
  }
  if (Lanes.empty())
    return Error::make("cluster: no available device lane (all quarantined)");

  // Static contiguous partition over the device lanes; the host lane
  // starts empty and participates purely by stealing. With zero device
  // lanes survivable only above, so NumDeviceLanes >= 1 here unless the
  // fleet is fully quarantined and the host carries everything.
  if (NumDeviceLanes > 0) {
    for (size_t K = 0; K < NumDeviceLanes; ++K) {
      Lanes[K].Lo = N * K / NumDeviceLanes;
      Lanes[K].Hi = N * (K + 1) / NumDeviceLanes;
    }
  } else {
    Lanes[0].Lo = 0;
    Lanes[0].Hi = N;
  }

  const uint32_t Chunk = Config.ChunkShreds
                             ? Config.ChunkShreds
                             : Platform.config().Gma.totalContexts();
  uint64_t StealSeq = 0;
  bool Preempted = false;

  auto remaining = [&]() {
    size_t R = 0;
    for (const Lane &L : Lanes)
      R += L.Hi - L.Lo;
    return R;
  };

  while (remaining() > 0 && !Preempted) {
    // The earliest-ready non-retired lane acts next; ties break toward
    // the lower lane index. Serial and simulated-time-only, so the
    // schedule is deterministic.
    Lane *Next = nullptr;
    for (Lane &L : Lanes) {
      if (L.Retired)
        continue;
      if (!Next || L.ReadyNs < Next->ReadyNs ||
          (L.ReadyNs == Next->ReadyNs && L.Stats.Lane < Next->Stats.Lane))
        Next = &L;
    }
    if (!Next) // every lane retired with work left: impossible to serve
      return Error::make("cluster: all lanes retired with work remaining");
    Lane &L = *Next;

    if (L.Lo == L.Hi) {
      // Idle lane: steal from the busiest victim's remaining range, or
      // retire when nothing is worth stealing. Device thieves take the
      // back half (classic splitting — the victim keeps a contiguous
      // front). The host lane takes ONE shred at a time: its serial
      // IA32 sequencer is far slower per shred than a device wave, so
      // a big grab turns the helper into the critical path and invites
      // steal-back ping-pong.
      Lane *Victim = nullptr;
      if (Config.Steal) {
        size_t Best = 1; // need >= 2 remaining to leave the victim work
        uint64_t BestHash = 0;
        for (Lane &V : Lanes) {
          size_t R = V.Hi - V.Lo;
          if (R < 2 || &V == &L)
            continue;
          uint64_t H = mix64(Config.StealSeed ^ (StealSeq << 8) ^ V.Stats.Lane);
          if (R > Best || (R == Best && Victim && H < BestHash)) {
            Best = R;
            Victim = &V;
            BestHash = H;
          }
        }
      }
      if (Victim && L.Stats.HostLane && L.Stats.Shreds > 0) {
        // Payoff guard on everything after the host's first steal: only
        // take a shred the victim would not reach before the host could
        // finish it, using observed per-shred times (simulated-time
        // quantities only, so the decision stays deterministic). The
        // first steal runs unguarded — no history yet — but fires while
        // the fleet is fullest, where it is safe.
        double HostPerShred =
            (L.ReadyNs - StartNs) / static_cast<double>(L.Stats.Shreds);
        double VictimPerShred =
            Victim->Stats.Shreds
                ? (Victim->ReadyNs - StartNs) /
                      static_cast<double>(Victim->Stats.Shreds)
                : 0.0;
        double VictimRemainNs =
            static_cast<double>(Victim->Hi - Victim->Lo) * VictimPerShred;
        if (VictimPerShred > 0 && HostPerShred > VictimRemainNs)
          Victim = nullptr;
      }
      if (!Victim) {
        L.Retired = true;
        L.Stats.FinishNs = L.ReadyNs;
        continue;
      }
      size_t R = Victim->Hi - Victim->Lo;
      size_t Take = L.Stats.HostLane ? 1 : R / 2;
      size_t Mid = Victim->Hi - Take;
      L.Lo = Mid;
      L.Hi = Victim->Hi;
      Victim->Hi = Mid;
      L.Stats.Stolen += L.Hi - L.Lo;
      ++L.Stats.Steals;
      ++StealSeq;
      L.ReadyNs += Config.StealLatencyNs;
      continue;
    }

    if (DeadlineNs > 0 && L.ReadyNs >= DeadlineNs) {
      // This lane's next act would start past the budget; since it is
      // the earliest-ready lane, every lane is past it — cancel the
      // remaining shreds fleet-wide.
      Preempted = true;
      break;
    }

    if (L.Stats.HostLane) {
      // Host lane: one shred at a time through the proxy (fine
      // granularity steals better, and the host has a single sequencer
      // anyway).
      const gma::ShredDescriptor &D = Descs[L.Lo];
      const gma::KernelImage *Kern =
          Platform.device(0).kernelTable()->get(D.KernelId);
      if (!Kern)
        return Error::make(
            formatString("cluster: host lane: unknown kernel id %u",
                         D.KernelId));
      gma::OrphanShred O;
      O.ShredId = D.FixedShredId;
      O.KernelId = D.KernelId;
      O.Kernel = Kern;
      O.Params = D.Params;
      O.Surfaces = D.Surfaces;
      O.RecordVa = D.RecordVa;
      uint64_t InsnBefore = Platform.proxy().stats().OrphanInstructions;
      Expected<mem::TimeNs> Lat = Platform.proxy().onShredOrphaned(O);
      if (!Lat)
        return Lat.takeError();
      L.ReadyNs += *Lat;
      ++L.Lo;
      ++L.Stats.Shreds;
      ++Res.Total.ShredsExecuted;
      Res.Total.Instructions +=
          Platform.proxy().stats().OrphanInstructions - InsnBefore;
      Res.Total.FinishNs = std::max(Res.Total.FinishNs, L.ReadyNs);
      L.Stats.FinishNs = L.ReadyNs;
      continue;
    }

    // Device lane: commit the next chunk of its range. Per-chunk stats
    // reset keeps the shared fault injector's schedule intact (the
    // caller rewinds it once per region).
    gma::GmaDevice &Dev = Platform.device(L.Stats.Lane);
    size_t Take = std::min<size_t>(Chunk, L.Hi - L.Lo);
    Dev.resetStats(/*RewindFaults=*/false);
    for (size_t I = 0; I < Take; ++I)
      Dev.enqueueShred(Descs[L.Lo + I]);
    Dev.setDeadlineNs(DeadlineNs);
    Expected<gma::RunExit> Exit = Dev.run(L.ReadyNs);
    Dev.setDeadlineNs(0);
    if (!Exit)
      return Exit.takeError();
    const gma::GmaRunStats &St = Dev.stats();
    accumulate(Res.Total, St, L.Stats.Lane, NumEus);
    L.Lo += Take;
    L.Stats.Shreds += St.ShredsExecuted;
    L.Stats.IssueCycles += St.IssueCycles;
    L.ReadyNs = std::max(L.ReadyNs, St.FinishNs);
    L.Stats.FinishNs = L.ReadyNs;
    if (*Exit == gma::RunExit::DeadlinePreempted) {
      Preempted = true;
      break;
    }
  }

  if (Preempted) {
    // Cancel what nobody got to: chunk-local preemptions were already
    // counted by the device that hit the budget.
    Res.Total.ShredsPreempted += remaining();
    for (Lane &L : Lanes)
      L.Lo = L.Hi;
    Res.Exit = gma::RunExit::DeadlinePreempted;
  }

  for (Lane &L : Lanes) {
    if (!L.Retired && L.Stats.FinishNs == 0)
      L.Stats.FinishNs = L.ReadyNs;
    Res.Lanes.push_back(L.Stats);
  }
  return Res;
}
