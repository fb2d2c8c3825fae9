//===- serve/Breaker.h - Per-EU circuit breaker -----------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ExoServe circuit breaker: isolates EUs that fail repeatedly so
/// one flaky unit stops costing every job a re-dispatch storm. Classic
/// three-state machine, advanced once per finished job:
///
///   Closed ──(TripThreshold consecutive failing jobs)──▶ Open
///   Open ──(CooldownJobs jobs pass)──▶ HalfOpen (probe: EU readmitted)
///   HalfOpen ──(clean job)──▶ Closed      (cooldown resets)
///   HalfOpen ──(EU fails again)──▶ Open   (cooldown doubles, capped)
///
/// Failure signals come from both ends of FaultLab:
/// GmaRunStats::OfflinedEus (the device actually lost the EU) and
/// EuHardFail fires observed live through FaultInjector::setObserver.
/// Both arrive from the refill/resolve phases in deterministic order, so
/// breaker state — like everything in ExoServe — replays
/// bit-identically.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_SERVE_BREAKER_H
#define EXOCHI_SERVE_BREAKER_H

#include "serve/Serve.h"

#include <set>
#include <vector>

namespace exochi {
namespace serve {

struct BreakerConfig {
  /// Consecutive failing jobs before an EU trips Open.
  unsigned TripThreshold = 2;
  /// Jobs an Open EU sits out before a HalfOpen probe.
  unsigned CooldownJobs = 4;
  /// Cap of the doubling cooldown for repeat offenders.
  unsigned MaxCooldownJobs = 64;
};

class Breaker {
public:
  enum class State : uint8_t { Closed, Open, HalfOpen };

  Breaker(unsigned NumEus, BreakerConfig Config = {});

  /// FaultLab plumbing: EuHardFail fires are recorded as failure signals
  /// for the job in flight (other kinds are not EU health signals).
  void noteFault(const fault::FaultSite &Site);

  /// Advances every EU's state machine after one job: \p OfflinedEus is
  /// the device's per-run casualty list (GmaRunStats::OfflinedEus),
  /// merged with EuHardFail signals seen since the previous call.
  void onJobEnd(const std::vector<unsigned> &OfflinedEus);

  /// Returns every EU to a fresh Closed state: cooldowns, the doubling
  /// counters, pending fail signals, and the trip statistics all clear.
  /// Symmetric with FaultInjector::reset() — a Server reset that rewinds
  /// the fault schedule must also rewind the breaker, or the second run
  /// starts mid-cooldown and trips at different jobs than the first.
  void reset();

  State state(unsigned Eu) const { return Eus[Eu].St; }
  /// Open EUs are quarantined; a HalfOpen EU is readmitted as a probe.
  bool quarantined(unsigned Eu) const { return Eus[Eu].St == State::Open; }
  unsigned numEus() const { return static_cast<unsigned>(Eus.size()); }

  struct Stats {
    uint64_t Trips = 0;    ///< transitions into Open
    uint64_t Probes = 0;   ///< transitions into HalfOpen
    uint64_t Readmits = 0; ///< HalfOpen probes that closed again
  };
  const Stats &stats() const { return Counters; }

private:
  struct EuState {
    State St = State::Closed;
    unsigned ConsecFails = 0;  ///< consecutive failing jobs (Closed)
    unsigned Cooldown = 0;     ///< jobs left before a HalfOpen probe
    unsigned NextCooldown = 0; ///< cooldown of the next trip (doubling)
  };

  void trip(EuState &E);

  BreakerConfig Config;
  std::vector<EuState> Eus;
  std::set<unsigned> PendingFails; ///< EuHardFail signals this job
  Stats Counters;
};

} // namespace serve
} // namespace exochi

#endif // EXOCHI_SERVE_BREAKER_H
