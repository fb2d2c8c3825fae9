//===- fault/FaultInjector.h - Deterministic fault injection ---------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FaultLab: a seeded, deterministic fault-injection subsystem for the EXO
/// stack. An armed injector is consulted at a fixed set of probe sites —
/// ATR proxy services, CEH exception handling, the GMA resolve phase, and
/// MISP mailbox delivery — and decides, per site, whether to inject a
/// fault there.
///
/// Every decision is a pure function of (seed, fault kind, site key,
/// occurrence number): no global state, no wall clock, no host-thread
/// identity. Because every probe site lives in the refill or resolve
/// phase of the epoch simulation engine (or inside a proxy call), the
/// sequence of (kind, key) queries is part of the canonical deterministic
/// schedule — so the same seed fires the same faults at the same
/// site-ids in every replay (DESIGN.md §11, "determinism under
/// injection").
///
/// Site-ids render as `kind@0xKEY#occurrence`, e.g. `atr-transient@0x42#3`
/// is the third ATR probe on page 0x42.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_FAULT_FAULTINJECTOR_H
#define EXOCHI_FAULT_FAULTINJECTOR_H

#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace exochi {
namespace fault {

/// The fault classes FaultLab can inject.
enum class FaultKind : uint8_t {
  AtrTransient, ///< ATR page service fails transiently (retryable)
  AtrFatal,     ///< ATR page service fails hard (unserviceable)
  CehTimeout,   ///< CEH handler times out (retryable)
  EuHardFail,   ///< an EU wedges; its resident shreds are orphaned
  MailboxDrop,  ///< a MISP xmit signal is lost in flight
  MailboxDup,   ///< a MISP xmit signal is delivered twice
};

constexpr unsigned NumFaultKinds = 6;

/// Spec-file / site-id name of \p K (e.g. "atr-transient").
const char *faultKindName(FaultKind K);

/// One fired injection site: the stable identity of a fault decision.
struct FaultSite {
  FaultKind Kind = FaultKind::AtrTransient;
  uint64_t Key = 0;        ///< site key (page number, EU index, signal id…)
  uint64_t Occurrence = 0; ///< how many times this (kind, key) was probed

  bool operator==(const FaultSite &) const = default;

  /// Renders the site-id, e.g. "atr-transient@0x42#3".
  std::string str() const;
};

/// Seeded deterministic fault injector. Install with
/// exo::ExoPlatform::armFaultInjection (or the individual
/// GmaDevice/ExoProxyHandler setters); a null or all-zero-rate injector
/// is inert and its probe sites cost one branch.
///
/// Not thread-safe: all probe sites are in serial simulation phases.
class FaultInjector {
public:
  explicit FaultInjector(uint64_t Seed = 1) : Seed_(Seed) {}

  /// Parses a comma-separated `kind:rate` spec, e.g.
  /// "atr-transient:0.01,eu-hard-fail:0.002". `all:rate` sets every kind.
  static Expected<FaultInjector> parse(const std::string &Spec,
                                       uint64_t Seed = 1);

  uint64_t seed() const { return Seed_; }
  void setSeed(uint64_t Seed) { Seed_ = Seed; }

  /// Sets the injection probability of \p K in [0, 1].
  void setRate(FaultKind K, double Rate) {
    Rates[static_cast<unsigned>(K)] = Rate;
  }
  double rate(FaultKind K) const { return Rates[static_cast<unsigned>(K)]; }

  /// True when any kind has a nonzero rate: probe sites only do work for
  /// an armed injector, keeping the disarmed overhead ~0.
  bool armed() const {
    for (double R : Rates)
      if (R > 0)
        return true;
    return false;
  }

  /// One probe: decides whether kind \p K fires at site \p Key, and
  /// advances the (kind, key) occurrence counter. Fired sites are logged
  /// for replay comparison.
  bool shouldInject(FaultKind K, uint64_t Key);

  /// Every site that fired since construction / the last reset(), in
  /// probe order (part of the canonical schedule, so identical in every
  /// replay with the same seed).
  const std::vector<FaultSite> &fired() const { return Fired; }

  /// Called synchronously with every fired site, in probe order (probe
  /// sites live in serial phases, so the callback needs no locking).
  /// Lets higher layers — the ExoServe circuit breaker and ServeStats —
  /// consume the fault stream live instead of diffing the fired() log.
  /// nullptr removes; survives reset().
  using FireObserver = std::function<void(const FaultSite &)>;
  void setObserver(FireObserver O) { Observer = std::move(O); }

  /// Clears occurrence counters and the fired log; keeps seed and rates.
  /// Call between runs that must replay identically.
  void reset() {
    Occurrences.clear();
    Fired.clear();
  }

private:
  uint64_t Seed_;
  double Rates[NumFaultKinds] = {};
  /// (kind, key) -> number of probes so far.
  std::map<std::pair<uint8_t, uint64_t>, uint64_t> Occurrences;
  std::vector<FaultSite> Fired;
  FireObserver Observer;
};

} // namespace fault
} // namespace exochi

#endif // EXOCHI_FAULT_FAULTINJECTOR_H
