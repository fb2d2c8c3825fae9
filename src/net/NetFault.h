//===- net/NetFault.h - Deterministic network-fault injection --------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// NetChaos: a seeded, deterministic network-fault injector for the
/// ExoNet path, styled on FaultLab (src/fault/FaultInjector). An armed
/// injector is consulted once per *outbound frame* at each endpoint —
/// the NetServer poll loop before a frame enters a connection's send
/// buffer, and NetClient before a frame hits the socket — and decides
/// whether to perturb that frame: drop it, truncate it mid-frame (the
/// prefix is sent, then the connection is force-closed so the peer sees
/// a partial frame + EOF, never stream poison), stall it N ms, deliver
/// it twice, or force a disconnect after it.
///
/// Every decision reuses FaultLab's seeded-schedule core
/// (fault::seededFires): a pure hash of (seed, kind, site key,
/// occurrence), where the site key is (stream key << 8) | frame type
/// and streams are per-session. Because each endpoint's frame sequence
/// per stream is program order — not poll order, wall clock, or thread
/// identity — the same --net-inject-seed replays the same fault
/// schedule at any device count; cross-stream interleave
/// only permutes the fired() log, so replay comparisons use
/// firedSorted().
///
/// Disarmed (all rates zero), a probe site costs one branch — the same
/// overhead guarantee FaultLab makes (DESIGN.md §11, §17).
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_NET_NETFAULT_H
#define EXOCHI_NET_NETFAULT_H

#include "net/Wire.h"
#include "support/Error.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace exochi {
namespace net {

/// The wire-fault classes NetChaos can inject, probed in this order
/// (the first kind that fires wins the frame; later kinds still advance
/// their occurrence counters so each kind's schedule is independent).
enum class NetFaultKind : uint8_t {
  Drop,       ///< the frame is never sent
  Truncate,   ///< half the frame is sent, then a forced disconnect
  Stall,      ///< the frame is delayed stallMs() before sending
  Dup,        ///< the frame is sent twice (duplicate delivery)
  Disconnect, ///< the frame is sent, then the connection force-closes
};

constexpr unsigned NumNetFaultKinds = 5;

/// Spec-file / site-id name of \p K (e.g. "drop").
const char *netFaultKindName(NetFaultKind K);

/// One fired wire-fault site. Key is (stream key << 8) | frame type;
/// renders as e.g. "drop@0x141#2" — the second drop probe of Result
/// frames (type 65 = 0x41) on stream 1.
struct NetFaultSite {
  NetFaultKind Kind = NetFaultKind::Drop;
  uint64_t Key = 0;
  uint64_t Occurrence = 0;

  bool operator==(const NetFaultSite &) const = default;
  bool operator<(const NetFaultSite &O) const {
    return std::tie(Kind, Key, Occurrence) <
           std::tie(O.Kind, O.Key, O.Occurrence);
  }

  std::string str() const;
};

/// Seeded deterministic wire-fault injector. One instance per endpoint
/// (a NetServer owns one for all its connections, keyed per session; a
/// NetClient owns its own). Not thread-safe: every probe site lives on
/// its endpoint's single owning thread.
class NetFault {
public:
  explicit NetFault(uint64_t Seed = 1) : Seed_(Seed) {}

  /// Parses a comma-separated `kind:rate` spec, e.g.
  /// "drop:0.01,stall:0.05". `all:rate` sets every kind. Same grammar
  /// as FaultLab's --inject (fault::parseRateSpec).
  static Expected<NetFault> parse(const std::string &Spec,
                                  uint64_t Seed = 1);

  uint64_t seed() const { return Seed_; }
  void setSeed(uint64_t Seed) { Seed_ = Seed; }

  /// Sets the injection probability of \p K in [0, 1].
  void setRate(NetFaultKind K, double Rate) {
    Rates[static_cast<unsigned>(K)] = Rate;
  }
  double rate(NetFaultKind K) const {
    return Rates[static_cast<unsigned>(K)];
  }

  /// Restricts kind \p K to frames of type \p T (0 = all frame types).
  /// A test hook for targeted schedules ("drop exactly the Result"),
  /// not part of the spec grammar.
  void setOnly(NetFaultKind K, wire::MsgType T) {
    Only[static_cast<unsigned>(K)] = static_cast<uint16_t>(T);
  }

  /// Caps the total number of fires (0 = unlimited). Occurrence
  /// counters keep advancing after the cap so the rest of the schedule
  /// stays aligned; only firing stops. A test hook.
  void setMaxFires(uint64_t N) { MaxFires = N; }

  /// Delay applied by a Stall fault, in milliseconds (default 25).
  double stallMs() const { return StallMs; }
  void setStallMs(double Ms) { StallMs = Ms; }

  /// True when any kind has a nonzero rate: probe sites only do work
  /// for an armed injector, keeping the disarmed overhead one branch.
  bool armed() const {
    for (double R : Rates)
      if (R > 0)
        return true;
    return false;
  }

  /// One probe for an outbound frame of type \p T on stream
  /// \p StreamKey: every kind advances its (kind, key) occurrence
  /// counter; the first kind that fires is returned (nullopt = send the
  /// frame untouched). Fired sites are logged for replay comparison.
  std::optional<NetFaultKind> decide(uint64_t StreamKey, wire::MsgType T);

  /// Every site that fired since construction / the last reset(), in
  /// probe order. Probe order across *different* streams depends on the
  /// endpoints' interleaving — compare firedSorted() across runs.
  const std::vector<NetFaultSite> &fired() const { return Fired; }
  /// The fired sites sorted by (kind, key, occurrence): identical for
  /// the same seed at any device count.
  std::vector<NetFaultSite> firedSorted() const;

  /// Clears occurrence counters, the fired log, and the fire budget's
  /// progress; keeps seed, rates, filters, and the cap itself. Call
  /// between runs that must replay identically.
  void reset() {
    Occurrences.clear();
    Fired.clear();
  }

private:
  uint64_t Seed_;
  double Rates[NumNetFaultKinds] = {};
  uint16_t Only[NumNetFaultKinds] = {}; ///< 0 = every frame type
  uint64_t MaxFires = 0;                ///< 0 = unlimited
  double StallMs = 25.0;
  /// (kind, key) -> number of probes so far.
  std::map<std::pair<uint8_t, uint64_t>, uint64_t> Occurrences;
  std::vector<NetFaultSite> Fired;
};

} // namespace net
} // namespace exochi

#endif // EXOCHI_NET_NETFAULT_H
