//===- serve/Watchdog.h - Cycle-based deadline budgets ----------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ExoServe watchdog: converts per-job deadline budgets (device
/// cycles) into the simulated-ns deadline the device enforces at epoch
/// boundaries (GmaDevice::setDeadlineNs), and classifies finished
/// dispatches. The enforcement itself lives at the device's epoch
/// boundary, so preemption is deterministic — the watchdog is pure
/// policy.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_SERVE_WATCHDOG_H
#define EXOCHI_SERVE_WATCHDOG_H

#include "serve/Serve.h"

namespace exochi {
namespace serve {

struct WatchdogConfig {
  /// Budget applied to jobs that do not carry their own (< 0 = none:
  /// jobs run to completion unless they specify a budget).
  int64_t DefaultBudgetCycles = -1;
};

class Watchdog {
public:
  Watchdog(const gma::GmaConfig &Gma, WatchdogConfig Config = {})
      : CycleNs(Gma.cycleNs()), Config(Config) {}

  /// The budget governing \p Job: its own, or the server default.
  int64_t effectiveBudgetCycles(const JobSpec &Job) const {
    return Job.DeadlineCycles >= 0 ? Job.DeadlineCycles
                                   : Config.DefaultBudgetCycles;
  }

  /// \p Cycles as simulated ns at the device clock.
  TimeNs budgetNs(int64_t Cycles) const {
    return static_cast<double>(Cycles) * CycleNs;
  }

  /// Arms \p Region with \p Cycles of budget (no-op when <= 0: a zero
  /// budget never reaches dispatch — admission rejects it).
  void armRegion(chi::RegionSpec &Region, int64_t Cycles) const {
    Region.DeadlineNs = Cycles > 0 ? budgetNs(Cycles) : 0;
  }

  /// Terminal state of a dispatch that returned \p Stats.
  JobState classify(const chi::RegionStats &Stats) const {
    return Stats.DeadlinePreempted ? JobState::DeadlinePreempted
                                   : JobState::Completed;
  }

private:
  TimeNs CycleNs;
  WatchdogConfig Config;
};

} // namespace serve
} // namespace exochi

#endif // EXOCHI_SERVE_WATCHDOG_H
