//===- serve/Serve.h - ExoServe: job-level scheduling common types ---------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExoServe: the job-level scheduling and protection layer between the
/// CHI runtime and the GMA device. A *job* is one parallel dispatch
/// (kernel + geometry + params + surfaces, i.e. a chi::RegionSpec) owned
/// by a client. Jobs pass through a bounded admission queue with
/// per-client quotas and priorities (JobQueue), run under a cycle-based
/// deadline watchdog that preempts overrunners at epoch boundaries
/// (Watchdog + GmaDevice::setDeadlineNs), behind a per-EU circuit
/// breaker that quarantines repeatedly failing EUs (Breaker), with
/// graceful drain and machine-readable summaries (Server).
///
/// Every admission, preemption, breaker, and drain decision is a pure
/// function of the submission sequence and the simulated schedule — no
/// wall clock, no host-thread identity — so a served workload replays
/// bit-identically (the same determinism contract as the device itself;
/// DESIGN.md §12).
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_SERVE_SERVE_H
#define EXOCHI_SERVE_SERVE_H

#include "chi/Runtime.h"
#include "fault/FaultInjector.h"
#include "support/Json.h"

#include <cstdint>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

namespace exochi {
namespace serve {

using chi::TimeNs;

/// Scheduling priority of a job. Higher values pop first; overload sheds
/// lower-priority queued jobs to admit higher-priority arrivals.
enum class Priority : uint8_t {
  Low = 0,
  Normal = 1,
  High = 2,
};

constexpr unsigned NumPriorities = 3;

/// Display name of \p P ("low" / "normal" / "high").
const char *priorityName(Priority P);

/// Why a job was rejected (JobState::Rejected). Rejection is an answer,
/// not a failure: under overload ExoServe always rejects-with-reason
/// rather than queueing unboundedly or hanging.
enum class RejectReason : uint8_t {
  None,        ///< not rejected
  QueueFull,   ///< admission queue at capacity, no lower-priority victim
  ClientQuota, ///< the client exceeded its queued-job quota
  ZeroBudget,  ///< a zero-cycle deadline budget cannot run anything
  Draining,    ///< the server is draining; admission is closed
  LoadShed,    ///< evicted from the queue for a higher-priority arrival
  /// XCost admission: the static lower bound on the job's execution
  /// already exceeds its deadline budget, so dispatching it could only
  /// end in a deadline preemption (ServerConfig::CostAdmission).
  CostOverDeadline,
  /// The job's absolute wall-clock deadline (JobSpec::ExpiresAtUnixNs,
  /// carried end-to-end in the wire Submit frame) had already passed at
  /// admission. NetChaos retries re-validate here so a stale retry is
  /// answered instead of dispatched doomed.
  DeadlineExpired,
};

/// Display name of \p R (e.g. "queue-full").
const char *rejectReasonName(RejectReason R);

/// Lifecycle state of a job. Every submitted job reaches exactly one of
/// the terminal states (everything except Queued/Running): that is the
/// liveness contract the chaos soak asserts.
enum class JobState : uint8_t {
  Queued,            ///< admitted, waiting in the queue
  Running,           ///< dispatched onto the device
  Completed,         ///< ran to completion within budget
  Rejected,          ///< refused at admission or shed (see RejectReason)
  DeadlinePreempted, ///< the watchdog cancelled it at an epoch boundary
  Drained,           ///< cancelled from the queue by a cancelling drain
  Failed,            ///< the dispatch itself errored (safety valve)
};

/// Display name of \p S (e.g. "deadline-preempted").
const char *jobStateName(JobState S);

/// Job identifier: 1-based submission order, 0 = invalid.
using JobId = uint32_t;

/// What a client submits: the region to run plus scheduling metadata.
struct JobSpec {
  uint32_t ClientId = 0;
  Priority Pri = Priority::Normal;
  /// The dispatch itself (kernel, geometry, params, surfaces). Any
  /// RegionSpec::DeadlineNs in here is overwritten by the watchdog.
  chi::RegionSpec Region;
  /// Deadline budget in device cycles: < 0 = server default, 0 = reject
  /// at admission (ZeroBudget), > 0 = preempt past this many cycles.
  int64_t DeadlineCycles = -1;
  /// Absolute wall-clock expiry in unix nanoseconds (0 = none). A submit
  /// arriving at or after this instant is rejected with DeadlineExpired —
  /// the wire-level deadline a retried request carries unchanged, so a
  /// stale retry dies at admission instead of dispatching. Checked
  /// against ServerConfig::WallClock, NOT the simulated clock: this is
  /// the one intentionally wall-clock-coupled admission input (leave it
  /// 0 in deterministic replay workloads).
  int64_t ExpiresAtUnixNs = 0;
};

/// The server's record of one submitted job.
struct JobRecord {
  JobId Id = 0;
  uint32_t ClientId = 0;
  Priority Pri = Priority::Normal;
  JobState State = JobState::Queued;
  RejectReason Reason = RejectReason::None;
  std::string Error;            ///< dispatch error text (State == Failed)
  chi::RegionHandle Region = 0; ///< valid once dispatched
  TimeNs SubmitNs = 0;          ///< master clock at submit
  TimeNs StartNs = 0;           ///< master clock at dispatch
  TimeNs EndNs = 0;             ///< master clock after the dispatch
  uint64_t ShredsPreempted = 0; ///< casualties of a deadline preemption
                                ///< (batch-wide when coalesced)
  /// Jobs merged into the dispatch that ran this one (1 = ran alone).
  uint32_t BatchSize = 1;

  bool terminal() const {
    return State != JobState::Queued && State != JobState::Running;
  }
};

/// Aggregate ExoServe counters. Field-wise comparable: the chaos soak
/// asserts bit-identical ServeStats across two runs of each seed.
struct ServeStats {
  uint64_t Submitted = 0;
  uint64_t Admitted = 0;   ///< entered the queue (may later be shed)
  uint64_t Completed = 0;
  uint64_t DeadlinePreempted = 0;
  uint64_t Drained = 0;    ///< cancelled from the queue by drain
  uint64_t Failed = 0;
  uint64_t Shed = 0;       ///< evicted for a higher-priority arrival
  uint64_t RejectedQueueFull = 0;
  uint64_t RejectedClientQuota = 0;
  uint64_t RejectedZeroBudget = 0;
  uint64_t RejectedDraining = 0;
  /// Rejected because the XCost static lower bound exceeded the deadline
  /// budget (ServerConfig::CostAdmission).
  uint64_t RejectedCostOverDeadline = 0;
  /// Rejected because the job's absolute wall-clock deadline had already
  /// passed at admission (JobSpec::ExpiresAtUnixNs — stale retries).
  uint64_t RejectedDeadlineExpired = 0;
  uint64_t BreakerTrips = 0;    ///< EU transitions into Open
  uint64_t BreakerProbes = 0;   ///< EU transitions into HalfOpen
  uint64_t BreakerReadmits = 0; ///< HalfOpen probes that closed again
  /// Request coalescing (ExoNet): dispatches that merged more than one
  /// compatible same-kernel job, and the extra jobs that rode along.
  uint64_t CoalescedBatches = 0;
  uint64_t CoalescedJobs = 0;
  /// Jobs whose dispatch actually ran on the XJIT fast lane (requires
  /// Feature::Backend set to fast AND the kernel to be fast-eligible).
  uint64_t FastLaneJobs = 0;
  /// Queued jobs cancelled because their client disconnected (ExoNet
  /// calls Server::cancelClient from its connection-reap path).
  uint64_t CancelledDisconnect = 0;
  /// Per-lane serving totals, one row per cluster lane that executed at
  /// least one shred (sorted by lane index): the dispatches' rows merged
  /// with ShardStat::operator+=, so Jobs counts dispatches.
  std::vector<chi::ShardStat> Shards;
  /// Injector fires observed while serving, by fault kind (FaultLab
  /// signal plumbing through FaultInjector::setObserver).
  uint64_t FaultSignals[fault::NumFaultKinds] = {};

  bool operator==(const ServeStats &) const = default;

  /// Listed fields; Server::statsJson writes "backend" before them.
  static constexpr auto jsonFields() {
    using S = ServeStats;
    return json::fields(
        "fast_lane_jobs", &S::FastLaneJobs, "submitted", &S::Submitted,
        "admitted", &S::Admitted, "completed", &S::Completed,
        "deadline_preempted", &S::DeadlinePreempted, "drained", &S::Drained,
        "failed", &S::Failed, "shed", &S::Shed,
        "rejected_queue_full", &S::RejectedQueueFull,
        "rejected_client_quota", &S::RejectedClientQuota,
        "rejected_zero_budget", &S::RejectedZeroBudget,
        "rejected_draining", &S::RejectedDraining,
        "rejected_cost_over_deadline", &S::RejectedCostOverDeadline,
        "rejected_deadline_expired", &S::RejectedDeadlineExpired,
        "breaker_trips", &S::BreakerTrips, "breaker_probes", &S::BreakerProbes,
        "breaker_readmits", &S::BreakerReadmits,
        "coalesced_batches", &S::CoalescedBatches,
        "coalesced_jobs", &S::CoalescedJobs,
        "cancelled_disconnect", &S::CancelledDisconnect, "shards", &S::Shards,
        "fault_signals", [](const S &R) {
          return std::reduce(std::begin(R.FaultSignals),
                             std::end(R.FaultSignals));
        });
  }
};

/// Machine-readable result of a drain.
struct DrainSummary {
  uint64_t QueuedAtDrain = 0;   ///< jobs still queued when drain began
  uint64_t RanToCompletion = 0; ///< queued jobs that then completed
  uint64_t Preempted = 0;       ///< queued jobs the watchdog cut short
  uint64_t Failed = 0;          ///< queued jobs whose dispatch errored
  uint64_t Cancelled = 0;       ///< queued jobs dropped (cancelling drain)
  TimeNs DrainStartNs = 0;
  TimeNs DrainEndNs = 0;

  bool operator==(const DrainSummary &) const = default;

  static constexpr auto jsonFields() {
    using S = DrainSummary;
    return json::fields(
        "queued_at_drain", &S::QueuedAtDrain,
        "ran_to_completion", &S::RanToCompletion, "preempted", &S::Preempted,
        "failed", &S::Failed, "cancelled", &S::Cancelled,
        "drain_start_ns", &S::DrainStartNs, "drain_end_ns", &S::DrainEndNs);
  }

  /// One-line JSON object, e.g. for log scraping and the --serve CLI.
  std::string toJson() const { return json::render(*this); }
};

} // namespace serve
} // namespace exochi

#endif // EXOCHI_SERVE_SERVE_H
