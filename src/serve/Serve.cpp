//===- serve/Serve.cpp ---------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

using namespace exochi;
using namespace exochi::serve;

const char *serve::priorityName(Priority P) {
  switch (P) {
  case Priority::Low:
    return "low";
  case Priority::Normal:
    return "normal";
  case Priority::High:
    return "high";
  }
  exochiUnreachable("bad Priority");
}

const char *serve::rejectReasonName(RejectReason R) {
  switch (R) {
  case RejectReason::None:
    return "none";
  case RejectReason::QueueFull:
    return "queue-full";
  case RejectReason::ClientQuota:
    return "client-quota";
  case RejectReason::ZeroBudget:
    return "zero-budget";
  case RejectReason::Draining:
    return "draining";
  case RejectReason::LoadShed:
    return "load-shed";
  case RejectReason::CostOverDeadline:
    return "cost-over-deadline";
  case RejectReason::DeadlineExpired:
    return "deadline-expired";
  }
  exochiUnreachable("bad RejectReason");
}

const char *serve::jobStateName(JobState S) {
  switch (S) {
  case JobState::Queued:
    return "queued";
  case JobState::Running:
    return "running";
  case JobState::Completed:
    return "completed";
  case JobState::Rejected:
    return "rejected";
  case JobState::DeadlinePreempted:
    return "deadline-preempted";
  case JobState::Drained:
    return "drained";
  case JobState::Failed:
    return "failed";
  }
  exochiUnreachable("bad JobState");
}
