//===- bench/exobench/Ladder.h - The unloaded layer ladder ------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unloaded ladder of a traced run: the same job sent one at a time
/// through direct chi::Runtime::dispatch, then an in-process
/// serve::Server (submit + runNextBatch), then ExoNet over a socket. The
/// differences between rungs are the layers' self times, measured from
/// outside by timing the benchmark's own calls into each layer.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_BENCH_EXOBENCH_LADDER_H
#define EXOCHI_BENCH_EXOBENCH_LADDER_H

#include "Serving.h"

namespace exobench {

struct LadderResult {
  /// Direct dispatch medians (us): halt-only 1-shred, Small, Payload.
  double DispatchNullUs = 0, DispatchSmallUs = 0, DispatchPayloadUs = 0;
  /// In-process serve::Server medians for the ladder's job shape (us).
  double SubmitUs = 0, RunNextBatchUs = 0;
  /// runNextBatch minus direct dispatch of the same job (us).
  double RunSelfUs = 0;
  /// ExoNet round trip minus the in-process serve path (us).
  double NetSelfUs = 0;
  /// Unloaded ExoNet latency p50, and p50 of a 16-deep burst (Small
  /// shape only; 0 for Payload), in ms.
  double UnloadedP50Ms = 0, BurstP50Ms = 0;
  /// The ExoNet rung's wire codec timings and its server's counters.
  CodecSamples Codec;
  exochi::net::NetStats Net;
  exochi::serve::ServeStats Serve;
  PhaseStats Load; ///< every job the ExoNet rung sent
};

/// Runs the ladder for \p Shape. ExoNet listens on \p UnixPath (TCP
/// loopback when empty). Spans go to \p T.
LadderResult runLadder(JobShape Shape, const std::string &UnixPath,
                       uint64_t Seed, Trace &T);

} // namespace exobench

#endif // EXOCHI_BENCH_EXOBENCH_LADDER_H
