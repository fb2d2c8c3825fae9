//===- bench/exobench/Measure.h - Samples, spans, and metric output ---------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring side of exobench, shared by every workload:
///
///  - Samples: a sample set and its quantiles, and the good quartile the
///    end-to-end metrics take over per-window values;
///  - Trace: in-memory spans recorded around the layer calls the benchmark
///    itself makes, written out as Chrome trace JSON when the run ends;
///  - Metrics: the named, united values a run reports, printed as the one
///    JSON object that ends the benchmark's standard output.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_BENCH_EXOBENCH_MEASURE_H
#define EXOCHI_BENCH_EXOBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace exobench {

using Clock = std::chrono::steady_clock;

/// Wall time from \p A to \p B.
inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// Prints "exobench: FATAL: ..." to stderr and exits 1 without a result
/// line. Every correctness violation ends here.
[[noreturn]] void fatal(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// A sample set (any unit; the caller picks).
class Samples {
public:
  void add(double X) { V.push_back(X); }
  void append(const Samples &O) { V.insert(V.end(), O.V.begin(), O.V.end()); }
  size_t size() const { return V.size(); }
  double sum() const;
  /// How many samples exceed \p X.
  size_t countAbove(double X) const;

  /// Quantile \p Q in [0, 1] by linear interpolation between order
  /// statistics (0 for an empty set).
  double quantile(double Q) const;
  double median() const { return quantile(0.5); }

private:
  std::vector<double> V;
};

/// The favorable quartile of per-window values: the 75th percentile when
/// higher is better (rates), the 25th when lower is (times). Interference
/// from other tenants of the host only ever slows a window down, so this
/// sets the disturbed windows aside while still resting on many.
inline double goodQuartile(const Samples &PerWindow, bool HigherIsBetter) {
  return PerWindow.quantile(HigherIsBetter ? 0.75 : 0.25);
}

/// In-memory span recorder. Spans are kept in a bounded buffer (drops
/// are counted, never silent) and written as Chrome trace JSON at exit.
class Trace {
public:
  /// Returns the id of span name \p Name (interned once).
  uint16_t intern(const std::string &Name);
  /// Records one span [T0, T1] of name \p NameId for job \p Id.
  void add(uint16_t NameId, uint64_t Id, Clock::time_point T0,
           Clock::time_point T1);
  size_t size() const { return Spans.size(); }
  uint64_t dropped() const { return Dropped; }
  /// Writes every span as Chrome trace JSON ("X" events, microseconds
  /// since the recorder was created, the job id as args.id).
  bool write(const std::string &Path) const;

private:
  struct Span {
    uint16_t Name;
    uint64_t Id;
    int64_t T0Ns, T1Ns;
  };
  static constexpr size_t MaxSpans = 1u << 19;
  Clock::time_point Origin = Clock::now();
  std::vector<std::string> Names;
  std::vector<Span> Spans;
  uint64_t Dropped = 0;
};

/// Times \p Fn into \p S (microseconds) and, when \p T is set, records it
/// as span \p NameId of job \p Id. With neither set, just calls \p Fn.
template <typename F>
void timed(Trace *T, Samples *S, uint16_t NameId, uint64_t Id, F &&Fn) {
  if (!T && !S) {
    Fn();
    return;
  }
  auto T0 = Clock::now();
  Fn();
  auto T1 = Clock::now();
  if (S)
    S->add(usBetween(T0, T1));
  if (T)
    T->add(NameId, Id, T0, T1);
}

/// The named metrics of one run, printed as the final JSON line.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// Prints {"correct", "attempted", "failed", "metrics"} as one line.
  void print(FILE *Out, bool Correct, uint64_t Attempted,
             uint64_t Failed) const;

private:
  std::map<std::string, std::pair<double, std::string>> Values;
};

/// Peak resident set size of this process in MB.
double peakRssMb();

} // namespace exobench

#endif // EXOCHI_BENCH_EXOBENCH_MEASURE_H
