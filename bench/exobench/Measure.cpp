//===- bench/exobench/Measure.cpp -------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <sys/resource.h>

using namespace exobench;

void exobench::fatal(const char *Fmt, ...) {
  std::fflush(stdout);
  std::fprintf(stderr, "exobench: FATAL: ");
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
  std::fprintf(stderr, "\n");
  std::exit(1);
}

double Samples::sum() const {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

size_t Samples::countAbove(double X) const {
  return static_cast<size_t>(
      std::count_if(V.begin(), V.end(), [X](double S) { return S > X; }));
}

double Samples::quantile(double Q) const {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  double Pos = Q * static_cast<double>(S.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, S.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return S[Lo] * (1.0 - Frac) + S[Hi] * Frac;
}

uint16_t Trace::intern(const std::string &Name) {
  for (size_t K = 0; K < Names.size(); ++K)
    if (Names[K] == Name)
      return static_cast<uint16_t>(K);
  Names.push_back(Name);
  return static_cast<uint16_t>(Names.size() - 1);
}

void Trace::add(uint16_t NameId, uint64_t Id, Clock::time_point T0,
                Clock::time_point T1) {
  if (Spans.size() >= MaxSpans) {
    ++Dropped;
    return;
  }
  auto Ns = [this](Clock::time_point T) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Origin)
        .count();
  };
  Spans.push_back({NameId, Id, Ns(T0), Ns(T1)});
}

bool Trace::write(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ns\", \"otherData\": "
                  "{\"dropped_spans\": %" PRIu64 "}, \"traceEvents\": [\n",
               Dropped);
  for (size_t K = 0; K < Spans.size(); ++K) {
    const Span &S = Spans[K];
    std::fprintf(F,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                 "}}%s\n",
                 Names[S.Name].c_str(), S.T0Ns / 1e3, (S.T1Ns - S.T0Ns) / 1e3,
                 S.Id, K + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

void Metrics::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  if (!std::isfinite(Value))
    fatal("metric %s is not finite", Name.c_str());
  Values[Name] = {Value, Unit};
}

void Metrics::print(FILE *Out, bool Correct, uint64_t Attempted,
                    uint64_t Failed) const {
  std::fprintf(Out,
               "{\"correct\": %s, \"attempted\": %" PRIu64
               ", \"failed\": %" PRIu64 ", \"metrics\": {",
               Correct ? "true" : "false", Attempted, Failed);
  bool First = true;
  for (const auto &[Name, V] : Values) {
    // %.17g keeps every digit the double carries.
    std::fprintf(Out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 First ? "" : ", ", Name.c_str(), V.first, V.second.c_str());
    First = false;
  }
  std::fprintf(Out, "}}\n");
  std::fflush(Out);
}

double exobench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}
