//===- gma/Trace.cpp ---------------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gma/Trace.h"

#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>

using namespace exochi;
using namespace exochi::gma;

std::string TraceRecorder::toChromeJson() const {
  // Rows are flattened as Eu * stride + Slot. The stride must come from
  // the device geometry: a fixed constant collides rows as soon as a
  // device is configured with more contexts per EU than the constant.
  unsigned Stride = ThreadsPerEu_;
  if (Stride == 0) {
    for (const ShredSpan &S : Spans)
      Stride = std::max(Stride, S.Slot + 1);
    Stride = std::max(Stride, 1u);
  }

  // Name the processes (one per cluster device) and the rows.
  std::set<unsigned> Devices;
  std::set<std::tuple<unsigned, unsigned, unsigned>> Rows;
  for (const ShredSpan &S : Spans) {
    Devices.insert(S.Device);
    Rows.insert({S.Device, S.Eu, S.Slot});
  }

  json::Writer W({.Compact = true, .LineDepth = 2});
  W.beginObject().key("traceEvents").beginArray();
  auto Meta = [&](const char *Kind, unsigned Pid, std::optional<unsigned> Tid,
                  const std::string &Name) {
    W.beginObject().member("name", Kind).member("ph", "M").member("pid", Pid);
    if (Tid)
      W.member("tid", *Tid);
    W.key("args").beginObject().member("name", Name).endObject().endObject();
  };
  for (unsigned Dev : Devices)
    Meta("process_name", Dev, std::nullopt, formatString("GMA device %u", Dev));
  for (auto [Dev, EuIdx, Slot] : Rows)
    Meta("thread_name", Dev, EuIdx * Stride + Slot,
         formatString("EU%u ctx%u", EuIdx, Slot));
  for (const ShredSpan &S : Spans) {
    W.beginObject().member("name", S.Kernel).member("ph", "X");
    W.member("ts", S.StartNs / 1000.0)
        .member("dur", (S.EndNs - S.StartNs) / 1000.0);
    W.member("pid", S.Device).member("tid", S.Eu * Stride + S.Slot);
    W.key("args").beginObject().member("shred", S.ShredId).endObject();
    W.endObject();
  }
  return W.endArray().endObject().take() + "\n";
}

double TraceRecorder::occupancy() const {
  if (Spans.empty())
    return 0.0;
  mem::TimeNs Lo = Spans.front().StartNs, Hi = Spans.front().EndNs;
  unsigned NumDevices = 1;
  std::map<std::tuple<unsigned, unsigned, unsigned>, mem::TimeNs> Busy;
  for (const ShredSpan &S : Spans) {
    Lo = std::min(Lo, S.StartNs);
    Hi = std::max(Hi, S.EndNs);
    NumDevices = std::max(NumDevices, S.Device + 1);
    Busy[{S.Device, S.Eu, S.Slot}] += S.EndNs - S.StartNs;
  }
  if (Hi <= Lo || Busy.empty())
    return 0.0;
  // The divisor is every hardware context the fleet has, not just the
  // ones that happened to run a shred: contexts that sat idle are lost
  // capacity and must drag the ratio down. (The per-device geometry is
  // scaled by the number of devices the spans actually mention.)
  double Contexts = static_cast<double>(NumEus_) * ThreadsPerEu_ * NumDevices;
  if (Contexts == 0)
    Contexts = static_cast<double>(Busy.size());
  double Total = 0;
  for (const auto &[Row, B] : Busy) {
    (void)Row;
    Total += B;
  }
  return Total / (Contexts * (Hi - Lo));
}
