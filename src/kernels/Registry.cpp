//===- kernels/Registry.cpp - Table 2 workload suite ----------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "kernels/Workloads.h"

#include <algorithm>
#include <cmath>

using namespace exochi;
using namespace exochi::kernels;

namespace {

/// A still-image factory in the video factories' shape.
template <std::unique_ptr<MediaWorkload> (*Make)(uint32_t, uint32_t)>
std::unique_ptr<MediaWorkload> still(uint32_t W, uint32_t H, uint32_t) {
  return Make(W, H);
}

} // namespace

const std::vector<Table2Kernel> &kernels::table2Kernels() {
  static const std::vector<Table2Kernel> Kernels = {
      {"LinearFilter", {640, 480, 0, 6480, "640x480 image"},
       Table2Input{2000, 2000, 0, 83500, "2000x2000 image"}, 6,
       still<createLinearFilter>},
      {"SepiaTone", {640, 480, 0, 4800, "640x480 image"},
       Table2Input{2000, 2000, 0, 62500, "2000x2000 image"}, 6,
       still<createSepiaTone>},
      {"FGT", {1024, 768, 0, 96, "1024x768 image"}, {}, 6, still<createFGT>},
      {"Bicubic", {720, 480, 30, 2700, "30f 360x240->720x480"}, {}, 6,
       createBicubic},
      {"Kalman", {512, 256, 30, 4096, "30f 512x256"},
       Table2Input{2048, 1024, 30, 65536, "30f 2048x1024"}, 6, createKalman},
      {"FMD", {720, 480, 60, 1276, "60f 720x480"}, {}, 15, createFMD},
      {"AlphaBlend", {720, 480, 30, 2700, "64x32 onto 30f 720x480"}, {}, 6,
       createAlphaBlend},
      {"BOB", {720, 480, 30, 2700, "30f 720x480"}, {}, 6, createBOB},
      {"ADVDI", {720, 480, 30, 2700, "30f 720x480"}, {}, 6, createADVDI},
      {"ProcAmp", {720, 480, 30, 2700, "30f 720x480"}, {}, 6, createProcAmp},
  };
  return Kernels;
}

std::unique_ptr<MediaWorkload> Table2Kernel::create(double Scale) const {
  uint32_t Frames =
      Input.Frames == 0
          ? 0
          : std::max(MinFrames, static_cast<uint32_t>(
                                    std::lround(Input.Frames * Scale)));
  return Create(scaleDim(Input.W, Scale), scaleDim(Input.H, Scale), Frames);
}

std::vector<std::unique_ptr<MediaWorkload>>
kernels::createTable2Workloads(double Scale) {
  std::vector<std::unique_ptr<MediaWorkload>> Out;
  for (const Table2Kernel &K : table2Kernels())
    Out.push_back(K.create(Scale));
  return Out;
}
