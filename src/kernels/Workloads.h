//===- kernels/Workloads.h - The ten Table 2 media kernels ------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factories for the paper's Table 2 media-processing kernels. Each
/// returns a MediaWorkload carrying both the XGMA strip kernel and the
/// bit-identical instrumented IA32 implementation.
///
/// Table 2's input sizes and shred counts for each kernel are listed
/// once, in table2Kernels() (Registry.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_KERNELS_WORKLOADS_H
#define EXOCHI_KERNELS_WORKLOADS_H

#include "chi/Hetero.h"
#include "kernels/MediaWorkload.h"

namespace exochi {
namespace kernels {

/// 3x3 box smoothing filter (output pixel = average of the input pixel
/// and its eight neighbours).
std::unique_ptr<MediaWorkload> createLinearFilter(uint32_t W, uint32_t H);

/// RGB re-weighting that artificially ages the image.
std::unique_ptr<MediaWorkload> createSepiaTone(uint32_t W, uint32_t H);

/// H.264-style artificial film-grain synthesis.
std::unique_ptr<MediaWorkload> createFGT(uint32_t W, uint32_t H);

/// 2x bicubic video upscale (WxH is the *output* size; source is half).
std::unique_ptr<MediaWorkload> createBicubic(uint32_t W, uint32_t H,
                                             uint32_t Frames);

/// Temporal Kalman-style video noise reduction.
std::unique_ptr<MediaWorkload> createKalman(uint32_t W, uint32_t H,
                                            uint32_t Frames);

/// Film-mode (3:2 pulldown cadence) detection; also exposes the host-side
/// cadence analysis over the per-strip SAD metrics.
std::unique_ptr<MediaWorkload> createFMD(uint32_t W, uint32_t H,
                                         uint32_t Frames);

/// Bilinear-upscaled logo alpha-blended onto video (uses the texture
/// sampler fixed function on the accelerator).
std::unique_ptr<MediaWorkload> createAlphaBlend(uint32_t W, uint32_t H,
                                                uint32_t Frames);

/// De-interlacing by field averaging (bandwidth bound).
std::unique_ptr<MediaWorkload> createBOB(uint32_t W, uint32_t H,
                                         uint32_t Frames);

/// Motion-adaptive advanced de-interlacing.
std::unique_ptr<MediaWorkload> createADVDI(uint32_t W, uint32_t H,
                                           uint32_t Frames);

/// Linear YUV-style colour correction.
std::unique_ptr<MediaWorkload> createProcAmp(uint32_t W, uint32_t H,
                                             uint32_t Frames);

/// Analyzes FMD per-frame SADs for a 3:2 cadence. Exposed for the FMD
/// example and bench. \p FrameSads holds one aggregated SAD per frame
/// transition; returns true when the AABBB pulldown pattern is present.
bool detectPulldownCadence(const std::vector<uint64_t> &FrameSads);

/// Reduces an FMD workload's per-strip SAD metrics (in shared memory) to
/// per-frame totals. \p FMD must be a workload from createFMD.
std::vector<uint64_t> fmdFrameSads(MediaWorkload &FMD, exo::ExoPlatform &P);

/// Adapts a MediaWorkload to the runtime's heterogeneous-partitioning
/// interface (units = strips/shreds).
class MediaHeteroWork final : public chi::HeteroWork {
public:
  explicit MediaHeteroWork(MediaWorkload &WL) : WL(WL) {}

  uint64_t totalUnits() const override { return WL.totalStrips(); }
  Expected<chi::RegionHandle> dispatchDevice(chi::Runtime &RT, uint64_t U0,
                                             uint64_t U1,
                                             bool MasterNowait) override {
    return WL.dispatchDevice(RT, U0, U1, MasterNowait);
  }
  Error hostRun(chi::Runtime &RT, uint64_t U0, uint64_t U1) override {
    return WL.hostRun(RT, U0, U1);
  }
  cpu::WorkEstimate hostWork(uint64_t U0, uint64_t U1) const override {
    return WL.hostWorkFor(U0, U1);
  }

private:
  MediaWorkload &WL;
};

} // namespace kernels
} // namespace exochi

#endif // EXOCHI_KERNELS_WORKLOADS_H
