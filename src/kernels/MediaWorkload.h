//===- kernels/MediaWorkload.h - Table 2 media-kernel harness ---------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The harness shared by the Table 2 media kernels. Every workload has
/// two implementations of the same algorithm:
///
///  - an XGMA strip kernel (inline accelerator assembly compiled into the
///    fat binary) in which each heterogeneous shred processes a horizontal
///    strip of RowsPerShred output rows, and
///  - an instrumented IA32 implementation that computes bit-identical
///    results on the host mirror and reports its work to the Core-2
///    timing model.
///
/// The strip is the shred granularity: a 640x480 LinearFilter at 3 rows
/// per shred spawns 160 shreds per frame, and so on — chosen per kernel
/// to land near the paper's Table 2 shred counts.
///
/// The harness also supports partitioned execution for the cooperative
/// experiments (Figure 10): strips [0, S0) on the IA32 sequencer and
/// [S0, total) on the accelerator.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_KERNELS_MEDIAWORKLOAD_H
#define EXOCHI_KERNELS_MEDIAWORKLOAD_H

#include "chi/ParallelRegion.h"
#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "kernels/Surface.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace exochi {
namespace kernels {

/// Analytic IA32 cost of one output pixel (feeds cpu::WorkEstimate).
struct HostCostModel {
  double VecOpsPerPixel = 1.0;    ///< 4-wide SSE ops
  double ScalarOpsPerPixel = 0.0;
  double SamplerOpsPerPixel = 0.0; ///< software bilinear samples
  double BytesReadPerPixel = 4.0;
  double BytesWrittenPerPixel = 4.0;
};

/// Base class of the Table 2 workloads.
class MediaWorkload {
public:
  /// \p ColsPerShred == 0 means full-width strips. Tile geometry is the
  /// shred granularity and is chosen per kernel to land near the paper's
  /// Table 2 shred counts.
  MediaWorkload(std::string Name, std::string Abbrev, SurfaceGeometry OutGeo,
                uint32_t RowsPerShred, uint32_t ColsPerShred,
                HostCostModel Cost);
  virtual ~MediaWorkload();

  MediaWorkload(const MediaWorkload &) = delete;
  MediaWorkload &operator=(const MediaWorkload &) = delete;

  const std::string &name() const { return Name; }
  const std::string &abbrev() const { return Abbrev; }
  const SurfaceGeometry &outGeometry() const { return OutGeo; }

  /// Tile grid of one frame.
  uint32_t tilesX() const {
    uint32_t C = ColsPerShred == 0 ? OutGeo.W : ColsPerShred;
    return (OutGeo.W + C - 1) / C;
  }
  uint32_t tilesY() const {
    return (OutGeo.H + RowsPerShred - 1) / RowsPerShred;
  }
  /// Strips (shreds) per frame and total (the shred count of a full run).
  uint32_t stripsPerFrame() const { return tilesX() * tilesY(); }
  uint64_t totalStrips() const {
    return static_cast<uint64_t>(stripsPerFrame()) * OutGeo.Frames;
  }

  /// Compiles the accelerator kernel into \p PB (once per fat binary).
  Error compile(chi::ProgramBuilder &PB);

  /// Scalar parameter names in the kernel's ABI slot order (the standard
  /// y0/rows/x0/cols followed by extraScalarParams()). Mirrors compile().
  std::vector<std::string> scalarParamNames() const;

  /// [min, max] hull of scalar parameter slot \p Index over every strip of
  /// a full run — the value envelope XCost/XVerify static analyses should
  /// assume for this workload's dispatches (exochi-lint --registry).
  std::pair<int32_t, int32_t> scalarParamHull(unsigned Index) const;

  /// Allocates surfaces, generates input content, publishes it to shared
  /// memory, and allocates descriptors. Requires compile()d binary to be
  /// loaded into \p RT already (or loaded afterwards, before dispatch).
  virtual Error setup(chi::Runtime &RT) = 0;

  /// Dispatches strips [S0, S1) to the accelerator as one parallel
  /// region.
  Expected<chi::RegionHandle> dispatchDevice(chi::Runtime &RT, uint64_t S0,
                                             uint64_t S1,
                                             bool MasterNowait = false);

  /// Dispatches an explicit strip order (for scheduling-policy studies:
  /// the queue order controls macroblock locality, paper Section 5.1).
  Expected<chi::RegionHandle>
  dispatchDevicePermuted(chi::Runtime &RT, std::vector<uint64_t> Strips,
                         bool MasterNowait = false);

  /// Analytic IA32 work of strips [S0, S1).
  cpu::WorkEstimate hostWorkFor(uint64_t S0, uint64_t S1) const;

  /// Functionally computes strips [S0, S1) on the host mirror (the
  /// reference implementation).
  virtual Error hostCompute(uint64_t S0, uint64_t S1) = 0;

  /// Cooperative host execution: computes strips [S0, S1) and publishes
  /// the affected output rows to the shared surface.
  virtual Error hostRun(chi::Runtime &RT, uint64_t S0, uint64_t S1);

  /// Runs the full workload on the accelerator and checks that the shared
  /// output matches the host reference bit-for-bit.
  Error verify(chi::Runtime &RT);

  /// Compares the shared output surface against the host mirror without
  /// dispatching anything (the caller must have produced both sides, e.g.
  /// a cooperative split). Fails with the first differing element.
  Error compareSharedToReference(chi::Runtime &RT);

protected:
  /// The XGMA strip kernel's assembly.
  virtual std::string kernelAsm() const = 0;

  /// Scalar parameter names beyond the standard y0/rows/w.
  virtual std::vector<std::string> extraScalarParams() const { return {}; }

  /// Surface parameter names, in slot order.
  virtual std::vector<std::string> surfaceParams() const = 0;

  /// Descriptor for each surface parameter (set up in setup()).
  virtual std::map<std::string, uint32_t> sharedDescs() const = 0;

  /// Per-shred value of an extra scalar parameter.
  virtual int32_t extraParamValue(const std::string &Param,
                                  uint64_t Strip) const {
    (void)Param;
    (void)Strip;
    return 0;
  }

  /// Frame / row range / column range of a strip (visible coordinates).
  void stripLocation(uint64_t Strip, uint32_t &Frame, uint32_t &Row0,
                     uint32_t &Rows, uint32_t &Col0, uint32_t &Cols) const;

  /// The output surface (written by both implementations).
  virtual const SharedSurface &outputSurface() const = 0;
  /// The host-side output mirror (written by hostCompute).
  virtual HostImage &hostOutput() = 0;

  std::string Name;
  std::string Abbrev;
  SurfaceGeometry OutGeo;
  uint32_t RowsPerShred;
  uint32_t ColsPerShred; ///< 0 = full width
  HostCostModel Cost;
};

/// One input size Table 2 lists for a kernel, with the paper's shred
/// count for it.
struct Table2Input {
  uint32_t W, H;
  uint32_t Frames; ///< 0 for a still image
  uint64_t PaperShreds;
  const char *Label; ///< Table 2's "data size" column
};

/// One Table 2 kernel: its paper input sizes and its factory.
struct Table2Kernel {
  const char *Name;
  Table2Input Input; ///< the size the figures run, scaled
  std::optional<Table2Input> Large; ///< Table 2's second size, if any
  uint32_t MinFrames; ///< frame floor of a scaled-down video
  std::unique_ptr<MediaWorkload> (*Create)(uint32_t W, uint32_t H,
                                           uint32_t Frames);

  /// A fresh workload at exactly \p In.
  std::unique_ptr<MediaWorkload> create(const Table2Input &In) const {
    return Create(In.W, In.H, In.Frames);
  }
  /// A fresh workload at \p Scale in (0, 1] of Input (1.0 = paper size;
  /// dimensions are kept multiples of 16 and at least 32).
  std::unique_ptr<MediaWorkload> create(double Scale) const;
};

/// The ten Table 2 kernels, in paper order.
const std::vector<Table2Kernel> &table2Kernels();

/// All ten Table 2 workloads at \p Scale (Table2Kernel::create), in paper
/// order.
std::vector<std::unique_ptr<MediaWorkload>> createTable2Workloads(
    double Scale = 1.0);

/// Scales one dimension (multiple of 16, minimum 32).
uint32_t scaleDim(uint32_t Dim, double Scale);

} // namespace kernels
} // namespace exochi

#endif // EXOCHI_KERNELS_MEDIAWORKLOAD_H
