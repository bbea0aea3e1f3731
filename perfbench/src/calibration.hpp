// Host-speed calibration.
//
// On a shared host, other tenants slow the benchmark for seconds to minutes
// at a time, most likely from the other hyperthread of the same core and
// from the shared caches and memory. On the 4-vCPU host the
// benchmark was tuned on, the same paper_figures sample took 0.43 s in
// quiet phases and 0.75 s in busy ones, and a run's median moved by as much
// as the regression bound between one minute and the next.
//
// The probe is a fixed kernel that is not part of the simulator: one third
// register arithmetic, one third scans of an L2-sized array, one third
// random loads from a DRAM-sized array. It slows with the same contention,
// and because its code never changes, its slowdown measures the host, not
// the program. The probe runs at the start and end of every sample and
// between its steps whenever kProbeEveryS of work has passed since the last
// one, outside the timed wall; the sample's host times are scaled by
// kReferenceProbeS ÷ (mean probe time). Calibrated times read as seconds on
// the reference host when nothing else runs on it.
//
// The probe is built in its own library with fixed flags (see
// CMakeLists.txt), so no change to the simulator's build options moves it.
#pragma once

namespace perfbench {

/// The probe's time on the reference host (4-vCPU Intel Xeon, AVX-512)
/// with nothing else running: about its fastest readings there.
inline constexpr double kReferenceProbeS = 3.3e-3;

/// Work between two probes of one sample (at a step boundary).
inline constexpr double kProbeEveryS = 0.05;

/// Runs the probe once and returns its host time in seconds. The first
/// call also builds the probe's arrays (about 34 MB; not timed).
[[nodiscard]] double probe_s();

}  // namespace perfbench
