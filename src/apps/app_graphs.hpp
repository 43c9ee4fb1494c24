#pragma once

/// \file app_graphs.hpp
/// The two multimedia workloads of the paper's Sec. VI (Fig. 9), from
/// K. Latif's MPSoC design-space-exploration benchmarks:
///
///  * H.264/MPEG-4 encoder — 15 blocks mapped on a 4×4 mesh;
///  * Video Conference Encoder (VCE) — 25 blocks (video pipeline + audio
///    chain + OFDM transmission chain) mapped on a 5×5 mesh.
///
/// Reconstruction note (ARCHITECTURE.md, "Workloads"): the scanned figure lists
/// vertex names and edge weights but parts of the connectivity are
/// illegible. The edges below use the figure's weight multiset attached to
/// the canonical encoder dataflow; only the resulting rate matrix (who
/// talks to whom, how much, how far) enters the simulation.

#include "apps/task_graph.hpp"

namespace nocdvfs::apps {

/// H.264 encoder graph on a 4×4 mesh (19 edges, ~4353 packets/frame).
TaskGraph h264_encoder();

/// Video Conference Encoder graph on a 5×5 mesh (31 edges).
TaskGraph video_conference_encoder();

/// Reference frame rate at application speed 1.0 (paper: 75 frames/s).
inline constexpr double kReferenceFps = 75.0;

}  // namespace nocdvfs::apps
