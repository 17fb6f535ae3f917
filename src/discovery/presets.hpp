// Canned platform descriptions used throughout the reproduction:
// the paper's §IV-D testbed in its three PDL configurations, plus platforms
// for the paper's other motivating architectures (Cell B.E., hierarchical
// many-core with Hybrid PUs, a 1088-core many-core).
//
// Each is described once, by its file in platforms/: the build embeds the
// files and each builder parses its file's text, so diagnostics and source
// locations name `platforms/<stem>.pdl.xml`. The case study's point is that
// the *same* input program targets all of these by swapping the PDL
// descriptor; benches and examples pull their target platforms from here.
#pragma once

#include <span>
#include <string_view>
#include <utility>

#include "pdl/model.hpp"

namespace pdl::discovery {

/// The embedded platforms/*.pdl.xml files as (stem, text) pairs, sorted by
/// stem; each text is its file byte for byte.
std::span<const std::pair<std::string_view, std::string_view>> preset_files();

/// "single": the serial input configuration — the Master alone, no worker
/// PUs (the input task implementation runs on the Master). The Master is
/// the dual-X5550 host; its cores peak at 10.64 GFLOPS (Nehalem: 4 DP
/// flops/cycle at 2.66 GHz) and sustain 9.8, about what GotoBLAS2 reaches.
Platform paper_platform_single();

/// "starpu": Master + 8 x86-core Workers (data-parallel CPU execution).
Platform paper_platform_starpu_cpu();

/// "starpu+2gpu": Master + 8 x86-core Workers + GTX480 + GTX285 Workers
/// with PCIe interconnects — the full §IV-D machine.
Platform paper_platform_starpu_2gpu();

/// Cell B.E.-style platform: PPE Master + 8 SPE Workers with local-store
/// MemoryRegions and an EIB interconnect (paper §I names Cell as a prime
/// example of the architectures PDL must cover).
Platform cell_be_platform();

/// ET-SOC1-class many-core: one RISC-V management Master over `workers`
/// identical quantity-expanded minion Workers on a mesh NoC — the
/// scheduler-scalability platform. It is platforms/manycore-1k.pdl.xml with
/// the `minion` Worker's quantity set to `workers`. All workers collapse
/// into one placement class.
Platform manycore_platform(int workers = 1088);

/// A deep hierarchy exercising Hybrid PUs: a Master controlling two Hybrid
/// nodes, each controlling GPU and CPU-core Workers — the Figure 2 shape.
Platform hierarchical_hybrid_platform();

}  // namespace pdl::discovery
