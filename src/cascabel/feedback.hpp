// Runtime -> descriptor feedback: the paper's §VI future work, implemented.
//
// "We have observed that tracking dynamically changing system resources
//  via platform descriptors can be difficult. In future we will
//  investigate how platform descriptors could be utilized for supporting
//  highly dynamic run-time schedulers."
//
// The PDL already provides the mechanism: *unfixed* properties are
// "marked to be editable by other tools or users ... with later
// instantiation by a runtime" (§III-B). This module closes that loop as a
// view over the persisted perf store (perf_store.hpp): each PU gets the
// rate the store learned for its device class, written into a clone of the
// platform description as an unfixed MEASURED_GFLOPS property, and any
// *unfixed* SUSTAINED_GFLOPS is re-instantiated with it — so the next
// translation/scheduling round runs on measured rather than datasheet
// numbers. The bridge prefers MEASURED_GFLOPS, so a refined PU forms a new
// device class.
#pragma once

#include "pdl/model.hpp"
#include "starvm/perf_store.hpp"

namespace cascabel {

struct RefineReport {
  int pus_updated = 0;        ///< PUs that received MEASURED_GFLOPS
  int sustained_updated = 0;  ///< unfixed SUSTAINED_GFLOPS re-instantiated
};

/// Clone `platform` and instantiate the rates `store` learned: a PU's rate
/// is its class's entries' work over their time (each entry weighs
/// ema_gflops by count x ema_seconds). PUs whose class has no entry with a
/// rate are skipped. `report` (optional) receives counts.
pdl::Platform refine_platform(const pdl::Platform& platform,
                              const starvm::perf_store::Store& store,
                              RefineReport* report = nullptr);

}  // namespace cascabel
