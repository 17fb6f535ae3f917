#include "cascabel/feedback.hpp"

#include <set>

#include "pdl/well_known.hpp"
#include "starvm/bridge.hpp"

namespace cascabel {

pdl::Platform refine_platform(const pdl::Platform& platform,
                              const starvm::perf_store::Store& store,
                              RefineReport* report) {
  pdl::Platform refined = platform.clone();
  // Every PU, none set aside as a driver; origins point into the clone.
  starvm::BridgeOptions every_pu;
  every_pu.dedicate_driver_cores = false;
  std::vector<const pdl::ProcessingUnit*> origins;
  auto config = starvm::engine_config_from_platform(refined, every_pu, &origins);
  RefineReport local;
  std::set<const pdl::ProcessingUnit*> seen;
  for (std::size_t d = 0; config.ok() && d < origins.size(); ++d) {
    if (!seen.insert(origins[d]).second) continue;  // one PU, one class
    const std::uint64_t key = starvm::class_key(config.value().devices[d]);
    double work = 0.0;
    double time = 0.0;
    for (const starvm::perf_store::Entry& e : store.entries) {
      if (e.class_key != key || e.ema_gflops <= 0.0) continue;
      const double weight = static_cast<double>(e.count) * e.ema_seconds;
      work += weight * e.ema_gflops;
      time += weight;
    }
    if (time <= 0.0) continue;
    const std::string value = std::to_string(work / time);

    // We own the clone, so the cast is sound.
    pdl::Descriptor& descriptor =
        const_cast<pdl::ProcessingUnit*>(origins[d])->descriptor();
    if (pdl::Property* existing = descriptor.find(pdl::props::kMeasuredGflops)) {
      existing->value = value;
    } else {
      pdl::Property measured;
      measured.name = pdl::props::kMeasuredGflops;
      measured.value = value;
      measured.fixed = false;  // runtime-instantiated, editable downstream
      descriptor.add(std::move(measured));
    }
    ++local.pus_updated;

    // Re-instantiate SUSTAINED_GFLOPS only when the descriptor marked it
    // unfixed (paper §III-B: fixed values are authoritative).
    if (pdl::Property* sustained = descriptor.find(pdl::props::kSustainedGflops);
        sustained != nullptr && !sustained->fixed) {
      sustained->value = value;
      ++local.sustained_updated;
    }
  }
  if (report != nullptr) *report = local;
  return refined;
}

}  // namespace cascabel
