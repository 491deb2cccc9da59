// Config binding for the simulator: build ClusterParams from flat
// "section.key = value" text so experiments are scriptable without
// recompiling (the bench binaries bake their parameters in for
// reproducibility; the examples accept config files through this).
#pragma once

#include "common/config.hpp"
#include "sim/cluster.hpp"

namespace oda::sim {

/// Applies every recognized key of `config` on top of the defaults (or on
/// top of `base` in the two-argument form). Unknown keys throw ConfigError
/// so typos do not silently run the wrong experiment.
ClusterParams cluster_params_from_config(const Config& config);
ClusterParams cluster_params_from_config(const Config& config,
                                         ClusterParams base);

}  // namespace oda::sim
