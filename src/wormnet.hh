/**
 * @file
 * Umbrella header: include everything a typical wormnet user needs.
 * Fine-grained headers remain available for faster builds.
 */

#ifndef WORMNET_WORMNET_HH
#define WORMNET_WORMNET_HH

#include "common/config.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/simulation.hh"
#include "detection/detector.hh"
#include "detection/ndm.hh"
#include "detection/pdm.hh"
#include "detection/source_timeout.hh"
#include "detection/timeout.hh"
#include "fault/fault.hh"
#include "recovery/disha.hh"
#include "recovery/progressive.hh"
#include "recovery/recovery.hh"
#include "recovery/regressive.hh"
#include "router/flit.hh"
#include "router/message.hh"
#include "router/router.hh"
#include "routing/routing.hh"
#include "sim/metrics.hh"
#include "sim/network.hh"
#include "sim/oracle.hh"
#include "sim/trace.hh"
#include "topology/mesh.hh"
#include "topology/mixed_torus.hh"
#include "topology/topology.hh"
#include "topology/torus.hh"
#include "traffic/generator.hh"
#include "traffic/length.hh"
#include "traffic/pattern.hh"

#endif // WORMNET_WORMNET_HH
