/**
 * @file
 * Checkpoint file container.
 *
 * A checkpoint is an opaque payload (produced by a Serializer —
 * Network::saveState(), or the experiment runner's cell table)
 * wrapped in a small self-validating header:
 *
 *     offset  size  field
 *          0     8  magic "WNCKPT01" (bytes, not terminated)
 *          8     4  format version (little-endian, currently 1)
 *         12     4  CRC-32 (IEEE) of the payload bytes
 *         16     8  payload size in bytes
 *         24   4+n  config string (length-prefixed)
 *       24+.     m  payload
 *
 * The config string is the writer's canonical configuration (e.g.
 * Simulation::canonicalString()); readers pass their own and
 * fatal() on mismatch — resuming under a different topology, seed
 * or detector would silently diverge otherwise. Version policy:
 * the version covers the payload *layout*; any change to what a
 * saveState() writes bumps kCheckpointVersion, and older files are
 * rejected rather than misread (checkpoints are short-lived
 * crash-recovery artifacts, not archives — no migration support).
 *
 * Writes are atomic: the file is written to "<path>.tmp" and
 * renamed over the target, so a crash mid-save leaves the previous
 * checkpoint intact.
 */

#ifndef WORMNET_SIM_CHECKPOINT_HH
#define WORMNET_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hh"

namespace wormnet
{

/** Bumped on any change to a serialized payload layout.
 *  v2: control-traffic counters appended to SimStats; DWFG detector
 *  payload (channel mirror + in-flight probe tokens).
 *  v3: NDM stores inactivity run starts (since/runMask/lastCycleEnd)
 *  instead of materialized counters and I/DT flag bytes.
 *  v4: an input VC stores its worm buffer as (count, front index,
 *  newest ready cycle) instead of a list of flits.
 *  v5: no per-port last-transmit cycles; the switch and injection
 *  round-robin pointers are one byte each, written after all VC
 *  records instead of per router. */
inline constexpr std::uint32_t kCheckpointVersion = 5;

/**
 * Atomically write @p payload to @p path under the container
 * header. fatal() on any I/O error.
 */
void writeCheckpointFile(const std::string &path,
                         const std::string &config,
                         const Serializer &payload);

/**
 * Read the checkpoint at @p path, validating magic, version, CRC
 * and that the stored config string equals @p expected_config
 * (fatal() with a diff-style message otherwise).
 * @return the payload bytes, ready for a Deserializer.
 */
std::vector<std::uint8_t>
readCheckpointFile(const std::string &path,
                   const std::string &expected_config);

} // namespace wormnet

#endif // WORMNET_SIM_CHECKPOINT_HH
