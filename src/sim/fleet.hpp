// fleet.hpp - sharded federated fleet training (paper Section IV-C at
// scale), with checkpoint/restore and fault injection.
//
// Section IV-C's cloud-training story is a manufacturer's fleet: many
// devices run the same app under different users, train locally, and the
// cloud periodically aggregates their Q-tables and pushes the merge back.
// train_fleet() simulates that end to end:
//
//   * N devices (one user seed each) are partitioned round-robin into
//     shards - a shard models a device group behind one edge aggregator;
//   * training proceeds in merge rounds: every device trains for
//     round_duration of simulated time, warm-started from its shard's
//     current aggregate (action values and tried masks; visit counts stay
//     with the aggregate so historical experience is never double-counted
//     across a shard's devices), with all devices of all shards fanned
//     out across the runner's shared worker pool (run_training_plan, one
//     whole device cell per task);
//   * after each round a shard FedAvg-merges its previous aggregate with
//     its devices' fresh deltas (visit-weighted);
//   * shard s uploads to the global server every 1 + (s % sync_spread)
//     rounds - later shards phone home rarer, like real fleets where
//     connectivity and charging windows differ - and downloads the fresh
//     staleness-weighted global aggregate in return;
//   * the final global table is the staleness-weighted merge of each
//     shard's *last upload* (the server never sees fresher state).
//
// The paper's setting is inherently unreliable (phones go offline, uploads
// arrive stale or truncated), so the fleet is fault-tolerant by
// construction:
//
//   * FleetFaultPlan injects seeded per-round device dropout (a dropped
//     device trains nothing that round; its shard's next upload leans on
//     older experience, which the StalenessMergePolicy already weights
//     down) and corrupted/truncated uploads (damaged bytes are caught by
//     the snapshot CRC and rejected; the round degrades gracefully to the
//     surviving uploads and the shard retries at its next cadence);
//   * snapshot_every periodically persists the whole fleet state
//     (FleetSnapshot via common/serialize: versioned container, CRC32 per
//     section) and resume_from restarts from such a snapshot
//     *bit-identically* to a run that never stopped - a round's outcome is
//     a pure function of (options, round index, shard state at round
//     start), so replaying from any checkpoint converges on the same
//     bytes. Pinned by tests/sim/fleet_resume_golden_test.cpp and the
//     examples/fleet_checkpoint.cpp CI smoke step.
//
// Everything is deterministic in FleetOptions (device d, round r trains
// with seed derive_seed(derive_seed(base_seed, d), r); faults draw from
// their own derive_seed streams), so fleet training inherits the runner's
// bit-identical-across-worker-counts contract (wall_seconds excepted).
// Asserted by tests/sim/fleet_test.cpp and
// tests/integration/fleet_faults_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.hpp"
#include "rl/federated.hpp"
#include "sim/runner.hpp"

namespace nextgov::sim {

/// FleetFaultPlan::crash_at_round value meaning "never crash".
inline constexpr std::size_t kNoCrashRound = static_cast<std::size_t>(-1);

/// Thrown by train_fleet when FleetFaultPlan::crash_at_round fires: the
/// simulated process death for crash/resume tests. Carries no fleet state -
/// recovery goes through the last snapshot, exactly like a real crash.
class FleetCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Seeded fault injection for a fleet run. All draws are deterministic in
/// (seed, round, device/shard) - independent of worker count and of each
/// other - so a faulted run is exactly as reproducible as a clean one.
struct FleetFaultPlan {
  std::uint64_t seed{0xFA017u};
  /// Per-(device, round) probability that the device misses the round
  /// entirely (offline / not charging): it does not train and contributes
  /// nothing to its shard's merge that round.
  double dropout_rate{0.0};
  /// Per-upload probability that a shard's upload arrives damaged (byte
  /// corruption or truncation, alternating by draw). The server rejects it
  /// via the CRC check; the shard keeps its local aggregate, skips the
  /// download, and retries at its next sync cadence while its previous
  /// upload ages through the staleness weighting.
  double upload_corruption_rate{0.0};
  /// Crash hook: after round K fully completes (including any due
  /// snapshot), train_fleet throws FleetCrash. kNoCrashRound = never.
  std::size_t crash_at_round{kNoCrashRound};
};

struct FleetOptions {
  std::size_t devices{8};
  std::size_t shards{2};
  std::size_t rounds{3};
  /// Per-device simulated training time per merge round.
  SimTime round_duration{SimTime::from_seconds(180.0)};
  /// App restart cadence inside a round (TrainingOptions::episode_length).
  SimTime episode_length{SimTime::from_seconds(60.0)};
  /// Device d's user stream is derive_seed(base_seed, d); each round
  /// re-derives so episodes never replay across rounds.
  std::uint64_t base_seed{2020};
  core::NextConfig next_config{};
  Celsius ambient{Celsius{21.0}};
  /// Shard s syncs with the global server every 1 + (s % sync_spread)
  /// rounds. 1 = synchronous FedAvg (no staleness anywhere).
  std::size_t sync_spread{2};
  rl::StalenessMergePolicy merge_policy{};
  FleetFaultPlan faults{};
  /// Persist a FleetSnapshot to snapshot_path after every N completed
  /// rounds (atomic replace). 0 = no snapshots.
  std::size_t snapshot_every{0};
  std::string snapshot_path{};
  /// Non-empty: restore the fleet from this snapshot and continue from its
  /// next round instead of starting fresh. The snapshot's recorded options
  /// must match (see load_fleet_snapshot); `rounds` may be larger than the
  /// snapshotted run's - the fleet simply trains further.
  std::string resume_from{};
  /// Worker *processes* each round's training fans out across (via
  /// sim/multiproc.hpp; <= 1 = in-process). Pure execution strategy - the
  /// merged round results are bit-identical regardless (pinned by
  /// tests/sim/fleet_test.cpp), so this is deliberately excluded from
  /// encode_fleet_options, like RunnerOptions::workers.
  std::size_t processes{1};
  /// Upload wire strategy: when true, a shard that has synced before encodes
  /// its upload as a QTableDelta (rl/qtable_delta.hpp) against the aggregate
  /// it downloaded at its last accepted sync - only the states touched since
  /// then travel, with signed visit deltas - and the server applies the
  /// delta to its mirror of that base. First-ever uploads, and any upload
  /// whose delta cannot replay bit-exactly (try_make_delta declines), fall
  /// back to the full table. Either way the decoded upload is bit-identical
  /// to the sender's table, so the run's trajectory - every merge, every
  /// golden - is unchanged; only FleetResult's upload byte counters differ.
  /// Pure wire strategy, so deliberately excluded from encode_fleet_options
  /// like `processes`: a snapshot written full-upload resumes delta and vice
  /// versa (pinned by tests/sim/fleet_test.cpp).
  bool delta_uploads{false};
};

/// Per-round progress snapshot, handed to FleetProgressFn after each merge.
struct FleetRoundStats {
  std::size_t round{0};                    ///< 0-based
  std::vector<std::size_t> shard_states;   ///< state count per shard aggregate
  std::vector<bool> shard_synced;          ///< uploaded to global this round?
  double mean_reward{0.0};                 ///< mean of this round's device rewards
  std::uint64_t round_decisions{0};        ///< decisions across all devices
  std::size_t dropped_devices{0};          ///< devices that missed this round
  std::size_t rejected_uploads{0};         ///< uploads the server refused (CRC)
  std::uint64_t upload_bytes{0};           ///< wire bytes of this round's uploads
  std::size_t delta_uploads{0};            ///< this round's uploads that went as deltas
};
using FleetProgressFn = std::function<void(const FleetRoundStats&)>;

/// FleetResult::shard_last_upload value for a shard whose sync cadence
/// never came due within the configured rounds.
inline constexpr std::size_t kNeverUploaded = static_cast<std::size_t>(-1);

struct FleetResult {
  rl::QTable global;                            ///< final staleness-weighted aggregate
  std::vector<rl::QTable> shard_tables;         ///< each shard's final local aggregate
  /// Round index of each shard's last upload, or kNeverUploaded.
  std::vector<std::size_t> shard_last_upload;
  std::size_t devices{0};
  std::size_t rounds{0};
  /// First round this call actually executed (> 0 when resumed).
  std::size_t start_round{0};
  std::uint64_t total_decisions{0};
  double device_sim_seconds{0.0};  ///< simulated training time per device
  double wall_seconds{0.0};        ///< host wall-clock for the whole fleet run
  double mean_final_reward{0.0};   ///< mean device reward in the last round
  // --- fault/persistence bookkeeping (cumulative across resumes) ---
  std::uint64_t dropped_device_rounds{0};  ///< (device, round) pairs lost to dropout
  std::uint64_t rejected_uploads{0};       ///< uploads refused by the CRC check
  std::size_t snapshots_written{0};        ///< by this call (not the resumed-from run)
  // --- upload wire accounting (cumulative across resumes) ---
  // Every upload travels as serialized bytes (full table or delta); these
  // count what was put on the wire, including attempts the fault plan later
  // damaged. With delta_uploads off, the delta counters stay zero.
  std::uint64_t upload_bytes_full{0};   ///< bytes of full-table uploads
  std::uint64_t upload_bytes_delta{0};  ///< bytes of delta-encoded uploads
  std::uint64_t uploads_full{0};        ///< uploads sent as full tables
  std::uint64_t uploads_delta{0};       ///< uploads sent as deltas
};

/// One shard's last accepted upload as the global server holds it.
struct FleetUpload {
  rl::QTable table;
  std::size_t round{0};
};

/// One device's lease as the long-running fleet server tracks it (snapshot
/// container version 2; see sim/fleet_server.hpp). A device holds its lease
/// by heartbeating; when heartbeats stop mid-round the lease expires, the
/// server discards the device's in-flight round, and the device re-registers
/// at `rejoin_round`.
struct DeviceLease {
  bool active{true};
  std::size_t rejoin_round{0};  ///< first round a departed device re-registers
};

/// A late upload still in flight at a round boundary: accepted-in-principle
/// bytes that will arrive (or keep retrying) during a later round. Persisted
/// so a restarted server replays the exact same arrivals.
struct PendingUpload {
  std::size_t device{0};
  std::size_t trained_round{0};    ///< round whose training produced the table
  std::int64_t arrival_us{0};      ///< absolute simulated arrival time of the next attempt
  std::uint32_t attempts_used{0};  ///< upload attempts already spent on this table
  rl::QTable table;
};

/// The complete persistent state of a fleet between rounds - everything a
/// resumed run needs to continue bit-identically. Serialized through the
/// common snapshot container (magic, version, per-section CRC32), together
/// with a canonical encoding of the FleetOptions that produced it so a
/// resume under different options is rejected instead of silently
/// diverging.
struct FleetSnapshot {
  std::size_t next_round{0};  ///< first round the resumed run executes
  std::uint64_t total_decisions{0};
  double last_round_mean_reward{0.0};
  std::uint64_t dropped_device_rounds{0};
  std::uint64_t rejected_uploads{0};
  std::vector<std::optional<rl::QTable>> shard_tables;
  std::vector<std::optional<FleetUpload>> uploads;
  std::vector<std::size_t> shard_last_upload;
  std::optional<rl::QTable> last_aggregate;

  // --- fleet-server extension (container version 2) ------------------------
  // Absent in version-1 files and in train_fleet checkpoints (where
  // has_server_state stays false and nothing extra is written); the
  // long-running FleetServer persists its lease/deadline/pending-upload
  // state here so a kill -9 at any round boundary resumes bit-identically.
  // For server snapshots `uploads`/`shard_last_upload` are *device*-indexed
  // (the server aggregates per device, not per shard) and `shard_tables` is
  // unused.
  struct ServerCounters {
    std::uint64_t rounds_served{0};
    std::uint64_t uploads_accepted{0};
    std::uint64_t uploads_retried{0};
    std::uint64_t uploads_lost{0};
    std::uint64_t late_uploads_merged{0};
    std::uint64_t departures{0};
  };
  bool has_server_state{false};
  std::vector<DeviceLease> leases;            ///< per device
  std::vector<PendingUpload> pending_uploads;  ///< in flight across the boundary
  std::int64_t server_clock_us{0};            ///< simulated clock at the boundary
  ServerCounters server_counters;

  // --- delta-upload extension (container version 3, "sync_state" section) --
  // The per-shard delta bases and the cumulative upload-wire counters, so a
  // resumed run replays the same delta/full upload decisions and keeps
  // counting from where it stopped. Absent in version-1/2 files: the bases
  // then restore empty and every shard's first post-resume upload simply
  // goes out full - the trajectory is unaffected either way (the decoded
  // upload is always bit-identical to the sender's table). FleetServer
  // snapshots persist only the counters (its delta base is the round's warm
  // table, recomputed from last_aggregate on restore), leaving `bases`
  // empty.
  struct SyncState {
    /// Per shard: the aggregate downloaded at the shard's last accepted
    /// sync (the delta base), or nullopt if it never synced.
    std::vector<std::optional<rl::QTable>> bases;
    /// Per shard: round index of that last accepted sync (kNeverUploaded
    /// when `bases` is nullopt there).
    std::vector<std::size_t> cursors;
    std::uint64_t upload_bytes_full{0};
    std::uint64_t upload_bytes_delta{0};
    std::uint64_t uploads_full{0};
    std::uint64_t uploads_delta{0};
  };
  SyncState sync;
};

/// Validates the geometry/cadence/fault/persistence fields of `options` and
/// throws a descriptive ConfigError on the first violation (zero devices,
/// zero shards or more shards than devices, zero rounds, sync_spread == 0,
/// fault rates outside their ranges, snapshot_every set without a
/// snapshot_path, ...). train_fleet() calls this up front so degenerate
/// configurations fail fast instead of producing silent no-op runs.
void validate_fleet_options(const FleetOptions& options);

/// Canonical byte encoding of every FleetOptions field that determines the
/// trajectory (devices/shards/seeds/durations/NextConfig/merge policy/fault
/// rates - deliberately *excluding* `rounds`, the crash hook and the
/// snapshot/resume plumbing, so a resumed run may extend the round count or
/// drop the crash). Stored inside each snapshot and compared on load.
void encode_fleet_options(const FleetOptions& options, ByteWriter& out);

/// Persists `snapshot` (+ the options encoding) to `path` atomically.
void save_fleet_snapshot(const FleetSnapshot& snapshot, const FleetOptions& options,
                         const std::string& path);

/// Loads and validates a fleet snapshot. Throws IoError if unreadable and
/// SerializeError (with a descriptive message) on bad magic, unsupported
/// version, truncation or CRC mismatch. A file that fails validation for
/// corruption (as opposed to a version-window refusal) is *quarantined*:
/// renamed to `<path>.corrupt` and logged via common/log, so a damaged
/// snapshot cannot sit at `path` failing every restart.
[[nodiscard]] FleetSnapshot load_fleet_snapshot(const std::string& path);

/// Same, but additionally requires the snapshot's recorded options to match
/// `expected` (by canonical encoding); mismatch throws SerializeError.
[[nodiscard]] FleetSnapshot load_fleet_snapshot(const std::string& path,
                                                const FleetOptions& expected);

/// Trains a sharded fleet on `app_factory`'s app and returns the final
/// global aggregate. `runner.workers` sizes the shared pool each round.
/// `progress` (optional) fires once per completed merge round.
[[nodiscard]] FleetResult train_fleet(AppFactory app_factory, const FleetOptions& options,
                                      const RunnerOptions& runner = {},
                                      const FleetProgressFn& progress = {});

/// Same for a catalog app.
[[nodiscard]] FleetResult train_fleet(workload::AppId app, const FleetOptions& options,
                                      const RunnerOptions& runner = {},
                                      const FleetProgressFn& progress = {});

// --- snapshot plumbing shared with the long-running server -----------------
// (sim/fleet_server.hpp composes its own snapshot container - server options
// + the fleet state + the server extension - from the same codec, so the two
// persistence paths can never drift.)

/// Canonical encoding of a NextConfig (every field the agent's trajectory
/// depends on). Part of the options-identity blob of both fleet and
/// fleet-server snapshots.
void encode_next_config(const core::NextConfig& config, ByteWriter& out);

/// Writes the "fleet_state" section (when snapshot.has_server_state, the
/// version-2 "server_state" section) and the version-3 "sync_state" section
/// into `out`, then seals it. Every Q-table goes into a deferred chunk of
/// its own (SnapshotWriter::defer), so seal() serializes and checksums the
/// tables across `workers` threads; the bytes are the same for every
/// `workers` value, and 1 runs the same code serially.
void write_fleet_state_sections(SnapshotWriter& out, const FleetSnapshot& snapshot,
                                std::size_t workers = 1);

/// Decodes what write_fleet_state_sections() wrote. Version-1 containers
/// (no "server_state" section) decode with the server fields defaulted;
/// pre-version-3 containers (no "sync_state" section) decode with empty
/// delta bases and zero upload counters.
[[nodiscard]] FleetSnapshot read_fleet_state_sections(const SnapshotReader& in);

/// Reads and fully validates the snapshot container at `path`. On a
/// corruption failure (bad magic, truncation, CRC mismatch) the damaged
/// file is renamed to `<path>.corrupt`, the rename is logged via
/// common/log, and the SerializeError is rethrown naming the quarantine
/// location. Version-window refusals do NOT quarantine: the file is valid,
/// just written by a different release.
[[nodiscard]] SnapshotReader read_snapshot_quarantining(const std::string& path);

/// Renames the snapshot at `path` to `<path>.corrupt` and logs `reason`
/// via common/log, so an unusable file cannot fail every restart. Returns
/// false (and logs) when the rename itself fails.
bool quarantine_snapshot(const std::string& path, std::string_view reason);

/// Copy of `table` carrying its action values and tried masks but no visit
/// mass. Warm-starting devices from this keeps historical visit mass
/// counted exactly once - via the aggregate itself - instead of once per
/// device, which would inflate it by the fleet size every round and swamp
/// the staleness weighting.
[[nodiscard]] rl::QTable strip_visit_mass(const rl::QTable& table);

// --- upload wire codec (shared by train_fleet and FleetServer) -------------
// One CRC-guarded snapshot container per upload, holding either an "upload"
// section (the full table) or a "delta" section (a QTableDelta against a
// base both ends hold). decode_upload(encode_upload(t, ...)) == t
// bit-exactly on both paths, so the wire strategy is invisible to the
// training trajectory; damaged bytes always surface as SerializeError via
// the container's CRC/length checks.

/// Encodes `table` as upload wire bytes: a delta against `*delta_base` when
/// a base is given and the delta can replay bit-exactly (see
/// rl::try_make_delta), else the full table. `*went_delta` (optional)
/// reports which path was taken.
[[nodiscard]] std::vector<std::uint8_t> encode_upload(const rl::QTable& table,
                                                      const rl::QTable* delta_base,
                                                      bool* went_delta = nullptr);

/// Decodes upload wire bytes produced by encode_upload. When the blob is a
/// delta, `delta_base` must be the same base the sender encoded against;
/// a missing or mismatched base throws SerializeError, exactly like any
/// damaged blob.
[[nodiscard]] rl::QTable decode_upload(std::vector<std::uint8_t> blob,
                                       const rl::QTable* delta_base,
                                       const std::string& label);

}  // namespace nextgov::sim
