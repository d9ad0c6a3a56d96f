#include "sim/fleet.hpp"

#include <chrono>
#include <cstdio>
#include <optional>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "rl/qtable_delta.hpp"
#include "sim/multiproc.hpp"

namespace nextgov::sim {

namespace {

/// Staleness-weighted merge of the uploads the server has seen so far,
/// aged relative to `current_round`, across `workers` threads.
rl::QTable server_aggregate(const std::vector<std::optional<FleetUpload>>& uploads,
                            std::size_t current_round,
                            const rl::StalenessMergePolicy& policy, std::size_t workers) {
  std::vector<const rl::QTable*> tables;
  std::vector<double> staleness;
  for (const auto& upload : uploads) {
    if (!upload.has_value()) continue;
    tables.push_back(&upload->table);
    staleness.push_back(static_cast<double>(current_round - upload->round));
  }
  NEXTGOV_ASSERT(!tables.empty());
  return rl::merge_q_tables(tables, staleness, policy, workers);
}

// --- fault injection -------------------------------------------------------

constexpr std::uint64_t kDropoutSalt = 0xD409u;
constexpr std::uint64_t kCorruptSalt = 0xC0FFu;

/// Deterministic per-(round, index) fault draw: independent of worker
/// count, of every other draw, and of how many draws preceded it.
bool fault_fires(const FleetFaultPlan& faults, std::uint64_t salt, std::size_t round,
                 std::size_t index, double rate) {
  if (rate <= 0.0) return false;
  SplitMix64 sm{derive_seed(derive_seed(faults.seed ^ salt, round), index)};
  const double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return u < rate;
}

/// Damages an encoded upload in-place: even draws flip one payload byte
/// (always caught by the CRC32), odd draws truncate the blob (caught by the
/// container's length checks). Deterministic in the same stream that
/// decided the fault fires.
void damage_upload(std::vector<std::uint8_t>& blob, const FleetFaultPlan& faults,
                   std::size_t round, std::size_t shard) {
  SplitMix64 sm{derive_seed(derive_seed(faults.seed ^ ~kCorruptSalt, round), shard)};
  const std::uint64_t kind = sm.next();
  if (blob.empty()) return;
  if (kind % 2 == 0) {
    const std::size_t at = static_cast<std::size_t>(sm.next() % blob.size());
    blob[at] ^= static_cast<std::uint8_t>(1 + sm.next() % 255);
  } else {
    blob.resize(blob.size() / 2);
  }
}

// --- snapshot payload helpers ----------------------------------------------

constexpr const char* kOptionsSection = "fleet_options";
constexpr const char* kStateSection = "fleet_state";
constexpr const char* kServerSection = "server_state";
constexpr const char* kSyncSection = "sync_state";

/// Defers `table` into a chunk of its own (serialized and checksummed by
/// SnapshotWriter::seal) and returns the writer for the bytes after it.
ByteWriter& defer_table(SnapshotWriter& out, const rl::QTable& table) {
  return out.defer([&table](ByteWriter& chunk) { table.serialize(chunk); });
}

ByteWriter& write_optional_table(SnapshotWriter& out, ByteWriter& w,
                                 const std::optional<rl::QTable>& table) {
  w.boolean(table.has_value());
  return table.has_value() ? defer_table(out, *table) : w;
}

std::optional<rl::QTable> read_optional_table(ByteReader& in) {
  if (!in.boolean()) return std::nullopt;
  return rl::QTable::deserialize(in);
}

}  // namespace

std::vector<std::uint8_t> encode_upload(const rl::QTable& table, const rl::QTable* delta_base,
                                        bool* went_delta) {
  SnapshotWriter wire;
  bool as_delta = false;
  if (delta_base != nullptr) {
    const std::optional<rl::QTableDelta> delta = rl::try_make_delta(*delta_base, table);
    if (delta.has_value()) {
      delta->serialize(wire.section("delta"));
      as_delta = true;
    }
  }
  if (!as_delta) table.serialize(wire.section("upload"));
  if (went_delta != nullptr) *went_delta = as_delta;
  return wire.bytes();
}

rl::QTable decode_upload(std::vector<std::uint8_t> blob, const rl::QTable* delta_base,
                         const std::string& label) {
  const SnapshotReader decoded{std::move(blob), label};
  if (decoded.has("delta")) {
    if (delta_base == nullptr) {
      throw SerializeError(label +
                           ": delta-encoded upload, but the receiver holds no base table "
                           "to apply it to");
    }
    ByteReader payload = decoded.section("delta");
    return rl::apply_delta(*delta_base, rl::QTableDelta::deserialize(payload));
  }
  ByteReader payload = decoded.section("upload");
  return rl::QTable::deserialize(payload);
}

rl::QTable strip_visit_mass(const rl::QTable& table) {
  rl::QTable out{table.action_count()};
  table.for_each_entry([&](const rl::QTable::EntryView& e) {
    for (std::size_t a = 0; a < table.action_count() && a < 32; ++a) {
      if ((e.tried() & (1u << a)) != 0) out.set_q(e.key(), a, e.q(a));
    }
  });
  return out;
}

void validate_fleet_options(const FleetOptions& options) {
  require(options.devices > 0, "FleetOptions: devices must be >= 1 (an empty fleet trains nothing)");
  require(options.shards > 0, "FleetOptions: shards must be >= 1");
  require(options.shards <= options.devices,
          "FleetOptions: more shards than devices - at least one shard would stay empty "
          "every round");
  require(options.rounds > 0, "FleetOptions: rounds must be >= 1");
  require(options.round_duration.us() > 0, "FleetOptions: round_duration must be positive");
  require(options.episode_length.us() > 0, "FleetOptions: episode_length must be positive");
  require(options.sync_spread > 0,
          "FleetOptions: sync_spread must be >= 1 (shard s syncs every 1 + s mod "
          "sync_spread rounds; 0 would make every cadence undefined)");
  require(options.faults.dropout_rate >= 0.0 && options.faults.dropout_rate < 1.0,
          "FleetOptions: faults.dropout_rate must be in [0, 1)");
  require(options.faults.upload_corruption_rate >= 0.0 &&
              options.faults.upload_corruption_rate <= 1.0,
          "FleetOptions: faults.upload_corruption_rate must be in [0, 1]");
  require(options.snapshot_every == 0 || !options.snapshot_path.empty(),
          "FleetOptions: snapshot_every is set but snapshot_path is empty - there is "
          "nowhere to persist the checkpoint");
}

void encode_next_config(const core::NextConfig& c, ByteWriter& out) {
  out.i64(c.sample_period.us());
  out.i64(c.frame_window.us());
  out.i64(c.control_period.us());
  out.u64(static_cast<std::uint64_t>(c.fps_levels));
  out.u64(static_cast<std::uint64_t>(c.power_bins));
  out.f64(c.power_max_w);
  out.u64(static_cast<std::uint64_t>(c.temp_bins));
  out.f64(c.temp_min_c);
  out.f64(c.temp_max_c);
  out.f64(c.qlearning.alpha);
  out.f64(c.qlearning.gamma);
  out.f64(c.qlearning.alpha_min);
  out.f64(c.qlearning.visit_decay);
  out.f64(c.epsilon.start);
  out.f64(c.epsilon.end);
  out.u64(c.epsilon.decay_steps);
  out.f64(c.optimistic_q);
  out.u8(static_cast<std::uint8_t>(c.reward_metric));
  out.f64(c.ppdw_bounds.fps_least);
  out.f64(c.ppdw_bounds.fps_max);
  out.f64(c.ppdw_bounds.power_least.value());
  out.f64(c.ppdw_bounds.power_max.value());
  out.f64(c.ppdw_bounds.temp_least.value());
  out.f64(c.ppdw_bounds.temp_max.value());
  out.f64(c.ppdw_bounds.ambient.value());
  out.f64(c.ppdw_ref);
  out.f64(c.ppw_ref);
  out.f64(c.track_sigma_floor);
  out.f64(c.track_sigma_frac);
  out.f64(c.idle_power_scale_w);
  out.f64(c.drop_scale);
  out.u64(static_cast<std::uint64_t>(c.cap_up_step));
  out.u64(static_cast<std::uint64_t>(c.cap_down_step));
}

void encode_fleet_options(const FleetOptions& options, ByteWriter& out) {
  out.u64(static_cast<std::uint64_t>(options.devices));
  out.u64(static_cast<std::uint64_t>(options.shards));
  out.i64(options.round_duration.us());
  out.i64(options.episode_length.us());
  out.u64(options.base_seed);
  out.f64(options.ambient.value());
  out.u64(static_cast<std::uint64_t>(options.sync_spread));
  out.f64(options.merge_policy.half_life_rounds);
  out.u64(options.faults.seed);
  out.f64(options.faults.dropout_rate);
  out.f64(options.faults.upload_corruption_rate);
  // NextConfig, field by field: the agent's whole trajectory depends on
  // these, so a resume under a different agent configuration must be
  // rejected rather than silently diverge from the snapshotted run.
  encode_next_config(options.next_config, out);
}

void write_fleet_state_sections(SnapshotWriter& out, const FleetSnapshot& snapshot,
                                std::size_t workers) {
  NEXTGOV_ASSERT(snapshot.shard_tables.size() == snapshot.uploads.size());
  NEXTGOV_ASSERT(snapshot.shard_tables.size() == snapshot.shard_last_upload.size());
  // `w` is the open chunk of the current section; every table ends it (see
  // defer_table), so it is re-pointed at the writer that follows.
  ByteWriter* w = &out.section(kStateSection);
  w->u64(static_cast<std::uint64_t>(snapshot.next_round));
  w->u64(snapshot.total_decisions);
  w->f64(snapshot.last_round_mean_reward);
  w->u64(snapshot.dropped_device_rounds);
  w->u64(snapshot.rejected_uploads);
  w->u32(static_cast<std::uint32_t>(snapshot.shard_tables.size()));
  for (std::size_t s = 0; s < snapshot.shard_tables.size(); ++s) {
    w = &write_optional_table(out, *w, snapshot.shard_tables[s]);
    w->boolean(snapshot.uploads[s].has_value());
    if (snapshot.uploads[s].has_value()) {
      w->u64(static_cast<std::uint64_t>(snapshot.uploads[s]->round));
      w = &defer_table(out, snapshot.uploads[s]->table);
    }
    w->u64(static_cast<std::uint64_t>(snapshot.shard_last_upload[s]));
  }
  write_optional_table(out, *w, snapshot.last_aggregate);
  if (snapshot.has_server_state) {
    // Version-2 extension: the long-running server's lease / deadline /
    // pending-upload state (see fleet_server.hpp). A separate section keeps
    // the version-1 "fleet_state" layout byte-stable.
    w = &out.section(kServerSection);
    w->i64(snapshot.server_clock_us);
    w->u32(static_cast<std::uint32_t>(snapshot.leases.size()));
    for (const DeviceLease& lease : snapshot.leases) {
      w->boolean(lease.active);
      w->u64(static_cast<std::uint64_t>(lease.rejoin_round));
    }
    w->u32(static_cast<std::uint32_t>(snapshot.pending_uploads.size()));
    for (const PendingUpload& pending : snapshot.pending_uploads) {
      w->u64(static_cast<std::uint64_t>(pending.device));
      w->u64(static_cast<std::uint64_t>(pending.trained_round));
      w->i64(pending.arrival_us);
      w->u32(pending.attempts_used);
      w = &defer_table(out, pending.table);
    }
    const FleetSnapshot::ServerCounters& c = snapshot.server_counters;
    w->u64(c.rounds_served);
    w->u64(c.uploads_accepted);
    w->u64(c.uploads_retried);
    w->u64(c.uploads_lost);
    w->u64(c.late_uploads_merged);
    w->u64(c.departures);
  }
  // Version-3 extension: per-shard delta bases + cumulative upload-wire
  // counters. Again a separate section, so the v1/v2 layouts above stay
  // byte-stable and pre-v3 files simply decode without it.
  NEXTGOV_ASSERT(snapshot.sync.bases.size() == snapshot.sync.cursors.size());
  w = &out.section(kSyncSection);
  w->u32(static_cast<std::uint32_t>(snapshot.sync.bases.size()));
  for (std::size_t s = 0; s < snapshot.sync.bases.size(); ++s) {
    w->boolean(snapshot.sync.bases[s].has_value());
    if (snapshot.sync.bases[s].has_value()) {
      w->u64(static_cast<std::uint64_t>(snapshot.sync.cursors[s]));
      w = &defer_table(out, *snapshot.sync.bases[s]);
    }
  }
  w->u64(snapshot.sync.upload_bytes_full);
  w->u64(snapshot.sync.upload_bytes_delta);
  w->u64(snapshot.sync.uploads_full);
  w->u64(snapshot.sync.uploads_delta);
  // The deferred chunks borrow the snapshot's tables: fill them before
  // returning, while those are certainly alive.
  out.seal(workers);
}

FleetSnapshot read_fleet_state_sections(const SnapshotReader& snapshot) {
  ByteReader in = snapshot.section(kStateSection);
  FleetSnapshot out;
  out.next_round = static_cast<std::size_t>(in.u64());
  out.total_decisions = in.u64();
  out.last_round_mean_reward = in.f64();
  out.dropped_device_rounds = in.u64();
  out.rejected_uploads = in.u64();
  const std::uint32_t shards = in.u32();
  if (shards == 0 || shards > (1u << 20)) {
    in.fail("corrupt fleet snapshot: implausible shard count " + std::to_string(shards));
  }
  out.shard_tables.reserve(shards);
  out.uploads.reserve(shards);
  out.shard_last_upload.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    out.shard_tables.push_back(read_optional_table(in));
    if (in.boolean()) {
      const std::size_t upload_round = static_cast<std::size_t>(in.u64());
      out.uploads.push_back(FleetUpload{rl::QTable::deserialize(in), upload_round});
    } else {
      out.uploads.push_back(std::nullopt);
    }
    out.shard_last_upload.push_back(static_cast<std::size_t>(in.u64()));
  }
  out.last_aggregate = read_optional_table(in);
  if (!in.done()) in.fail("trailing bytes after the fleet state payload");
  if (snapshot.has(kServerSection)) {
    ByteReader server = snapshot.section(kServerSection);
    out.has_server_state = true;
    out.server_clock_us = server.i64();
    const std::uint32_t leases = server.u32();
    if (leases > (1u << 20)) {
      server.fail("corrupt fleet snapshot: implausible lease count " + std::to_string(leases));
    }
    out.leases.reserve(leases);
    for (std::uint32_t d = 0; d < leases; ++d) {
      DeviceLease lease;
      lease.active = server.boolean();
      lease.rejoin_round = static_cast<std::size_t>(server.u64());
      out.leases.push_back(lease);
    }
    const std::uint32_t pending = server.u32();
    if (pending > (1u << 20)) {
      server.fail("corrupt fleet snapshot: implausible pending-upload count " +
                  std::to_string(pending));
    }
    out.pending_uploads.reserve(pending);
    for (std::uint32_t i = 0; i < pending; ++i) {
      const std::size_t device = static_cast<std::size_t>(server.u64());
      const std::size_t trained_round = static_cast<std::size_t>(server.u64());
      const std::int64_t arrival_us = server.i64();
      const std::uint32_t attempts_used = server.u32();
      out.pending_uploads.push_back(PendingUpload{device, trained_round, arrival_us,
                                                  attempts_used, rl::QTable::deserialize(server)});
    }
    FleetSnapshot::ServerCounters& c = out.server_counters;
    c.rounds_served = server.u64();
    c.uploads_accepted = server.u64();
    c.uploads_retried = server.u64();
    c.uploads_lost = server.u64();
    c.late_uploads_merged = server.u64();
    c.departures = server.u64();
    if (!server.done()) server.fail("trailing bytes after the server state payload");
  }
  if (!snapshot.has(kSyncSection)) return out;  // pre-v3 file: bases empty, counters zero
  ByteReader sync = snapshot.section(kSyncSection);
  const std::uint32_t bases = sync.u32();
  if (bases > (1u << 20)) {
    sync.fail("corrupt fleet snapshot: implausible sync-base count " + std::to_string(bases));
  }
  out.sync.bases.reserve(bases);
  out.sync.cursors.reserve(bases);
  for (std::uint32_t s = 0; s < bases; ++s) {
    if (sync.boolean()) {
      out.sync.cursors.push_back(static_cast<std::size_t>(sync.u64()));
      out.sync.bases.push_back(rl::QTable::deserialize(sync));
    } else {
      out.sync.cursors.push_back(kNeverUploaded);
      out.sync.bases.push_back(std::nullopt);
    }
  }
  out.sync.upload_bytes_full = sync.u64();
  out.sync.upload_bytes_delta = sync.u64();
  out.sync.uploads_full = sync.u64();
  out.sync.uploads_delta = sync.u64();
  if (!sync.done()) sync.fail("trailing bytes after the sync state payload");
  return out;
}

SnapshotReader read_snapshot_quarantining(const std::string& path) {
  try {
    return SnapshotReader::from_file(path);
  } catch (const SerializeError& e) {
    // A version-window refusal is a *valid* file written by a different
    // release: leave it in place so a matching build can still restore it.
    if (std::string_view{e.what()}.find("format version") != std::string_view::npos) {
      throw;
    }
    if (quarantine_snapshot(path, e.what())) {
      throw SerializeError(std::string{e.what()} + " (quarantined to " + path + ".corrupt)");
    }
    throw;
  }
}

bool quarantine_snapshot(const std::string& path, std::string_view reason) {
  const std::string quarantined = path + ".corrupt";
  if (std::rename(path.c_str(), quarantined.c_str()) == 0) {
    NEXTGOV_LOG(kWarn) << "quarantined corrupt snapshot '" << path << "' -> '" << quarantined
                       << "': " << reason;
    return true;
  }
  NEXTGOV_LOG(kWarn) << "corrupt snapshot '" << path
                     << "' could not be quarantined (rename failed): " << reason;
  return false;
}

void save_fleet_snapshot(const FleetSnapshot& snapshot, const FleetOptions& options,
                         const std::string& path) {
  SnapshotWriter out;
  encode_fleet_options(options, out.section(kOptionsSection));
  write_fleet_state_sections(out, snapshot);
  out.write_file(path);
}

FleetSnapshot load_fleet_snapshot(const std::string& path) {
  const SnapshotReader snapshot = read_snapshot_quarantining(path);
  return read_fleet_state_sections(snapshot);
}

FleetSnapshot load_fleet_snapshot(const std::string& path, const FleetOptions& expected) {
  const SnapshotReader snapshot = read_snapshot_quarantining(path);
  ByteReader stored = snapshot.section(kOptionsSection);
  ByteWriter current;
  encode_fleet_options(expected, current);
  bool match = stored.remaining() == current.size();
  for (std::size_t i = 0; match && i < current.size(); ++i) {
    match = stored.u8() == current.data()[i];
  }
  if (!match) {
    throw SerializeError(path +
                         ": snapshot was taken under different fleet options "
                         "(devices/shards/seeds/durations/NextConfig/fault plan must all "
                         "match to resume bit-identically); refusing to resume");
  }
  return read_fleet_state_sections(snapshot);
}

FleetResult train_fleet(AppFactory app_factory, const FleetOptions& options,
                        const RunnerOptions& runner, const FleetProgressFn& progress) {
  require(static_cast<bool>(app_factory), "train_fleet needs an app factory");
  validate_fleet_options(options);

  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t n_shards = options.shards;
  const auto shard_of = [&](std::size_t device) { return device % n_shards; };
  // Shard s phones home every 1 + (s % sync_spread) rounds; shard 0 always
  // syncs every round, so the server is never empty after round 0.
  const auto sync_period = [&](std::size_t shard) {
    return std::size_t{1} + shard % options.sync_spread;
  };

  std::vector<std::optional<rl::QTable>> shard_tables(n_shards);
  std::vector<std::optional<FleetUpload>> uploads(n_shards);
  std::vector<std::size_t> shard_last_upload(n_shards, kNeverUploaded);
  // Per-shard delta base: the aggregate both ends recorded at the shard's
  // last *accepted* sync. Maintained whether or not delta_uploads is on, so
  // the flag can flip across a resume without changing anything but the
  // wire bytes.
  std::vector<std::optional<rl::QTable>> sync_bases(n_shards);
  std::vector<std::size_t> sync_cursor(n_shards, kNeverUploaded);

  std::size_t start_round = 0;
  std::uint64_t total_decisions = 0;
  double last_round_mean_reward = 0.0;
  std::uint64_t dropped_device_rounds = 0;
  std::uint64_t rejected_uploads = 0;
  std::uint64_t upload_bytes_full = 0;
  std::uint64_t upload_bytes_delta = 0;
  std::uint64_t uploads_full = 0;
  std::uint64_t uploads_delta = 0;
  std::size_t snapshots_written = 0;
  // The server's aggregate after the most recent sync. Shard 0 syncs every
  // round, so (absent total upload loss) this is populated by the final
  // round - it *is* the run's global table.
  std::optional<rl::QTable> last_aggregate;

  if (!options.resume_from.empty()) {
    FleetSnapshot snapshot = load_fleet_snapshot(options.resume_from, options);
    // The options check above pins shard count == options.shards.
    NEXTGOV_ASSERT(snapshot.shard_tables.size() == n_shards);
    shard_tables = std::move(snapshot.shard_tables);
    uploads = std::move(snapshot.uploads);
    shard_last_upload = std::move(snapshot.shard_last_upload);
    last_aggregate = std::move(snapshot.last_aggregate);
    start_round = snapshot.next_round;
    total_decisions = snapshot.total_decisions;
    last_round_mean_reward = snapshot.last_round_mean_reward;
    dropped_device_rounds = snapshot.dropped_device_rounds;
    rejected_uploads = snapshot.rejected_uploads;
    // Pre-v3 snapshots carry no sync state: the bases stay empty (every
    // shard's first post-resume upload goes out full) and the counters
    // restart at zero - the trajectory is identical either way.
    if (snapshot.sync.bases.size() == n_shards) {
      sync_bases = std::move(snapshot.sync.bases);
      sync_cursor = std::move(snapshot.sync.cursors);
    }
    upload_bytes_full = snapshot.sync.upload_bytes_full;
    upload_bytes_delta = snapshot.sync.upload_bytes_delta;
    uploads_full = snapshot.sync.uploads_full;
    uploads_delta = snapshot.sync.uploads_delta;
  }

  for (std::size_t round = start_round; round < options.rounds; ++round) {
    // 1. Every device that is online this round trains for one round,
    //    warm-started from its shard's aggregate (action values only - see
    //    strip_visit_mass), all cells fanned out across the shared worker
    //    pool.
    //    Dropped devices simply contribute nothing - their shard's merge
    //    leans on older experience exactly like a real fleet's would.
    std::vector<std::optional<rl::QTable>> warm_starts(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s) {
      if (shard_tables[s].has_value()) warm_starts[s] = strip_visit_mass(*shard_tables[s]);
    }
    TrainingPlan plan;
    std::vector<std::size_t> plan_device;  // device index per plan cell
    std::size_t round_dropped = 0;
    for (std::size_t d = 0; d < options.devices; ++d) {
      if (fault_fires(options.faults, kDropoutSalt, round, d, options.faults.dropout_rate)) {
        ++round_dropped;
        continue;
      }
      TrainingOptions cell;
      cell.max_duration = options.round_duration;
      cell.episode_length = options.episode_length;
      cell.seed = derive_seed(derive_seed(options.base_seed, d), round);
      cell.ambient = options.ambient;
      const auto& warm = warm_starts[shard_of(d)];
      cell.initial_table = warm.has_value() ? &*warm : nullptr;
      plan.add(app_factory, "device_" + std::to_string(d), options.next_config, cell);
      plan_device.push_back(d);
    }
    dropped_device_rounds += round_dropped;
    // The round's device cells fan out across the runner's worker pool.
    // With processes > 1 the same plan fans out across forked worker
    // processes instead - merged bit-identically, so the choice is
    // invisible downstream.
    const std::vector<TrainingResult> round_results =
        plan.empty() ? std::vector<TrainingResult>{}
        : options.processes > 1
            ? run_training_plan_sharded(plan, {.processes = options.processes,
                                               .workers = runner.workers})
            : run_training_plan(plan, {.workers = runner.workers});

    double reward_sum = 0.0;
    std::uint64_t round_decisions = 0;
    for (const TrainingResult& r : round_results) {
      reward_sum += r.final_mean_reward;
      round_decisions += r.decisions;
    }
    total_decisions += round_decisions;
    last_round_mean_reward =
        round_results.empty() ? 0.0
                              : reward_sum / static_cast<double>(round_results.size());

    // 2. Shard-local FedAvg: the previous aggregate (historical visit
    //    mass, counted once) merged with its surviving devices' fresh
    //    deltas. A shard whose devices all dropped keeps its aggregate
    //    untouched - there is nothing new to merge.
    for (std::size_t s = 0; s < n_shards; ++s) {
      std::vector<const rl::QTable*> members;
      if (shard_tables[s].has_value()) members.push_back(&*shard_tables[s]);
      const std::size_t historical_only = members.size();
      for (std::size_t i = 0; i < round_results.size(); ++i) {
        if (shard_of(plan_device[i]) == s) members.push_back(&round_results[i].table);
      }
      if (members.size() == historical_only) continue;  // no fresh uploads
      shard_tables[s] = rl::merge_q_tables(members, runner.workers);
    }

    // 3. Periodic global sync: due shards upload their fresh aggregate,
    //    then download the server's staleness-weighted merge in return.
    //    With fault injection active, every upload travels as CRC-guarded
    //    snapshot bytes; a damaged upload is rejected by the server (the
    //    decode throws SerializeError), the shard keeps its local state and
    //    its previous upload simply ages.
    std::vector<bool> synced(n_shards, false);
    std::size_t round_rejected = 0;
    std::uint64_t round_upload_bytes = 0;
    std::size_t round_delta_uploads = 0;
    bool any_synced = false;
    for (std::size_t s = 0; s < n_shards; ++s) {
      if ((round + 1) % sync_period(s) != 0) continue;
      if (!shard_tables[s].has_value()) continue;  // nothing trained yet
      // Every upload travels as CRC-guarded snapshot bytes: the full table,
      // or - with delta_uploads on, once the shard has synced before - a
      // delta against the aggregate both ends recorded at the last accepted
      // sync. The decoded table is bit-identical to the sender's on either
      // path (pinned by tests/sim/fleet_test.cpp), so the wire strategy
      // never shows in the trajectory, only in the byte counters. Both
      // damage modes (bit flip / truncation) are always detected - CRC32
      // catches any single-byte error, the container's length fields catch
      // truncation - so a bad upload can never poison the aggregate: the
      // shard keeps its local state and its previous upload simply ages.
      const rl::QTable* base =
          options.delta_uploads && sync_bases[s].has_value() ? &*sync_bases[s] : nullptr;
      bool went_delta = false;
      std::vector<std::uint8_t> blob = encode_upload(*shard_tables[s], base, &went_delta);
      round_upload_bytes += blob.size();
      if (went_delta) {
        upload_bytes_delta += blob.size();
        ++uploads_delta;
        ++round_delta_uploads;
      } else {
        upload_bytes_full += blob.size();
        ++uploads_full;
      }
      if (fault_fires(options.faults, kCorruptSalt, round, s,
                      options.faults.upload_corruption_rate)) {
        damage_upload(blob, options.faults, round, s);
      }
      try {
        uploads[s] = FleetUpload{
            decode_upload(std::move(blob), base, "upload from shard " + std::to_string(s)),
            round};
      } catch (const SerializeError&) {
        ++round_rejected;
        continue;
      }
      shard_last_upload[s] = round;
      synced[s] = true;
      any_synced = true;
    }
    rejected_uploads += round_rejected;
    if (any_synced) {
      last_aggregate = server_aggregate(uploads, round, options.merge_policy, runner.workers);
      for (std::size_t s = 0; s < n_shards; ++s) {
        if (synced[s]) {
          shard_tables[s] = *last_aggregate;
          // Both ends record the downloaded aggregate as the shard's next
          // delta base - its next upload evolves from exactly this table.
          sync_bases[s] = *last_aggregate;
          sync_cursor[s] = round;
        }
      }
    }

    if (progress) {
      FleetRoundStats stats;
      stats.round = round;
      stats.shard_states.reserve(n_shards);
      for (const auto& t : shard_tables) {
        stats.shard_states.push_back(t.has_value() ? t->state_count() : 0);
      }
      stats.shard_synced = synced;
      stats.mean_reward = last_round_mean_reward;
      stats.round_decisions = round_decisions;
      stats.dropped_devices = round_dropped;
      stats.rejected_uploads = round_rejected;
      stats.upload_bytes = round_upload_bytes;
      stats.delta_uploads = round_delta_uploads;
      progress(stats);
    }

    // 4. Periodic checkpoint (atomic replace), then the crash hook - in
    //    that order, so crash-at-round-K tests model a process that died
    //    *after* its last checkpoint cadence, like a real crash would.
    if (options.snapshot_every > 0 && (round + 1) % options.snapshot_every == 0) {
      FleetSnapshot snapshot;
      snapshot.next_round = round + 1;
      snapshot.total_decisions = total_decisions;
      snapshot.last_round_mean_reward = last_round_mean_reward;
      snapshot.dropped_device_rounds = dropped_device_rounds;
      snapshot.rejected_uploads = rejected_uploads;
      snapshot.shard_tables = shard_tables;
      snapshot.uploads = uploads;
      snapshot.shard_last_upload = shard_last_upload;
      snapshot.last_aggregate = last_aggregate;
      snapshot.sync.bases = sync_bases;
      snapshot.sync.cursors = sync_cursor;
      snapshot.sync.upload_bytes_full = upload_bytes_full;
      snapshot.sync.upload_bytes_delta = upload_bytes_delta;
      snapshot.sync.uploads_full = uploads_full;
      snapshot.sync.uploads_delta = uploads_delta;
      save_fleet_snapshot(snapshot, options, options.snapshot_path);
      ++snapshots_written;
    }
    if (options.faults.crash_at_round == round) {
      throw FleetCrash("fleet crashed after round " + std::to_string(round) +
                       " (injected by FleetFaultPlan::crash_at_round)");
    }
  }

  require(last_aggregate.has_value(),
          "train_fleet: no upload ever reached the server (dropout/corruption lost every "
          "round) - no global table to return");
  FleetResult result{
      .global = std::move(*last_aggregate),
      .shard_tables = {},
      .shard_last_upload = std::move(shard_last_upload),
      .devices = options.devices,
      .rounds = options.rounds,
      .start_round = start_round,
      .total_decisions = total_decisions,
      .device_sim_seconds =
          static_cast<double>(options.rounds) * options.round_duration.seconds(),
      .wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
              .count(),
      .mean_final_reward = last_round_mean_reward,
      .dropped_device_rounds = dropped_device_rounds,
      .rejected_uploads = rejected_uploads,
      .snapshots_written = snapshots_written,
      .upload_bytes_full = upload_bytes_full,
      .upload_bytes_delta = upload_bytes_delta,
      .uploads_full = uploads_full,
      .uploads_delta = uploads_delta,
  };
  result.shard_tables.reserve(n_shards);
  for (auto& t : shard_tables) {
    if (t.has_value()) result.shard_tables.push_back(std::move(*t));
  }
  return result;
}

FleetResult train_fleet(workload::AppId app, const FleetOptions& options,
                        const RunnerOptions& runner, const FleetProgressFn& progress) {
  return train_fleet([app](std::uint64_t seed) { return workload::make_app(app, seed); },
                     options, runner, progress);
}

}  // namespace nextgov::sim
