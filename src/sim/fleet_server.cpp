#include "sim/fleet_server.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/next_agent.hpp"
#include "sim/multiproc.hpp"
#include "soc/soc.hpp"

namespace nextgov::sim {

namespace {

// --- churn draws -----------------------------------------------------------
//
// Every draw opens its own SplitMix64 stream keyed by
// derive_seed chains over (churn seed ^ salt, round, device[, attempt]), so
// draws are independent of each other, of worker count, and of how many
// rounds the process has replayed - a restarted server redraws the exact
// same churn.

constexpr std::uint64_t kDepartSalt = 0xDE9Au;
constexpr std::uint64_t kStraggleSalt = 0x57A6u;
constexpr std::uint64_t kUploadFailSalt = 0xF41Cu;

constexpr const char* kServerOptionsSection = "fleet_server_options";

/// Checks a decoded ring entry against what this server could have written
/// under `devices` with agents of `actions` actions: the restored arrays are
/// indexed by device id, the pending uploads replay into later rounds, and
/// every table is merged and warm-started into those agents, so counts,
/// ids, rounds and table shapes outside those bounds are rejected instead
/// of trusted.
void validate_ring_state(const FleetSnapshot& snap, std::size_t devices, std::size_t actions) {
  const auto fail = [](const std::string& what) {
    throw SerializeError("fleet-server ring entry: " + what);
  };
  const std::string want = " (expected " + std::to_string(devices) + ")";
  if (snap.leases.size() != devices) {
    fail(std::to_string(snap.leases.size()) + " device leases" + want);
  }
  if (snap.uploads.size() != devices) {
    fail(std::to_string(snap.uploads.size()) + " device upload slots" + want);
  }
  const auto check_table = [&](const rl::QTable& table, const std::string& which) {
    if (table.action_count() != actions) {
      fail(which + " has " + std::to_string(table.action_count()) +
           " actions (this server's agents use " + std::to_string(actions) + ")");
    }
  };
  for (std::size_t d = 0; d < snap.uploads.size(); ++d) {
    if (snap.uploads[d].has_value()) {
      check_table(snap.uploads[d]->table, "device " + std::to_string(d) + "'s upload");
    }
  }
  for (const PendingUpload& p : snap.pending_uploads) {
    if (p.device >= devices) {
      fail("pending upload names device " + std::to_string(p.device) + " of " +
           std::to_string(devices));
    }
    if (p.trained_round >= snap.next_round) {
      fail("pending upload trained in round " + std::to_string(p.trained_round) +
           ", not before the entry's next round " + std::to_string(snap.next_round));
    }
    check_table(p.table, "pending upload of device " + std::to_string(p.device));
  }
  if (snap.last_aggregate.has_value()) check_table(*snap.last_aggregate, "the global aggregate");
}

SplitMix64 churn_stream(std::uint64_t seed, std::uint64_t salt, std::size_t round,
                        std::size_t device) {
  return SplitMix64{derive_seed(derive_seed(seed ^ salt, round), device)};
}

SplitMix64 attempt_stream(std::uint64_t seed, std::size_t round, std::size_t device,
                          std::uint32_t attempt) {
  return SplitMix64{derive_seed(
      derive_seed(derive_seed(seed ^ kUploadFailSalt, round), device), attempt)};
}

bool bernoulli(SplitMix64& sm, double rate) {
  const double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return u < rate;
}

/// Damages an encoded upload in-place (even draws flip a byte, odd draws
/// truncate - both always detected by the container's CRC/length checks).
void damage_blob(std::vector<std::uint8_t>& blob, SplitMix64& sm) {
  const std::uint64_t kind = sm.next();
  if (blob.empty()) return;
  if (kind % 2 == 0) {
    const std::size_t at = static_cast<std::size_t>(sm.next() % blob.size());
    blob[at] ^= static_cast<std::uint8_t>(1 + sm.next() % 255);
  } else {
    blob.resize(blob.size() / 2);
  }
}

/// Action count of the Next agents this server trains (three per cluster
/// of the simulated SoC) - the shape every restored table must have.
std::size_t agent_action_count(const core::NextConfig& config) {
  return core::make_next_agent(soc::make_exynos9810(), config, 0)->q_table().action_count();
}

// --- the round's event loop ------------------------------------------------

struct Event {
  std::int64_t t_us{0};
  enum Kind : int { kLeaseExpiry = 0, kUploadArrival = 1 };
  int kind{kUploadArrival};
  std::size_t device{0};
  std::size_t trained_round{0};
  std::uint32_t attempt{0};
  std::size_t table{0};  ///< arena index (upload events only)
};

/// One upload in flight this round: the device's table and its wire state.
struct InFlight {
  explicit InFlight(rl::QTable t) : table{std::move(t)} {}

  rl::QTable table;
  /// Clean encode_upload bytes from the codec pass, kept for the retries.
  std::vector<std::uint8_t> wire;
  std::size_t wire_bytes{0};  ///< encoded size, counted on every attempt
  bool went_delta{false};
  /// The codec pass already ran the next attempt; `arrived` holds what the
  /// receiver decoded (nullopt = rejected).
  bool attempted{false};
  std::optional<rl::QTable> arrived;
};

/// Upload attempt `attempt` of `u`: its clean bytes, damaged in flight when
/// the attempt's seeded draw fires, then decoded by the receiver. Returns
/// the decoded table, or nullopt when the receiver rejects the bytes. A
/// damaged attempt works on a copy and leaves the clean bytes for the
/// retry; an intact one consumes them (after it nothing retries - the codec
/// is deterministic, so bytes rejected intact stay rejected).
std::optional<rl::QTable> deliver(InFlight& u, const FleetChurnPlan& churn,
                                  std::size_t trained_round, std::size_t device,
                                  std::uint32_t attempt, const rl::QTable* base) {
  std::vector<std::uint8_t> bytes;
  bool damaged = false;
  if (churn.upload_fail_rate > 0.0) {
    SplitMix64 fate = attempt_stream(churn.seed, trained_round, device, attempt);
    if (bernoulli(fate, churn.upload_fail_rate)) {
      bytes = u.wire;
      damage_blob(bytes, fate);
      damaged = true;
    }
  }
  if (!damaged) bytes = std::move(u.wire);
  try {
    return decode_upload(std::move(bytes), base, "upload from device " + std::to_string(device));
  } catch (const SerializeError&) {
    return std::nullopt;
  }
}

/// Min-heap order: time, then a total tiebreak so processing order is
/// deterministic (lease expiries before arrivals at the same instant - an
/// upload from a device whose lease just died must not land).
bool later(const Event& a, const Event& b) {
  return std::tie(a.t_us, a.kind, a.device, a.trained_round, a.attempt) >
         std::tie(b.t_us, b.kind, b.device, b.trained_round, b.attempt);
}

}  // namespace

std::int64_t retry_delay_us(SimTime retry_backoff, std::uint32_t attempt,
                            std::uint64_t jitter_draw) noexcept {
  const std::int64_t cap = kMaxUploadRetryDelay.us();
  // Clamp the configured base first so both the doubling loop and the
  // jitter modulus below operate on a bounded value. validate_... already
  // guarantees retry_backoff > 0, but clamp defensively anyway.
  std::int64_t base = retry_backoff.us();
  if (base < 1) base = 1;
  if (base > cap) base = cap;
  // retry_backoff * 2^attempt, saturating at the cap - no shift, so no UB
  // however large attempt or the configured backoff is.
  std::int64_t backoff = base;
  for (std::uint32_t i = 0; i < attempt && backoff < cap; ++i) {
    backoff = (backoff <= cap / 2) ? backoff * 2 : cap;
  }
  const std::int64_t jitter =
      static_cast<std::int64_t>(jitter_draw % static_cast<std::uint64_t>(base));
  return backoff + jitter;  // <= 2 * cap, far from int64 overflow
}

void validate_fleet_server_options(const FleetServerOptions& o) {
  require(o.devices > 0,
          "FleetServerOptions: devices must be >= 1 (an empty fleet serves nothing)");
  require(o.round_duration.us() > 0, "FleetServerOptions: round_duration must be positive");
  require(o.episode_length.us() > 0, "FleetServerOptions: episode_length must be positive");
  require(o.heartbeat_period.us() > 0,
          "FleetServerOptions: heartbeat_period must be positive");
  require(o.lease_timeout.us() >= o.heartbeat_period.us(),
          "FleetServerOptions: lease_timeout shorter than heartbeat_period would expire "
          "every healthy lease between heartbeats");
  require(o.upload_latency.us() >= 0, "FleetServerOptions: upload_latency must be >= 0");
  require(o.retry_backoff.us() > 0, "FleetServerOptions: retry_backoff must be positive");
  require(o.max_upload_attempts >= 1,
          "FleetServerOptions: max_upload_attempts must be >= 1");
  require(o.round_deadline.us() > o.round_duration.us() + o.upload_latency.us(),
          "FleetServerOptions: round_deadline must exceed round_duration + upload_latency "
          "or no clean upload could ever beat the straggler deadline");
  require(o.round_duration.us() + o.lease_timeout.us() <= o.round_deadline.us(),
          "FleetServerOptions: round_duration + lease_timeout must fit inside "
          "round_deadline so every lease expiry resolves within its round (boundary "
          "snapshots must never hold a half-expired lease)");
  require(o.churn.depart_rate >= 0.0 && o.churn.depart_rate < 1.0,
          "FleetServerOptions: churn.depart_rate must be in [0, 1)");
  require(o.churn.straggle_rate >= 0.0 && o.churn.straggle_rate <= 1.0,
          "FleetServerOptions: churn.straggle_rate must be in [0, 1]");
  require(o.churn.upload_fail_rate >= 0.0 && o.churn.upload_fail_rate < 1.0,
          "FleetServerOptions: churn.upload_fail_rate must be in [0, 1) (at 1.0 every "
          "attempt of every upload fails and the server can never learn)");
  require(o.churn.rejoin_after_rounds >= 1,
          "FleetServerOptions: churn.rejoin_after_rounds must be >= 1 (a device cannot "
          "rejoin the round it departed)");
  require(o.snapshot_ring == 0 || !o.snapshot_prefix.empty(),
          "FleetServerOptions: snapshot_ring is set but snapshot_prefix is empty - there "
          "is nowhere to persist the ring");
}

void encode_fleet_server_options(const FleetServerOptions& o, ByteWriter& out) {
  out.u64(static_cast<std::uint64_t>(o.devices));
  out.i64(o.round_duration.us());
  out.i64(o.round_deadline.us());
  out.i64(o.episode_length.us());
  out.i64(o.heartbeat_period.us());
  out.i64(o.lease_timeout.us());
  out.i64(o.upload_latency.us());
  out.i64(o.retry_backoff.us());
  out.u32(o.max_upload_attempts);
  out.u64(o.base_seed);
  out.f64(o.ambient.value());
  out.f64(o.merge_policy.half_life_rounds);
  out.u64(o.churn.seed);
  out.f64(o.churn.depart_rate);
  out.u64(static_cast<std::uint64_t>(o.churn.rejoin_after_rounds));
  out.f64(o.churn.straggle_rate);
  out.f64(o.churn.upload_fail_rate);
  encode_next_config(o.next_config, out);
}

FleetServer::FleetServer(AppFactory app_factory, const FleetServerOptions& options,
                         const RunnerOptions& runner)
    : app_factory_{std::move(app_factory)},
      options_{options},
      runner_{runner},
      leases_(options.devices),
      uploads_(options.devices) {
  require(static_cast<bool>(app_factory_), "FleetServer needs an app factory");
  validate_fleet_server_options(options_);
  if (options_.snapshot_ring > 0) restore_from_ring();
}

FleetServer::FleetServer(workload::AppId app, const FleetServerOptions& options,
                         const RunnerOptions& runner)
    : FleetServer([app](std::uint64_t seed) { return workload::make_app(app, seed); },
                  options, runner) {}

std::string FleetServer::ring_path(std::size_t slot) const {
  return options_.snapshot_prefix + "." + std::to_string(slot);
}

FleetSnapshot FleetServer::lend_boundary_snapshot() {
  FleetSnapshot snap;
  snap.next_round = round_;
  snap.total_decisions = stats_.total_decisions;
  snap.last_round_mean_reward = last_round_mean_reward_;
  snap.dropped_device_rounds = 0;
  snap.rejected_uploads = 0;
  // Device-indexed reuse of the fleet-state arrays (see FleetSnapshot docs):
  // the server aggregates per device, so `uploads` holds each device's last
  // accepted table and `shard_tables` stays empty per slot.
  snap.shard_tables.assign(options_.devices, std::nullopt);
  snap.shard_last_upload.assign(options_.devices, kNeverUploaded);
  for (std::size_t d = 0; d < options_.devices; ++d) {
    if (uploads_[d].has_value()) snap.shard_last_upload[d] = uploads_[d]->round;
  }
  snap.uploads = std::move(uploads_);
  snap.last_aggregate = std::move(last_aggregate_);
  snap.has_server_state = true;
  snap.leases = leases_;
  snap.pending_uploads = std::move(pending_);
  snap.server_clock_us = clock_us_;
  snap.server_counters.rounds_served = stats_.rounds_served;
  snap.server_counters.uploads_accepted = stats_.uploads_accepted;
  snap.server_counters.uploads_retried = stats_.uploads_retried;
  snap.server_counters.uploads_lost = stats_.uploads_lost;
  snap.server_counters.late_uploads_merged = stats_.late_uploads_merged;
  snap.server_counters.departures = stats_.departures;
  // Only the wire counters go into the sync_state section: the server's
  // delta base is the round's warm table, recomputed from last_aggregate on
  // restore, so no bases need persisting (snap.sync.bases stays empty).
  snap.sync.upload_bytes_full = stats_.upload_bytes_full;
  snap.sync.upload_bytes_delta = stats_.upload_bytes_delta;
  snap.sync.uploads_full = stats_.uploads_full;
  snap.sync.uploads_delta = stats_.uploads_delta;
  return snap;
}

void FleetServer::return_boundary_snapshot(FleetSnapshot& snap) {
  uploads_ = std::move(snap.uploads);
  last_aggregate_ = std::move(snap.last_aggregate);
  pending_ = std::move(snap.pending_uploads);
}

void FleetServer::write_ring_snapshot() {
  if (options_.snapshot_ring == 0) return;
  SnapshotWriter out;
  encode_fleet_server_options(options_, out.section(kServerOptionsSection));
  FleetSnapshot snap = lend_boundary_snapshot();
  try {
    write_fleet_state_sections(out, snap, runner_.workers);
  } catch (...) {
    return_boundary_snapshot(snap);
    throw;
  }
  return_boundary_snapshot(snap);
  out.write_file(ring_path(round_ % options_.snapshot_ring));
  ++stats_.snapshots_written;
}

void FleetServer::drain() { write_ring_snapshot(); }

void FleetServer::restore_from_ring() {
  const std::size_t actions = agent_action_count(options_.next_config);
  std::optional<FleetSnapshot> best;
  for (std::size_t slot = 0; slot < options_.snapshot_ring; ++slot) {
    const std::string path = ring_path(slot);
    std::optional<SnapshotReader> reader;
    try {
      reader.emplace(read_snapshot_quarantining(path));
    } catch (const SerializeError& e) {
      // Damaged entry: already renamed to <path>.corrupt and logged; fall
      // back to the next (older) ring entry. A version-window refusal is
      // not quarantined but equally unusable by this build - skip it too.
      if (std::string_view{e.what()}.find("quarantined to") != std::string_view::npos) {
        ++stats_.snapshots_quarantined;
      }
      continue;
    } catch (const IoError&) {
      continue;  // slot never written (fresh ring or short run)
    }
    // Config identity gate, *outside* the recovery path: a mismatch means
    // the operator restarted the server under different options, which must
    // fail loudly rather than fall back to an older entry or quarantine a
    // perfectly healthy file.
    if (!reader->has(kServerOptionsSection)) {
      throw SerializeError(path +
                           ": not a fleet-server snapshot (missing the "
                           "'fleet_server_options' section; train_fleet checkpoints are "
                           "not interchangeable with the server ring)");
    }
    ByteReader stored = reader->section(kServerOptionsSection);
    ByteWriter current;
    encode_fleet_server_options(options_, current);
    bool match = stored.remaining() == current.size();
    for (std::size_t i = 0; match && i < current.size(); ++i) {
      match = stored.u8() == current.data()[i];
    }
    if (!match) {
      throw SerializeError(path +
                           ": ring snapshot was taken under different fleet-server "
                           "options (devices/timing/seeds/NextConfig/churn must all "
                           "match to resume bit-identically); refusing to resume");
    }
    // Semantic gate: the CRC only proves the bytes are the ones written, not
    // that they describe a state this server could have produced. An entry
    // that fails to decode or validate is quarantined exactly like a
    // CRC-damaged one, and restore falls back to the next-newest slot.
    FleetSnapshot snap;
    try {
      snap = read_fleet_state_sections(*reader);
      if (snap.has_server_state) validate_ring_state(snap, options_.devices, actions);
    } catch (const SerializeError& e) {
      if (quarantine_snapshot(path, e.what())) ++stats_.snapshots_quarantined;
      continue;
    }
    if (!snap.has_server_state) {
      throw SerializeError(path + ": fleet-server ring entry lacks the server_state "
                                  "section (written by an incompatible tool?)");
    }
    if (!best.has_value() || snap.next_round > best->next_round) best = std::move(snap);
  }
  if (!best.has_value()) return;  // cold start at round 0
  round_ = best->next_round;
  clock_us_ = best->server_clock_us;
  leases_ = std::move(best->leases);
  uploads_ = std::move(best->uploads);
  pending_ = std::move(best->pending_uploads);
  last_aggregate_ = std::move(best->last_aggregate);
  last_round_mean_reward_ = best->last_round_mean_reward;
  stats_.rounds_served = best->server_counters.rounds_served;
  stats_.uploads_accepted = best->server_counters.uploads_accepted;
  stats_.uploads_retried = best->server_counters.uploads_retried;
  stats_.uploads_lost = best->server_counters.uploads_lost;
  stats_.late_uploads_merged = best->server_counters.late_uploads_merged;
  stats_.departures = best->server_counters.departures;
  stats_.total_decisions = best->total_decisions;
  stats_.upload_bytes_full = best->sync.upload_bytes_full;
  stats_.upload_bytes_delta = best->sync.upload_bytes_delta;
  stats_.uploads_full = best->sync.uploads_full;
  stats_.uploads_delta = best->sync.uploads_delta;
  restored_ = true;
}

void FleetServer::run_round(const FleetServerProgressFn& progress) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t r = round_;
  const std::int64_t round_start =
      static_cast<std::int64_t>(r) * options_.round_deadline.us();
  const std::int64_t round_close = round_start + options_.round_deadline.us();
  clock_us_ = round_start;

  FleetServerRoundStats rs;
  rs.round = r;

  // 1. Re-registration: departed devices whose absence has run its course
  //    take a fresh lease before the round starts.
  for (std::size_t d = 0; d < options_.devices; ++d) {
    if (!leases_[d].active && leases_[d].rejoin_round <= r) {
      leases_[d] = DeviceLease{};
      ++rs.rejoined;
      ++stats_.rejoins;
    }
  }

  // 2. Churn draws + event seeding. A departing device stops heartbeating
  //    at a seeded instant inside its training window; the server notices
  //    at the last heartbeat + lease_timeout. It never contributes a
  //    partial table - its training cell is simply not scheduled (the
  //    result could never be uploaded, and a pure-function fleet has no
  //    half-trained state to leak).
  std::vector<Event> heap;
  std::vector<InFlight> arena;
  std::vector<std::size_t> trainees;
  std::vector<std::int64_t> first_attempt_us(options_.devices, 0);
  for (std::size_t d = 0; d < options_.devices; ++d) {
    if (!leases_[d].active) continue;
    SplitMix64 depart = churn_stream(options_.churn.seed, kDepartSalt, r, d);
    if (bernoulli(depart, options_.churn.depart_rate)) {
      const std::int64_t depart_us =
          round_start +
          static_cast<std::int64_t>(depart.next() %
                                    static_cast<std::uint64_t>(options_.round_duration.us()));
      const std::int64_t last_heartbeat =
          round_start + ((depart_us - round_start) / options_.heartbeat_period.us()) *
                            options_.heartbeat_period.us();
      heap.push_back(Event{last_heartbeat + options_.lease_timeout.us(),
                           Event::kLeaseExpiry, d, r, 0, 0});
      leases_[d].active = false;
      leases_[d].rejoin_round = r + options_.churn.rejoin_after_rounds;
      continue;
    }
    std::int64_t start = round_start + options_.round_duration.us();
    SplitMix64 straggle = churn_stream(options_.churn.seed, kStraggleSalt, r, d);
    if (bernoulli(straggle, options_.churn.straggle_rate)) {
      // At least half a round late: usually past the deadline, so the
      // table carries into the next round and merges with staleness 1.
      start += options_.round_deadline.us() / 2 +
               static_cast<std::int64_t>(
                   straggle.next() % static_cast<std::uint64_t>(options_.round_deadline.us()));
    }
    first_attempt_us[d] = start + options_.upload_latency.us();
    trainees.push_back(d);
  }
  rs.training_devices = trainees.size();

  // 3. Train every leased, non-departing device for round_duration of
  //    simulated time - one training plan across the shared worker pool,
  //    warm-started from the global aggregate (visit mass stripped so
  //    historical experience is counted once, via the aggregate, not once
  //    per device).
  std::optional<rl::QTable> warm;
  if (last_aggregate_.has_value()) warm = strip_visit_mass(*last_aggregate_);
  TrainingPlan plan;
  for (const std::size_t d : trainees) {
    TrainingOptions cell;
    cell.max_duration = options_.round_duration;
    cell.episode_length = options_.episode_length;
    cell.seed = derive_seed(derive_seed(options_.base_seed, d), r);
    cell.ambient = options_.ambient;
    cell.initial_table = warm.has_value() ? &*warm : nullptr;
    plan.add(app_factory_, "device_" + std::to_string(d), options_.next_config, cell);
  }
  // With processes > 1 the plan fans out across forked worker processes
  // (sim/multiproc.hpp) - merged bit-identically, so snapshots and goldens
  // are oblivious to the choice.
  std::vector<TrainingResult> results =
      plan.empty() ? std::vector<TrainingResult>{}
      : options_.processes > 1
          ? run_training_plan_sharded(plan, {.processes = options_.processes,
                                             .workers = runner_.workers})
          : run_training_plan(plan, {.workers = runner_.workers});
  double reward_sum = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    reward_sum += results[i].final_mean_reward;
    stats_.total_decisions += results[i].decisions;
    arena.emplace_back(std::move(results[i].table));
    heap.push_back(Event{first_attempt_us[trainees[i]], Event::kUploadArrival,
                         trainees[i], r, 0, arena.size() - 1});
  }
  rs.mean_reward =
      results.empty() ? 0.0 : reward_sum / static_cast<double>(results.size());

  // Pending uploads from earlier rounds re-enter the loop with their
  // persisted arrival times and attempt counters, so a restarted server
  // replays exactly the same arrivals.
  for (PendingUpload& p : pending_) {
    arena.emplace_back(std::move(p.table));
    heap.push_back(Event{p.arrival_us, Event::kUploadArrival, p.device, p.trained_round,
                         p.attempts_used, arena.size() - 1});
  }
  pending_.clear();

  // With delta_uploads on, a same-round upload deltas against the round's
  // warm table (the base every trainee started from, which the server
  // still holds); carried uploads from earlier rounds always travel full.
  // The decoded table is bit-identical to the sender's on either path, so
  // the choice only shows in the byte counters.
  const auto delta_base = [&](std::size_t trained_round) -> const rl::QTable* {
    return options_.delta_uploads && trained_round == r && warm.has_value() ? &*warm : nullptr;
  };

  // 4. Codec pass: every upload whose next attempt lands before the close
  //    is encoded, (seeded-)damaged and decoded across the worker pool.
  //    Each result is a pure function of (churn seed, trained round,
  //    device, attempt), so the event loop below only consumes them -
  //    every counter and decision still happens there, in event order.
  std::vector<Event> early;
  for (const Event& ev : heap) {
    if (ev.kind == Event::kUploadArrival && ev.t_us < round_close) early.push_back(ev);
  }
  run_indexed_tasks(early.size(), resolve_workers(runner_.workers, early.size()),
                    [&](std::size_t i) {
                      const Event& ev = early[i];
                      InFlight& u = arena[ev.table];
                      const rl::QTable* base = delta_base(ev.trained_round);
                      u.wire = encode_upload(u.table, base, &u.went_delta);
                      u.wire_bytes = u.wire.size();
                      u.arrived = deliver(u, options_.churn, ev.trained_round, ev.device,
                                          ev.attempt, base);
                      u.attempted = true;
                    });

  // 5. The event loop: process lease expiries and upload arrivals in
  //    simulated-time order until the straggler deadline.
  std::make_heap(heap.begin(), heap.end(), later);
  std::size_t accepted_this_round = 0;
  while (!heap.empty() && heap.front().t_us < round_close) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Event ev = heap.back();
    heap.pop_back();
    clock_us_ = ev.t_us;
    if (ev.kind == Event::kLeaseExpiry) {
      // The departed device's in-flight uploads die with its lease.
      std::size_t dropped = 0;
      for (const Event& other : heap) {
        if (other.kind == Event::kUploadArrival && other.device == ev.device) ++dropped;
      }
      if (dropped > 0) {
        heap.erase(std::remove_if(heap.begin(), heap.end(),
                                  [&](const Event& other) {
                                    return other.kind == Event::kUploadArrival &&
                                           other.device == ev.device;
                                  }),
                   heap.end());
        std::make_heap(heap.begin(), heap.end(), later);
        stats_.uploads_lost += dropped;
        rs.lost_uploads += dropped;
      }
      ++stats_.departures;
      ++rs.departures;
      NEXTGOV_LOG(kInfo) << "fleet_server: device " << ev.device
                         << " lease expired at t=" << ev.t_us << "us (round " << r << ")";
      continue;
    }
    // Upload arrival: the table travels as CRC-guarded snapshot bytes; a
    // seeded per-attempt failure damages them in flight, the decode throws,
    // and the device retries with exponential backoff + jitter. A first
    // attempt was run by the codec pass; a retry reuses the clean bytes
    // and runs here.
    InFlight& u = arena[ev.table];
    std::optional<rl::QTable> decoded;
    if (u.attempted) {
      decoded = std::move(u.arrived);
      u.attempted = false;
    } else {
      decoded = deliver(u, options_.churn, ev.trained_round, ev.device, ev.attempt,
                        delta_base(ev.trained_round));
    }
    if (u.went_delta) {
      stats_.upload_bytes_delta += u.wire_bytes;
      ++stats_.uploads_delta;
      ++rs.delta_uploads;
    } else {
      stats_.upload_bytes_full += u.wire_bytes;
      ++stats_.uploads_full;
    }
    rs.upload_bytes += u.wire_bytes;
    if (!decoded.has_value()) {
      const std::uint32_t next_attempt = ev.attempt + 1;
      if (next_attempt >= options_.max_upload_attempts) {
        ++stats_.uploads_lost;
        ++rs.lost_uploads;
        continue;
      }
      SplitMix64 jitter =
          attempt_stream(options_.churn.seed ^ 0x1u, ev.trained_round, ev.device, ev.attempt);
      const std::int64_t delay =
          retry_delay_us(options_.retry_backoff, ev.attempt, jitter.next());
      heap.push_back(Event{ev.t_us + delay, Event::kUploadArrival, ev.device,
                           ev.trained_round, next_attempt, ev.table});
      std::push_heap(heap.begin(), heap.end(), later);
      ++stats_.uploads_retried;
      ++rs.retries;
      continue;
    }
    // Accepted. Only a strictly fresher table replaces a device's standing
    // upload (a very late round-k arrival after round-(k+1) already landed
    // is redundant, not a regression).
    if (!uploads_[ev.device].has_value() || uploads_[ev.device]->round < ev.trained_round) {
      uploads_[ev.device] = FleetUpload{std::move(*decoded), ev.trained_round};
      ++stats_.uploads_accepted;
      ++accepted_this_round;
      if (ev.trained_round < r) {
        ++stats_.late_uploads_merged;
        ++rs.late_merged;
      } else {
        ++rs.quorum;
      }
    }
  }

  // 6. Straggler deadline: whatever is still in flight carries into the
  //    next round as persisted PendingUploads - merged late rather than
  //    dropped, and never allowed to stall this round's close.
  for (Event& ev : heap) {
    NEXTGOV_ASSERT(ev.kind == Event::kUploadArrival);  // expiries resolve in-round
    pending_.push_back(PendingUpload{ev.device, ev.trained_round, ev.t_us, ev.attempt,
                                     std::move(arena[ev.table].table)});
  }
  std::sort(pending_.begin(), pending_.end(), [](const PendingUpload& a,
                                                 const PendingUpload& b) {
    return std::tie(a.arrival_us, a.device, a.trained_round, a.attempts_used) <
           std::tie(b.arrival_us, b.device, b.trained_round, b.attempts_used);
  });
  rs.carried_late = pending_.size();

  // 7. Graceful degradation merge: the staleness-weighted aggregate of
  //    every device's last accepted upload, aged by how many rounds ago it
  //    trained. Departed and straggling devices lean on their older
  //    uploads, exactly as the merge math intends; with no fresh arrivals
  //    at all the previous aggregate simply carries.
  if (accepted_this_round > 0) {
    std::vector<const rl::QTable*> tables;
    std::vector<double> staleness;
    for (const auto& upload : uploads_) {
      if (!upload.has_value()) continue;
      tables.push_back(&upload->table);
      staleness.push_back(static_cast<double>(r - upload->round));
    }
    last_aggregate_ =
        rl::merge_q_tables(tables, staleness, options_.merge_policy, runner_.workers);
  }
  rs.global_states = last_aggregate_.has_value() ? last_aggregate_->state_count() : 0;
  last_round_mean_reward_ = rs.mean_reward;

  // 8. Round boundary: advance the clock, rotate the snapshot ring, report.
  clock_us_ = round_close;
  round_ = r + 1;
  ++stats_.rounds_served;
  write_ring_snapshot();
  rs.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  if (progress) progress(rs);
}

void FleetServer::run_rounds(std::size_t n, const FleetServerProgressFn& progress) {
  for (std::size_t i = 0; i < n; ++i) run_round(progress);
}

}  // namespace nextgov::sim
