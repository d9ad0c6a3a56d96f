// workloads.cpp - the three workloads: eval_sweep, train_sweep and
// fleet_rounds. Each builds its inputs from --seed, sets up (timed, on
// every worker at once, before the timed loop and between its passes),
// checks a warm-up pass against the physical invariants and the canonical
// fingerprints, then either measures end to end (untraced) or builds the
// per-layer ledger (traced).
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "ledger.hpp"
#include "rl/federated.hpp"
#include "sim/fleet_server.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "workload/apps.hpp"

namespace nxbench {

using namespace nextgov;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kSeedsPerScenario = 4;
/// Every end-to-end run times at least this many passes (or sessions).
constexpr std::size_t kMinPasses = 3;
/// p90 needs ten samples beyond it.
constexpr std::size_t kMinLatencySamples = 110;

std::uint64_t cell_seed(std::uint64_t seed, std::size_t scenario, std::size_t k) {
  return sim::derive_seed(sim::derive_seed(seed, scenario), k);
}

std::int64_t ticks_of(SimTime t) { return t.us() / SimTime::from_ms(1).us(); }

/// Engines per ledger group: enough to spread each clock pair, few enough
/// that every worker gets a group.
std::size_t ledger_group(std::size_t cells, std::size_t workers) {
  return std::clamp<std::size_t>((cells + workers - 1) / workers, 4, 16);
}

/// Per-layer budget split of a traced sweep run.
constexpr double kLedgerShare = 0.45;
constexpr double kRunnerShare = 0.3;

/// End-to-end samples of one untraced run: simulated seconds per wall
/// second of each timed pass (or fleet session), and per operation (sweep
/// cell or fleet round) wall ms per simulated second.
struct EndToEnd {
  SetupTimer& setup;
  std::vector<double> wall_rates;
  std::vector<double> op_cost;

  double sim_s{0.0};
  double wall_s{0.0};

  /// Records one timed pass; every second pass is followed by a set-up
  /// round (see SetupTimer), outside the pass's timing.
  void pass(double pass_sim_s, double pass_wall_s) {
    wall_rates.push_back(pass_sim_s / pass_wall_s);
    sim_s += pass_sim_s;
    wall_s += pass_wall_s;
    if (wall_rates.size() % 2 == 0) setup.round();
  }
  [[nodiscard]] bool enough() const {
    return wall_rates.size() >= kMinPasses && op_cost.size() >= kMinLatencySamples;
  }
  void finish(Report& r) const {
    // Total over the run rather than a median of passes: host-speed swings
    // last seconds, and the total averages them best.
    r.metric("sim_s_per_wall_s", sim_s / wall_s, "sim_s/s");
    r.metric("setup_s", setup.median_s(), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    r.metric("op_ms_per_sim_s_p50", pct(op_cost, 50.0), "ms/sim_s");
    r.metric("op_ms_per_sim_s_p90", pct(op_cost, 90.0), "ms/sim_s");
    r.info["op_samples"] = static_cast<double>(op_cost.size());
    r.info["timed_passes"] = static_cast<double>(wall_rates.size());
    r.info["sim_s_per_wall_s.min"] = *std::min_element(wall_rates.begin(), wall_rates.end());
    r.info["sim_s_per_wall_s.max"] = *std::max_element(wall_rates.begin(), wall_rates.end());
  }
};

/// Persists a sweep's tables the way the fleet persists a round boundary:
/// one fleet-state snapshot holding every upload and the merged aggregate.
std::function<std::uint64_t(const rl::QTable&)> snapshot_persister(
    std::span<const rl::QTable* const> tables, const std::string& path) {
  auto snap = std::make_shared<sim::FleetSnapshot>();
  for (const rl::QTable* t : tables) {
    snap->shard_tables.emplace_back();
    snap->uploads.emplace_back(sim::FleetUpload{*t, 0});
    snap->shard_last_upload.push_back(0);
  }
  return [snap, path](const rl::QTable& merged) {
    snap->last_aggregate = merged;
    sim::save_fleet_snapshot(*snap, sim::FleetOptions{}, path);
    return static_cast<std::uint64_t>(fs::file_size(path));
  };
}

/// Repeats sync rounds over a sweep's tables for `budget_s` (at least three)
/// and reports the fleet ledger. A sweep's "round" is one pass of its plan
/// followed by one sync of its tables: the coverage compares the ledger
/// (`plan_ms` of the per-cell-timed runner pass + the sync layers) with
/// `public_plan_ms` of the public plan call plus a whole sync round.
void sweep_sync_ledger(std::span<const rl::QTable* const> tables, const Args& args,
                       double budget_s, double plan_ms, double public_plan_ms, Report& report) {
  const std::vector<double> staleness(tables.size(), 0.0);
  const auto persist = snapshot_persister(tables, args.scratch + "/sync.snap");
  std::vector<double> enc, dec, merge, ring, whole, kb;
  const auto t0 = Clock::now();
  do {
    const SyncRound s = sync_round(tables, staleness, nullptr, persist, report.checks);
    enc.push_back(s.encode_s * 1e3);
    dec.push_back(s.decode_s * 1e3);
    merge.push_back(s.merge_s * 1e3);
    ring.push_back(s.ring_s * 1e3);
    whole.push_back(s.whole_s * 1e3);
    kb.push_back(s.ring_kb);
  } while (enc.size() < 3 || seconds_since(t0) < budget_s);
  const double layers = median(enc) + median(dec) + median(merge) + median(ring);
  report.metric("fleet.encode_ms", median(enc), "ms");
  report.metric("fleet.decode_ms", median(dec), "ms");
  report.metric("fleet.merge_ms", median(merge), "ms");
  report.metric("fleet.ring_ms", median(ring), "ms");
  report.metric("fleet.ring_kb", median(kb), "KiB");
  report.metric("fleet.delta_share", 0.0, "ratio");
  report.metric("fleet.ledger_coverage", (plan_ms + layers) / (public_plan_ms + median(whole)),
                "ratio");
  report.info["fleet.sync_rounds"] = static_cast<double>(enc.size());
  report.info["fleet.uploads_per_round"] = static_cast<double>(tables.size());
}

void report_tables(std::span<const rl::QTable* const> tables, Report& report) {
  double states = 0.0;
  double bytes = 0.0;
  for (const rl::QTable* t : tables) {
    states += static_cast<double>(t->state_count());
    bytes += static_cast<double>(t->memory_bytes());
  }
  report.metric("rl.qtable_states", states, "count");
  report.metric("rl.qtable_bytes", bytes, "B");
}

// --- eval_sweep ------------------------------------------------------------

/// The deployed table and the plan that points at it; built in place and
/// never moved, so the plan's table pointers stay valid.
struct EvalInputs {
  sim::TrainingResult trained;
  std::vector<sim::ScenarioSpec> specs;  ///< one per plan cell
  sim::RunPlan plan;

  explicit EvalInputs(std::uint64_t seed)
      : trained{[] {
          // The table every Next cell deploys: fig1_session trained for ten
          // 60 s episodes from the scenario's own fixed seed, so it is the
          // same table for every --seed (its fingerprint is pinned).
          const sim::ScenarioSpec fig1 = sim::scenario("fig1_session");
          sim::TrainingOptions base;
          base.max_duration = SimTime::from_seconds(600.0);
          base.episode_length = SimTime::from_seconds(60.0);
          return sim::train_next_on(
              fig1.app_factory(),
              sim::adapt_next_config(core::NextConfig{}, fig1.refresh_hz, fig1.ambient),
              fig1.training_options(base));
        }()} {
    const auto names = sim::scenario_names();
    // Governor-major order keeps ledger groups homogeneous.
    for (const auto governor : {sim::GovernorKind::kSchedutil, sim::GovernorKind::kNext}) {
      for (std::size_t s = 0; s < names.size(); ++s) {
        const sim::ScenarioSpec spec = sim::scenario(names[s]);
        for (std::size_t k = 0; k < kSeedsPerScenario; ++k) {
          sim::ExperimentConfig config = spec.experiment_config(governor, cell_seed(seed, s, k));
          if (governor == sim::GovernorKind::kNext) config.trained_table = &trained.table;
          plan.add(spec.app_factory(), spec.name, config);
          specs.push_back(spec);
        }
      }
    }
  }
};

void eval_outcomes(const std::vector<sim::SessionResult>& results, Report& report) {
  const std::size_t half = results.size() / 2;  // schedutil block, then Next block
  double p_sched = 0.0, p_next = 0.0, drop = 0.0, fps_sched = 0.0, fps_next = 0.0;
  for (std::size_t i = 0; i < half; ++i) {
    const sim::SessionResult& a = results[i];
    const sim::SessionResult& b = results[half + i];
    p_sched += a.avg_power_w;
    p_next += b.avg_power_w;
    drop += a.peak_temp_big_c - b.peak_temp_big_c;
    fps_sched += a.avg_fps;
    fps_next += b.avg_fps;
  }
  report.outcome("power_saving_pct", 100.0 * (1.0 - p_next / p_sched), "%");
  report.outcome("peak_temp_drop_c", drop / static_cast<double>(half), "C");
  report.outcome("fps_loss_pct", 100.0 * (1.0 - fps_next / fps_sched), "%");
}

std::vector<sim::SessionResult> checked_eval_baseline(const EvalInputs& in, std::size_t workers,
                                                      Report& report) {
  // Warm-up through the public entry point; every later pass must repeat it
  // bit for bit.
  std::vector<sim::SessionResult> baseline = sim::run_plan(in.plan, {.workers = workers});
  Fingerprint fp;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const auto& spec = in.specs[i];
    const std::string bad = session_violation(baseline[i], spec.refresh_hz, spec.ambient.value());
    report.checks.op(bad.empty(), bad);
    fp.session(baseline[i]);
  }
  report.fingerprints["run"] = fp.hex();
  eval_outcomes(baseline, report);
  return baseline;
}

PassTiming eval_pass(const EvalInputs& in, const std::vector<sim::SessionResult>& baseline,
                     std::size_t workers, Report& report) {
  std::vector<sim::SessionResult> results(in.plan.size());
  PassTiming pass = timed_pass(
      in.plan.size(), workers,
      [&](std::size_t i) {
        const sim::SessionSpec& spec = in.plan.sessions()[i];
        results[i] = sim::run_session(spec.app_factory, spec.name, spec.config);
        return std::string{};
      },
      report.checks);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!sim::bit_identical(results[i], baseline[i])) {
      report.checks.fail("eval pass differs from the warm-up pass in cell " + std::to_string(i));
    }
  }
  return pass;
}

double plan_sim_s(const EvalInputs& in) {
  double s = 0.0;
  for (const auto& spec : in.plan.sessions()) s += spec.config.duration.seconds();
  return s;
}

}  // namespace

void run_eval_sweep(const Args& args, Report& report) {
  const std::size_t workers = bench_workers();
  std::vector<std::unique_ptr<EvalInputs>> slots(workers);
  SetupTimer setup{workers,
                   [&](std::size_t slot) {
                     slots[slot] = std::make_unique<EvalInputs>(args.seed);
                     Fingerprint fp;
                     fp.training(slots[slot]->trained);
                     SetupOutcome out{fp.hex(), training_violation(slots[slot]->trained, 600.0)};
                     if (slot > 0) slots[slot].reset();
                     return out;
                   },
                   report.checks, report.fingerprints["setup"]};
  setup.round();
  const std::unique_ptr<EvalInputs> in = std::move(slots.front());
  const std::vector<sim::SessionResult> baseline = checked_eval_baseline(*in, workers, report);
  const double sim_s = plan_sim_s(*in);
  report.info["cells"] = static_cast<double>(in->plan.size());
  report.info["sim_s_per_pass"] = sim_s;

  if (!args.trace) {
    EndToEnd e2e{setup};
    const auto t0 = Clock::now();
    while (!e2e.enough() || seconds_since(t0) < args.seconds) {
      const PassTiming pass = eval_pass(*in, baseline, workers, report);
      e2e.pass(sim_s, pass.wall_s);
      for (std::size_t i = 0; i < pass.cell_ms.size(); ++i) {
        e2e.op_cost.push_back(pass.cell_ms[i] / in->plan.sessions()[i].config.duration.seconds());
      }
    }
    e2e.finish(report);
    return;
  }

  const double lap_ns = report.info.at("clock_lap_ns");
  std::vector<LedgerCell> cells;
  for (std::size_t i = 0; i < in->plan.size(); ++i) {
    const sim::SessionSpec& spec = in->plan.sessions()[i];
    cells.push_back(LedgerCell{
        .make = [&spec] { return sim::make_engine(spec.app_factory, spec.config); },
        .ticks = ticks_of(spec.config.duration),
        .episode_ticks = 0,
        .app_factory = {},
        .seed = 0,
        .verify =
            [&spec, &baseline, i](sim::Engine& e) {
              const auto r = sim::summarize(e, spec.name, std::string{to_string(spec.config.governor)});
              return sim::bit_identical(r, baseline[i])
                         ? std::string{}
                         : "phase-stepped cell " + std::to_string(i) + " differs from step()";
            },
    });
  }
  const auto ledger =
      run_engine_ledger(cells, ledger_group(cells.size(), workers), workers, lap_ns,
                        kLedgerShare * args.seconds, report.checks);
  report_engine_ledger(ledger, report);

  std::vector<PassTiming> passes;
  std::vector<double> public_ms;
  const auto t0 = Clock::now();
  do {
    passes.push_back(eval_pass(*in, baseline, workers, report));
    const auto p0 = Clock::now();
    const auto again = sim::run_plan(in->plan, {.workers = workers});
    public_ms.push_back(seconds_since(p0) * 1e3);
    report.checks.op(again.size() == baseline.size() &&
                         std::equal(again.begin(), again.end(), baseline.begin(),
                                    [](const auto& a, const auto& b) { return sim::bit_identical(a, b); }),
                     "run_plan repeat differs from the warm-up pass");
  } while (seconds_since(t0) < kRunnerShare * args.seconds);
  report_runner(passes, workers, report);

  const rl::QTable* tables[] = {&in->trained.table};
  report_tables(tables, report);
  sweep_sync_ledger(tables, args, (1.0 - kLedgerShare - kRunnerShare) * args.seconds,
                    report.metrics["runner.plan_ms"].value, median(public_ms), report);
}

// --- train_sweep -----------------------------------------------------------

namespace {

constexpr double kTrainBudgetS = 180.0;
constexpr double kTrainEpisodeS = 60.0;

sim::TrainingPlan make_training_plan(std::uint64_t seed) {
  sim::TrainingPlan plan;
  const auto names = sim::scenario_names();
  for (std::size_t s = 0; s < names.size(); ++s) {
    const sim::ScenarioSpec spec = sim::scenario(names[s]);
    sim::TrainingOptions base;
    base.max_duration = SimTime::from_seconds(kTrainBudgetS);
    base.episode_length = SimTime::from_seconds(kTrainEpisodeS);
    base.stop_at_convergence = false;  // fixed amount of work per cell
    for (std::size_t k = 0; k < kSeedsPerScenario; ++k) {
      sim::TrainingOptions options = spec.training_options(base);
      options.seed = cell_seed(seed, s, k);
      plan.add(spec.app_factory(), spec.name,
               sim::adapt_next_config(core::NextConfig{}, spec.refresh_hz, spec.ambient),
               options);
    }
  }
  return plan;
}

/// The canonical training probe: fig1_session, its own fixed seed, five
/// 60 s episodes.
SetupOutcome training_probe() {
  const sim::ScenarioSpec fig1 = sim::scenario("fig1_session");
  sim::TrainingOptions base;
  base.max_duration = SimTime::from_seconds(300.0);
  base.episode_length = SimTime::from_seconds(60.0);
  const sim::TrainingResult r = sim::train_next_on(
      fig1.app_factory(), sim::adapt_next_config(core::NextConfig{}, fig1.refresh_hz, fig1.ambient),
      fig1.training_options(base));
  Fingerprint fp;
  fp.training(r);
  return {fp.hex(), training_violation(r, 300.0)};
}

bool same_training(const sim::TrainingResult& a, const sim::TrainingResult& b) {
  return a.table == b.table && a.decisions == b.decisions &&
         a.final_mean_reward == b.final_mean_reward && a.converged == b.converged &&
         a.sim_seconds == b.sim_seconds && a.states_visited == b.states_visited;
}

PassTiming training_pass(const sim::TrainingPlan& plan,
                         const std::vector<sim::TrainingResult>& baseline, std::size_t workers,
                         Report& report) {
  std::vector<std::optional<sim::TrainingResult>> results(plan.size());
  PassTiming pass = timed_pass(
      plan.size(), workers,
      [&](std::size_t i) {
        const sim::TrainingSpec& cell = plan.cells()[i];
        results[i] = sim::train_next_on(cell.app_factory, cell.config, cell.options);
        return std::string{};
      },
      report.checks);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i] || !same_training(*results[i], baseline[i])) {
      report.checks.fail("training pass differs from the warm-up pass in cell " + std::to_string(i));
    }
  }
  return pass;
}

}  // namespace

void run_train_sweep(const Args& args, Report& report) {
  const std::size_t workers = bench_workers();
  std::vector<sim::TrainingPlan> plans(workers);
  SetupTimer setup{workers,
                   [&](std::size_t slot) {
                     plans[slot] = make_training_plan(args.seed);
                     return training_probe();
                   },
                   report.checks, report.fingerprints["setup"]};
  setup.round();
  const sim::TrainingPlan plan = std::move(plans.front());

  const std::vector<sim::TrainingResult> baseline =
      sim::run_training_plan(plan, {.workers = workers});
  Fingerprint fp;
  double reward = 0.0;
  for (const sim::TrainingResult& r : baseline) {
    const std::string bad = training_violation(r, kTrainBudgetS);
    report.checks.op(bad.empty(), bad);
    fp.training(r);
    reward += r.final_mean_reward;
  }
  report.fingerprints["run"] = fp.hex();
  report.outcome("train_mean_reward", reward / static_cast<double>(baseline.size()), "reward");
  const double sim_s = kTrainBudgetS * static_cast<double>(plan.size());
  report.info["cells"] = static_cast<double>(plan.size());
  report.info["sim_s_per_pass"] = sim_s;

  if (!args.trace) {
    EndToEnd e2e{setup};
    const auto t0 = Clock::now();
    while (!e2e.enough() || seconds_since(t0) < args.seconds) {
      const PassTiming pass = training_pass(plan, baseline, workers, report);
      e2e.pass(sim_s, pass.wall_s);
      for (const double ms : pass.cell_ms) e2e.op_cost.push_back(ms / kTrainBudgetS);
    }
    e2e.finish(report);
    return;
  }

  const double lap_ns = report.info.at("clock_lap_ns");
  std::vector<LedgerCell> cells;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const sim::TrainingSpec& cell = plan.cells()[i];
    cells.push_back(LedgerCell{
        .make = [&cell] { return sim::make_training_engine(cell.app_factory, cell.config, cell.options); },
        .ticks = ticks_of(cell.options.max_duration),
        .episode_ticks = ticks_of(cell.options.episode_length),
        .app_factory = cell.app_factory,
        .seed = cell.options.seed,
        .verify =
            [&baseline, i](sim::Engine& e) {
              const core::NextAgent* agent = e.next_agent();
              return agent != nullptr && agent->q_table() == baseline[i].table &&
                             agent->decisions() == baseline[i].decisions
                         ? std::string{}
                         : "phase-stepped training cell " + std::to_string(i) +
                               " differs from train_next_on";
            },
    });
  }
  const auto ledger =
      run_engine_ledger(cells, ledger_group(cells.size(), workers), workers, lap_ns,
                        kLedgerShare * args.seconds, report.checks);
  report_engine_ledger(ledger, report);

  std::vector<PassTiming> passes;
  std::vector<double> public_ms;
  const auto t0 = Clock::now();
  do {
    passes.push_back(training_pass(plan, baseline, workers, report));
    const auto p0 = Clock::now();
    const auto again = sim::run_training_plan(plan, {.workers = workers});
    public_ms.push_back(seconds_since(p0) * 1e3);
    report.checks.op(again.size() == baseline.size() &&
                         std::equal(again.begin(), again.end(), baseline.begin(), same_training),
                     "run_training_plan repeat differs from the warm-up pass");
  } while (seconds_since(t0) < kRunnerShare * args.seconds);
  report_runner(passes, workers, report);

  std::vector<const rl::QTable*> tables;
  for (const auto& r : baseline) tables.push_back(&r.table);
  report_tables(tables, report);
  sweep_sync_ledger(tables, args, (1.0 - kLedgerShare - kRunnerShare) * args.seconds,
                    report.metrics["runner.plan_ms"].value, median(public_ms), report);
}

// --- fleet_rounds ----------------------------------------------------------

namespace {

constexpr std::size_t kRoundsPerSession = 20;
constexpr std::size_t kFleetDevices = 16;
constexpr workload::AppId kFleetApp = workload::AppId::kLineage;

sim::FleetServerOptions fleet_options(std::uint64_t seed, std::size_t devices,
                                      const std::string& prefix) {
  sim::FleetServerOptions o;
  o.devices = devices;
  o.round_duration = SimTime::from_seconds(20.0);
  o.round_deadline = SimTime::from_seconds(40.0);
  o.episode_length = SimTime::from_seconds(10.0);
  o.heartbeat_period = SimTime::from_seconds(2.0);
  o.lease_timeout = SimTime::from_seconds(5.0);
  o.upload_latency = SimTime::from_seconds(1.0);
  o.retry_backoff = SimTime::from_seconds(2.0);
  o.base_seed = seed;
  o.churn.seed = sim::derive_seed(seed, 0xC4A2u);
  o.churn.depart_rate = 0.05;
  o.churn.straggle_rate = 0.1;
  o.churn.upload_fail_rate = 0.1;
  o.delta_uploads = true;
  o.snapshot_ring = 3;
  o.snapshot_prefix = prefix;
  return o;
}

sim::AppFactory fleet_app() {
  return [](std::uint64_t seed) { return workload::make_app(kFleetApp, seed); };
}

void fingerprint_round(Fingerprint& fp, const sim::FleetServerRoundStats& rs) {
  for (const std::size_t v : {rs.round, rs.training_devices, rs.departures, rs.rejoined, rs.quorum,
                              rs.late_merged, rs.carried_late, rs.retries, rs.lost_uploads,
                              rs.global_states, rs.delta_uploads}) {
    fp.u64(v);
  }
  fp.f64(rs.mean_reward);
  fp.u64(rs.upload_bytes);
}

std::string round_violation(const sim::FleetServerRoundStats& rs, std::size_t devices) {
  if (rs.training_devices > devices) return "more trainees than devices";
  if (rs.quorum > rs.training_devices) return "quorum above the round's trainees";
  if (!std::isfinite(rs.mean_reward)) return "non-finite round reward";
  if (rs.training_devices > 0 && rs.upload_bytes == 0) return "trainees uploaded no bytes";
  return {};
}

/// A fresh, empty ring directory (a leftover ring would be restored).
std::string fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

/// The canonical fleet probe: four devices, two rounds, the default seed,
/// its ring in `dir`.
SetupOutcome fleet_probe(const std::string& dir) {
  fresh_dir(dir);
  sim::FleetServer server{kFleetApp, fleet_options(kDefaultSeed, 4, dir + "/ring"), {.workers = 1}};
  Fingerprint fp;
  std::string bad;
  server.run_rounds(2, [&](const sim::FleetServerRoundStats& rs) {
    if (bad.empty()) bad = round_violation(rs, 4);
    fingerprint_round(fp, rs);
  });
  if (server.global() == nullptr) {
    bad = "fleet probe merged nothing";
  } else {
    fp.table(*server.global());
  }
  fs::remove_all(dir);
  return {fp.hex(), bad};
}

struct FleetSession {
  std::vector<sim::FleetServerRoundStats> rounds;
  std::vector<double> round_ms;
  std::string fingerprint;
  sim::FleetServerStats stats;
  std::size_t global_states{0};
  std::size_t global_bytes{0};
};

/// Serves kRoundsPerSession rounds from a fresh server. `between(server,
/// stats, round_ms, prev_global)` runs after each round, outside its timing.
FleetSession serve_session(
    const Args& args, std::size_t workers, Report& report,
    const std::function<void(sim::FleetServer&, const sim::FleetServerRoundStats&, double,
                             const std::optional<rl::QTable>&)>& between = {}) {
  const std::string dir = fresh_dir(args.scratch + "/session");
  const auto options = fleet_options(args.seed, kFleetDevices, dir + "/ring");
  sim::FleetServer server{kFleetApp, options, {.workers = workers}};
  FleetSession out;
  Fingerprint fp;
  for (std::size_t r = 0; r < kRoundsPerSession; ++r) {
    std::optional<rl::QTable> prev;
    if (between && server.global() != nullptr) prev = *server.global();
    sim::FleetServerRoundStats stats;
    const auto t0 = Clock::now();
    server.run_round([&](const sim::FleetServerRoundStats& rs) { stats = rs; });
    out.round_ms.push_back(seconds_since(t0) * 1e3);
    const std::string bad = round_violation(stats, options.devices);
    report.checks.op(bad.empty(), "fleet round: " + bad);
    fingerprint_round(fp, stats);
    out.rounds.push_back(stats);
    if (between) between(server, stats, out.round_ms.back(), prev);
  }
  const rl::QTable* global = server.global();
  report.checks.op(global != nullptr && table_violation(*global).empty(),
                   "fleet global table missing or unsound");
  if (global != nullptr) {
    fp.table(*global);
    out.global_states = global->state_count();
    out.global_bytes = global->memory_bytes();
  }
  out.fingerprint = fp.hex();
  out.stats = server.stats();
  fs::remove_all(dir);
  return out;
}

void fleet_outcomes(const FleetSession& s, std::size_t devices, Report& report) {
  double kb = 0.0, quorum = 0.0, reward = 0.0;
  for (const auto& rs : s.rounds) {
    kb += static_cast<double>(rs.upload_bytes) / 1024.0;
    quorum += static_cast<double>(rs.quorum) / static_cast<double>(devices);
    reward += rs.mean_reward;
  }
  const double n = static_cast<double>(s.rounds.size());
  report.outcome("upload_kb_per_round", kb / n, "KiB");
  report.outcome("fleet_quorum", quorum / n, "ratio");
  report.outcome("fleet_mean_reward", reward / n, "reward");
}

void check_session_repeats(const std::vector<FleetSession>& sessions, Report& report) {
  for (std::size_t i = 1; i < sessions.size(); ++i) {
    report.checks.op(sessions[i].fingerprint == sessions.front().fingerprint,
                     "fleet session " + std::to_string(i) + " diverged from the first");
  }
  report.fingerprints["run"] = sessions.front().fingerprint;
}

}  // namespace

void run_fleet_rounds(const Args& args, Report& report) {
  const std::size_t workers = bench_workers();
  const auto options = fleet_options(args.seed, kFleetDevices, args.scratch + "/ring");
  SetupTimer setup{workers,
                   [&](std::size_t slot) {
                     sim::validate_fleet_server_options(options);
                     return fleet_probe(args.scratch + "/probe" + std::to_string(slot));
                   },
                   report.checks, report.fingerprints["setup"]};
  setup.round();

  if (!args.trace) {
    const double device_s = options.round_duration.seconds();
    std::vector<FleetSession> sessions;
    std::vector<double> round_ms;
    EndToEnd e2e{setup};
    const auto t0 = Clock::now();
    while (!e2e.enough() || seconds_since(t0) < args.seconds) {
      sessions.push_back(serve_session(args, workers, report));
      const FleetSession& s = sessions.back();
      double trained = 0.0, wall = 0.0;
      for (std::size_t r = 0; r < s.rounds.size(); ++r) {
        const double round_sim_s = device_s * static_cast<double>(s.rounds[r].training_devices);
        trained += round_sim_s;
        wall += s.round_ms[r] / 1e3;
        round_ms.push_back(s.round_ms[r]);
        e2e.op_cost.push_back(s.round_ms[r] / std::max(device_s, round_sim_s));
      }
      e2e.pass(trained, wall);
    }
    check_session_repeats(sessions, report);
    fleet_outcomes(sessions.front(), kFleetDevices, report);
    e2e.finish(report);
    report.metric("round_ms_p50", pct(round_ms, 50.0), "ms");
    report.metric("round_ms_p90", pct(round_ms, 90.0), "ms");
    return;
  }

  const double lap_ns = report.info.at("clock_lap_ns");
  const sim::AppFactory app = fleet_app();

  // Engine ledger over round 0's device cells (cold start), checked against
  // the same cells through train_next_on.
  sim::TrainingPlan round0;
  for (std::size_t d = 0; d < options.devices; ++d) {
    sim::TrainingOptions cell;
    cell.max_duration = options.round_duration;
    cell.episode_length = options.episode_length;
    cell.seed = sim::derive_seed(sim::derive_seed(options.base_seed, d), 0);
    cell.ambient = options.ambient;
    round0.add(app, "device_" + std::to_string(d), options.next_config, cell);
  }
  const auto round0_results = sim::run_training_plan(round0, {.workers = workers});
  std::vector<LedgerCell> cells;
  for (std::size_t i = 0; i < round0.size(); ++i) {
    const sim::TrainingSpec& cell = round0.cells()[i];
    cells.push_back(LedgerCell{
        .make = [&cell] { return sim::make_training_engine(cell.app_factory, cell.config, cell.options); },
        .ticks = ticks_of(cell.options.max_duration),
        .episode_ticks = ticks_of(cell.options.episode_length),
        .app_factory = cell.app_factory,
        .seed = cell.options.seed,
        .verify =
            [&round0_results, i](sim::Engine& e) {
              const core::NextAgent* agent = e.next_agent();
              return agent != nullptr && agent->q_table() == round0_results[i].table
                         ? std::string{}
                         : "phase-stepped device cell " + std::to_string(i) + " differs";
            },
    });
  }
  const auto ledger = run_engine_ledger(cells, ledger_group(cells.size(), workers), workers,
                                        lap_ns, 0.2 * args.seconds, report.checks);
  report_engine_ledger(ledger, report);

  // Rounds, each followed by a replay of its layers from outside the server.
  std::vector<PassTiming> passes;
  std::vector<double> enc, dec, merge, ring, kb, coverage;
  const auto replay = [&](sim::FleetServer& server, const sim::FleetServerRoundStats& rs,
                          double round_ms, const std::optional<rl::QTable>& prev) {
    std::optional<rl::QTable> warm;
    if (prev) warm = sim::strip_visit_mass(*prev);
    std::vector<sim::TrainingOptions> opts(rs.training_devices);
    for (std::size_t d = 0; d < opts.size(); ++d) {
      opts[d].max_duration = options.round_duration;
      opts[d].episode_length = options.episode_length;
      opts[d].seed = sim::derive_seed(sim::derive_seed(options.base_seed, d), rs.round);
      opts[d].ambient = options.ambient;
      opts[d].initial_table = warm ? &*warm : nullptr;
    }
    std::vector<std::optional<sim::TrainingResult>> trained(opts.size());
    passes.push_back(timed_pass(
        opts.size(), workers,
        [&](std::size_t d) {
          trained[d] = sim::train_next_on(app, options.next_config, opts[d]);
          return training_violation(*trained[d], options.round_duration.seconds());
        },
        report.checks));
    std::vector<const rl::QTable*> tables;
    for (const auto& t : trained) {
      if (t) tables.push_back(&t->table);
    }
    const std::vector<double> staleness(tables.size(), 0.0);
    const SyncRound s = sync_round(
        tables, staleness, options.delta_uploads && warm ? &*warm : nullptr,
        [&](const rl::QTable&) {
          server.drain();
          return static_cast<std::uint64_t>(fs::file_size(
              server.options().snapshot_prefix + "." +
              std::to_string(server.round() % server.options().snapshot_ring)));
        },
        report.checks);
    enc.push_back(s.encode_s * 1e3);
    dec.push_back(s.decode_s * 1e3);
    merge.push_back(s.merge_s * 1e3);
    ring.push_back(s.ring_s * 1e3);
    kb.push_back(s.ring_kb);
    coverage.push_back(
        (passes.back().wall_s * 1e3 + enc.back() + dec.back() + merge.back() + ring.back()) /
        round_ms);
  };
  std::vector<FleetSession> sessions;
  const auto t0 = Clock::now();
  do {
    sessions.push_back(serve_session(args, workers, report, replay));
  } while (seconds_since(t0) < 0.8 * args.seconds);
  check_session_repeats(sessions, report);
  fleet_outcomes(sessions.front(), options.devices, report);
  report_runner(passes, workers, report);
  const FleetSession& last = sessions.back();
  report.metric("rl.qtable_states", static_cast<double>(last.global_states), "count");
  report.metric("rl.qtable_bytes", static_cast<double>(last.global_bytes), "B");
  report.metric("fleet.encode_ms", median(enc), "ms");
  report.metric("fleet.decode_ms", median(dec), "ms");
  report.metric("fleet.merge_ms", median(merge), "ms");
  report.metric("fleet.ring_ms", median(ring), "ms");
  report.metric("fleet.ring_kb", median(kb), "KiB");
  const double sent = static_cast<double>(last.stats.uploads_full + last.stats.uploads_delta);
  report.metric("fleet.delta_share",
                sent > 0.0 ? static_cast<double>(last.stats.uploads_delta) / sent : 0.0, "ratio");
  report.metric("fleet.ledger_coverage", median(coverage), "ratio");
  report.info["fleet.replayed_rounds"] = static_cast<double>(enc.size());
}

}  // namespace nxbench
