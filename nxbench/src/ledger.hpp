// ledger.hpp - the traced run's per-layer measurements, all taken from
// outside the library by timing calls into each layer's public functions.
//
//   * engine ledger: groups of engines built from the workload's own cells
//     are stepped phase by phase (Engine::step() composes bitwise from the
//     phase calls), each phase swept across the whole group between two
//     clock reads, so one clock pair is spread over the group and a
//     calibrated empty lap is subtracted. Chunks of plain step() calls
//     alternate with the traced chunks on the same engines to give the
//     untraced ns per tick the layers are compared against;
//   * runner pass: the workload's cells through sim::run_indexed_tasks with
//     a clock pair per cell (cell latency, busy share, plan wall time);
//   * sync round: Q-tables through the fleet's wire codec, staleness merge
//     and snapshot container.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"

namespace nxbench {

/// One engine the ledger replays: how to build it, how long it runs, and
/// (for training cells) the episode cadence train_next_on resets at.
struct LedgerCell {
  std::function<std::unique_ptr<nextgov::sim::Engine>()> make;
  std::int64_t ticks{0};
  std::int64_t episode_ticks{0};  ///< 0 = one uninterrupted session
  nextgov::sim::AppFactory app_factory;  ///< episode resets draw fresh apps from it
  std::uint64_t seed{0};                 ///< TrainingOptions::seed (reset seeds derive from it)
  /// Checks the finished engine against the workload's own result for the
  /// cell; returns "" when they agree.
  std::function<std::string(nextgov::sim::Engine&)> verify;
};

/// Engine phases in step() order.
enum Phase : std::size_t {
  kAppRender,   ///< step_pre_power
  kPowerModel,  ///< apply_power_model
  kThermal,     ///< thermal().step
  kObserve,     ///< step_post_observe
  kNextControl, ///< step_post_meta on ticks where a control point is due
  kFinish,      ///< step_post_finish
  kMetaIdle,    ///< step_post_meta on every other tick (nothing due)
  kPhaseCount,
};

struct EngineLedger {
  double phase_ns[kPhaseCount]{};  ///< lap time minus clock calibration, summed
  double traced_engine_ticks{0.0};
  double untraced_ns{0.0};
  double untraced_engine_ticks{0.0};
  std::uint64_t control_points{0};
  std::uint64_t laps{0};

  void merge(const EngineLedger& other);
};

/// Replays every cell in groups of `group` engines across `workers`
/// threads, repeating whole laps while `budget_s` lasts (at least one).
/// Each finished engine is verified; mismatches are recorded in `checks`.
[[nodiscard]] EngineLedger run_engine_ledger(std::span<const LedgerCell> cells,
                                             std::size_t group, std::size_t workers,
                                             double clock_lap_ns, double budget_s,
                                             Checks& checks);

/// Adds the engine-ledger metrics to the report.
void report_engine_ledger(const EngineLedger& ledger, Report& report);

/// One pass of `n` cells through sim::run_indexed_tasks, a clock pair
/// around each cell. `cell(i)` returns "" or a failure message; a throwing
/// cell counts as failed.
struct PassTiming {
  double wall_s{0.0};
  std::vector<double> cell_ms;
};
[[nodiscard]] PassTiming timed_pass(std::size_t n, std::size_t workers,
                                    const std::function<std::string(std::size_t)>& cell,
                                    Checks& checks);

/// Wall time of each layer of one Q-table sync round: every table encoded
/// as an upload (a delta against `base` when given) and decoded again,
/// all tables merged with the staleness weights given, then persisted by
/// `persist` (handed the merged table; returns the bytes it wrote).
struct SyncRound {
  double encode_s{0.0};
  double decode_s{0.0};
  double merge_s{0.0};
  double ring_s{0.0};
  double ring_kb{0.0};
  double whole_s{0.0};
  std::size_t uploads{0};
  std::size_t delta_uploads{0};
};
[[nodiscard]] SyncRound sync_round(std::span<const nextgov::rl::QTable* const> tables,
                                   std::span<const double> staleness,
                                   const nextgov::rl::QTable* base,
                                   const std::function<std::uint64_t(const nextgov::rl::QTable&)>& persist,
                                   Checks& checks);

/// Adds runner metrics (cell latency percentiles, busy share, plan wall).
void report_runner(const std::vector<PassTiming>& passes, std::size_t workers, Report& report);

}  // namespace nxbench
