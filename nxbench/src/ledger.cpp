#include "ledger.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "rl/federated.hpp"
#include "sim/fleet.hpp"
#include "sim/runner.hpp"

namespace nxbench {

using namespace nextgov;

namespace {

/// Ticks per chunk; traced and untraced chunks alternate on the same
/// engines so both see the same engine states and host conditions.
constexpr std::int64_t kChunkTicks = 500;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Replays one group of cells to completion. Every engine advances in
/// lock-step, so the group's tick counter is every engine's tick counter.
EngineLedger replay_group(std::span<const LedgerCell> cells, double clock_lap_ns,
                          std::mutex& m, Checks& checks) {
  EngineLedger out;
  const std::int64_t episode = cells.front().episode_ticks;
  std::vector<std::unique_ptr<sim::Engine>> engines;
  std::int64_t longest = 0;
  for (const LedgerCell& cell : cells) {
    if (cell.episode_ticks != episode) throw std::logic_error("ledger group mixes episode lengths");
    engines.push_back(cell.make());
    longest = std::max(longest, cell.ticks);
  }
  std::vector<std::uint64_t> episode_index(cells.size(), 0);
  std::vector<sim::Engine*> active;
  double raw[kPhaseCount]{};
  std::uint64_t laps[kPhaseCount]{};
  bool traced = false;
  for (std::int64_t t = 0; t < longest;) {
    // train_next_on's episode boundary: the user re-opens the app.
    if (episode > 0 && t > 0 && t % episode == 0) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].ticks <= t) continue;
        ++episode_index[i];
        engines[i]->reset_session(cells[i].app_factory(cells[i].seed + episode_index[i] + 1));
      }
    }
    active.clear();
    std::int64_t chunk = kChunkTicks;
    if (episode > 0) chunk = std::min(chunk, episode - t % episode);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].ticks <= t) continue;
      active.push_back(engines[i].get());
      chunk = std::min(chunk, cells[i].ticks - t);
    }
    if (!traced) {
      const auto t0 = Clock::now();
      for (sim::Engine* e : active) {
        for (std::int64_t k = 0; k < chunk; ++k) e->step();
      }
      out.untraced_ns += ns_between(t0, Clock::now());
      out.untraced_engine_ticks += static_cast<double>(chunk * std::ssize(active));
    } else {
      Clock::time_point c[kPhaseCount + 1];
      for (std::int64_t k = 0; k < chunk; ++k) {
        c[0] = Clock::now();
        for (sim::Engine* e : active) e->step_pre_power();
        c[1] = Clock::now();
        for (sim::Engine* e : active) e->apply_power_model();
        c[2] = Clock::now();
        for (sim::Engine* e : active) e->thermal().step(e->config().step);
        c[3] = Clock::now();
        for (sim::Engine* e : active) e->step_post_observe();
        c[4] = Clock::now();
        std::uint64_t due = 0;
        for (sim::Engine* e : active) {
          due += e->meta_control_due() && e->next_agent() != nullptr ? 1 : 0;
          e->step_post_meta();
        }
        c[5] = Clock::now();
        for (sim::Engine* e : active) e->step_post_finish();
        c[6] = Clock::now();
        // Ticks with no control point due only pay the meta call itself;
        // keeping them apart makes core.next_control_ns the decision cost.
        for (std::size_t p = 0; p <= kFinish; ++p) {
          const std::size_t bucket = p == kNextControl && due == 0 ? kMetaIdle : p;
          raw[bucket] += ns_between(c[p], c[p + 1]);
          ++laps[bucket];
        }
        out.control_points += due;
      }
      out.traced_engine_ticks += static_cast<double>(chunk * std::ssize(active));
    }
    traced = !traced;
    t += chunk;
  }
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    out.phase_ns[p] = raw[p] - static_cast<double>(laps[p]) * clock_lap_ns;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string bad = cells[i].verify ? cells[i].verify(*engines[i]) : std::string{};
    const std::lock_guard lock{m};
    checks.op(bad.empty(), "engine ledger replay: " + bad);
  }
  return out;
}

}  // namespace

void EngineLedger::merge(const EngineLedger& other) {
  for (std::size_t p = 0; p < kPhaseCount; ++p) phase_ns[p] += other.phase_ns[p];
  traced_engine_ticks += other.traced_engine_ticks;
  untraced_ns += other.untraced_ns;
  untraced_engine_ticks += other.untraced_engine_ticks;
  control_points += other.control_points;
  laps += other.laps;
}

EngineLedger run_engine_ledger(std::span<const LedgerCell> cells, std::size_t group,
                               std::size_t workers, double clock_lap_ns, double budget_s,
                               Checks& checks) {
  const std::size_t groups = (cells.size() + group - 1) / group;
  EngineLedger total;
  std::mutex m;
  const auto t0 = Clock::now();
  do {
    std::vector<EngineLedger> parts(groups);
    sim::run_indexed_tasks(groups, sim::resolve_workers(workers, groups), [&](std::size_t g) {
      const std::size_t begin = g * group;
      const std::size_t end = std::min(cells.size(), begin + group);
      try {
        parts[g] = replay_group(cells.subspan(begin, end - begin), clock_lap_ns, m, checks);
      } catch (const std::exception& e) {
        const std::lock_guard lock{m};
        checks.op(false, std::string{"engine ledger group threw: "} + e.what());
      }
    });
    for (const EngineLedger& part : parts) total.merge(part);
    ++total.laps;
  } while (seconds_since(t0) < budget_s);
  return total;
}

void report_engine_ledger(const EngineLedger& l, Report& report) {
  const double ticks = std::max(1.0, l.traced_engine_ticks);
  const double tick_ns = l.untraced_ns / std::max(1.0, l.untraced_engine_ticks);
  double layers_ns = 0.0;
  for (const double ns : l.phase_ns) layers_ns += ns / ticks;
  report.metric("engine.tick_ns", tick_ns, "ns");
  report.metric("workload.app_render_ns", l.phase_ns[kAppRender] / ticks, "ns");
  report.metric("soc.power_model_ns", l.phase_ns[kPowerModel] / ticks, "ns");
  report.metric("thermal.rc_step_ns", l.phase_ns[kThermal] / ticks, "ns");
  report.metric("governors.observe_ns", l.phase_ns[kObserve] / ticks, "ns");
  report.metric("sim.finish_ns", l.phase_ns[kFinish] / ticks, "ns");
  report.metric("core.next_control_ns",
                l.phase_ns[kNextControl] / std::max<double>(1.0, static_cast<double>(l.control_points)),
                "ns");
  report.metric("engine.ledger_coverage", layers_ns / tick_ns, "ratio");
  report.metric("core.control_points",
                static_cast<double>(l.control_points) / static_cast<double>(std::max<std::uint64_t>(1, l.laps)),
                "count");
  report.info["ledger.laps"] = static_cast<double>(l.laps);
  report.info["ledger.meta_idle_ns"] = l.phase_ns[kMetaIdle] / ticks;
  report.info["ledger.traced_engine_ticks"] = l.traced_engine_ticks;
  report.info["ledger.untraced_engine_ticks"] = l.untraced_engine_ticks;
  report.info["ledger.next_control_share"] =
      (l.phase_ns[kNextControl] + l.phase_ns[kMetaIdle]) / ticks / std::max(1e-9, tick_ns);
}

PassTiming timed_pass(std::size_t n, std::size_t workers,
                      const std::function<std::string(std::size_t)>& cell, Checks& checks) {
  PassTiming out;
  out.cell_ms.assign(n, 0.0);
  std::mutex m;
  const auto t0 = Clock::now();
  sim::run_indexed_tasks(n, sim::resolve_workers(workers, n), [&](std::size_t i) {
    const auto c0 = Clock::now();
    std::string bad;
    try {
      bad = cell(i);
    } catch (const std::exception& e) {
      bad = std::string{"cell threw: "} + e.what();
    }
    out.cell_ms[i] = seconds_since(c0) * 1e3;
    if (!bad.empty()) {
      const std::lock_guard lock{m};
      checks.fail(bad);
    }
  });
  out.wall_s = seconds_since(t0);
  checks.attempted += n;
  return out;
}

SyncRound sync_round(std::span<const rl::QTable* const> tables, std::span<const double> staleness,
                     const rl::QTable* base,
                     const std::function<std::uint64_t(const rl::QTable&)>& persist,
                     Checks& checks) {
  SyncRound out;
  std::vector<rl::QTable> decoded;
  decoded.reserve(tables.size());
  const auto start = Clock::now();
  for (const rl::QTable* table : tables) {
    auto t0 = Clock::now();
    bool went_delta = false;
    std::vector<std::uint8_t> blob = sim::encode_upload(*table, base, &went_delta);
    auto t1 = Clock::now();
    decoded.push_back(sim::decode_upload(std::move(blob), base, "nxbench upload"));
    const auto t2 = Clock::now();
    out.encode_s += std::chrono::duration<double>(t1 - t0).count();
    out.decode_s += std::chrono::duration<double>(t2 - t1).count();
    ++out.uploads;
    out.delta_uploads += went_delta ? 1 : 0;
  }
  auto t0 = Clock::now();
  const rl::QTable merged = rl::merge_q_tables(tables, staleness);
  auto t1 = Clock::now();
  const std::uint64_t written = persist(merged);
  const auto t2 = Clock::now();
  out.merge_s = std::chrono::duration<double>(t1 - t0).count();
  out.ring_s = std::chrono::duration<double>(t2 - t1).count();
  out.whole_s = std::chrono::duration<double>(t2 - start).count();
  out.ring_kb = static_cast<double>(written) / 1024.0;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    checks.op(decoded[i] == *tables[i], "upload did not decode to the sent table");
  }
  checks.op(table_violation(merged).empty(), "merged table: " + table_violation(merged));
  return out;
}

void report_runner(const std::vector<PassTiming>& passes, std::size_t workers, Report& report) {
  std::vector<double> cells;
  std::vector<double> walls;
  double busy_ms = 0.0;
  double capacity_ms = 0.0;
  for (const PassTiming& p : passes) {
    cells.insert(cells.end(), p.cell_ms.begin(), p.cell_ms.end());
    walls.push_back(p.wall_s * 1e3);
    for (const double ms : p.cell_ms) busy_ms += ms;
    capacity_ms += p.wall_s * 1e3 *
                   static_cast<double>(sim::resolve_workers(workers, p.cell_ms.size()));
  }
  report.metric("runner.cell_ms_p50", pct(cells, 50.0), "ms");
  report.metric("runner.cell_ms_p90", pct(cells, 90.0), "ms");
  report.metric("runner.busy_share", capacity_ms > 0.0 ? busy_ms / capacity_ms : 0.0, "ratio");
  report.metric("runner.plan_ms", median(walls), "ms");
  report.info["runner.cells"] = static_cast<double>(cells.size());
  report.info["runner.passes"] = static_cast<double>(passes.size());
}

}  // namespace nxbench
