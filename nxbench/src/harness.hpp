// harness.hpp - shared plumbing of the nxbench binary: arguments, the
// report every run prints, timing and order statistics, result
// fingerprints and the physical-invariant checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "rl/qtable.hpp"
#include "sim/experiment.hpp"

namespace nxbench {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Directory the run may write temporary files into (fleet snapshot
  /// ring, sync-ledger snapshots); created by the caller.
  std::string scratch{".nxbench_out/tmp"};
};

/// Seed whose full-workload fingerprints are pinned in nxbench/pinned.json.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// min(4, hardware threads): the load of every workload.
[[nodiscard]] std::size_t bench_workers();

/// Benchmark operations attempted and failed. A failed operation is an
/// exception or a failed output check; `errors` keeps the first few
/// messages for the result file.
struct Checks {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;

  /// Counts one attempted operation, failed when `ok` is false.
  void op(bool ok, const std::string& what);
  /// Records a failed check inside an operation already counted.
  void fail(const std::string& what);
};

struct Metric {
  double value{0.0};
  std::string unit;
};

/// Everything one run reports. `metrics` holds the gated end-to-end or
/// per-layer metrics (which set depends on --trace), `outcomes` the
/// simulated results, `info` sample counts and calibration, and
/// `fingerprints` the canonical-result hashes run.py checks against the
/// pinned values.
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> outcomes;
  std::map<std::string, double> info;
  std::map<std::string, std::string> fingerprints;
  Checks checks;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void outcome(const std::string& name, double value, const std::string& unit) {
    outcomes[name] = Metric{value, unit};
  }
  /// One-line JSON object (run.py parses it).
  [[nodiscard]] std::string to_json() const;
};

// --- timing ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median / linear-interpolated percentile (p in [0,100]) of a sample.
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double pct(std::vector<double> values, double p);

/// Mean cost of one steady_clock lap (two back-to-back reads), in ns. The
/// traced run subtracts it from every phase lap it times.
[[nodiscard]] double calibrate_clock_lap_ns();

/// What one set-up call produced: the fingerprint of its canonical result
/// and its first failed check ("" when sound).
struct SetupOutcome {
  std::string fingerprint;
  std::string violation;
};

/// Times set-up: each round() runs `setup(slot)` for slots 0..slots-1 on
/// that many threads at once. Untraced runs call round() at the start and
/// after every second timed pass, so median_s() samples the host's speed
/// over the whole run like the other metrics, and one slow call or busy
/// core does not move it. Every call counts as one operation in `checks`: it
/// fails on a violation or on a fingerprint different from the first
/// call's, which is stored in `fingerprint`.
class SetupTimer {
 public:
  SetupTimer(std::size_t slots, std::function<SetupOutcome(std::size_t)> setup, Checks& checks,
             std::string& fingerprint)
      : slots_{slots}, setup_{std::move(setup)}, checks_{checks}, fingerprint_{fingerprint} {}

  void round();
  [[nodiscard]] double median_s() const { return median(walls_); }

 private:
  std::size_t slots_;
  std::function<SetupOutcome(std::size_t)> setup_;
  Checks& checks_;
  std::string& fingerprint_;
  std::vector<double> walls_;
};

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

// --- fingerprints ----------------------------------------------------------

/// FNV-1a over bit patterns: equal results hash equal, any bit that moves
/// changes the hash.
class Fingerprint {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  void session(const nextgov::sim::SessionResult& r);
  void table(const nextgov::rl::QTable& t);
  /// Every field of a TrainingResult except wall_seconds (host time).
  void training(const nextgov::sim::TrainingResult& r);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

// --- output checks ---------------------------------------------------------

/// Physical invariants of one session: no NaN anywhere, FPS <= refresh,
/// temperatures >= ambient, energy == sum(power x step) and the recorded
/// series covering the session. Returns the first violation, or "".
[[nodiscard]] std::string session_violation(const nextgov::sim::SessionResult& r,
                                            double refresh_hz, double ambient_c);

/// Sanity of a trained cell: finite reward and Q values, the budget fully
/// trained, states_visited matching the table. Returns "" when sound.
[[nodiscard]] std::string training_violation(const nextgov::sim::TrainingResult& r,
                                             double budget_s);

/// First non-finite Q value or visit/size mismatch in a table, or "".
[[nodiscard]] std::string table_violation(const nextgov::rl::QTable& t);

}  // namespace nxbench
