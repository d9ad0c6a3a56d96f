#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "sim/runner.hpp"

namespace nxbench {

using namespace nextgov;

std::size_t bench_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hw == 0 ? 1 : hw);
}

void Checks::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

void Checks::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ",";
    out += json_string(name) + ":{\"value\":" + json_number(metric.value) +
           ",\"unit\":" + json_string(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"attempted\":" + std::to_string(checks.attempted) +
                    ",\"failed\":" + std::to_string(checks.failed) +
                    ",\"metrics\":" + json_metrics(metrics) +
                    ",\"outcomes\":" + json_metrics(outcomes) + ",\"info\":{";
  bool first = true;
  for (const auto& [name, v] : info) {
    out += (first ? "" : ",") + json_string(name) + ":" + json_number(v);
    first = false;
  }
  out += "},\"fingerprints\":{";
  first = true;
  for (const auto& [name, v] : fingerprints) {
    out += (first ? "" : ",") + json_string(name) + ":" + json_string(v);
    first = false;
  }
  out += "},\"errors\":[";
  for (std::size_t i = 0; i < checks.errors.size(); ++i) {
    out += (i ? "," : "") + json_string(checks.errors[i]);
  }
  out += "],\"build\":{\"compiler\":" + json_string(NXBENCH_COMPILER) +
         ",\"flags\":" + json_string(NXBENCH_FLAGS) + "}}";
  return out;
}

double median(std::vector<double> values) { return pct(std::move(values), 50.0); }

double pct(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  return percentile(values, p);
}

double calibrate_clock_lap_ns() {
  // Median of many batches of back-to-back laps: robust to the odd
  // preemption, and the same two-read pattern every traced phase lap has.
  constexpr int kBatches = 64;
  constexpr int kLaps = 2048;
  std::vector<double> per_lap;
  per_lap.reserve(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    double sum = 0.0;
    for (int i = 0; i < kLaps; ++i) {
      const auto t0 = Clock::now();
      const auto t1 = Clock::now();
      sum += std::chrono::duration<double, std::nano>(t1 - t0).count();
    }
    per_lap.push_back(sum / kLaps);
  }
  return median(per_lap);
}

void SetupTimer::round() {
  std::vector<double> wall(slots_, 0.0);
  std::vector<SetupOutcome> out(slots_);
  sim::run_indexed_tasks(slots_, slots_, [&](std::size_t slot) {
    const auto t0 = Clock::now();
    out[slot] = setup_(slot);
    wall[slot] = seconds_since(t0);
  });
  for (std::size_t slot = 0; slot < slots_; ++slot) {
    if (walls_.empty() && slot == 0) fingerprint_ = out[0].fingerprint;
    checks_.op(out[slot].violation.empty() && out[slot].fingerprint == fingerprint_,
               out[slot].violation.empty() ? "set-up is not deterministic"
                                           : "set-up: " + out[slot].violation);
  }
  walls_.insert(walls_.end(), wall.begin(), wall.end());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Fingerprint::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::session(const sim::SessionResult& r) {
  str(r.app);
  str(r.governor);
  for (const double v : {r.duration_s, r.avg_power_w, r.peak_power_w, r.avg_temp_big_c,
                         r.peak_temp_big_c, r.avg_temp_device_c, r.peak_temp_device_c,
                         r.avg_fps, r.energy_j, r.avg_ppdw}) {
    f64(v);
  }
  u64(static_cast<std::uint64_t>(r.frames_presented));
  u64(static_cast<std::uint64_t>(r.frames_dropped));
  u64(r.series.size());
  if (!r.series.empty()) bytes(r.series.data(), r.series.size() * sizeof(sim::Sample));
}

void Fingerprint::table(const rl::QTable& t) {
  ByteWriter w;
  t.serialize(w);
  u64(w.size());
  bytes(w.data().data(), w.size());
}

void Fingerprint::training(const sim::TrainingResult& r) {
  table(r.table);
  u64(r.converged ? 1 : 0);
  f64(r.sim_seconds);
  u64(r.decisions);
  f64(r.final_mean_reward);
  u64(r.states_visited);
}

std::string Fingerprint::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

static_assert(sizeof(sim::Sample) % sizeof(double) == 0, "Sample is all-double");

namespace {

// Tolerances: the checks compare values the engine accumulates two ways
// (running mean vs running sum), so only rounding separates them.
constexpr double kRelTol = 1e-6;
constexpr double kAbsTol = 1e-9;

std::string describe(const sim::SessionResult& r, const char* what, double got, double limit) {
  std::ostringstream os;
  os << r.app << "/" << r.governor << ": " << what << " (" << got << " vs " << limit << ")";
  return os.str();
}

}  // namespace

std::string session_violation(const sim::SessionResult& r, double refresh_hz,
                              double ambient_c) {
  for (const double v : {r.duration_s, r.avg_power_w, r.peak_power_w, r.avg_temp_big_c,
                         r.peak_temp_big_c, r.avg_temp_device_c, r.peak_temp_device_c,
                         r.avg_fps, r.energy_j, r.avg_ppdw}) {
    if (!std::isfinite(v)) return describe(r, "non-finite summary field", v, 0.0);
  }
  if (r.duration_s <= 0.0) return describe(r, "empty session", r.duration_s, 0.0);
  if (r.avg_fps > refresh_hz + kAbsTol) return describe(r, "avg FPS above refresh", r.avg_fps, refresh_hz);
  for (const double t : {r.avg_temp_big_c, r.peak_temp_big_c, r.avg_temp_device_c,
                         r.peak_temp_device_c}) {
    if (t < ambient_c - kAbsTol) return describe(r, "temperature below ambient", t, ambient_c);
  }
  const double energy = r.avg_power_w * r.duration_s;
  if (std::abs(r.energy_j - energy) > kRelTol * std::max(1.0, std::abs(energy))) {
    return describe(r, "energy != sum(power x step)", r.energy_j, energy);
  }
  if (r.series.empty()) return describe(r, "empty recorded series", 0.0, 1.0);
  for (const sim::Sample& s : r.series) {
    double fields[sizeof(sim::Sample) / sizeof(double)];
    std::memcpy(fields, &s, sizeof fields);
    for (const double v : fields) {
      if (!std::isfinite(v)) return describe(r, "non-finite sample", v, s.time_s);
    }
    if (s.fps > refresh_hz + kAbsTol) return describe(r, "sample FPS above refresh", s.fps, refresh_hz);
    for (const double t :
         {s.temp_big_c, s.temp_little_c, s.temp_gpu_c, s.temp_device_c, s.temp_skin_c}) {
      if (t < ambient_c - kAbsTol) return describe(r, "sample temperature below ambient", t, ambient_c);
    }
    if (s.power_w <= 0.0) return describe(r, "non-positive sample power", s.power_w, 0.0);
  }
  return {};
}

std::string table_violation(const rl::QTable& t) {
  std::string bad;
  std::uint64_t visits = 0;
  std::size_t states = 0;
  t.for_each_entry([&](const rl::QTable::EntryView& e) {
    ++states;
    visits += e.visits();
    for (std::size_t a = 0; a < t.action_count() && bad.empty(); ++a) {
      if (!std::isfinite(e.q(a))) bad = "non-finite Q value in state " + std::to_string(e.key());
    }
  });
  if (!bad.empty()) return bad;
  if (states != t.state_count()) return "table iterates a different state count than it reports";
  if (visits != t.total_visits()) return "table visit counts do not sum to total_visits";
  return {};
}

std::string training_violation(const sim::TrainingResult& r, double budget_s) {
  if (!std::isfinite(r.final_mean_reward)) return "non-finite final mean reward";
  if (std::abs(r.sim_seconds - budget_s) > 1e-9) {
    return "trained " + std::to_string(r.sim_seconds) + " s of a " + std::to_string(budget_s) +
           " s budget";
  }
  if (r.states_visited != r.table.state_count()) return "states_visited != table state count";
  if (r.decisions == 0) return "no decisions";
  return table_violation(r.table);
}

}  // namespace nxbench
