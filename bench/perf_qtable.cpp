// perf_qtable - Q-table storage and wire-format tracking for the repo's
// perf trajectory: the numbers behind the flat open-addressing QTable
// backend and the delta-encoded fleet uploads.
//
// Measures, and writes to bench_out/BENCH_qtable.json:
//
//   1. lookup and update ns/op for the flat SoA table vs an in-bench
//      replica of the old unordered_map-of-structs backend, over a
//      realistic mixed hit/miss key stream. Regression gate: the bench
//      exits nonzero if the flat table loses to the baseline on either
//      path (target ratio >= 1.5x on both);
//   2. resident bytes/state: QTable::memory_bytes() of an online-grown and
//      of a decoded table vs the node-allocated baseline's (analytic)
//      footprint;
//   3. fleet upload wire bytes at the 64-device / 8-shard shape: the same
//      train_fleet run with full uploads and with delta_uploads on, which
//      must produce bit-identical global tables (hard gate) while the
//      steady-state (last-round) delta bytes come in >= 5x smaller than
//      the full-table bytes (gated outside --smoke);
//   4. quantized wire sizes of the final global table (f32 / f16 / q8)
//      with the f32 mode's exact-round-trip gate and the lossy modes' max
//      absolute Q error.
//
// `--smoke` shrinks the key counts and the fleet shape so CI can run it on
// every PR; the perf gates relax to "must not lose" (>= 1.0x) and the 5x
// upload gate is skipped (a 2-round smoke fleet has no steady state), but
// the bit-identity gates stay hard.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "rl/qtable.hpp"
#include "rl/qtable_delta.hpp"
#include "sim/fleet.hpp"
#include "workload/apps.hpp"

namespace {

using namespace nextgov;

/// The seed backend this PR replaced, reconstructed locally so the bench
/// keeps an honest baseline after the real one is gone: one heap node per
/// state holding a q vector, visits and the tried mask, behind
/// std::unordered_map's bucket array.
class NodeQTable {
 public:
  explicit NodeQTable(std::size_t action_count, double default_q = 0.0)
      : actions_{action_count}, default_q_{default_q} {}

  double q(rl::StateKey s, std::size_t a) const noexcept {
    const auto it = states_.find(s);
    return it == states_.end() ? default_q_ : static_cast<double>(it->second.q[a]);
  }

  void set_q(rl::StateKey s, std::size_t a, double value) {
    Entry& e = touch(s);
    e.q[a] = static_cast<float>(value);
    e.tried |= std::uint32_t{1} << a;
  }

  double max_q(rl::StateKey s) const noexcept {
    const auto it = states_.find(s);
    if (it == states_.end()) return default_q_;
    float best = it->second.q[0];
    for (std::size_t a = 1; a < actions_; ++a) best = std::max(best, it->second.q[a]);
    return static_cast<double>(best);
  }

  void record_visit(rl::StateKey s) { ++touch(s).visits; }

  std::size_t state_count() const noexcept { return states_.size(); }

 private:
  struct Entry {
    std::vector<float> q;
    std::uint64_t visits{0};
    std::uint32_t tried{0};
  };

  Entry& touch(rl::StateKey s) {
    auto [it, inserted] = states_.try_emplace(s);
    if (inserted) it->second.q.assign(actions_, static_cast<float>(default_q_));
    return it->second;
  }

  std::size_t actions_;
  double default_q_;
  std::unordered_map<rl::StateKey, Entry> states_;
};

/// SplitMix64 - the same generator the table's hash mixes with, used here
/// only to synthesize a deterministic key stream.
std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// ns per op, best of `reps` timed passes (best-of suppresses scheduler
/// noise better than the mean for sub-microsecond ops).
template <typename Fn>
double best_ns_per_op(int reps, std::size_t ops, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    best = std::min(best, bench::wall_seconds(fn));
  }
  return 1e9 * best / static_cast<double>(ops);
}

std::vector<std::uint8_t> canonical_bytes(const rl::QTable& table) {
  ByteWriter out;
  table.serialize(out);
  return out.data();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nextgov::bench;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header("perf", smoke ? "Q-table storage + upload wire format (smoke mode)"
                             : "Q-table storage + upload wire format");

  // --- 1. flat vs node-allocated micro-benchmark ---------------------------
  // Shapes follow training, where the table is hot: a session visits a few
  // thousand to a few tens of thousands of quantized states (Fig. 6; the
  // 64-device fleet global below lands around 20k), and every decision
  // re-reads states its own trajectory just wrote.
  const std::size_t actions = 16;
  const std::size_t n_states = smoke ? (1u << 13) : (1u << 15);
  const std::size_t n_lookups = smoke ? 4 * n_states : 16 * n_states;
  const int reps = smoke ? 3 : 5;

  std::uint64_t key_rng = 0xD45;
  std::vector<rl::StateKey> keys(n_states);
  for (auto& k : keys) k = rl::StateKey{mix64(key_rng)};

  rl::QTable flat{actions, 25.0};
  NodeQTable node{actions, 25.0};
  for (std::size_t i = 0; i < n_states; ++i) {
    const std::size_t a = i % actions;
    flat.set_q(keys[i], a, static_cast<double>(i % 97));
    flat.record_visit(keys[i]);
    node.set_q(keys[i], a, static_cast<double>(i % 97));
    node.record_visit(keys[i]);
  }

  // The training lookup mix, fixed up front so both tables walk the exact
  // same keys in the exact same order: each Q-learning step reads
  // Q(s, a) for the state it is updating and max_a Q(s', a) for the
  // bootstrap target - both table hits once the trajectory has passed
  // through - plus the occasional probe of a never-visited state (1 in 8).
  std::uint64_t stream_rng = 0xBEEF;
  std::vector<rl::StateKey> stream(n_lookups);
  for (std::size_t i = 0; i < n_lookups; ++i) {
    stream[i] = (i % 8 == 7) ? rl::StateKey{mix64(stream_rng)}
                             : keys[mix64(stream_rng) % n_states];
  }

  volatile double sink = 0.0;
  const double flat_lookup_ns = best_ns_per_op(reps, n_lookups, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < n_lookups; ++i) {
      acc += (i % 2 == 0) ? flat.q(stream[i], i % actions) : flat.max_q(stream[i]);
    }
    sink = acc;
  });
  const double node_lookup_ns = best_ns_per_op(reps, n_lookups, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < n_lookups; ++i) {
      acc += (i % 2 == 0) ? node.q(stream[i], i % actions) : node.max_q(stream[i]);
    }
    sink = acc;
  });

  // Update path: the Q-learning inner loop (set_q + record_visit) over
  // existing states - steady-state training, no growth in the timed region.
  const std::size_t n_updates = n_lookups;
  const double flat_update_ns = best_ns_per_op(reps, n_updates, [&] {
    for (std::size_t i = 0; i < n_updates; ++i) {
      const rl::StateKey s = keys[i % n_states];
      flat.set_q(s, i % actions, static_cast<double>(i & 63));
      flat.record_visit(s);
    }
  });
  const double node_update_ns = best_ns_per_op(reps, n_updates, [&] {
    for (std::size_t i = 0; i < n_updates; ++i) {
      const rl::StateKey s = keys[i % n_states];
      node.set_q(s, i % actions, static_cast<double>(i & 63));
      node.record_visit(s);
    }
  });

  const double lookup_ratio = flat_lookup_ns > 0.0 ? node_lookup_ns / flat_lookup_ns : 0.0;
  const double update_ratio = flat_update_ns > 0.0 ? node_update_ns / flat_update_ns : 0.0;
  const double micro_gate = smoke ? 1.0 : 1.5;
  const bool micro_ok = lookup_ratio >= micro_gate && update_ratio >= micro_gate;
  std::printf("  lookup: flat %6.1f ns  node %6.1f ns  (%.2fx)\n", flat_lookup_ns,
              node_lookup_ns, lookup_ratio);
  std::printf("  update: flat %6.1f ns  node %6.1f ns  (%.2fx)  [gate >= %.1fx: %s]\n",
              flat_update_ns, node_update_ns, update_ratio, micro_gate,
              micro_ok ? "ok" : "FAIL");

  // --- 2. resident bytes per state -----------------------------------------
  // Flat: measured, for the table grown online above and for the same table
  // decoded from its canonical bytes (a bulk build that reserves its exact
  // row count). Node baseline: analytic - hash node (pair + next pointer,
  // allocator-rounded) + the q vector's own heap block + the bucket array
  // at load factor 1.
  const auto bytes_per_state = [](const rl::QTable& t) {
    return static_cast<double>(t.memory_bytes()) / static_cast<double>(t.state_count());
  };
  const double flat_bytes_per_state = bytes_per_state(flat);
  ByteWriter flat_wire;
  flat.serialize(flat_wire);
  ByteReader flat_in{flat_wire.data()};
  const double decoded_bytes_per_state = bytes_per_state(rl::QTable::deserialize(flat_in));
  const std::size_t node_payload = sizeof(rl::StateKey) + sizeof(std::vector<float>) +
                                   sizeof(std::uint64_t) + sizeof(std::uint32_t);
  const double node_bytes_per_state =
      static_cast<double>(((node_payload + 8 + 15) / 16) * 16  // node, 16-byte malloc rounding
                          + ((actions * sizeof(float) + 15) / 16) * 16 + 16  // q heap block
                          + sizeof(void*));                                  // bucket slot
  std::printf("  memory: flat %.1f bytes/state online, %.1f decoded (measured)  "
              "node ~%.1f bytes/state (analytic)\n",
              flat_bytes_per_state, decoded_bytes_per_state, node_bytes_per_state);

  // --- 3. fleet upload wire bytes (64-device shape) ------------------------
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  sim::FleetOptions fleet;
  fleet.devices = smoke ? 8 : 64;
  fleet.shards = smoke ? 4 : 8;
  fleet.rounds = smoke ? 2 : 4;
  fleet.sync_spread = 1;  // every shard syncs every round: steady-state deltas
  fleet.round_duration = SimTime::from_seconds(smoke ? 30.0 : 90.0);
  fleet.episode_length = SimTime::from_seconds(15.0);
  fleet.base_seed = 616;
  const sim::RunnerOptions runner{.workers = hw};

  std::vector<sim::FleetRoundStats> full_rounds;
  std::vector<sim::FleetRoundStats> delta_rounds;
  const sim::FleetResult full_run = sim::train_fleet(
      workload::AppId::kLineage, fleet, runner,
      [&](const sim::FleetRoundStats& rs) { full_rounds.push_back(rs); });
  sim::FleetOptions delta_fleet = fleet;
  delta_fleet.delta_uploads = true;
  const sim::FleetResult delta_run = sim::train_fleet(
      workload::AppId::kLineage, delta_fleet, runner,
      [&](const sim::FleetRoundStats& rs) { delta_rounds.push_back(rs); });

  const bool fleet_identical =
      canonical_bytes(full_run.global) == canonical_bytes(delta_run.global);
  const std::uint64_t full_last = full_rounds.back().upload_bytes;
  const std::uint64_t delta_last = delta_rounds.back().upload_bytes;
  const double upload_ratio =
      delta_last > 0 ? static_cast<double>(full_last) / static_cast<double>(delta_last) : 0.0;
  const double upload_gate = 5.0;
  const bool upload_ok = fleet_identical && (smoke || upload_ratio >= upload_gate);
  std::printf("  fleet (%zu devices / %zu shards, round %zu): full %llu B  delta %llu B "
              "(%.1fx smaller)  tables %s\n",
              fleet.devices, fleet.shards, full_rounds.back().round,
              static_cast<unsigned long long>(full_last),
              static_cast<unsigned long long>(delta_last), upload_ratio,
              fleet_identical ? "bit-identical" : "DIVERGED");
  if (!smoke && upload_ratio < upload_gate) {
    std::printf("  upload gate FAILED: steady-state deltas must be >= %.1fx smaller\n",
                upload_gate);
  }

  // --- 4. quantized wire sizes ---------------------------------------------
  const rl::QTable& global = full_run.global;
  const auto quant_bytes = [&](rl::WireQuant mode) {
    ByteWriter out;
    rl::serialize_quantized(global, mode, out);
    return out.data();
  };
  const std::vector<std::uint8_t> f32_bytes = quant_bytes(rl::WireQuant::kF32);
  const std::vector<std::uint8_t> f16_bytes = quant_bytes(rl::WireQuant::kF16);
  const std::vector<std::uint8_t> q8_bytes = quant_bytes(rl::WireQuant::kQ8);

  const auto max_abs_err = [&](const std::vector<std::uint8_t>& blob) {
    ByteReader in{blob};
    const rl::QTable back = rl::deserialize_quantized(in);
    double worst = 0.0;
    global.for_each_entry([&](const rl::QTable::EntryView& e) {
      for (std::size_t a = 0; a < global.action_count(); ++a) {
        worst = std::max(worst, std::abs(e.q(a) - back.q(e.key(), a)));
      }
    });
    return worst;
  };
  ByteReader f32_in{f32_bytes};
  const bool f32_exact = rl::deserialize_quantized(f32_in) == global;
  const double f16_err = max_abs_err(f16_bytes);
  const double q8_err = max_abs_err(q8_bytes);
  std::printf("  quantized (%zu states): f32 %zu B (%s)  f16 %zu B (err %.3g)  "
              "q8 %zu B (err %.3g)\n",
              global.state_count(), f32_bytes.size(),
              f32_exact ? "exact" : "ROUND-TRIP DIVERGED", f16_bytes.size(), f16_err,
              q8_bytes.size(), q8_err);

  // --- JSON trajectory file ------------------------------------------------
  const std::string path = out_dir() + "/BENCH_qtable.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"perf_qtable\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"micro\": {\n");
  std::fprintf(out, "    \"actions\": %zu,\n", actions);
  std::fprintf(out, "    \"states\": %zu,\n", n_states);
  std::fprintf(out, "    \"lookup_ns_flat\": %.2f,\n", flat_lookup_ns);
  std::fprintf(out, "    \"lookup_ns_unordered_map\": %.2f,\n", node_lookup_ns);
  std::fprintf(out, "    \"lookup_speedup\": %.3f,\n", lookup_ratio);
  std::fprintf(out, "    \"update_ns_flat\": %.2f,\n", flat_update_ns);
  std::fprintf(out, "    \"update_ns_unordered_map\": %.2f,\n", node_update_ns);
  std::fprintf(out, "    \"update_speedup\": %.3f,\n", update_ratio);
  std::fprintf(out, "    \"gate_min_speedup\": %.1f,\n", micro_gate);
  std::fprintf(out, "    \"gate_passed\": %s\n", micro_ok ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"memory\": {\n");
  std::fprintf(out, "    \"flat_bytes_per_state\": %.1f,\n", flat_bytes_per_state);
  std::fprintf(out, "    \"decoded_bytes_per_state\": %.1f,\n", decoded_bytes_per_state);
  std::fprintf(out, "    \"unordered_map_bytes_per_state_estimate\": %.1f\n",
               node_bytes_per_state);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"fleet_uploads\": {\n");
  std::fprintf(out, "    \"devices\": %zu,\n", fleet.devices);
  std::fprintf(out, "    \"shards\": %zu,\n", fleet.shards);
  std::fprintf(out, "    \"rounds\": %zu,\n", fleet.rounds);
  std::fprintf(out, "    \"full_total_bytes\": %llu,\n",
               static_cast<unsigned long long>(full_run.upload_bytes_full));
  std::fprintf(out, "    \"delta_run_full_bytes\": %llu,\n",
               static_cast<unsigned long long>(delta_run.upload_bytes_full));
  std::fprintf(out, "    \"delta_run_delta_bytes\": %llu,\n",
               static_cast<unsigned long long>(delta_run.upload_bytes_delta));
  std::fprintf(out, "    \"delta_run_delta_uploads\": %zu,\n", delta_run.uploads_delta);
  std::fprintf(out, "    \"last_round_full_bytes\": %llu,\n",
               static_cast<unsigned long long>(full_last));
  std::fprintf(out, "    \"last_round_delta_bytes\": %llu,\n",
               static_cast<unsigned long long>(delta_last));
  std::fprintf(out, "    \"steady_state_shrink\": %.2f,\n", upload_ratio);
  if (smoke) {
    std::fprintf(out, "    \"gate\": \"bit-identity only (smoke)\",\n");
  } else {
    std::fprintf(out, "    \"gate_min_shrink\": %.1f,\n", upload_gate);
  }
  std::fprintf(out, "    \"bit_identical\": %s\n", fleet_identical ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"quantized\": {\n");
  std::fprintf(out, "    \"states\": %zu,\n", global.state_count());
  std::fprintf(out, "    \"f32_bytes\": %zu,\n", f32_bytes.size());
  std::fprintf(out, "    \"f32_roundtrip_exact\": %s,\n", f32_exact ? "true" : "false");
  std::fprintf(out, "    \"f16_bytes\": %zu,\n", f16_bytes.size());
  std::fprintf(out, "    \"f16_max_abs_err\": %.6g,\n", f16_err);
  std::fprintf(out, "    \"q8_bytes\": %zu,\n", q8_bytes.size());
  std::fprintf(out, "    \"q8_max_abs_err\": %.6g\n", q8_err);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("  -> %s\n\n", path.c_str());

  const bool ok = micro_ok && upload_ok && f32_exact;
  if (!ok) std::printf("  GATES FAILED\n");
  return ok ? 0 : 1;
}
