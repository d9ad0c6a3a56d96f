#include "rl/federated.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/task_pool.hpp"

namespace nextgov::rl {

namespace {

using Entries = std::vector<QTable::EntryView>;

/// One key range's merged states, buffered for in-order installation.
struct RangeRows {
  std::vector<StateKey> keys;
  std::vector<std::uint64_t> visits;
  std::vector<std::uint32_t> tried;
  std::vector<float> q;  ///< actions values per state, row-major
};

/// The k-way merge over the sorted runs entries[ti][cursor[ti], end[ti]):
/// visits every distinct state of that key range once, in ascending key
/// order, and appends it to `out`. Each state adds the tables'
/// contributions in table order - the same summation order (hence the same
/// bits) as accumulating table by table. No hash map and no per-state
/// allocation: the accumulators are reused from state to state.
void merge_range(const std::vector<Entries>& entries, std::vector<std::size_t> cursor,
                 const std::vector<std::size_t>& end, std::span<const double> table_weight,
                 std::size_t actions, RangeRows& out) {
  const std::uint32_t lanes = actions >= 32 ? ~0u : (1u << actions) - 1;  // tried-mask bits in use
  std::vector<double> weighted_q(actions);
  std::vector<double> weight(actions);
  std::vector<float> row(actions);
  for (;;) {
    bool any = false;
    StateKey key = 0;
    for (std::size_t ti = 0; ti < entries.size(); ++ti) {
      if (cursor[ti] == end[ti]) continue;
      const StateKey k = entries[ti][cursor[ti]].key();
      if (!any || k < key) key = k;
      any = true;
    }
    if (!any) break;

    std::fill(weighted_q.begin(), weighted_q.end(), 0.0);
    std::fill(weight.begin(), weight.end(), 0.0);
    double visits = 0.0;
    for (std::size_t ti = 0; ti < entries.size(); ++ti) {
      if (cursor[ti] == end[ti] || entries[ti][cursor[ti]].key() != key) continue;
      const QTable::EntryView& e = entries[ti][cursor[ti]++];
      const double tw = table_weight[ti];
      // Only actions a device actually *tried* contribute - untried
      // entries still carry the optimistic initialization value and must
      // not pollute the average. Visit count + 1 so tables with zero
      // recorded visits still count.
      const double w = tw * (static_cast<double>(e.visits()) + 1.0);
      for (std::uint32_t m = e.tried() & lanes; m != 0; m &= m - 1) {
        const auto a = static_cast<std::size_t>(std::countr_zero(m));
        weighted_q[a] += w * static_cast<double>(e.q(a));
        weight[a] += w;
      }
      visits += tw * static_cast<double>(e.visits());
    }

    std::uint32_t tried = 0;
    for (std::size_t a = 0; a < actions; ++a) {
      row[a] = 0.0f;  // merged's default_q for actions no device tried
      if (weight[a] > 0.0) {
        row[a] = static_cast<float>(weighted_q[a] / weight[a]);
        tried |= 1u << a;
      }
    }
    // Staleness-discounted visit mass rounds to the nearest count, so the
    // merged table's own weight in later (hierarchical) merges reflects
    // how much *fresh* experience actually backs it.
    out.keys.push_back(key);
    out.visits.push_back(static_cast<std::uint64_t>(std::llround(visits)));
    out.tried.push_back(tried);
    out.q.insert(out.q.end(), row.begin(), row.end());
  }
}

/// Shared FedAvg core: visit-weighted averaging with an extra per-table
/// weight multiplier (1.0 for every table = the plain merge).
QTable merge_impl(std::span<const QTable* const> tables, std::span<const double> table_weight,
                  std::size_t workers) {
  require(!tables.empty(), "merge_q_tables needs at least one table");
  const std::size_t actions = tables.front()->action_count();
  for (const QTable* t : tables) {
    require(t != nullptr, "merge_q_tables: null table");
    require(t->action_count() == actions, "merge_q_tables: action count mismatch");
  }

  // Each table's entries in ascending key order, one table per task.
  std::vector<Entries> entries(tables.size());
  run_indexed_tasks(tables.size(), resolve_workers(workers, tables.size()), [&](std::size_t ti) {
    entries[ti].reserve(tables[ti]->state_count());
    tables[ti]->for_each_entry([&](const QTable::EntryView& e) { entries[ti].push_back(e); });
  });

  // Contiguous key ranges, one per worker, cut at the largest table's
  // quantiles (fleet tables share most of their states, so its keys track
  // everyone's). Range j holds the keys in [split[j - 1], split[j]); every
  // state lands in exactly one range and goes through the same per-state
  // arithmetic whatever the range count.
  const Entries& largest = *std::max_element(
      entries.begin(), entries.end(),
      [](const Entries& a, const Entries& b) { return a.size() < b.size(); });
  const std::size_t ranges = std::max<std::size_t>(1, resolve_workers(workers, largest.size()));
  std::vector<StateKey> split(ranges - 1);
  for (std::size_t j = 1; j < ranges; ++j) split[j - 1] = largest[j * largest.size() / ranges].key();
  // Each table's cursor at the start of range j (j == ranges: its end).
  const auto bounds = [&](std::size_t j) {
    std::vector<std::size_t> at(entries.size());
    for (std::size_t ti = 0; ti < entries.size(); ++ti) {
      const Entries& e = entries[ti];
      at[ti] = j == 0        ? 0
               : j == ranges ? e.size()
                             : static_cast<std::size_t>(
                                   std::lower_bound(e.begin(), e.end(), split[j - 1],
                                                    [](const QTable::EntryView& v, StateKey k) {
                                                      return v.key() < k;
                                                    }) -
                                   e.begin());
    }
    return at;
  };

  std::vector<RangeRows> rows(ranges);
  run_indexed_tasks(ranges, ranges, [&](std::size_t j) {
    merge_range(entries, bounds(j), bounds(j + 1), table_weight, actions, rows[j]);
  });
  // Installing range after range, in key order, keeps the insertion
  // sequence - hence the hash layout - of a single-range merge.
  QTable merged{actions};
  std::size_t states = 0;
  for (const RangeRows& r : rows) states += r.keys.size();
  merged.reserve(states);
  for (const RangeRows& r : rows) {
    for (std::size_t i = 0; i < r.keys.size(); ++i) {
      merged.install_entry(r.keys[i], r.visits[i], r.tried[i],
                           std::span<const float>{r.q.data() + i * actions, actions});
    }
  }
  return merged;
}

}  // namespace

QTable merge_q_tables(std::span<const QTable* const> tables, std::size_t workers) {
  const std::vector<double> unit(tables.size(), 1.0);
  return merge_impl(tables, unit, workers);
}

QTable merge_q_tables(std::span<const QTable* const> tables, std::span<const double> staleness,
                      const StalenessMergePolicy& policy, std::size_t workers) {
  require(staleness.size() == tables.size(),
          "merge_q_tables: one staleness value per table required");
  require(policy.half_life_rounds > 0.0, "merge_q_tables: half-life must be positive");
  std::vector<double> weights;
  weights.reserve(tables.size());
  for (const double s : staleness) {
    require(s >= 0.0, "merge_q_tables: staleness must be non-negative");
    weights.push_back(policy.weight(s));
  }
  return merge_impl(tables, weights, workers);
}

}  // namespace nextgov::rl
