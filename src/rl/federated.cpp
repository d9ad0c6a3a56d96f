#include "rl/federated.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace nextgov::rl {

namespace {

/// Shared FedAvg core: visit-weighted averaging with an extra per-table
/// weight multiplier (1.0 for every table = the plain merge).
QTable merge_impl(std::span<const QTable* const> tables,
                  std::span<const double> table_weight) {
  require(!tables.empty(), "merge_q_tables needs at least one table");
  const std::size_t actions = tables.front()->action_count();
  for (const QTable* t : tables) {
    require(t != nullptr, "merge_q_tables: null table");
    require(t->action_count() == actions, "merge_q_tables: action count mismatch");
  }

  // Each table's entries in ascending key order; a k-way merge over these
  // visits every distinct state once, and for each state adds the tables'
  // contributions in table order - the same summation order (hence the
  // same bits) as accumulating table by table. No hash map and no per-state
  // allocation: the accumulators are reused from state to state.
  std::vector<std::vector<QTable::EntryView>> entries(tables.size());
  for (std::size_t ti = 0; ti < tables.size(); ++ti) {
    entries[ti].reserve(tables[ti]->state_count());
    tables[ti]->for_each_entry([&](const QTable::EntryView& e) { entries[ti].push_back(e); });
  }
  const std::uint32_t lanes = actions >= 32 ? ~0u : (1u << actions) - 1;  // tried-mask bits in use
  std::vector<std::size_t> cursor(tables.size(), 0);
  std::vector<double> weighted_q(actions);
  std::vector<double> weight(actions);
  std::vector<float> row(actions);

  QTable merged{actions};
  for (;;) {
    bool any = false;
    StateKey key = 0;
    for (std::size_t ti = 0; ti < tables.size(); ++ti) {
      if (cursor[ti] == entries[ti].size()) continue;
      const StateKey k = entries[ti][cursor[ti]].key();
      if (!any || k < key) key = k;
      any = true;
    }
    if (!any) break;

    std::fill(weighted_q.begin(), weighted_q.end(), 0.0);
    std::fill(weight.begin(), weight.end(), 0.0);
    double visits = 0.0;
    for (std::size_t ti = 0; ti < tables.size(); ++ti) {
      if (cursor[ti] == entries[ti].size() || entries[ti][cursor[ti]].key() != key) continue;
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
    merged.install_entry(key, static_cast<std::uint64_t>(std::llround(visits)), tried, row);
  }
  return merged;
}

}  // namespace

QTable merge_q_tables(std::span<const QTable* const> tables) {
  const std::vector<double> unit(tables.size(), 1.0);
  return merge_impl(tables, unit);
}

QTable merge_q_tables(std::span<const QTable* const> tables, std::span<const double> staleness,
                      const StalenessMergePolicy& policy) {
  require(staleness.size() == tables.size(),
          "merge_q_tables: one staleness value per table required");
  require(policy.half_life_rounds > 0.0, "merge_q_tables: half-life must be positive");
  std::vector<double> weights;
  weights.reserve(tables.size());
  for (const double s : staleness) {
    require(s >= 0.0, "merge_q_tables: staleness must be non-negative");
    weights.push_back(policy.weight(s));
  }
  return merge_impl(tables, weights);
}

}  // namespace nextgov::rl
