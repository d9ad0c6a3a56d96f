// Unit tests for federated Q-table merging and cloud timing (Section IV-C).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "rl/federated.hpp"

namespace nextgov::rl {
namespace {

TEST(Federated, SingleTableIsIdentityOnTriedEntries) {
  QTable t{3};
  t.set_q(1, 0, 0.5);
  t.set_q(1, 2, -0.25);
  t.record_visit(1);
  const std::array<const QTable*, 1> tables{&t};
  const QTable merged = merge_q_tables(tables);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(1, 0)), 0.5f);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(1, 2)), -0.25f);
  EXPECT_EQ(merged.visits(1), 1u);
}

TEST(Federated, VisitWeightedAverage) {
  QTable a{2};
  a.set_q(5, 0, 1.0);
  for (int i = 0; i < 9; ++i) a.record_visit(5);  // weight 10
  QTable b{2};
  b.set_q(5, 0, 0.0);
  // b has 0 recorded visits -> weight 1.
  b.set_q(5, 1, 0.5);
  const std::array<const QTable*, 2> tables{&a, &b};
  const QTable merged = merge_q_tables(tables);
  EXPECT_NEAR(merged.q(5, 0), 10.0 / 11.0, 1e-5);
  // Action 1 was tried only by b.
  EXPECT_NEAR(merged.q(5, 1), 0.5, 1e-6);
}

TEST(Federated, DisjointStatesUnionize) {
  QTable a{2};
  a.set_q(1, 0, 0.4);
  QTable b{2};
  b.set_q(2, 1, 0.7);
  const std::array<const QTable*, 2> tables{&a, &b};
  const QTable merged = merge_q_tables(tables);
  EXPECT_EQ(merged.state_count(), 2u);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(1, 0)), 0.4f);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(2, 1)), 0.7f);
}

TEST(Federated, UntriedOptimisticEntriesDoNotPolluteMerge) {
  QTable a{2, /*default_q=*/5.0};  // optimistic init
  a.set_q(1, 0, 0.3);              // only action 0 tried
  QTable b{2, 5.0};
  b.set_q(1, 0, 0.5);
  const std::array<const QTable*, 2> tables{&a, &b};
  const QTable merged = merge_q_tables(tables);
  EXPECT_NEAR(merged.q(1, 0), 0.4, 1e-6);
  // Action 1 untried everywhere: merged entry keeps the merged-table
  // default (0), not the devices' optimism.
  EXPECT_EQ(merged.best_tried_action(1, 9), 0u);
}

TEST(Federated, MismatchedActionCountsRejected) {
  QTable a{2};
  QTable b{3};
  const std::array<const QTable*, 2> tables{&a, &b};
  EXPECT_THROW((void)merge_q_tables(tables), ConfigError);
}

TEST(Federated, EmptyInputRejected) {
  EXPECT_THROW((void)merge_q_tables({}), ConfigError);
}

TEST(Federated, NullTableRejected) {
  QTable a{2};
  const std::array<const QTable*, 2> tables{&a, nullptr};
  EXPECT_THROW((void)merge_q_tables(tables), ConfigError);
}

TEST(FederatedStaleness, ZeroStalenessMatchesPlainMerge) {
  QTable a{2};
  a.set_q(5, 0, 1.0);
  for (int i = 0; i < 9; ++i) a.record_visit(5);
  QTable b{2};
  b.set_q(5, 0, 0.0);
  b.set_q(7, 1, 0.25);
  const std::array<const QTable*, 2> tables{&a, &b};
  const std::array<double, 2> fresh{0.0, 0.0};
  const QTable plain = merge_q_tables(tables);
  const QTable weighted = merge_q_tables(tables, fresh);
  EXPECT_EQ(weighted.state_count(), plain.state_count());
  EXPECT_DOUBLE_EQ(weighted.q(5, 0), plain.q(5, 0));
  EXPECT_DOUBLE_EQ(weighted.q(7, 1), plain.q(7, 1));
  EXPECT_EQ(weighted.total_visits(), plain.total_visits());
}

TEST(FederatedStaleness, StaleTableIsDownweighted) {
  // Both tables carry 10 effective visits (9 recorded + 1) on state 5,
  // action 0: fresh says 1.0, a 2-round-stale upload says 0.0. With a
  // 1-round half-life the stale weight is 2^-2 = 0.25, so the merge is
  // 10*1.0 / (10 + 2.5) = 0.8 - not the plain merge's 0.5.
  QTable fresh{1};
  fresh.set_q(5, 0, 1.0);
  for (int i = 0; i < 9; ++i) fresh.record_visit(5);
  QTable stale{1};
  stale.set_q(5, 0, 0.0);
  for (int i = 0; i < 9; ++i) stale.record_visit(5);
  const std::array<const QTable*, 2> tables{&fresh, &stale};
  const std::array<double, 2> staleness{0.0, 2.0};
  const QTable merged = merge_q_tables(tables, staleness, StalenessMergePolicy{1.0});
  EXPECT_NEAR(merged.q(5, 0), 0.8, 1e-6);
  // Visit mass is discounted the same way: 9 + round(0.25 * 9) = 11.
  EXPECT_EQ(merged.total_visits(), 11u);
}

TEST(FederatedStaleness, VeryStaleStatesStillSurviveTheMerge) {
  // A shard that has not phoned home for many rounds contributes almost no
  // weight to contested entries, but its exclusive coverage must not be
  // dropped: weight decays, it never reaches zero.
  QTable fresh{1};
  fresh.set_q(1, 0, 0.5);
  QTable stale{1};
  stale.set_q(2, 0, 0.9);
  const std::array<const QTable*, 2> tables{&fresh, &stale};
  const std::array<double, 2> staleness{0.0, 50.0};
  const QTable merged = merge_q_tables(tables, staleness);
  EXPECT_EQ(merged.state_count(), 2u);
  EXPECT_NEAR(merged.q(2, 0), 0.9, 1e-6);
}

TEST(FederatedStaleness, HalfLifeControlsDecay) {
  const StalenessMergePolicy fast{1.0};
  const StalenessMergePolicy slow{4.0};
  EXPECT_DOUBLE_EQ(fast.weight(0.0), 1.0);
  EXPECT_DOUBLE_EQ(fast.weight(1.0), 0.5);
  EXPECT_DOUBLE_EQ(fast.weight(3.0), 0.125);
  EXPECT_DOUBLE_EQ(slow.weight(4.0), 0.5);
  EXPECT_GT(slow.weight(3.0), fast.weight(3.0));
}

TEST(FederatedStaleness, RejectsBadInputs) {
  QTable a{2};
  QTable b{2};
  const std::array<const QTable*, 2> tables{&a, &b};
  const std::array<double, 1> short_staleness{0.0};
  EXPECT_THROW((void)merge_q_tables(tables, short_staleness), ConfigError);
  const std::array<double, 2> negative{0.0, -1.0};
  EXPECT_THROW((void)merge_q_tables(tables, negative), ConfigError);
  const std::array<double, 2> fine{0.0, 1.0};
  EXPECT_THROW((void)merge_q_tables(tables, fine, StalenessMergePolicy{0.0}), ConfigError);
}

TEST(FederatedMerge, EmptySpanIsRejected) {
  const std::vector<const QTable*> none;
  EXPECT_THROW((void)merge_q_tables(none), ConfigError);
  const std::vector<double> no_staleness;
  EXPECT_THROW((void)merge_q_tables(none, no_staleness), ConfigError);
}

TEST(FederatedMerge, SingleTableMergesToItself) {
  QTable t{3};
  t.set_q(10, 0, 0.4);
  t.set_q(10, 2, 0.8);
  t.set_q(20, 1, -0.1);
  t.add_visits(10, 5);
  const std::array<const QTable*, 1> one{&t};
  const QTable merged = merge_q_tables(one);
  // Values and visit mass survive unchanged; untried entries stay untried
  // (the merged table materializes them at its own default 0.0, which is
  // also what a single-table merge of a default-q table produces).
  EXPECT_EQ(merged.state_count(), 2u);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(10, 0)), 0.4f);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(10, 2)), 0.8f);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(20, 1)), -0.1f);
  EXPECT_EQ(merged.visits(10), 5u);
  EXPECT_EQ(merged.total_visits(), t.total_visits());
  EXPECT_EQ(merged.best_tried_action(10, 9), 2u);
}

TEST(FederatedMerge, ZeroVisitTablesStillContribute) {
  // The +1 in the visit weighting: a device that tried actions but logged
  // no visits (e.g. a warm start stripped of visit mass) still averages in
  // with weight 1 per table instead of vanishing.
  QTable a{2};
  QTable b{2};
  a.set_q(1, 0, 0.0);
  b.set_q(1, 0, 1.0);
  const std::array<const QTable*, 2> tables{&a, &b};
  const QTable merged = merge_q_tables(tables);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(1, 0)), 0.5f);
  EXPECT_EQ(merged.visits(1), 0u);  // no real visit mass was ever recorded
}

TEST(FederatedMerge, ExtremeStalenessUnderflowsToZeroWeightGracefully) {
  // 2^(-s/h) underflows to exactly 0.0 for huge staleness; the upload then
  // contributes nothing - including its visit mass - but the merge itself
  // must stay well-defined and keep the fresh table intact.
  QTable fresh{2};
  fresh.set_q(1, 0, 0.25);
  fresh.add_visits(1, 10);
  QTable ancient{2};
  ancient.set_q(1, 0, 0.75);
  ancient.set_q(2, 1, 0.9);  // a state only the stale upload knows
  ancient.add_visits(1, 1000);
  const StalenessMergePolicy policy{2.0};
  EXPECT_EQ(policy.weight(1e6), 0.0);  // confirmed underflow
  const std::array<const QTable*, 2> tables{&fresh, &ancient};
  const std::array<double, 2> staleness{0.0, 1e6};
  const QTable merged = merge_q_tables(tables, staleness, policy);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(1, 0)), 0.25f);
  EXPECT_EQ(merged.visits(1), 10u);
  // The zero-weight table's exclusive state still materializes (the accum
  // map visits it) but with no tried actions and zero visits: pinned so a
  // future "skip zero-weight tables" optimization shows up as a diff here.
  EXPECT_EQ(merged.state_count(), 2u);
  EXPECT_EQ(merged.visits(2), 0u);
  EXPECT_EQ(merged.best_tried_action(2, 7), 7u);
}

/// The merge as it was first written: one hash-map accumulator per state,
/// filled table by table. merge_q_tables must reproduce it bit for bit.
QTable reference_merge(std::span<const QTable* const> tables, std::span<const double> table_weight) {
  const std::size_t actions = tables.front()->action_count();
  QTable merged{actions};
  struct Acc {
    std::vector<double> weighted_q;
    std::vector<double> weight;
    double visits{0.0};
  };
  std::unordered_map<StateKey, Acc> acc;
  for (std::size_t ti = 0; ti < tables.size(); ++ti) {
    const double tw = table_weight[ti];
    tables[ti]->for_each_entry([&](const QTable::EntryView& e) {
      auto [it, inserted] = acc.try_emplace(e.key());
      if (inserted) {
        it->second.weighted_q.assign(actions, 0.0);
        it->second.weight.assign(actions, 0.0);
      }
      const double w = tw * (static_cast<double>(e.visits()) + 1.0);
      for (std::size_t a = 0; a < actions && a < 32; ++a) {
        if ((e.tried() & (1u << a)) == 0) continue;
        it->second.weighted_q[a] += w * static_cast<double>(e.q(a));
        it->second.weight[a] += w;
      }
      it->second.visits += tw * static_cast<double>(e.visits());
    });
  }
  for (const auto& [key, a] : acc) {
    for (std::size_t action = 0; action < actions; ++action) {
      if (a.weight[action] > 0.0) {
        merged.set_q(key, action, a.weighted_q[action] / a.weight[action]);
      }
    }
    merged.add_visits(key, static_cast<std::uint64_t>(std::llround(a.visits)));
  }
  return merged;
}

/// `count` tables over a shared key pool: each state is present in a table
/// with probability 1/2 (so keys overlap across some tables and are
/// exclusive to others), tries a random subset of actions (possibly none),
/// and has zero visits a quarter of the time.
std::vector<QTable> random_tables(std::size_t count, std::size_t actions, std::uint64_t seed) {
  SplitMix64 rng{seed};
  std::vector<StateKey> pool(600);
  for (StateKey& k : pool) k = rng.next() >> (rng.next() % 40);
  std::vector<QTable> out;
  for (std::size_t t = 0; t < count; ++t) {
    QTable table{actions, 0.75};
    for (const StateKey k : pool) {
      if (rng.next() % 2 == 0) continue;
      for (std::size_t a = 0; a < actions; ++a) {
        if (rng.next() % 3 == 0) {
          table.set_q(k, a, static_cast<double>(rng.next() % 20001) / 10000.0 - 1.0);
        }
      }
      const std::uint64_t visits = rng.next() % 4 == 0 ? 0 : rng.next() % 50;
      table.add_visits(k, visits);
    }
    out.push_back(std::move(table));
  }
  return out;
}

TEST(FederatedMerge, BitIdenticalToTheHashMapReference) {
  const StalenessMergePolicy policy{1.5};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::size_t actions : {std::size_t{9}, std::size_t{40}}) {  // 40: past the 32-bit tried mask
      const std::vector<QTable> owned = random_tables(1 + seed % 5, actions, seed * 131 + actions);
      std::vector<const QTable*> tables;
      std::vector<double> staleness;
      std::vector<double> weights;
      for (std::size_t i = 0; i < owned.size(); ++i) {
        tables.push_back(&owned[i]);
        staleness.push_back(static_cast<double>((i + seed) % 4));
        weights.push_back(policy.weight(staleness.back()));
      }
      EXPECT_TRUE(merge_q_tables(tables, staleness, policy) == reference_merge(tables, weights))
          << "seed " << seed << " actions " << actions;
      const std::vector<double> unit(tables.size(), 1.0);
      EXPECT_TRUE(merge_q_tables(tables) == reference_merge(tables, unit))
          << "seed " << seed << " actions " << actions;
    }
  }
}

TEST(FederatedMerge, ParallelRangesBitIdenticalToSerial) {
  // The key-range merge must reproduce the serial merge bit for bit on any
  // worker count - more workers than states included - for overlapping,
  // disjoint, single and empty inputs, with and without staleness.
  const StalenessMergePolicy policy{1.5};
  const std::vector<QTable> overlapping = random_tables(5, 9, 0x5EED);
  QTable tiny{9};  // fewer states than workers
  tiny.set_q(42, 3, 0.5);
  tiny.add_visits(42, 3);
  tiny.set_q(7, 0, -0.25);
  QTable low{9};  // disjoint key sets: keys below 1000 ...
  QTable high{9};  // ... and keys above 1 << 40
  for (StateKey k = 0; k < 300; ++k) {
    low.set_q(k * 3, k % 9, static_cast<double>(k) / 300.0);
    low.add_visits(k * 3, k % 5);
    high.set_q((StateKey{1} << 40) + k * 7, (k + 4) % 9, -static_cast<double>(k) / 300.0);
    high.add_visits((StateKey{1} << 40) + k * 7, k % 4);
  }
  const QTable empty{9};

  const auto ptrs = [](std::initializer_list<const QTable*> list) {
    return std::vector<const QTable*>(list);
  };
  std::vector<const QTable*> many;
  for (const QTable& t : overlapping) many.push_back(&t);
  const std::vector<std::pair<const char*, std::vector<const QTable*>>> cases = {
      {"overlapping", many},
      {"single", ptrs({&overlapping.front()})},
      {"tiny", ptrs({&tiny})},
      {"tiny_and_empty", ptrs({&empty, &tiny, &empty})},
      {"all_empty", ptrs({&empty, &empty})},
      {"disjoint", ptrs({&low, &high})},
      {"disjoint_and_overlapping", ptrs({&high, &overlapping[1], &low, &overlapping[2]})},
  };
  for (const auto& [name, tables] : cases) {
    SCOPED_TRACE(name);
    std::vector<double> staleness;
    for (std::size_t i = 0; i < tables.size(); ++i) staleness.push_back(static_cast<double>(i % 3));
    const QTable plain = merge_q_tables(tables);
    const QTable stale = merge_q_tables(tables, staleness, policy);
    ByteWriter plain_bytes;
    plain.serialize(plain_bytes);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                      std::size_t{8}}) {
      SCOPED_TRACE(workers);
      const QTable pooled = merge_q_tables(tables, workers);
      EXPECT_TRUE(pooled == plain);
      ByteWriter pooled_bytes;
      pooled.serialize(pooled_bytes);
      EXPECT_EQ(pooled_bytes.data(), plain_bytes.data());
      EXPECT_TRUE(merge_q_tables(tables, staleness, policy, workers) == stale);
    }
  }
}

TEST(CloudTiming, AddsPaperCommunicationOverhead) {
  // Section IV-C: "maximum communication (to- and fro-) overhead of 4 secs".
  const CloudTimingModel model{};
  EXPECT_DOUBLE_EQ(model.total_time_s(7.0), 11.0);
  EXPECT_DOUBLE_EQ(CloudTimingModel{2.5}.total_time_s(0.0), 2.5);
}

}  // namespace
}  // namespace nextgov::rl
