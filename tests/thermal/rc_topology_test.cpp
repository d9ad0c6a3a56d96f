// Tests for the RcTopology structure/state split: every engine shares one
// immutable topology, so sharing must never leak state between sessions
// or change solver results.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "thermal/note9_model.hpp"
#include "thermal/rc_network.hpp"

namespace nextgov::thermal {
namespace {

/// Deterministic power schedule for node `node` at tick `t`: a sinusoid
/// plus periodic bursts so the network sees real transients.
double schedule_power(std::size_t node, std::int64_t t) {
  const double base = 0.4 + 0.3 * static_cast<double>(node);
  const double wave = std::sin(static_cast<double>(t) * 1e-3 * 1.07);
  const double burst = t % 4000 < 800 ? 1.5 : 0.0;
  return base + 0.8 * (1.0 + wave) + burst;
}

/// A shared-topology state view must step bit-for-bit like an
/// independently built network with the same structure (the
/// rc_network_regression_test guarantee carries over to sharing).
TEST(RcTopologySharing, SharedViewMatchesIncrementallyBuiltNetworkBitwise) {
  RcNetwork built{Celsius{21.0}};
  const NodeId big = built.add_node("big", 1.0);
  const NodeId little = built.add_node("little", 0.8);
  const NodeId gpu = built.add_node("gpu", 1.4);
  const NodeId board = built.add_node("soc_board", 14.0);
  const NodeId battery = built.add_node("battery", 60.0, 0.12);
  const NodeId skin = built.add_node("skin", 90.0, 0.42);
  built.connect(big, board, 0.11);
  built.connect(little, board, 0.30);
  built.connect(gpu, board, 0.14);
  built.connect(board, skin, 0.22);
  built.connect(board, battery, 0.20);
  built.connect(battery, skin, 0.35);

  RcNetwork shared{note9_topology(), Celsius{21.0}};
  ASSERT_EQ(shared.node_count(), built.node_count());

  const SimTime dt = SimTime::from_ms(1);
  for (std::int64_t t = 0; t < 20000; ++t) {
    for (std::size_t i = 0; i < built.node_count(); ++i) {
      const Watts p{schedule_power(i, t)};
      built.set_power(i, p);
      shared.set_power(i, p);
    }
    built.step(dt);
    shared.step(dt);
  }
  for (std::size_t i = 0; i < built.node_count(); ++i) {
    EXPECT_EQ(shared.temperature(i).value(), built.temperature(i).value()) << "node " << i;
  }
  const auto ss_built = built.steady_state();
  const auto ss_shared = shared.steady_state();
  for (std::size_t i = 0; i < built.node_count(); ++i) {
    EXPECT_EQ(ss_shared[i].value(), ss_built[i].value()) << "node " << i;
  }
}

TEST(RcTopologySharing, MutationCopiesOnWriteWithoutAffectingOtherSessions) {
  const auto& topo = note9_topology();
  RcNetwork a{topo, Celsius{21.0}};
  RcNetwork b{topo, Celsius{21.0}};
  ASSERT_EQ(a.topology().get(), b.topology().get());

  // Extending `a` detaches it onto a private topology; `b` (and the shared
  // process-wide structure) keep stepping unchanged.
  const NodeId extra = a.add_node("case_fan", 5.0, 1.0);
  a.connect(extra, 5, 0.4);
  EXPECT_NE(a.topology().get(), topo.get());
  EXPECT_EQ(b.topology().get(), topo.get());
  EXPECT_EQ(topo->node_count(), 6u);
  EXPECT_EQ(a.node_count(), 7u);
  EXPECT_EQ(a.node_name(extra), "case_fan");

  a.set_power(0, Watts{2.0});
  b.set_power(0, Watts{2.0});
  a.step(SimTime::from_seconds(30.0));
  b.step(SimTime::from_seconds(30.0));
  // The extra cooling path must make `a` run cooler than the stock `b` -
  // i.e. the mutation is really live on `a` and really absent on `b`.
  EXPECT_LT(a.temperature(5).value(), b.temperature(5).value());
  EXPECT_GT(b.temperature(0).value(), 21.0);
}

TEST(RcTopologySharing, TopologyValidatesSpecs) {
  EXPECT_THROW((RcTopology{{{"bad", 0.0, 0.0}}, {}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, -0.1}}, {}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, 0.0}}, {{0, 0, 0.5}}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, 0.0}}, {{0, 7, 0.5}}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, 0.0}, {"b", 1.0, 0.0}}, {{0, 1, 0.0}}}), ConfigError);
}

}  // namespace
}  // namespace nextgov::thermal
