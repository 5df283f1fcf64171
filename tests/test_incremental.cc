// Incremental path-table update tests (§4.4). The load-bearing property:
// after any sequence of rule adds/deletes, the incrementally-maintained
// path table is structurally identical to a from-scratch rebuild.
#include "veridp/incremental.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "controller/routing.hpp"
#include "testutil.hpp"
#include "veridp/verifier.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

using testutil::header;

RuleEvent add_ev(SwitchId sw, RuleId id, const Prefix& p, PortId out) {
  return RuleEvent{RuleEvent::Kind::kAdd, sw,
                   FlowRule{id, p.len, Match::dst_prefix(p),
                            out == kDropPort ? Action::drop()
                                             : Action::output(out)}};
}

RuleEvent del_ev(SwitchId sw, RuleId id) {
  RuleEvent ev;
  ev.kind = RuleEvent::Kind::kDelete;
  ev.sw = sw;
  ev.rule.id = id;
  ev.rule.match = Match::dst_prefix(Prefix{});
  return ev;
}

TEST(Incremental, InitializeMatchesConfigBuild) {
  // On a dst-prefix-only workload the flow-forest initialization must
  // equal the ConfigTransferProvider full build.
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;

  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());

  ConfigTransferProvider provider(space, topo, c.logical_configs());
  const PathTable full = PathTableBuilder(space, topo, provider).build();
  EXPECT_TRUE(equivalent(upd.table(), full));
  EXPECT_TRUE(upd.consistent_with_rebuild());
  EXPECT_TRUE(upd.ownership_consistent());
  EXPECT_GT(upd.num_flow_nodes(), 0u);
}

// The §4.4 fragment is enforced in every build type, not only by
// debug asserts: a rule outside it would otherwise be folded into the
// RuleTree by its dst prefix alone, giving a wrong table.
std::string initialize_error(const Controller& c) {
  HeaderSpace space;
  IncrementalUpdater upd(space, c.topology());
  try {
    upd.initialize(c.logical_configs());
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Incremental, InitializeRejectsRulesOutsideTheFragment) {
  Topology topo = linear(3);
  const Prefix dst{Ipv4::of(10, 0, 2, 0), 25};
  {
    Controller c(topo);
    routing::install_shortest_paths(c);
    Match m = Match::dst_prefix(dst);
    m.src = Prefix{Ipv4::of(10, 0, 0, 0), 24};
    const RuleId id = c.add_rule(1, 25, m, Action::output(2));
    const std::string what = initialize_error(c);
    EXPECT_NE(what.find("switch 1"), std::string::npos) << what;
    EXPECT_NE(what.find("rule " + std::to_string(id)), std::string::npos)
        << what;
  }
  {
    Controller c(topo);
    routing::install_shortest_paths(c);
    const RuleId id = c.add_rule(
        2, 25, Match::dst_prefix(dst),
        Action::output_rewrite(3, Rewrite::dst_ip(Ipv4::of(10, 0, 0, 9))));
    const std::string what = initialize_error(c);
    EXPECT_NE(what.find("switch 2"), std::string::npos) << what;
    EXPECT_NE(what.find("rule " + std::to_string(id)), std::string::npos)
        << what;
  }
  {
    Controller c(topo);
    routing::install_shortest_paths(c);
    c.set_in_acl(0, 3, Acl{}.deny(Match::dst_prefix(dst)));
    const std::string what = initialize_error(c);
    EXPECT_NE(what.find("switch 0 port 3"), std::string::npos) << what;
  }
  {
    // A permit-all ACL is the same as no ACL.
    Controller c(topo);
    routing::install_shortest_paths(c);
    c.set_in_acl(0, 3, Acl{});
    EXPECT_EQ(initialize_error(c), "");
  }
}

TEST(Incremental, ApplyRejectsAddsOutsideTheFragment) {
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());
  const PathTable before = upd.table();

  const Prefix dst{Ipv4::of(10, 0, 2, 0), 25};
  RuleEvent src_match = add_ev(0, 904, dst, kDropPort);
  src_match.rule.match.src = Prefix{Ipv4::of(10, 0, 0, 0), 24};
  EXPECT_THROW(upd.apply(src_match), std::invalid_argument);
  RuleEvent rewrite = add_ev(0, 905, dst, 2);
  rewrite.rule.action.rewrite = Rewrite::dst_ip(Ipv4::of(10, 0, 1, 9));
  EXPECT_THROW(upd.apply(rewrite), std::invalid_argument);

  // A rejected event leaves the rule trees and the table untouched.
  EXPECT_TRUE(equivalent(upd.table(), before));
  EXPECT_TRUE(upd.consistent_with_rebuild());
  EXPECT_EQ(upd.apply(del_ev(0, 904)).nodes_touched, 0u);
}

TEST(Incremental, AddRuleRedirectsTraffic) {
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());

  // A /32 inside subnet 2, delivered out a *different* edge port... the
  // linear chain has one edge per switch; steer it to port 1 at switch 2
  // is a link port — instead blackhole it (drop rule), a common update.
  const Prefix victim{Ipv4::of(10, 0, 2, 7), 32};
  const auto stats = upd.apply(add_ev(2, 900, victim, kDropPort));
  EXPECT_GT(stats.nodes_touched, 0u);
  EXPECT_TRUE(upd.consistent_with_rebuild());

  // The new drop path exists and verifies like the data plane would act.
  Verifier v(upd.table());
  const auto* drops = upd.table().lookup(PortKey{0, 3}, PortKey{2, kDropPort});
  ASSERT_NE(drops, nullptr);
  bool found = false;
  for (const PathEntry& e : *drops)
    if (e.headers.contains(header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 7))))
      found = true;
  EXPECT_TRUE(found);
}

TEST(Incremental, DeleteRuleRestoresPreviousTable) {
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());

  IncrementalUpdater reference(space, topo);
  reference.initialize(c.logical_configs());

  const Prefix p{Ipv4::of(10, 0, 1, 64), 26};
  upd.apply(add_ev(0, 901, p, 2));
  upd.apply(del_ev(0, 901));
  EXPECT_TRUE(equivalent(upd.table(), reference.table()));
  EXPECT_TRUE(upd.consistent_with_rebuild());
}

TEST(Incremental, DuplicatePrefixAddIsNoOp) {
  Topology topo = linear(2);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());
  // Subnet 0's own /24 is already present at switch 0.
  const auto stats =
      upd.apply(add_ev(0, 902, Prefix{Ipv4::of(10, 0, 0, 0), 24}, 1));
  EXPECT_EQ(stats.nodes_touched, 0u);
  EXPECT_TRUE(upd.consistent_with_rebuild());
}

TEST(Incremental, SamePortRefinementTouchesNothing) {
  // A more-specific rule pointing at the SAME port as its parent moves
  // headers from a port to itself: the path table must not change.
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());
  IncrementalUpdater reference(space, topo);
  reference.initialize(c.logical_configs());

  // At switch 0, subnet 2 routes out port 2; refine with a /28 to port 2.
  const auto stats =
      upd.apply(add_ev(0, 903, Prefix{Ipv4::of(10, 0, 2, 16), 28}, 2));
  EXPECT_EQ(stats.nodes_touched, 0u);
  EXPECT_TRUE(equivalent(upd.table(), reference.table()));
}

// The big property sweep: random update sequences on several topologies,
// incremental table == rebuild after every step.
struct SweepCase {
  std::uint64_t seed;
  int topo_kind;  // 0 = linear(4), 1 = fat_tree(4), 2 = internet2_like(3)
};

class IncrementalSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  static Topology make_topo(int kind) {
    switch (kind) {
      case 0: return linear(4);
      case 1: return fat_tree(4);
      default: return internet2_like(3);
    }
  }
};

TEST_P(IncrementalSweep, RandomUpdatesStayEquivalentToRebuild) {
  const auto [seed, kind] = GetParam();
  Topology topo = make_topo(kind);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());

  Rng rng(seed);
  const auto& subnets = topo.subnets();
  std::vector<RuleEvent> live;  // added events eligible for deletion
  RuleId next_id = 10000;

  for (int round = 0; round < 25; ++round) {
    if (!live.empty() && rng.chance(0.35)) {
      const std::size_t i = rng.index(live.size());
      upd.apply(del_ev(live[i].sw, live[i].rule.id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const auto& [port, subnet] = subnets[rng.index(subnets.size())];
      (void)port;
      if (subnet.len >= 30) continue;
      const auto len = static_cast<std::uint8_t>(
          rng.uniform(subnet.len + 1, std::min(30, subnet.len + 8)));
      const Prefix p{subnet.addr |
                         (static_cast<std::uint32_t>(rng.uniform(0, 0xffffffff)) &
                          ~Prefix::mask(subnet.len)),
                     len};
      const SwitchId sw = static_cast<SwitchId>(rng.index(topo.num_switches()));
      // Random output port or drop; loops are legal (builder cuts them).
      const PortId out = rng.chance(0.2)
                             ? kDropPort
                             : static_cast<PortId>(rng.uniform(1, topo.num_ports(sw)));
      const RuleEvent ev = add_ev(sw, next_id++, p, out);
      upd.apply(ev);
      live.push_back(ev);
    }
    ASSERT_TRUE(upd.ownership_consistent()) << "round " << round;
    // Equivalence checked every few rounds (rebuilds are costly).
    if (round % 5 == 4) {
      ASSERT_TRUE(upd.consistent_with_rebuild()) << "round " << round;
    }
  }
  EXPECT_TRUE(upd.consistent_with_rebuild());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IncrementalSweep,
    ::testing::Values(SweepCase{1, 0}, SweepCase{2, 0}, SweepCase{3, 1},
                      SweepCase{4, 1}, SweepCase{5, 2}, SweepCase{6, 2},
                      SweepCase{7, 1}, SweepCase{8, 2}));

// Endless delete/re-add churn must not grow the forest or drift the
// table: each cycle returns to exactly the initial state.
TEST(Incremental, ChurnSoakStateStaysBounded) {
  Topology topo = internet2_like(6);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Rng rng(17);
  workload::add_specific_rules(c, rng, 200);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());
  const PathTable initial = upd.table();
  const std::size_t initial_nodes = upd.num_flow_nodes();

  // The churned rules: rules whose deletion moves traffic, four that
  // only reshape path entries and four whose deletion also erases flow
  // nodes (the re-add must rebuild them). The trial delete/re-add is
  // itself a cycle and is checked like one.
  std::vector<RuleEvent> reshape, erase;
  auto done = [&] { return reshape.size() == 4 && erase.size() == 4; };
  for (SwitchId s = 0; s < topo.num_switches() && !done(); ++s)
    for (const FlowRule& r : c.logical(s).table.rules()) {
      if (done()) break;
      const std::size_t touched = upd.apply(del_ev(s, r.id)).nodes_touched;
      auto& kind = upd.num_flow_nodes() == initial_nodes ? reshape : erase;
      const RuleEvent add{RuleEvent::Kind::kAdd, s, r};
      upd.apply(add);
      ASSERT_EQ(upd.num_flow_nodes(), initial_nodes);
      ASSERT_TRUE(equivalent(upd.table(), initial));
      if (touched > 0 && kind.size() < 4) kind.push_back(add);
    }
  ASSERT_EQ(reshape.size(), 4u);
  ASSERT_EQ(erase.size(), 4u);
  std::vector<RuleEvent> churned = reshape;
  churned.insert(churned.end(), erase.begin(), erase.end());

  std::size_t events = 0;
  for (int cycle = 0; cycle < 500; ++cycle) {
    const RuleEvent& add = churned[static_cast<std::size_t>(cycle) % 8];
    for (const RuleEvent& ev : {del_ev(add.sw, add.rule.id), add}) {
      upd.apply(ev);
      if (++events % 50 == 0) {
        ASSERT_TRUE(upd.consistent_with_rebuild()) << "event " << events;
      }
    }
    ASSERT_EQ(upd.num_flow_nodes(), initial_nodes) << "cycle " << cycle;
    ASSERT_TRUE(equivalent(upd.table(), initial)) << "cycle " << cycle;
  }
  EXPECT_TRUE(upd.ownership_consistent());
}

}  // namespace
}  // namespace veridp
