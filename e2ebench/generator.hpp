// The benchmark's traffic and rule-event generator.
//
// Everything here stands in for the data plane and the network the
// monitor watches: the deployments (topology + the controller's rules),
// the planted faults, the report pools (Network::inject, so tags are
// real Algorithm-1 output), the lossy report channel (ReportChannel) and
// the wire encoding. None of it is timed, and its buffers exist before
// the memory baseline is read.
//
// What the workload fixes and what the run seed draws:
//   * fixed: the topology, the rule set, the planted faults, the churned
//     rules and their crossing reports, every count and size;
//   * seed:  the traffic (which flows, in which order, with which
//     channel faults) and the order of rule events.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "dataplane/network.hpp"
#include "dataplane/wire.hpp"
#include "topo/generators.hpp"
#include "veridp/channel.hpp"
#include "veridp/workload.hpp"

namespace e2e {

using namespace veridp;

/// Fixed generator seeds (never the run seed).
inline constexpr std::uint64_t kRulesSeed = 1002;     // Internet2 extra rules
inline constexpr std::uint64_t kRankSeed = 0xD57;     // destination ranking
inline constexpr std::uint64_t kChurnPickSeed = 0xC4; // churned-rule choice

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Zipf(s) over ranks 0..n-1.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t draw(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.real());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// -- Deployments -------------------------------------------------------------

enum class Shape { kFatTree, kInternet2 };

struct Deployment {
  Shape shape;
  bool tiny;
  Topology topo;

  Deployment(Shape s, bool t)
      : shape(s),
        tiny(t),
        topo(s == Shape::kFatTree ? fat_tree(t ? 4 : 8)
                                  : internet2_like(t ? 4 : 20)) {}

  /// A controller holding the deployment's rules: shortest-path routing,
  /// plus (Internet2) more-specific dst-prefix rules from a fixed seed.
  /// Every call yields the same rules with the same ids.
  [[nodiscard]] std::unique_ptr<Controller> make_controller() const {
    auto c = std::make_unique<Controller>(topo);
    routing::install_shortest_paths(*c);
    if (shape == Shape::kInternet2) {
      Rng rng(kRulesSeed);
      workload::add_specific_rules(*c, rng, tiny ? 300 : 6000);
    }
    return c;
  }

  /// Smallest prefix length of a rule the churn may cycle.
  [[nodiscard]] std::uint8_t churn_min_len() const {
    return shape == Shape::kInternet2 ? 22 : 0;
  }
};

inline std::uint32_t host_addr(const Prefix& p, Rng& rng) {
  if (p.len >= 31) return p.addr;
  const std::uint32_t span = ~Prefix::mask(p.len) - 1;
  return p.addr + static_cast<std::uint32_t>(rng.uniform(1, span));
}

inline bool same_path(const ForwardResult& a, const ForwardResult& b) {
  return a.path == b.path && a.exit == b.exit;
}

// -- Report pools ------------------------------------------------------------

struct PoolEntry {
  TagReport report;
  bool faulty = false;  ///< the flow crosses a planted fault
};

/// A rewire fault planted in the data plane only: the delivery rule for
/// one host is pointed at a sibling host port on the same edge switch,
/// so packets for it are delivered to the wrong host (loop-free).
struct PlantedFault {
  SwitchId sw = kNoSwitch;
  Prefix host;
};

/// Destinations in a fixed popularity order: subnet index by rank.
inline std::vector<std::size_t> ranked_subnets(const Topology& topo) {
  std::vector<std::size_t> order(topo.subnets().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(kRankSeed);
  std::shuffle(order.begin(), order.end(), rng.engine());
  return order;
}

/// Plants rewire faults on the hosts at the given destination ranks.
inline std::vector<PlantedFault> plant_faults(Network& net,
                                              const std::vector<std::size_t>& ranks) {
  const Topology& topo = net.topology();
  const auto& subnets = topo.subnets();
  const std::vector<std::size_t> order = ranked_subnets(topo);
  FaultInjector injector(net);
  std::vector<PlantedFault> faults;
  for (std::size_t rank : ranks) {
    const auto& [port, prefix] = subnets[order[rank]];
    // The sibling host port on the same edge switch.
    PortId wrong = kDropPort;
    for (const auto& [p2, pre2] : subnets)
      if (p2.sw == port.sw && p2.port != port.port) {
        (void)pre2;
        wrong = p2.port;
        break;
      }
    for (const FlowRule& r : net.at(port.sw).config().table.rules())
      if (r.match.dst == prefix && r.action.out == port.port &&
          wrong != kDropPort && injector.rewrite_rule_output(port.sw, r.id, wrong)) {
        faults.push_back({port.sw, prefix});
        break;
      }
  }
  return faults;
}

/// Fat-tree hot flows: `n` inter-pod flows; flow i is the i-th most
/// popular (the stream draws flows Zipf(1.0) from the run seed).
/// Destinations are Zipf(1.2) over the fixed host ranking. The flows
/// themselves come from a fixed seed, like the planted faults: the share
/// of traffic that crosses a fault, the verify-memo slots the hot flows
/// share and the exit switches that carry most reports are part of the
/// workload, not of the run seed. Each flow is injected on the clean
/// network (ground truth) and on the faulted one (the report the monitor
/// sees).
inline std::vector<PoolEntry> hot_flow_pool(Network& clean, Network& faulted,
                                            std::size_t n,
                                            std::uint32_t epoch) {
  const Topology& topo = clean.topology();
  const auto& subnets = topo.subnets();
  const std::vector<std::size_t> order = ranked_subnets(topo);
  const Zipf dst_zipf(subnets.size(), 1.2);
  Rng rng(kRankSeed + 1);
  auto pod = [](const Prefix& p) { return (p.addr >> 16) & 0xff; };
  std::vector<PoolEntry> pool;
  pool.reserve(n);
  while (pool.size() < n) {
    const auto& [dst_port, dst] = subnets[order[dst_zipf.draw(rng)]];
    (void)dst_port;
    std::size_t s = rng.index(subnets.size());
    while (pod(subnets[s].second) == pod(dst)) s = rng.index(subnets.size());
    const auto& [src_port, src] = subnets[s];
    PacketHeader h;
    h.src_ip = Ipv4{src.addr};
    h.dst_ip = Ipv4{dst.addr};
    h.proto = rng.chance(0.8) ? kProtoTcp : kProtoUdp;
    h.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
    h.dst_port = static_cast<std::uint16_t>(rng.uniform(1, 8192));
    const ForwardResult good = clean.inject(h, src_port);
    const ForwardResult real = faulted.inject(h, src_port);
    if (real.reports.size() != 1) continue;
    PoolEntry e;
    e.report = real.reports.front();
    e.report.epoch = epoch;
    e.faulty = !same_path(good, real);
    pool.push_back(e);
  }
  return pool;
}

/// Fresh random flows: sources uniform, destinations Zipf(1.2) over the
/// fixed subnet ranking, random hosts and ports. Flows whose destination
/// lies in one of `avoid` (the churned prefixes) are skipped, so a rule
/// event never makes a pooled report stale.
inline std::vector<PoolEntry> fresh_flow_pool(Network& net, std::size_t n,
                                              Rng& rng, std::uint32_t epoch,
                                              const std::vector<Prefix>& avoid) {
  const Topology& topo = net.topology();
  const auto& subnets = topo.subnets();
  const std::vector<std::size_t> order = ranked_subnets(topo);
  const Zipf dst_zipf(subnets.size(), 1.2);
  std::vector<PoolEntry> pool;
  pool.reserve(n);
  while (pool.size() < n) {
    const std::size_t d = order[dst_zipf.draw(rng)];
    const std::size_t s = rng.index(subnets.size());
    if (s == d) continue;
    PacketHeader h;
    h.src_ip = Ipv4{host_addr(subnets[s].second, rng)};
    h.dst_ip = Ipv4{host_addr(subnets[d].second, rng)};
    h.proto = rng.chance(0.8) ? kProtoTcp : kProtoUdp;
    h.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
    h.dst_port = static_cast<std::uint16_t>(rng.uniform(1, 8192));
    if (std::any_of(avoid.begin(), avoid.end(),
                    [&](const Prefix& p) { return p.contains(h.dst_ip); }))
      continue;
    const ForwardResult r = net.inject(h, subnets[s].first);
    if (r.reports.size() != 1) continue;
    PoolEntry e;
    e.report = r.reports.front();
    e.report.epoch = epoch;
    pool.push_back(e);
  }
  return pool;
}

/// `n` failing reports: flows to the hosts of `faults` (planted on
/// `faulted`), kept where the faulted path differs from the clean one.
/// The flows are drawn from the run seed.
inline std::vector<TagReport> failing_reports(
    Network& clean, Network& faulted, const std::vector<PlantedFault>& faults,
    std::size_t n, std::uint64_t seed, std::uint32_t epoch) {
  const auto& subnets = clean.topology().subnets();
  Rng rng(mix(seed, 0x10CA));
  std::vector<TagReport> failing;
  while (failing.size() < n && !faults.empty()) {
    const Prefix& dst = faults[rng.index(faults.size())].host;
    const auto& [entry, src] = subnets[rng.index(subnets.size())];
    if (src == dst) continue;
    PacketHeader h;
    h.src_ip = Ipv4{host_addr(src, rng)};
    h.dst_ip = Ipv4{host_addr(dst, rng)};
    h.proto = kProtoTcp;
    h.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
    h.dst_port = static_cast<std::uint16_t>(rng.uniform(1, 8192));
    const ForwardResult good = clean.inject(h, entry);
    const ForwardResult real = faulted.inject(h, entry);
    if (same_path(good, real) || real.reports.size() != 1) continue;
    TagReport r = real.reports.front();
    r.epoch = epoch;
    failing.push_back(r);
  }
  return failing;
}

// -- Churned rules -----------------------------------------------------------

/// A rule the churn deletes and re-adds, with the report of a flow that
/// crosses it in each state (generated on the data plane, so the crossing
/// report is what a consistent switch would send at the new epoch).
struct ChurnRule {
  SwitchId sw = kNoSwitch;
  FlowRule rule;
  TagReport present;  ///< crossing report while the rule is installed
  TagReport absent;   ///< crossing report after it is deleted
};

/// Picks `count` churned rules from `controller`'s rules with a fixed
/// seed, keeping only rules some edge flow crosses and whose deletion
/// changes that flow's path. `net` must be
/// deployed from the same rules; it is restored on return.
inline std::vector<ChurnRule> pick_churn_rules(const Controller& controller,
                                               Network& net, std::size_t count,
                                               std::uint8_t min_len) {
  const Topology& topo = controller.topology();
  std::vector<std::pair<SwitchId, FlowRule>> candidates;
  for (SwitchId s = 0; s < topo.num_switches(); ++s)
    for (const FlowRule& r : controller.logical(s).table.rules())
      if (r.match.dst.len >= min_len && r.match.is_dst_prefix_only())
        candidates.push_back({s, r});
  Rng rng(kChurnPickSeed);
  std::shuffle(candidates.begin(), candidates.end(), rng.engine());

  const auto& subnets = topo.subnets();
  std::vector<ChurnRule> out;
  for (const auto& [sw, rule] : candidates) {
    if (out.size() >= count) break;
    FlowTable& table = net.at(sw).config().table;
    // A destination inside the rule's prefix that the rule itself wins
    // at its switch (not a more specific rule).
    const Prefix& p = rule.match.dst;
    std::optional<PacketHeader> probe;
    for (std::uint32_t off : {1u, 2u, 7u, 100u, 1000u}) {
      if (p.len < 32 && off > (~Prefix::mask(p.len))) continue;
      PacketHeader h;
      h.dst_ip = Ipv4{p.len >= 32 ? p.addr : p.addr + off};
      h.proto = kProtoTcp;
      h.src_port = 40000;
      h.dst_port = 80;
      const FlowRule* hit = table.lookup(h);
      if (hit && hit->id == rule.id) {
        probe = h;
        break;
      }
    }
    if (!probe) continue;
    for (std::size_t i = 0; i < subnets.size(); ++i) {
      const auto& [entry, src] = subnets[(i + out.size() * 7) % subnets.size()];
      if (src.contains(probe->dst_ip)) continue;
      PacketHeader h = *probe;
      h.src_ip = Ipv4{src.len >= 32 ? src.addr : src.addr + 1};
      const ForwardResult with = net.inject(h, entry);
      const bool crosses =
          std::any_of(with.path.begin(), with.path.end(),
                      [sw = sw](const Hop& hop) { return hop.sw == sw; });
      if (!crosses || with.reports.size() != 1) continue;
      const std::optional<FlowRule> removed = table.remove(rule.id);
      const ForwardResult without = net.inject(h, entry);
      table.add(*removed);
      // Only rules whose deletion moves traffic: the event must give the
      // path table real work, not just the rule tree.
      if (without.reports.size() != 1 || same_path(with, without)) continue;
      out.push_back({sw, rule, with.reports.front(), without.reports.front()});
      break;
    }
  }
  return out;
}

// -- Report streams ----------------------------------------------------------

/// Per-reporting-switch sequence numbers (0 is "none" on the wire).
class SeqStamper {
 public:
  explicit SeqStamper(std::size_t switches, std::uint32_t base = 0)
      : base_(base), next_(switches, base) {}
  std::uint32_t next(SwitchId sw) { return ++next_[sw]; }
  void reset() { std::fill(next_.begin(), next_.end(), base_); }

 private:
  std::uint32_t base_;
  std::vector<std::uint32_t> next_;
};

inline std::vector<std::uint8_t> encode(TagReport r, std::uint32_t epoch,
                                        SeqStamper& seqs) {
  r.epoch = epoch;
  r.seq = seqs.next(r.outport.sw);
  return wire::encode_report(r);
}

/// Expected monitor outcome of one pass, from the generator's bookkeeping.
struct Truth {
  std::uint64_t received = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t deduped = 0;
  std::uint64_t passed = 0;
  std::uint64_t failed = 0;

  Truth& operator+=(const Truth& o) {
    received += o.received;
    quarantined += o.quarantined;
    deduped += o.deduped;
    passed += o.passed;
    failed += o.failed;
    return *this;
  }
};

struct StreamConfig {
  std::size_t pass_len = 65536;  ///< reports sent per pass
  bool zipf_flows = false;       ///< Zipf(1.0) over the pool, else cycle it
  ChannelConfig channel;         ///< fault rates; the seed is per pass
};

/// One generated pass: the datagrams the channel delivered, in order.
struct Pass {
  std::size_t index = 0;
  std::vector<std::vector<std::uint8_t>> datagrams;
  Truth truth;
  std::size_t distinct_flows = 0;
};

/// Endless report stream over a pool, generated a pass at a time. Pass p
/// depends only on (seed, p), so reset() replays the same passes.
class Stream {
 public:
  /// Sequence numbers start above `seq_base`, so streams offered to the
  /// same server never collide.
  Stream(const std::vector<PoolEntry>& pool, StreamConfig cfg,
         std::uint64_t seed, std::size_t switches, std::uint32_t seq_base)
      : pool_(&pool),
        cfg_(cfg),
        seed_(seed),
        seqs_(switches, seq_base),
        flow_zipf_(pool.size(), 1.0),
        seen_(pool.size(), 0) {
    sent_.reserve(cfg_.pass_len);
  }

  /// Back to pass 0; frees the current pass's datagrams.
  void reset() {
    next_index_ = 0;
    seqs_.reset();
    pass_.datagrams = {};
  }

  const Pass& next(std::uint32_t epoch) {
    const std::size_t p = next_index_++;
    Rng rng(mix(seed_, p));
    ChannelConfig cc = cfg_.channel;
    cc.seed = mix(seed_ ^ 0xC0FFEEULL, p);
    cc.history_limit = cfg_.pass_len * 4;
    ReportChannel channel(cc);
    sent_.clear();
    ++stamp_;
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < cfg_.pass_len; ++i) {
      const std::size_t idx =
          cfg_.zipf_flows ? flow_zipf_.draw(rng)
                          : (p * cfg_.pass_len + i) % pool_->size();
      const PoolEntry& e = (*pool_)[idx];
      if (seen_[idx] != stamp_) {
        seen_[idx] = stamp_;
        ++distinct;
      }
      TagReport r = e.report;
      r.epoch = epoch;
      r.seq = seqs_.next(r.outport.sw);
      sent_.push_back({key(r.outport.sw, r.seq), e.faulty});
      channel.send(r);
    }
    pass_.index = p;
    pass_.datagrams = channel.drain_all();
    pass_.distinct_flows = distinct;

    // Channel faults hit a few percent of datagrams: small sets.
    std::unordered_set<std::uint64_t> corrupt, dup;
    for (const FaultRecord& f : channel.history()) {
      const std::uint64_t k = key(f.sw, static_cast<std::uint32_t>(f.rule));
      if (f.kind == FaultKind::kReportCorrupt) corrupt.insert(k);
      if (f.kind == FaultKind::kReportDuplicate) dup.insert(k);
    }
    Truth t;
    t.received = pass_.datagrams.size();
    for (std::uint64_t k : corrupt) t.quarantined += dup.contains(k) ? 2 : 1;
    for (std::uint64_t k : dup) t.deduped += corrupt.contains(k) ? 0 : 1;
    for (const auto& [k, faulty] : sent_) {
      if (!corrupt.empty() && corrupt.contains(k)) continue;
      ++(faulty ? t.failed : t.passed);
    }
    pass_.truth = t;
    return pass_;
  }

 private:
  static std::uint64_t key(SwitchId sw, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(sw) << 32) | seq;
  }

  const std::vector<PoolEntry>* pool_;
  StreamConfig cfg_;
  std::uint64_t seed_;
  SeqStamper seqs_;
  Zipf flow_zipf_;
  std::size_t next_index_ = 0;
  Pass pass_;
  std::vector<std::pair<std::uint64_t, bool>> sent_;  ///< (switch, seq) key
  std::vector<std::uint32_t> seen_;  ///< pool index -> last pass stamp
  std::uint32_t stamp_ = 0;
};

}  // namespace e2e
