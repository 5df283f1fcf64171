#include "veridp/incremental.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace veridp {

namespace {

[[noreturn]] void reject(SwitchId s, const std::string& what) {
  throw std::invalid_argument("IncrementalUpdater: switch " +
                              std::to_string(s) + " " + what +
                              " (outside the §4.4 dst-prefix fragment)");
}

void require_fragment(SwitchId s, const FlowRule& r) {
  if (!r.match.is_dst_prefix_only())
    reject(s, "rule " + std::to_string(r.id) + " matches beyond a dst prefix");
  if (!r.action.rewrite.empty())
    reject(s, "rule " + std::to_string(r.id) + " rewrites headers");
}

template <class Terminals>
auto find_terminal(Terminals& terms, PortId y) {
  return std::find_if(terms.begin(), terms.end(),
                      [y](const auto& t) { return t.first == y; });
}

}  // namespace

// One node of the flow forest: the headers `h` that arrive at switch `s`
// via local port `x`, having entered the network at `inport` and
// accumulated `tag` so far (tag of the chain up to but excluding this
// switch's outgoing hop); `via` is the parent's output port it hangs off.
// `children` are continuations into neighboring switches, keyed by this
// switch's output port; `terminals` are the output ports whose branch
// ends here (edge port or ⊥), each with the headers of the path entry it
// owns (always equal to that entry's headers).
struct IncrementalUpdater::FlowNode {
  PortKey inport;
  SwitchId s = kNoSwitch;
  PortId x = 0;
  PortId via = 0;
  HeaderSet h;
  BloomTag tag{BloomTag::kDefaultBits};
  FlowNode* parent = nullptr;
  ChildMap children;
  std::vector<Terminal> terminals;
};

IncrementalUpdater::IncrementalUpdater(const HeaderSpace& space,
                                       const Topology& topo, int tag_bits)
    : space_(&space),
      topo_(&topo),
      tag_bits_(tag_bits),
      by_switch_(topo.num_switches()) {
  trees_.reserve(topo.num_switches());
  for (SwitchId s = 0; s < topo.num_switches(); ++s)
    trees_.push_back(std::make_unique<RuleTree>(space, topo.num_ports(s)));
}

IncrementalUpdater::~IncrementalUpdater() = default;

std::vector<Hop> IncrementalUpdater::chain_path(const FlowNode& node,
                                                PortId y) const {
  // Hops of the chain root..node, ending with node's hop out of port y.
  // Sized exactly: the table keeps this vector for the entry's lifetime.
  std::size_t depth = 0;
  for (const FlowNode* n = &node; n->parent; n = n->parent) ++depth;
  std::vector<Hop> path(depth + 1);
  path[depth] = Hop{node.x, node.s, y};
  for (const FlowNode* n = &node; n->parent; n = n->parent)
    path[--depth] = Hop{n->parent->x, n->parent->s, n->via};
  return path;
}

bool IncrementalUpdater::would_loop(const FlowNode& node,
                                    PortKey next) const {
  for (const FlowNode* n = &node; n; n = n->parent)
    if (PortKey{n->s, n->x} == next) return true;
  return false;
}

bool IncrementalUpdater::subtract_entry(const FlowNode& node, Terminal& t,
                                        const HeaderSet& h_sub) {
  HeaderSet rest = t.second - h_sub;
  if (rest == t.second) return true;  // the entry does not meet h_sub
  t.second = std::move(rest);
  const PortKey outport{node.s, t.first};
  const std::vector<Hop> path = chain_path(node, t.first);
  if (t.second.empty()) {
    table_.remove_path(node.inport, outport, path);
    return false;
  }
  auto* list =
      const_cast<PathTable::EntryList*>(table_.lookup(node.inport, outport));
  assert(list);
  for (PathEntry& e : *list)
    if (e.path == path) {
      e.headers = t.second;
      return true;
    }
  assert(false && "terminal without a path entry");
  return true;
}

void IncrementalUpdater::handle_out(FlowNode& node, PortId y,
                                    const HeaderSet& h2) {
  if (h2.empty()) return;
  const bool is_drop = (y == kDropPort);
  const PortKey out{node.s, y};
  const bool is_edge = !is_drop && topo_->is_edge_port(out);

  const Hop hop{node.x, node.s, y};
  BloomTag tag2 = node.tag;
  tag2.insert(hop);

  if (is_drop || is_edge) {
    table_.add_path(node.inport, out, h2, chain_path(node, y), tag2);
    auto t = find_terminal(node.terminals, y);
    if (t == node.terminals.end())
      node.terminals.emplace_back(y, h2);
    else
      t->second |= h2;
    return;
  }

  const auto next = topo_->peer(out);
  assert(next.has_value());
  if (would_loop(node, *next)) return;  // §6.1 loop cut-off

  auto it = node.children.find(y);
  if (it != node.children.end()) {
    FlowNode& child = *it->second;
    child.h |= h2;
    propagate(child, h2);
    return;
  }
  auto child = std::make_unique<FlowNode>();
  child->inport = node.inport;
  child->s = next->sw;
  child->x = next->port;
  child->via = y;
  child->h = h2;
  child->tag = tag2;
  child->parent = &node;
  FlowNode* raw = child.get();
  node.children.emplace(y, std::move(child));
  by_switch_[static_cast<std::size_t>(raw->s)].insert(raw);
  ++num_nodes_;
  propagate(*raw, h2);
}

void IncrementalUpdater::propagate(FlowNode& node, const HeaderSet& h_add) {
  const RuleTree& tree = *trees_[static_cast<std::size_t>(node.s)];
  const PortId n = topo_->num_ports(node.s);
  for (PortId yi = 1; yi <= n + 1; ++yi) {
    const PortId y = (yi == n + 1) ? kDropPort : yi;
    const HeaderSet pred =
        y == kDropPort ? tree.drop_predicate() : tree.port_predicate(y);
    const HeaderSet part = h_add & pred;
    handle_out(node, y, part);
    // The port predicates partition the header space: once one port
    // takes all of h_add, every other port meets it in nothing.
    if (part == h_add) return;
  }
}

void IncrementalUpdater::erase_subtree(FlowNode& node) {
  for (const auto& [y, owned] : node.terminals)
    table_.remove_path(node.inport, PortKey{node.s, y}, chain_path(node, y));
  node.terminals.clear();
  for (auto& [y, child] : node.children) {
    (void)y;
    erase_subtree(*child);
    by_switch_[static_cast<std::size_t>(child->s)].erase(child.get());
    --num_nodes_;
  }
  node.children.clear();
}

void IncrementalUpdater::subtract_subtree(FlowNode& node,
                                          const HeaderSet& h_sub) {
  const HeaderSet hh = node.h & h_sub;
  if (hh.empty()) return;
  node.h -= hh;

  // Shrink terminal entries first (they reference the pre-erase chain).
  for (auto t = node.terminals.begin(); t != node.terminals.end();)
    t = subtract_entry(node, *t, hh) ? std::next(t) : node.terminals.erase(t);
  for (auto it = node.children.begin(); it != node.children.end();)
    it = subtract_child(node, it, hh);
}

IncrementalUpdater::ChildMap::iterator IncrementalUpdater::subtract_child(
    FlowNode& node, ChildMap::iterator it, const HeaderSet& h_sub) {
  FlowNode& child = *it->second;
  subtract_subtree(child, h_sub);
  if (!child.h.empty()) return std::next(it);
  erase_subtree(child);
  by_switch_[static_cast<std::size_t>(child.s)].erase(&child);
  --num_nodes_;
  return node.children.erase(it);
}

void IncrementalUpdater::initialize(const std::vector<SwitchConfig>& logical) {
  assert(logical.size() == topo_->num_switches());
  table_.clear();
  roots_.clear();
  for (auto& set : by_switch_) set.clear();
  num_nodes_ = 0;

  // Phase 0: seed the rule trees (port predicates), rejecting anything
  // outside the §4.4 fragment.
  for (SwitchId s = 0; s < logical.size(); ++s) {
    const SwitchConfig& cfg = logical[static_cast<std::size_t>(s)];
    for (const auto* acls : {&cfg.in_acls, &cfg.out_acls})
      for (const auto& [port, acl] : *acls)
        if (!acl.trivially_permits_all())
          reject(s, "port " + std::to_string(port) + " has an ACL");
    for (const FlowRule& r : cfg.table.rules()) {
      require_fragment(s, r);
      trees_[static_cast<std::size_t>(s)]->add(r.id, r.match.dst,
                                               r.action.out);
    }
  }

  // Phase 1: grow the flow forest — Algorithm 2 from every edge port.
  for (const PortKey& inport : topo_->edge_ports()) {
    auto root = std::make_unique<FlowNode>();
    root->inport = inport;
    root->s = inport.sw;
    root->x = inport.port;
    root->h = space_->all();
    root->tag = BloomTag(tag_bits_);
    FlowNode* raw = root.get();
    roots_.push_back(std::move(root));
    by_switch_[static_cast<std::size_t>(raw->s)].insert(raw);
    ++num_nodes_;
    propagate(*raw, raw->h);
  }
}

IncrementalUpdater::UpdateStats IncrementalUpdater::redirect(
    SwitchId s, const HeaderSet& delta, PortId from, PortId to) {
  UpdateStats stats;
  std::unordered_set<PortKey> inports;
  // Snapshot: redirection may create new nodes at s (paths looping back);
  // those are built against the new predicates already. A path may also
  // revisit switch s at another port, so processing one snapshot node can
  // erase a later one — check liveness against the registry first. (A
  // reused address necessarily belongs to a node created during this
  // redirect, for which the redirect is idempotent.)
  const auto& registry = by_switch_[static_cast<std::size_t>(s)];
  std::vector<FlowNode*> nodes(registry.begin(), registry.end());
  for (FlowNode* node : nodes) {
    if (!registry.contains(node)) continue;
    const HeaderSet h2 = node->h & delta;
    if (h2.empty()) continue;
    ++stats.nodes_touched;
    inports.insert(node->inport);

    // Shrink the losing branch. It may be a terminal, a child, or absent
    // (the branch was loop-cut during construction).
    if (auto t = find_terminal(node->terminals, from);
        t != node->terminals.end()) {
      if (!subtract_entry(*node, *t, h2)) node->terminals.erase(t);
    } else if (auto it = node->children.find(from);
               it != node->children.end()) {
      subtract_child(*node, it, h2);
    }

    // Grow the gaining branch.
    handle_out(*node, to, h2);
  }
  stats.inports_touched = inports.size();
  return stats;
}

IncrementalUpdater::UpdateStats IncrementalUpdater::apply(
    const RuleEvent& ev) {
  RuleTree& tree = *trees_[static_cast<std::size_t>(ev.sw)];
  std::optional<RuleTree::Delta> delta;
  if (ev.kind == RuleEvent::Kind::kAdd) {
    require_fragment(ev.sw, ev.rule);
    delta = tree.add(ev.rule.id, ev.rule.match.dst, ev.rule.action.out);
  } else {
    delta = tree.remove(ev.rule.id);
  }
  if (!delta || delta->moved.empty()) return {};
  if (delta->gaining_port == delta->losing_port) return {};
  return redirect(ev.sw, delta->moved, delta->losing_port,
                  delta->gaining_port);
}

IncrementalUpdater::UpdateStats IncrementalUpdater::apply_batch(
    const std::vector<RuleEvent>& events) {
  UpdateStats total;
  for (const RuleEvent& ev : events) {
    const UpdateStats s = apply(ev);
    total.nodes_touched += s.nodes_touched;
    total.inports_touched += s.inports_touched;
  }
  return total;
}

bool IncrementalUpdater::ownership_consistent() const {
  std::unordered_set<const PathEntry*> owned_entries;
  std::size_t owners = 0;
  std::vector<const FlowNode*> stack;
  for (const auto& root : roots_) stack.push_back(root.get());
  while (!stack.empty()) {
    const FlowNode& n = *stack.back();
    stack.pop_back();
    for (const auto& [y, owned] : n.terminals) {
      ++owners;
      const auto* list = table_.lookup(n.inport, PortKey{n.s, y});
      if (!list || owned.empty()) return false;
      const std::vector<Hop> path = chain_path(n, y);
      auto e = std::find_if(list->begin(), list->end(),
                            [&](const PathEntry& pe) { return pe.path == path; });
      if (e == list->end() || e->headers != owned) return false;
      owned_entries.insert(&*e);
    }
    for (const auto& [y, child] : n.children) stack.push_back(child.get());
  }
  return owned_entries.size() == owners &&
         owners == table_.stats().num_paths;
}

bool IncrementalUpdater::consistent_with_rebuild() const {
  RuleTreeProvider provider(trees_);
  PathTableBuilder builder(*space_, *topo_, provider, tag_bits_);
  const PathTable rebuilt = builder.build();
  return equivalent(table_, rebuilt);
}

}  // namespace veridp
