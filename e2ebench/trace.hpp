// In-memory span recorder for the traced run (--trace 1).
//
// Spans are recorded only in the benchmark's own code, around its calls
// into the monitor's public functions. A span carries a layer name, a
// start and end time, the span that was open when it began (its parent)
// and the request it belongs to. Per-layer totals — calls, items, wall
// time and self time (wall time minus the time covered by child spans) —
// are kept as spans close, so the per-layer metrics never need the raw
// spans; the raw spans are kept up to a cap and written out at exit.
//
// With tracing off no Tracer exists and every Span is a null check.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

/// The layers the traced run records spans for, one per benchmark call
/// site into a module (or into the benchmark's own generator).
enum Layer : int {
  kSetup,           ///< Monitor construction + sync of both servers
  kIngestOffer,     ///< ReportIngest::offer, a chunk of datagrams
  kIngestProcess,   ///< ReportIngest::process
  kLocalize,        ///< Server::localize, one failed report
  kSubmit,          ///< ParallelServer::submit_datagram, one pass
  kDrain,           ///< ParallelServer::drain
  kRuleEvent,       ///< Controller::add_rule / delete_rule
  kFirstVerdict,    ///< offer + process of the report crossing the rule
  kPublish,         ///< ParallelServer::heartbeat
  kWireDecode,      ///< stage replay: wire::decode_report
  kVerifyBatch,     ///< stage replay: verify_epoch_aware_batch
  kTableLookup,     ///< stage replay: PathTable::lookup
  kBddEval,         ///< stage replay: BddManager::eval_packed_many
  kBloomTest,       ///< stage replay: BloomTag::may_contain
  kInfer,           ///< stage replay: Localizer::infer
  kIncrApply,       ///< stage replay: IncrementalUpdater::apply
  kBuild,           ///< stage replay: PathTableBuilder::build
  kGenerate,        ///< the benchmark's own traffic generator
  kNumLayers,
};

inline const char* layer_name(int l) {
  static const char* const kNames[kNumLayers] = {
      "setup",         "ingest.offer",   "ingest.process",
      "server.localize", "parallel_server.submit", "parallel_server.drain",
      "controller.rule_event", "server.first_verdict", "parallel_server.publish",
      "wire.decode",   "verifier.batch", "path_table.lookup",
      "bdd.eval",      "bloom.tag_test", "localizer.infer",
      "incremental.apply", "path_builder.build", "generator"};
  return kNames[l];
}

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;  ///< work units inside the spans (reports, hops…)
  std::int64_t wall_ns = 0;
  std::int64_t self_ns = 0;

  /// Self time per work unit, in nanoseconds.
  [[nodiscard]] double self_ns_per_item() const {
    return items ? static_cast<double>(self_ns) / static_cast<double>(items)
                 : 0.0;
  }
};

class Tracer {
 public:
  struct Record {
    int layer = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t id = 0;
    std::int64_t parent = -1;  ///< id of the enclosing span, -1 at top level
    std::uint64_t request = 0;
    std::uint64_t items = 0;
  };

  explicit Tracer(std::size_t keep = 1u << 18)
      : keep_(keep), totals_(kNumLayers) {}

  /// Opens a span; returns its handle for close().
  std::size_t open(Layer layer, std::uint64_t request) {
    Open o;
    o.layer = layer;
    o.request = request;
    o.parent_id = stack_.empty() ? -1 : stack_.back().id;
    o.id = static_cast<std::int64_t>(next_id_++);
    o.start_ns = now_ns();
    stack_.push_back(o);
    return stack_.size() - 1;
  }

  void close(std::size_t handle, std::uint64_t items) {
    const std::int64_t end = now_ns();
    Open o = stack_[handle];
    stack_.resize(handle);
    const std::int64_t wall = end - o.start_ns;
    LayerTotals& t = totals_[static_cast<std::size_t>(o.layer)];
    ++t.calls;
    t.items += items;
    t.wall_ns += wall;
    t.self_ns += wall - o.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += wall;
    if (records_.size() < keep_)
      records_.push_back({o.layer, o.start_ns, end, o.id, o.parent_id,
                          o.request, items});
    else
      ++dropped_;
  }

  [[nodiscard]] const LayerTotals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }

  /// Writes every kept span as one JSON object per line. Returns false if
  /// the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (const Record& r : records_) {
      std::fprintf(f,
                   "{\"id\": %lld, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu, "
                   "\"items\": %llu}\n",
                   static_cast<long long>(r.id), layer_name(r.layer),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   static_cast<long long>(r.parent),
                   static_cast<unsigned long long>(r.request),
                   static_cast<unsigned long long>(r.items));
    }
    std::fclose(f);
    return true;
  }

  [[nodiscard]] std::size_t kept() const { return records_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    int layer = 0;
    std::uint64_t request = 0;
    std::int64_t id = 0;
    std::int64_t parent_id = -1;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };

  std::size_t keep_;
  std::vector<LayerTotals> totals_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::uint64_t next_id_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The run's tracer: null unless --trace 1.
inline Tracer*& tracer() {
  static Tracer* t = nullptr;
  return t;
}

/// RAII span around one call (or one loop of calls) into a layer.
/// Items (work units covered) default to 1 and may be set before close.
class Span {
 public:
  explicit Span(Layer layer, std::uint64_t request = 0) {
    if (Tracer* t = tracer()) handle_ = static_cast<std::int64_t>(
                                  t->open(layer, request));
  }
  ~Span() {
    if (handle_ >= 0)
      tracer()->close(static_cast<std::size_t>(handle_), items_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void items(std::uint64_t n) { items_ = n; }

 private:
  std::int64_t handle_ = -1;
  std::uint64_t items_ = 1;
};

}  // namespace e2e
