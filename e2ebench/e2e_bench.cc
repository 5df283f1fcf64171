// End-to-end monitor benchmark: one command per workload.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--spans-out <file>] [--revision <id>]
//
// Builds the monitor from a seeded generator, offers the generated
// datagrams and rule events to the servers' public entry points from one
// process, checks every verdict against ground truth, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around its calls into each module and prints the
// per-layer metrics instead. README.md in this directory explains the
// workloads and the metric design.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "generator.hpp"
#include "monitor.hpp"
#include "trace.hpp"
#include "veridp/incremental.hpp"
#include "veridp/localizer.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/report_batch.hpp"

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define E2E_UNFIT_BUILD 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define E2E_UNFIT_BUILD 1
#endif
#endif

namespace e2e {
namespace {

// -- Small helpers ------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Heap bytes in use, over every malloc arena plus mmapped blocks, in MB.
/// Unlike RSS this does not depend on how much freed memory the allocator
/// kept: RSS after malloc_trim moved by up to 50 MB between runs of the
/// same work, with set-ups and publishes freeing large arenas.
double heap_in_use_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// Resident set size after returning freed heap pages to the system, in
/// MB (printed with the details).
double trimmed_rss_mb() {
  malloc_trim(0);
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Host speed reference: a fixed dependent-read walk over a 16 MiB random
/// cycle, in ns per step. Printed with the details, never a metric.
double host_reference_ns() {
  constexpr std::size_t kN = 1u << 22;
  std::vector<std::uint32_t> next(kN);
  std::vector<std::uint32_t> perm(kN);
  std::iota(perm.begin(), perm.end(), 0u);
  Rng rng(0x5EED);
  std::shuffle(perm.begin() + 1, perm.end(), rng.engine());
  for (std::size_t i = 0; i < kN; ++i) next[perm[i]] = perm[(i + 1) % kN];
  const auto t0 = Clock::now();
  std::uint32_t at = 0;
  constexpr std::size_t kSteps = 1u << 22;
  for (std::size_t i = 0; i < kSteps; ++i) at = next[at];
  const double s = seconds_since(t0);
  if (at == 0xFFFFFFFFu) std::printf("unreachable\n");
  return s * 1e9 / static_cast<double>(kSteps);
}

/// Host parallelism reference: the same fixed spin on one thread, then
/// on `nproc` threads at once; returns how many of them ran in parallel.
/// The parallel server's throughput follows this figure, which moves with
/// the host's load. Printed with the details, never a metric.
double host_parallel_cpus() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  auto spin = [] {
    std::uint64_t x = 1;
    for (std::uint32_t i = 0; i < (1u << 25); ++i)
      x = x * 6364136223846793005ULL + i;
    return x;
  };
  std::vector<std::uint64_t> sink(n);
  auto t0 = Clock::now();
  sink[0] = spin();
  const double one = seconds_since(t0);
  std::vector<std::thread> threads;
  t0 = Clock::now();
  for (unsigned i = 0; i < n; ++i)
    threads.emplace_back([&sink, &spin, i] { sink[i] = spin(); });
  for (std::thread& t : threads) t.join();
  const double all = seconds_since(t0);
  if (std::accumulate(sink.begin(), sink.end(), std::uint64_t{0}) == 42)
    std::printf("unreachable\n");
  return static_cast<double>(n) * one / all;
}

/// Output checks: every violation is one failed operation.
class Checks {
 public:
  /// `what` is a literal, so a check inside a timed loop allocates nothing.
  void expect(bool ok, const char* what) {
    ++checked_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) std::printf("CHECK FAILED: %s\n", what);
  }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t checked() const { return checked_; }

 private:
  std::uint64_t checked_ = 0;
  std::uint64_t failed_ = 0;
};

/// FNV-1a over the inputs the work-content fingerprint pins.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(const Prefix& p) {
    add(p.addr);
    add(p.len);
  }
  void add(const TagReport& r) {
    for (std::uint8_t b : wire::encode_report(r)) add(b);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// -- Workloads ---------------------------------------------------------------

enum class Kind { kHotFaulty, kFresh, kChurn };

struct Spec {
  const char* name;
  Shape shape;
  Kind kind;
};

constexpr Spec kSpecs[] = {
    {"fattree_hot_faulty", Shape::kFatTree, Kind::kHotFaulty},
    {"internet2_fresh", Shape::kInternet2, Kind::kFresh},
    {"internet2_churn", Shape::kInternet2, Kind::kChurn},
};

/// Everything the workload fixes: sizes and counts, never seed-drawn.
struct Sizes {
  std::size_t slices;          ///< side-probe slices spread over the window
  std::size_t hot_flows;       ///< fat-tree hot-flow pool
  std::size_t fresh_flows;     ///< Internet2 fresh-flow pool
  std::size_t pass_len;        ///< reports sent per generated pass
  std::size_t chunk;           ///< datagrams offered per process() call
  std::vector<std::size_t> fault_ranks;  ///< planted-fault destinations
  std::size_t churn_rules;     ///< rules the churn cycles
  std::size_t mem_events;      ///< churn: events before mem_mb is read
  std::size_t publish_every;   ///< churn: cycles between publishes
  std::size_t inflight;        ///< old-epoch reports after each event
  std::size_t fresh_per_event; ///< new-epoch reports after each event
  std::size_t probe_events;    ///< update probe on the read workloads
  std::size_t probe_publish_every;  ///< update probe: events per publish
  std::size_t localize_probe;  ///< failing reports localized (Internet2)
};

Sizes sizes_for(const Spec& spec, bool tiny) {
  Sizes z{};
  z.slices = tiny ? 3 : 16;
  z.hot_flows = tiny ? 200 : 2000;
  z.fresh_flows = tiny ? 2048 : 131072;
  z.pass_len = tiny ? 4096 : 65536;
  z.chunk = tiny ? 512 : 4096;
  if (spec.shape == Shape::kFatTree)
    z.fault_ranks = tiny ? std::vector<std::size_t>{2, 5}
                         : std::vector<std::size_t>{8, 9, 15, 27, 52};
  else
    z.fault_ranks = {3, 8, 15};
  z.churn_rules = tiny ? 8 : 64;
  // Halfway between two publishes, so the reading never lands on one.
  z.mem_events = tiny ? 45 : 2100;
  z.publish_every = tiny ? 5 : 100;
  z.inflight = 4;
  z.fresh_per_event = 16;
  z.probe_events = tiny ? 48 : 4096;
  z.probe_publish_every = tiny ? 16 : 128;
  z.localize_probe = tiny ? 64 : 8000;
  return z;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
  std::string revision = "unknown";
};

// -- The set-up under test ---------------------------------------------------

/// The controller (the monitor's input) and the monitor built from it.
/// Declared in this order so the monitor is destroyed first.
struct Deployed {
  std::unique_ptr<Controller> controller;
  std::unique_ptr<Monitor> monitor;
};

// -- Read traffic ------------------------------------------------------------

struct SeqResult {
  std::uint64_t reports = 0;
  double seconds = 0.0;
  std::uint64_t localized = 0;
  double localize_seconds = 0.0;
  std::uint64_t pass0_localized = 0;
  std::uint64_t failed_seen = 0;  ///< ingest failures already localized
  IngestHealth pass0;
  std::size_t passes = 0;
};

bool blames_planted(const LocalizeResult& r,
                    const std::unordered_set<SwitchId>& planted) {
  return std::any_of(r.candidates.begin(), r.candidates.end(),
                     [&](const Candidate& c) {
                       return planted.contains(c.deviating_switch);
                     });
}

/// One pass of the serve stream through ReportIngest::offer + process()
/// on the sequential server, chunk by chunk. Then the pass's failed
/// reports are localized one after another (closed loop).
void serve_sequential_pass(Monitor& m, Stream& stream, std::uint32_t epoch,
                           std::size_t chunk,
                           const std::unordered_set<SwitchId>& planted,
                           Checks& checks, Truth& truth, SeqResult& res) {
  const Pass* pass;
  {
    Span g(kGenerate);
    pass = &stream.next(epoch);
  }
  const auto& dg = pass->datagrams;
  for (std::size_t at = 0; at < dg.size(); at += chunk) {
    const std::size_t end = std::min(dg.size(), at + chunk);
    const auto t0 = Clock::now();
    {
      Span o(kIngestOffer);
      for (std::size_t i = at; i < end; ++i) m.offer(dg[i]);
      o.items(end - at);
    }
    {
      Span p(kIngestProcess);
      p.items(m.process());
    }
    res.seconds += seconds_since(t0);
    res.reports += end - at;
  }
  const std::uint64_t failed = m.ingest_health().failed;
  const auto& fails = m.recent_failures();
  const std::size_t fresh = static_cast<std::size_t>(failed - res.failed_seen);
  res.failed_seen = failed;
  checks.expect(fresh <= fails.size(), "failures retained for localization");
  for (std::size_t i = fails.size() - std::min(fresh, fails.size());
       i < fails.size(); ++i) {
    const auto l0 = Clock::now();
    LocalizeResult r;
    {
      Span l(kLocalize);
      r = m.localize(fails[i]);
    }
    res.localize_seconds += seconds_since(l0);
    ++res.localized;
    if (pass->index == 0) ++res.pass0_localized;
    checks.expect(blames_planted(r, planted),
                  "localization blames a planted switch");
  }
  truth += pass->truth;
  const IngestHealth h = m.ingest_health();
  checks.expect(h.conserved() && h.in_queue == 0, "sequential conserved()");
  checks.expect(h.received == truth.received && h.passed == truth.passed &&
                    h.failed == truth.failed && h.stale == 0 &&
                    h.shed == 0 && h.deduped == truth.deduped,
                "sequential verdicts match ground truth");
  checks.expect(h.quarantined == truth.quarantined,
                "quarantined equals corrupted datagrams delivered");
  if (pass->index == 0) res.pass0 = h;
  ++res.passes;
}

struct ParResult {
  std::uint64_t reports = 0;
  double seconds = 0.0;
  ParallelHealth pass0;
  std::size_t passes = 0;
};

/// One pass of the same stream through ParallelServer::submit_datagram
/// from one producer while the workers run (the caller starts the pool),
/// timed from the first submit to drain().
void serve_parallel_pass(Monitor& m, Stream& stream, std::uint32_t epoch,
                         Checks& checks, Truth& truth, ParResult& res) {
  const Pass* pass;
  {
    Span g(kGenerate);
    pass = &stream.next(epoch);
  }
  const auto& dg = pass->datagrams;
  const auto t0 = Clock::now();
  {
    Span s(kSubmit);
    for (const auto& d : dg) m.submit(d);
    s.items(dg.size());
  }
  {
    Span s(kDrain);
    m.drain();
  }
  res.seconds += seconds_since(t0);
  res.reports += dg.size();
  truth += pass->truth;
  const ParallelHealth h = m.parallel_health();
  checks.expect(h.conserved() && h.in_queue == 0, "parallel conserved()");
  checks.expect(h.shed == 0, "parallel server shed nothing");
  checks.expect(h.received == truth.received && h.passed == truth.passed &&
                    h.failed == truth.failed && h.stale == 0 &&
                    h.deduped == truth.deduped &&
                    h.quarantined == truth.quarantined,
                "parallel verdicts match ground truth");
  if (pass->index == 0) res.pass0 = h;
  ++res.passes;
}

// -- Rule events --------------------------------------------------------------

/// Endless delete/re-add cycles over a fixed set of churned rules. Each
/// round visits every rule once, in an order drawn from the run seed.
/// After each event comes a burst: the report crossing the changed rule
/// at the new epoch (timed: the update latency), in-flight reports at the
/// old epoch, and fresh reports.
class Churn {
 public:
  Churn(Controller& c, Monitor& m, std::vector<ChurnRule> rules,
        std::vector<TagReport> fresh, std::uint64_t seed, const Sizes& z,
        Checks& checks)
      : c_(c),
        m_(m),
        rules_(std::move(rules)),
        fresh_(std::move(fresh)),
        rng_(mix(seed, 0xE7E7)),
        seqs_(c.topology().num_switches()),
        z_(z),
        checks_(checks) {
    for (const ChurnRule& r : rules_) ids_.push_back(r.rule.id);
  }

  /// One rule event and its burst; returns the update latency (s).
  double event() {
    if (!deleted_) {
      if (pos_ == order_.size()) {
        order_.resize(rules_.size());
        std::iota(order_.begin(), order_.end(), std::size_t{0});
        std::shuffle(order_.begin(), order_.end(), rng_.engine());
        pos_ = 0;
      }
      cur_ = order_[pos_++];
    }
    const ChurnRule& cr = rules_[cur_];
    const TagReport& before = deleted_ ? cr.absent : cr.present;
    const TagReport& after = deleted_ ? cr.present : cr.absent;
    const std::uint32_t old_epoch = c_.epoch();
    const std::uint32_t new_epoch = old_epoch + 1;
    std::vector<std::vector<std::uint8_t>> burst;
    std::vector<std::uint8_t> crossing;
    {
      Span g(kGenerate);
      crossing = encode(after, new_epoch, seqs_);
      burst.push_back(encode(before, old_epoch, seqs_));
      for (std::size_t i = 1; i < z_.inflight; ++i)
        burst.push_back(encode(next_fresh(), old_epoch, seqs_));
      for (std::size_t i = 0; i < z_.fresh_per_event; ++i)
        burst.push_back(encode(next_fresh(), new_epoch, seqs_));
    }
    const IngestHealth h0 = m_.ingest_health();
    const auto t0 = Clock::now();
    {
      Span ev(kRuleEvent, events_);
      if (deleted_) {
        ids_[cur_] = c_.add_rule(cr.sw, cr.rule.priority, cr.rule.match,
                                 cr.rule.action);
      } else {
        checks_.expect(c_.delete_rule(cr.sw, ids_[cur_]).has_value(),
                       "churned rule deleted");
      }
    }
    {
      Span fv(kFirstVerdict, events_);
      m_.offer(crossing);
      m_.process();
    }
    const double latency = seconds_since(t0);
    const IngestHealth h1 = m_.ingest_health();
    checks_.expect(h1.passed == h0.passed + 1,
                   "new-epoch crossing report passes");

    const auto b0 = Clock::now();
    {
      Span o(kIngestOffer, events_);
      for (const auto& d : burst) m_.offer(d);
      o.items(burst.size());
    }
    {
      Span p(kIngestProcess, events_);
      p.items(m_.process());
    }
    burst_seconds_ += seconds_since(b0);
    burst_reports_ += burst.size();
    const IngestHealth h2 = m_.ingest_health();
    checks_.expect(h2.failed == h1.failed, "no in-flight or fresh report fails");
    checks_.expect(h2.passed - h1.passed >= z_.fresh_per_event &&
                       (h2.passed + h2.stale) - (h1.passed + h1.stale) ==
                           burst.size(),
                   "burst verdicts: fresh pass, in-flight pass or stale");
    checks_.expect(h2.conserved() && h2.in_queue == 0, "sequential conserved()");

    deleted_ = !deleted_;
    if (!deleted_) ++cycles_;
    last_ = after;
    ++events_;
    return latency;
  }

  /// Publishes the pending events through one heartbeat (fresh arena +
  /// A/B flip) and waits for the first new-epoch verdict; returns that
  /// time (s). Then checks that in-flight reports at the previous epoch
  /// do not fail. The worker pool runs only for this.
  double publish() {
    const std::uint32_t epoch = c_.epoch();
    std::vector<std::uint8_t> crossing;
    std::vector<std::vector<std::uint8_t>> inflight;
    {
      Span g(kGenerate);
      crossing = encode(last_, epoch, seqs_);
      for (std::size_t i = 0; i < z_.inflight; ++i)
        inflight.push_back(encode(next_fresh(), epoch - 1, seqs_));
    }
    m_.start();
    const ParallelHealth p0 = m_.parallel_health();
    const auto t0 = Clock::now();
    {
      Span p(kPublish, events_);
      m_.heartbeat();
    }
    m_.submit(crossing);
    m_.drain();
    const double latency = seconds_since(t0);
    const ParallelHealth p1 = m_.parallel_health();
    checks_.expect(p1.passed == p0.passed + 1,
                   "first verdict after publish passes");
    for (const auto& d : inflight) m_.submit(d);
    m_.drain();
    const ParallelHealth p2 = m_.parallel_health();
    checks_.expect(p2.failed == p1.failed && p2.shed == 0,
                   "no in-flight report fails or sheds after publish");
    checks_.expect(p2.conserved() && p2.in_queue == 0, "parallel conserved()");
    m_.stop();
    ++publishes_;
    return latency;
  }

  [[nodiscard]] std::size_t events() const { return events_; }
  [[nodiscard]] std::size_t cycles() const { return cycles_; }
  [[nodiscard]] std::size_t publishes() const { return publishes_; }
  [[nodiscard]] double burst_rps() const {
    return burst_seconds_ > 0 ? static_cast<double>(burst_reports_) /
                                    burst_seconds_
                              : 0.0;
  }
  [[nodiscard]] std::uint64_t reports() const {
    return burst_reports_ + events_ + publishes_ * (1 + z_.inflight);
  }

 private:
  const TagReport& next_fresh() {
    const TagReport& r = fresh_[fresh_pos_];
    fresh_pos_ = (fresh_pos_ + 1) % fresh_.size();
    return r;
  }

  Controller& c_;
  Monitor& m_;
  std::vector<ChurnRule> rules_;
  std::vector<RuleId> ids_;
  std::vector<TagReport> fresh_;
  Rng rng_;
  SeqStamper seqs_;
  const Sizes& z_;
  Checks& checks_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
  std::size_t cur_ = 0;
  bool deleted_ = false;
  std::size_t fresh_pos_ = 0;
  TagReport last_;
  std::size_t events_ = 0;
  std::size_t cycles_ = 0;
  std::size_t publishes_ = 0;
  double burst_seconds_ = 0.0;
  std::uint64_t burst_reports_ = 0;
};

struct UpdateResult {
  std::vector<double> update_s;
  std::vector<double> publish_s;
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
  std::size_t events = 0;
};

/// Runs `churn` until `budget` seconds have passed and at least
/// `min_events` events happened, publishing every `publish_every` cycles.
/// `after_event` runs after every event with the seconds elapsed.
UpdateResult run_churn(Churn& churn, Monitor& m, double budget,
                       std::size_t min_events, std::size_t publish_every,
                       const std::function<void(double)>& after_event) {
  UpdateResult r;
  r.nodes_before = m.server_bdd_nodes();
  const std::size_t first_event = churn.events();
  const auto t0 = Clock::now();
  while (seconds_since(t0) < budget || churn.events() < min_events) {
    r.update_s.push_back(churn.event());
    if (churn.events() % 2 == 0 && churn.cycles() % publish_every == 0)
      r.publish_s.push_back(churn.publish());
    after_event(seconds_since(t0));
  }
  r.nodes_after = m.server_bdd_nodes();
  r.events = churn.events() - first_event;
  return r;
}

// -- Side probes ---------------------------------------------------------------

/// Runs `job` on a fresh thread and waits for it. glibc gives the thread
/// a malloc arena of its own, so the job's heap churn (whole monitors
/// built and freed) never fragments the main thread's arena, which the
/// servers under test allocate from. With the side probes on the main
/// thread, the parallel server's producer-bound rate on internet2_fresh
/// fell from about 1.0 to 0.5 M reports/s (4-core VM).
void on_side_thread(const std::function<void()>& job) {
  std::exception_ptr error;
  std::thread t([&] {
    try {
      job();
    } catch (...) {
      error = std::current_exception();
    }
  });
  t.join();
  if (error) std::rethrow_exception(error);
}

/// Measurements a workload's main window has no traffic for. They run in
/// slices spread evenly over the main window, so they sample the host
/// over the same stretch of time as the main metrics instead of one short
/// block, and each runs on a monitor of its own, so none can leak state
/// into the main window's servers:
///   * set-up: one throwaway controller + monitor per slice;
///   * update probe (read workloads): rule events on a second monitor,
///     a few after every pass rather than per slice (run_due), with a
///     publish every `probe_publish_every` events;
///   * localization probe (Internet2 workloads): one round over fixed
///     failing reports per slice, on that slice's throwaway monitor.
/// All of it runs on side threads (on_side_thread).
class SideProbes {
 public:
  /// `update`: run the update probe on a monitor of its own. Non-empty
  /// `failing`: localize those reports each slice and check the blame
  /// against `planted`.
  SideProbes(const Deployment& dep, const Sizes& z, bool update,
             const std::vector<ChurnRule>& churn_rules,
             const std::vector<TagReport>& burst_pool, std::uint64_t seed,
             std::vector<TagReport> failing,
             std::unordered_set<SwitchId> planted, Checks& checks)
      : dep_(dep),
        z_(z),
        checks_(checks),
        failing_(std::move(failing)),
        planted_(std::move(planted)) {
    if (!update) return;
    on_side_thread([&] {
      own_.controller = dep_.make_controller();
      const auto t0 = Clock::now();
      own_.monitor = std::make_unique<Monitor>(*own_.controller);
      setup_s_.push_back(seconds_since(t0));
      churn_ = std::make_unique<Churn>(*own_.controller, *own_.monitor,
                                       churn_rules, burst_pool, seed, z_,
                                       checks_);
    });
  }

  /// Runs the slices due once `progress` (0..1) of the window has passed,
  /// then the update probe's events due by then. Callers call this after
  /// every pass, so the probe's events sample the host in small groups
  /// over the whole window: in 16 bursts, a few slow stretches of the
  /// host could set the fat tree's update p50.
  void run_due(double progress) {
    while (done_ < z_.slices &&
           static_cast<double>(done_) <
               progress * static_cast<double>(z_.slices))
      on_side_thread([this] { slice(); });
    if (!churn_) return;
    const std::size_t due = std::min(
        z_.probe_events, static_cast<std::size_t>(
                             progress * static_cast<double>(z_.probe_events)));
    if (upd_.events < due) on_side_thread([this, due] { update_events(due); });
  }

  /// Drops the update probe's monitor (before the memory reading).
  void release() {
    if (churn_) probe_reports_ = churn_->reports();
    on_side_thread([this] {
      churn_.reset();
      own_.monitor.reset();
      own_.controller.reset();
    });
  }

  /// The controller the update probe's rule events go to, if any.
  [[nodiscard]] Controller* controller() { return own_.controller.get(); }
  [[nodiscard]] const std::vector<double>& setup_s() const { return setup_s_; }
  [[nodiscard]] const UpdateResult& updates() const { return upd_; }
  /// Mean localize time per report over every round, in µs. Rounds are
  /// bimodal (about 20 or 35 µs on Internet2, in stretches of the run
  /// that follow the host), so the median round jumps between the two
  /// where the mean over all of them moves smoothly.
  [[nodiscard]] double localize_us() const {
    if (failing_.empty() || rounds_.empty()) return 0.0;
    return std::accumulate(rounds_.begin(), rounds_.end(), 0.0) * 1e6 /
           static_cast<double>(rounds_.size() * failing_.size());
  }
  [[nodiscard]] std::uint64_t attempted() const {
    return setup_s_.size() + (churn_ ? churn_->reports() : probe_reports_) +
           rounds_.size() * failing_.size();
  }

 private:
  void slice() {
    ++done_;
    Deployed tmp;
    tmp.controller = dep_.make_controller();
    const auto t0 = Clock::now();
    {
      Span s(kSetup, done_);
      tmp.monitor = std::make_unique<Monitor>(*tmp.controller);
    }
    setup_s_.push_back(seconds_since(t0));
    if (!failing_.empty()) {
      // On the freshly built monitor: every round reads rules laid out
      // anew in memory, so no one placement sets the number. Only the
      // localize calls are timed; the blame is checked afterwards.
      results_.clear();
      results_.resize(failing_.size());
      double round = 0.0;
      for (std::size_t i = 0; i < failing_.size(); ++i) {
        const auto l0 = Clock::now();
        {
          Span l(kLocalize);
          results_[i] = tmp.monitor->localize(failing_[i]);
        }
        round += seconds_since(l0);
      }
      rounds_.push_back(round);
      for (const LocalizeResult& res : results_)
        checks_.expect(blames_planted(res, planted_),
                       "localization blames a planted switch");
    }
  }

  /// Update probe: rule events until `due` have happened, with a publish
  /// every `probe_publish_every` events.
  void update_events(std::size_t due) {
    if (upd_.events == 0) upd_.nodes_before = own_.monitor->server_bdd_nodes();
    while (upd_.events < due) {
      upd_.update_s.push_back(churn_->event());
      if (++upd_.events % z_.probe_publish_every == 0)
        upd_.publish_s.push_back(churn_->publish());
    }
    upd_.nodes_after = own_.monitor->server_bdd_nodes();
  }

  const Deployment& dep_;
  const Sizes& z_;
  Checks& checks_;
  std::vector<TagReport> failing_;
  std::unordered_set<SwitchId> planted_;
  Deployed own_;
  std::unique_ptr<Churn> churn_;
  std::uint64_t probe_reports_ = 0;  ///< churn_->reports() at release
  std::size_t done_ = 0;
  std::vector<double> setup_s_;
  UpdateResult upd_;
  std::vector<double> rounds_;
  std::vector<LocalizeResult> results_;  ///< the current round's blames
};

// -- Stage replays (traced run only) -------------------------------------------

struct StageReplay {
  double memo_hit_rate = 0.0;
  double candidates_per_report = 0.0;
  double candidates_per_failure = 0.0;
  double infer_us = 0.0;
};

/// Replays a decoded serve stream through each stage's entry point on its
/// own: decode, the batched verifier, path-table probes, BDD evaluation,
/// Bloom tag tests and the localizer.
StageReplay replay_stages(const std::vector<std::vector<std::uint8_t>>& dg,
                          const EpochSnapshot& snap, const Controller& c,
                          std::size_t localize_cap) {
  StageReplay out;
  std::vector<TagReport> reports;
  reports.reserve(dg.size());
  {
    Span s(kWireDecode);
    for (const auto& d : dg)
      if (auto r = wire::decode_report(d)) reports.push_back(*r);
    s.items(dg.size());
  }

  // Batched verifier over the decoded reports, fresh memo.
  const std::size_t bs = autotuned_batch_size();
  std::vector<ReportBatch> batches;
  for (std::size_t i = 0; i < reports.size(); i += bs) {
    batches.emplace_back();
    for (std::size_t k = i; k < std::min(reports.size(), i + bs); ++k)
      batches.back().push(reports[k]);
  }
  const EpochTables tables = snap.view();
  VerifyMemo memo;
  std::vector<Verdict> verdicts(bs);
  std::vector<TagReport> failed;
  {
    Span s(kVerifyBatch);
    for (const ReportBatch& b : batches)
      verify_epoch_aware_batch(b, 0, b.size(), tables, &memo, verdicts.data());
    s.items(reports.size());
  }
  for (const ReportBatch& b : batches) {
    verify_epoch_aware_batch(b, 0, b.size(), tables, nullptr, verdicts.data());
    for (std::size_t k = 0; k < b.size(); ++k)
      if (verdicts[k].failed()) failed.push_back(b.report(k));
  }
  out.memo_hit_rate = memo.lookups() ? static_cast<double>(memo.hits()) /
                                           static_cast<double>(memo.lookups())
                                     : 0.0;

  // Path-table probes.
  const PathTable& table = *snap.current;
  std::size_t candidates = 0;
  {
    Span s(kTableLookup);
    for (const TagReport& r : reports)
      if (const auto* list = table.lookup(r.inport, r.outport))
        candidates += list->size();
    s.items(reports.size());
  }
  out.candidates_per_report =
      reports.empty() ? 0.0
                      : static_cast<double>(candidates) /
                            static_cast<double>(reports.size());

  // BDD membership: one lane per (report, candidate path).
  std::vector<BddRef> roots;
  std::vector<std::array<std::uint64_t, 2>> hdrs;
  const BddManager* mgr = nullptr;
  std::vector<std::pair<BloomTag, Hop>> tag_tests;
  for (const TagReport& r : reports) {
    const auto* list = table.lookup(r.inport, r.outport);
    if (!list) continue;
    for (const PathEntry& e : *list) {
      if (!mgr) mgr = e.headers.manager();
      if (e.headers.manager() != mgr) continue;
      roots.push_back(e.headers.ref());
      hdrs.push_back(r.header.bits_packed());
      if (e.headers.contains(r.header))
        for (const Hop& hop : e.path) tag_tests.push_back({r.tag, hop});
    }
  }
  std::vector<std::uint8_t> member(roots.size());
  if (mgr) {
    Span s(kBddEval);
    for (std::size_t i = 0; i < roots.size(); i += bs)
      mgr->eval_packed_many(roots.data() + i, hdrs.data() + i,
                            std::min(bs, roots.size() - i), member.data() + i);
    s.items(roots.size());
  }
  std::size_t contained = 0;
  {
    Span s(kBloomTest);
    for (const auto& [tag, hop] : tag_tests) contained += tag.may_contain(hop);
    s.items(tag_tests.size());
  }
  if (contained > tag_tests.size()) std::printf("unreachable\n");

  // Localizer: every failed report, or a probe of passing ones if the
  // stream has none (the layer then does little work on this workload).
  const std::vector<TagReport>& targets = failed.empty() ? reports : failed;
  const std::size_t n = std::min(localize_cap, targets.size());
  Localizer localizer(c.topology(), c.logical_configs());
  std::size_t cands = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Span s(kInfer, i);
    cands += localizer.infer(targets[i]).candidates.size();
  }
  out.candidates_per_failure =
      n ? static_cast<double>(cands) / static_cast<double>(n) : 0.0;
  return out;
}

/// IncrementalUpdater::apply over a recorded event sequence, from the
/// rules the sequence started on. Returns nodes touched per event.
double replay_incremental(const Topology& topo,
                          const std::vector<SwitchConfig>& initial,
                          const std::vector<RuleEvent>& events) {
  HeaderSpace space;
  IncrementalUpdater updater(space, topo);
  updater.initialize(initial);
  std::size_t touched = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    Span s(kIncrApply, i);
    touched += updater.apply(events[i]).nodes_touched;
  }
  return events.empty() ? 0.0
                        : static_cast<double>(touched) /
                              static_cast<double>(events.size());
}

void replay_build(const Controller& c, std::size_t reps) {
  for (std::size_t i = 0; i < reps; ++i) {
    HeaderSpace space;
    ConfigTransferProvider provider(space, c.topology(), c.logical_configs());
    PathTableBuilder builder(space, c.topology(), provider);
    Span s(kBuild, i);
    const PathTable t = builder.build();
    if (t.empty()) std::printf("empty path table\n");
  }
}

/// Cost of one span open + close, in ns.
double span_cost_ns() {
  Tracer scratch(0);
  Tracer* saved = tracer();
  tracer() = &scratch;
  constexpr std::size_t kN = 200000;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kN; ++i) Span s(kGenerate, i);
  const double s = seconds_since(t0);
  tracer() = saved;
  return s * 1e9 / static_cast<double>(kN);
}

/// The per-layer metrics: self times from the traced run's spans and
/// stage replays, and the counters the modules expose.
std::vector<Metric> layer_metrics(const Tracer& t, const Monitor& m,
                                  const StageReplay& st, double touched,
                                  const UpdateResult& upd, double rps,
                                  double overhead) {
  const IngestHealth ih = m.ingest_health();
  const ScalTotals pt = m.profile().totals();
  double max_cpu = 0, sum_cpu = 0;
  for (unsigned w = 0; w < m.workers(); ++w) {
    const double cpu = static_cast<double>(m.profile().slot_totals(w).cpu_ns);
    max_cpu = std::max(max_cpu, cpu);
    sum_cpu += cpu;
  }
  const double items =
      static_cast<double>(std::max<std::uint64_t>(pt.batch_items, 1));
  auto per_call_us = [&](Layer l) {
    const LayerTotals& x = t.totals(l);
    return x.calls ? static_cast<double>(x.wall_ns) / 1e3 /
                         static_cast<double>(x.calls)
                   : 0.0;
  };
  auto frac = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  return {
      {"wire.decode_ns", "ns", t.totals(kWireDecode).self_ns_per_item()},
      {"ingest.offer_ns", "ns", t.totals(kIngestOffer).self_ns_per_item()},
      {"ingest.process_ns", "ns", t.totals(kIngestProcess).self_ns_per_item()},
      {"ingest.dedup_frac", "ratio", frac(ih.deduped, ih.received)},
      {"ingest.quarantine_frac", "ratio", frac(ih.quarantined, ih.received)},
      {"parallel_server.verify_rps", "reports/s", rps},
      {"parallel_server.submit_ns", "ns", t.totals(kSubmit).self_ns_per_item()},
      {"parallel_server.wait_frac", "ratio", pt.wait_fraction()},
      {"parallel_server.batch_occupancy", "reports", pt.batch_occupancy()},
      {"parallel_server.locks_per_report", "count",
       static_cast<double>(pt.lock_acquisitions) / items},
      {"parallel_server.snapshot_loads_per_report", "count",
       static_cast<double>(pt.snapshot_loads) / items},
      {"parallel_server.steal_frac", "ratio",
       static_cast<double>(pt.stolen_items) / items},
      {"parallel_server.worker_cpu_imbalance", "ratio",
       sum_cpu > 0 ? max_cpu / (sum_cpu / m.workers()) : 0.0},
      {"verifier.batch_ns", "ns", t.totals(kVerifyBatch).self_ns_per_item()},
      {"verifier.memo_hit_rate", "ratio", st.memo_hit_rate},
      {"path_table.lookup_ns", "ns", t.totals(kTableLookup).self_ns_per_item()},
      {"path_table.candidates_per_report", "count", st.candidates_per_report},
      {"bdd.eval_ns", "ns", t.totals(kBddEval).self_ns_per_item()},
      {"bloom.tag_test_ns", "ns", t.totals(kBloomTest).self_ns_per_item()},
      {"localizer.infer_us", "us", per_call_us(kInfer)},
      {"localizer.candidates_per_failure", "count", st.candidates_per_failure},
      {"controller.rule_event_us", "us", per_call_us(kRuleEvent)},
      {"incremental.apply_us", "us", per_call_us(kIncrApply)},
      {"incremental.nodes_touched_per_event", "count", touched},
      {"server.first_verdict_us", "us", per_call_us(kFirstVerdict)},
      {"path_builder.build_ms", "ms", per_call_us(kBuild) / 1e3},
      {"parallel_server.publish_ms", "ms", per_call_us(kPublish) / 1e3},
      {"bdd.nodes", "count", static_cast<double>(m.server_bdd_nodes())},
      {"bdd.nodes_per_event", "count",
       upd.events ? static_cast<double>(upd.nodes_after - upd.nodes_before) /
                        static_cast<double>(upd.events)
                  : 0.0},
      {"trace.span_ns", "ns", span_cost_ns()},
      {"trace.overhead_ratio", "ratio", overhead},
  };
}

void print_layers(const Tracer& t, const std::vector<Metric>& metrics) {
  std::printf("layer self time (calls, items, wall ms, self ms):\n");
  for (int l = 0; l < kNumLayers; ++l) {
    const LayerTotals& x = t.totals(static_cast<Layer>(l));
    std::printf("  %-26s %10llu %12llu %10.3f %10.3f\n", layer_name(l),
                static_cast<unsigned long long>(x.calls),
                static_cast<unsigned long long>(x.items),
                static_cast<double>(x.wall_ns) / 1e6,
                static_cast<double>(x.self_ns) / 1e6);
  }
  for (const Metric& x : metrics)
    std::printf("layer %-42s %.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
}

// -- Output -----------------------------------------------------------------

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <fattree_hot_faulty|"
               "internet2_fresh|internet2_churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--spans-out <file>] "
               "[--revision <id>]\n");
  return 2;
}

int run(const Options& opt) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs)
    if (opt.workload == s.name) spec = &s;
  if (!spec) return usage();
  const Sizes z = sizes_for(*spec, opt.tiny);

  std::printf("workload %s seed %llu seconds %.3g trace %d%s\n", spec->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, opt.tiny ? " (tiny)" : "");
  std::printf("host: nproc %u, compiler %s, build %s%s, revision %s\n",
              std::thread::hardware_concurrency(), __VERSION__, E2E_BUILD_TYPE,
              E2E_CXX_FLAGS[0] ? " (" E2E_CXX_FLAGS ")" : "",
              opt.revision.c_str());
  std::printf("host reference walk (start): %.3f ns/step, %.2f CPUs in "
              "parallel\n", host_reference_ns(), host_parallel_cpus());

  Tracer trace_store;
  if (opt.trace) tracer() = &trace_store;
  Checks checks;
  std::uint64_t attempted = 0;
  std::vector<Metric> e2e_metrics;
  auto metric = [&](const char* name, const char* unit, double v) {
    e2e_metrics.push_back({name, unit, v});
    std::printf("metric %-16s %.6g %s\n", name, v, unit);
  };

  // ---- Generator: deployment, pools, churned rules (not timed). ----
  const Deployment dep(spec->shape, opt.tiny);
  std::unique_ptr<Controller> gen_controller = dep.make_controller();
  const std::uint32_t epoch = gen_controller->epoch();
  Network clean(dep.topo), faulted(dep.topo);
  gen_controller->deploy(clean);
  gen_controller->deploy(faulted);
  clean.set_config_epoch(epoch);
  faulted.set_config_epoch(epoch);

  const bool read = spec->kind != Kind::kChurn;
  // Churned rules: the churn workload's rules, or the update probe's.
  const std::vector<ChurnRule> churn_rules = pick_churn_rules(
      *gen_controller, clean, read ? z.churn_rules / 2 : z.churn_rules,
      dep.churn_min_len());
  std::vector<Prefix> churned_prefixes;
  for (const ChurnRule& r : churn_rules) churned_prefixes.push_back(r.rule.match.dst);

  // Planted faults, from fixed ranks: in the fat tree's main traffic, or
  // behind the Internet2 localization probe's failing reports.
  const std::vector<PlantedFault> faults = plant_faults(faulted, z.fault_ranks);
  std::unordered_set<SwitchId> planted;
  for (const PlantedFault& f : faults) planted.insert(f.sw);
  checks.expect(faults.size() == z.fault_ranks.size(), "faults planted");
  std::vector<PoolEntry> pool;
  Rng traffic(mix(opt.seed, 0x7AFF1C));
  if (spec->kind == Kind::kHotFaulty)
    pool = hot_flow_pool(clean, faulted, z.hot_flows, epoch);
  else
    pool = fresh_flow_pool(clean, read ? z.fresh_flows : z.fresh_flows / 8,
                           traffic, epoch, churned_prefixes);
  // Share of the hot stream that crosses a planted fault: flow i is
  // drawn with Zipf(1.0) weight 1/(i+1).
  double fail_share = 0.0;
  if (spec->kind == Kind::kHotFaulty) {
    double all = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const double w = 1.0 / static_cast<double>(i + 1);
      all += w;
      if (pool[i].faulty) fail_share += w;
    }
    fail_share /= all;
    checks.expect(opt.tiny || (fail_share >= 0.02 && fail_share <= 0.04),
                  "planted faults make 2-4 % of hot reports fail");
  }
  // Churn bursts use pool flows no churned rule or planted fault affects.
  std::vector<TagReport> burst_pool;
  for (const PoolEntry& e : pool)
    if (!e.faulty &&
        std::none_of(churned_prefixes.begin(), churned_prefixes.end(),
                     [&](const Prefix& p) {
                       return p.contains(e.report.header.dst_ip);
                     }))
      burst_pool.push_back(e.report);

  StreamConfig sc;
  sc.pass_len = z.pass_len;
  sc.zipf_flows = spec->kind == Kind::kHotFaulty;
  if (spec->kind == Kind::kHotFaulty) {
    sc.channel.dup_rate = 0.02;
    sc.channel.reorder_rate = 0.05;
    sc.channel.corrupt_rate = 0.01;
  }
  Stream stream(pool, sc, opt.seed, dep.topo.num_switches(), 0);
  std::size_t pass0_expected_failed = 0, pass0_datagrams = 0,
              pass0_distinct = 0;
  if (read) {
    const Pass& p0 = stream.next(epoch);
    pass0_expected_failed = p0.truth.failed;
    pass0_datagrams = p0.datagrams.size();
    pass0_distinct = p0.distinct_flows;
    stream.reset();
  }
  // Localization-probe inputs (Internet2): failing reports from the
  // planted faults.
  std::vector<TagReport> probe_failing;
  if (spec->shape == Shape::kInternet2) {
    probe_failing = failing_reports(clean, faulted, faults, z.localize_probe,
                                    opt.seed, epoch);
    checks.expect(probe_failing.size() == z.localize_probe,
                  "failing reports for the localization probe");
  }
  gen_controller.reset();

  // ---- Set-up of the monitor under test (timed). ----
  Deployed d;
  d.controller = dep.make_controller();
  const double baseline_mb = heap_in_use_mb();
  const double baseline_rss_mb = trimmed_rss_mb();
  std::vector<double> setups;
  {
    const auto t0 = Clock::now();
    {
      Span s(kSetup);
      d.monitor = std::make_unique<Monitor>(*d.controller);
    }
    setups.push_back(seconds_since(t0));
  }
  Monitor& m = *d.monitor;
  std::printf("threads: 1 producer/control thread, %u parallel workers + 1 "
              "failure-stage thread while the parallel server runs\n",
              m.workers());
  Controller& c = *d.controller;
  checks.expect(c.epoch() == epoch, "monitor controller matches generator");
  const std::size_t setup_nodes = m.server_bdd_nodes();

  // Side probes: set-ups throughout the run, plus the update probe on the
  // read workloads and the localization probe on the Internet2 ones.
  SideProbes side(dep, z, read, churn_rules, burst_pool, opt.seed,
                  probe_failing, planted, checks);

  // Traced run: the rule events, from the rules they started on, for the
  // IncrementalUpdater replay.
  Controller& events_on = read ? *side.controller() : c;
  std::vector<RuleEvent> recorded;
  const std::vector<SwitchConfig> initial_rules =
      opt.trace ? events_on.logical_configs() : std::vector<SwitchConfig>{};
  if (opt.trace)
    events_on.subscribe([&recorded](const RuleEvent& ev) {
      if (recorded.size() < 2000) recorded.push_back(ev);
    });

  double mem_mb = 0.0, rss_mb = 0.0;
  std::size_t fixed_event_nodes = 0;
  std::uint64_t pass0_localized = 0;
  double rps_1t = 0.0, rps = 0.0, localize_us = 0.0;
  double overhead = 0.0;
  UpdateResult upd;

  const double budget = opt.seconds;
  if (read) {
    // ---- Main window: one kind of read traffic. Blocks of passes go
    // alternately to the sequential server (70 % of the timed seconds)
    // and to the parallel one, each with its own copy of the stream, so
    // both sample the host over the whole window. The worker pool runs
    // through each parallel block. ----
    Stream par_stream(pool, sc, opt.seed, dep.topo.num_switches(), 0);
    Truth seq_truth, par_truth;
    SeqResult sr;
    ParResult pr;
    m.reset_profile();
    const double seq_budget = 0.7 * budget;
    const double par_budget = budget - seq_budget;
    constexpr int kBlocks = 6;
    // The sequential share counts serving and the closed-loop
    // localization of the failures it found.
    auto progress = [&] {
      return (sr.seconds + sr.localize_seconds + pr.seconds) / budget;
    };
    for (int b = 1; b <= kBlocks; ++b) {
      while (sr.seconds + sr.localize_seconds < seq_budget * b / kBlocks ||
             sr.passes == 0) {
        serve_sequential_pass(m, stream, epoch, z.chunk, planted, checks,
                              seq_truth, sr);
        side.run_due(progress());
      }
      m.start();
      while (pr.seconds < par_budget * b / kBlocks || pr.passes == 0) {
        serve_parallel_pass(m, par_stream, epoch, checks, par_truth, pr);
        side.run_due(progress());
      }
      m.stop();
    }
    side.run_due(1.0);
    upd = side.updates();
    // Like the baseline, the reading counts no generated pass and no side
    // probe.
    side.release();
    stream.reset();
    par_stream.reset();
    mem_mb = heap_in_use_mb() - baseline_mb;
    rss_mb = trimmed_rss_mb() - baseline_rss_mb;
    attempted += sr.reports + pr.reports + sr.localized;
    rps_1t = static_cast<double>(sr.reports) / sr.seconds;
    rps = static_cast<double>(pr.reports) / pr.seconds;
    pass0_localized = sr.pass0_localized;
    checks.expect(sr.pass0.passed == pr.pass0.passed &&
                      sr.pass0.failed == pr.pass0.failed &&
                      sr.pass0.deduped == pr.pass0.deduped &&
                      sr.pass0.quarantined == pr.pass0.quarantined,
                  "sequential and parallel verdict totals are equal");
    checks.expect(spec->kind != Kind::kHotFaulty || sr.localized > 0,
                  "failed reports reach localization");
    std::printf("sequential: %llu datagrams in %.3f s over %zu passes, "
                "%llu localized in %.3f s\n",
                static_cast<unsigned long long>(sr.reports), sr.seconds,
                sr.passes, static_cast<unsigned long long>(sr.localized),
                sr.localize_seconds);
    std::printf("parallel:   %llu datagrams in %.3f s (%.0f reports/s)\n",
                static_cast<unsigned long long>(pr.reports), pr.seconds, rps);
    if (sr.localized)
      localize_us =
          sr.localize_seconds * 1e6 / static_cast<double>(sr.localized);

    if (opt.trace) {
      // Overhead: the same serving, passes alternately traced / untraced.
      Stream extra(pool, sc, mix(opt.seed, 0x0E), dep.topo.num_switches(),
                   1u << 29);
      double on = 0, off = 0;
      std::uint64_t n_on = 0, n_off = 0;
      Tracer* saved = tracer();
      SeqResult r;
      r.failed_seen = sr.failed_seen;
      for (int i = 0; i < 6; ++i) {
        tracer() = (i % 2) ? saved : nullptr;
        const double s0 = r.seconds;
        const std::uint64_t n0 = r.reports;
        serve_sequential_pass(m, extra, epoch, z.chunk, planted, checks,
                              seq_truth, r);
        (i % 2 ? on : off) += r.seconds - s0;
        (i % 2 ? n_on : n_off) += r.reports - n0;
      }
      attempted += r.reports + r.localized;
      tracer() = saved;
      overhead = (on / static_cast<double>(n_on)) /
                 (off / static_cast<double>(n_off));
    }
  } else {
    // ---- Main window: endless churn with reads beside it. ----
    Churn churn(c, m, churn_rules, burst_pool, opt.seed, z, checks);
    upd = run_churn(churn, m, budget, z.mem_events, z.publish_every,
                    [&](double elapsed) {
                      if (churn.events() == z.mem_events) {
                        mem_mb = heap_in_use_mb() - baseline_mb;
                        rss_mb = trimmed_rss_mb() - baseline_rss_mb;
                        fixed_event_nodes = m.server_bdd_nodes();
                      }
                      side.run_due(elapsed / budget);
                    });
    side.run_due(1.0);
    attempted += churn.reports();
    rps_1t = churn.burst_rps();
    std::printf("churn: %zu events, %zu publishes, %llu reports\n",
                upd.events, churn.publishes(),
                static_cast<unsigned long long>(churn.reports()));
    if (opt.trace) {
      // Overhead: blocks of events alternately traced / untraced.
      double on = 0, off = 0;
      Tracer* saved = tracer();
      const std::size_t block = opt.tiny ? 10 : 200;
      for (int i = 0; i < 6; ++i) {
        tracer() = (i % 2) ? saved : nullptr;
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < block; ++k) churn.event();
        (i % 2 ? on : off) += seconds_since(t0);
      }
      tracer() = saved;
      overhead = on / off;
    }
  }
  if (opt.trace) std::printf("trace overhead: %.3f\n", overhead);
  if (spec->shape == Shape::kInternet2) localize_us = side.localize_us();
  attempted += side.attempted();
  setups.insert(setups.end(), side.setup_s().begin(), side.setup_s().end());
  std::printf("set-ups: %zu, median %.4f s\n", setups.size(), median(setups));
  std::printf("memory held: %.3f MB heap in use, %.3f MB RSS after "
              "malloc_trim (over the baseline)\n", mem_mb, rss_mb);

  const double update_p50 = percentile(upd.update_s, 0.50) * 1e6;
  const double update_p99 = percentile(upd.update_s, 0.99) * 1e6;
  const double publish_ms = median(upd.publish_s) * 1e3;
  std::printf("updates: %zu events (p50 %.2f us, p99 %.2f us), %zu publishes "
              "(median %.3f ms)\n",
              upd.update_s.size(), update_p50, update_p99,
              upd.publish_s.size(), publish_ms);
  checks.expect(upd.update_s.size() >= 100 || opt.tiny,
                "enough update samples for p99");

  // ---- Work-content fingerprint. ----
  // "fixed" holds what the workload fixes, so it must not change with the
  // seed: digests of the planted faults, the churned rules with their
  // crossing reports and the hot-flow pool pin the work itself, not only
  // its counts. "seeded" holds what the seed draws.
  Digest fault_digest, churn_digest, pool_digest, probe_digest;
  for (const PlantedFault& f : faults) {
    fault_digest.add(f.sw);
    fault_digest.add(f.host);
  }
  for (const ChurnRule& r : churn_rules) {
    churn_digest.add(r.sw);
    churn_digest.add(r.rule.id);
    churn_digest.add(r.rule.match.dst);
    churn_digest.add(r.present);
    churn_digest.add(r.absent);
  }
  for (const PoolEntry& e : pool) {
    pool_digest.add(e.report);
    pool_digest.add(e.faulty);
  }
  for (const TagReport& r : probe_failing) probe_digest.add(r);
  const bool hot = spec->kind == Kind::kHotFaulty;
  std::printf(
      "FINGERPRINT {\"fixed\": {\"pool_flows\": %zu, \"pass_len\": %zu, "
      "\"planted_faults\": %zu, \"fault_digest\": \"%016llx\", "
      "\"fail_share\": %.6f, \"churned_rules\": %zu, "
      "\"churn_digest\": \"%016llx\", \"hot_pool_digest\": \"%016llx\", "
      "\"setup_bdd_nodes\": %zu, \"fixed_events\": %zu, \"slices\": %zu}, "
      "\"seeded\": {\"pool_digest\": \"%016llx\", "
      "\"probe_digest\": \"%016llx\", \"pass0_datagrams\": %zu, "
      "\"pass0_distinct_flows\": %zu, \"pass0_expected_failed\": %zu, "
      "\"pass0_failed_localized\": %llu, "
      "\"bdd_nodes_after_fixed_events\": %zu}}\n",
      pool.size(), read ? z.pass_len : 0, faults.size(),
      static_cast<unsigned long long>(fault_digest.value()), fail_share,
      churn_rules.size(), static_cast<unsigned long long>(churn_digest.value()),
      static_cast<unsigned long long>(hot ? pool_digest.value() : 0),
      setup_nodes, read ? 0 : z.mem_events, z.slices,
      static_cast<unsigned long long>(pool_digest.value()),
      static_cast<unsigned long long>(probe_digest.value()), pass0_datagrams,
      pass0_distinct, pass0_expected_failed,
      static_cast<unsigned long long>(pass0_localized),
      read ? 0 : fixed_event_nodes);

  std::printf("host reference walk (end): %.3f ns/step, %.2f CPUs in "
              "parallel\n", host_reference_ns(), host_parallel_cpus());
  std::printf("checks: %llu run, %llu failed\n",
              static_cast<unsigned long long>(checks.checked()),
              static_cast<unsigned long long>(checks.failed()));

  std::vector<Metric> out;
  if (!opt.trace) {
    metric("setup_s", "s", median(setups));
    metric("verify_rps_1t", "reports/s", rps_1t);
    metric("localize_us", "us", localize_us);
    metric("update_p50_us", "us", update_p50);
    metric("update_p99_us", "us", update_p99);
    metric("publish_ms", "ms", publish_ms);
    metric("mem_mb", "MB", mem_mb);
    out = e2e_metrics;
  } else {
    // Stage replays on the decoded serve stream.
    m.heartbeat();
    std::vector<std::vector<std::uint8_t>> replay;
    if (read) {
      Stream rs(pool, sc, opt.seed, dep.topo.num_switches(), 0);
      replay = rs.next(epoch).datagrams;
    } else {
      SeqStamper seqs(dep.topo.num_switches());
      for (std::size_t i = 0; i < std::min(burst_pool.size(), z.pass_len); ++i)
        replay.push_back(encode(burst_pool[i], c.epoch(), seqs));
    }
    const StageReplay st = replay_stages(replay, *m.snapshot(), c,
                                         opt.tiny ? 64 : 4096);
    const double touched =
        replay_incremental(dep.topo, initial_rules, recorded);
    replay_build(c, 3);

    out = layer_metrics(trace_store, m, st, touched, upd, rps, overhead);
    print_layers(trace_store, out);
    if (!opt.spans_out.empty()) {
      if (trace_store.write(opt.spans_out))
        std::printf("spans: %zu kept (%llu beyond the cap) -> %s\n",
                    trace_store.kept(),
                    static_cast<unsigned long long>(trace_store.dropped()),
                    opt.spans_out.c_str());
      else
        checks.expect(false, "spans written");
    }
    tracer() = nullptr;
  }

  const bool correct = checks.failed() == 0;
  print_result(correct, std::max<std::uint64_t>(attempted, 1), checks.failed(),
               out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
#ifdef E2E_UNFIT_BUILD
  std::fprintf(stderr,
               "e2e_bench: refusing to report from an unoptimized or "
               "sanitizer build\n");
  return 3;
#else
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(value().c_str());
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--tiny") opt.tiny = true;
    else if (a == "--spans-out") opt.spans_out = value();
    else if (a == "--revision") opt.revision = value();
    else return e2e::usage();
  }
  if (opt.workload.empty() || !(opt.seconds > 0)) return e2e::usage();
  return e2e::run(opt);
#endif
}
