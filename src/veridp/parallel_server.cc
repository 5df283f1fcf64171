#include "veridp/parallel_server.hpp"

#include <algorithm>
#include <chrono>

#include "dataplane/wire.hpp"
#include "veridp/report_batch.hpp"

namespace veridp {

namespace {

// The stat-counter fast paths below deliberately use relaxed atomics:
// every counter is either single-writer (per-worker slots) or a
// commutative increment, no reader infers cross-variable ordering from
// them, and health() documents its merged numbers as advisory while
// workers run. The helpers centralize the justification the
// relaxed-atomic lint rule demands (DESIGN.md §12).
template <typename T>
// veridp-lint: allow(relaxed-atomic, commutative counter increment; no ordering carried)
inline void bump_relaxed(std::atomic<T>& c, T n = 1) {
  c.fetch_add(n, std::memory_order_relaxed);
}

template <typename T>
// veridp-lint: allow(relaxed-atomic, advisory read of an independent counter/flag)
inline T read_relaxed(const std::atomic<T>& c) {
  return c.load(std::memory_order_relaxed);
}

// One lane per worker; the global bounds split evenly so total queued
// work stays capped at queue_capacity whatever the lane count.
std::size_t lane_capacity(const ParallelConfig& cfg, std::size_t nlanes) {
  return std::max<std::size_t>(cfg.queue_capacity / nlanes, 1);
}

std::size_t lane_watermark(const ParallelConfig& cfg, std::size_t nlanes) {
  return std::min(std::min(cfg.high_watermark, cfg.queue_capacity) / nlanes,
                  lane_capacity(cfg, nlanes));
}

}  // namespace

ParallelServer::ParallelServer(Controller& controller, ParallelConfig cfg,
                               int tag_bits)
    : controller_(&controller),
      cfg_(cfg),
      tag_bits_(tag_bits),
      shards_(cfg.shards ? cfg.shards : 1),
      admission_(lane_capacity(cfg, worker_count()),
                 lane_watermark(cfg, worker_count()),
                 cfg.shed_modulus ? cfg.shed_modulus : 1),
      publisher_(controller, tag_bits, std::nullopt, watchdog_),
      failure_queue_(cfg.failure_keep > 64 ? cfg.failure_keep : 64),
      prof_(worker_count()) {
  const std::size_t nlanes = worker_count();
  lanes_.reserve(nlanes);
  for (std::size_t i = 0; i < nlanes; ++i)
    lanes_.push_back(std::make_unique<Lane>(lane_capacity(cfg_, nlanes),
                                            cfg_.dedup_window));
}

ParallelServer::~ParallelServer() { stop(); }

unsigned ParallelServer::worker_count() const {
  if (cfg_.workers) return cfg_.workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

ParallelServer::StreamTotals ParallelServer::verify_stream(
    const std::vector<TagReport>& reports, unsigned workers) {
  publish();
  const std::shared_ptr<const EpochSnapshot> snap = snapshot();
  unsigned n = workers ? workers : worker_count();
  if (!reports.empty() && reports.size() < n)
    n = static_cast<unsigned>(reports.size());
  if (n == 0) n = 1;

  std::vector<StreamTotals> parts(n);
  const std::size_t chunk = reports.empty() ? 0 : (reports.size() + n - 1) / n;
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    pool.emplace_back([&reports, &parts, &snap, chunk, w] {
      const EpochTables tables = snap->view();
      VerifyMemo memo;  // one snapshot for the whole stream: never cleared
      StreamTotals& t = parts[w];
      const std::size_t lo = static_cast<std::size_t>(w) * chunk;
      const std::size_t hi =
          lo + chunk < reports.size() ? lo + chunk : reports.size();
      // Batched kernel over the worker's slice, default lanes per
      // call; scratch is worker-local like the memo.
      const std::size_t bs = autotuned_batch_size();
      ReportBatch soa;
      soa.reserve(bs);
      std::vector<Verdict> verdicts(bs);
      for (std::size_t i = lo; i < hi;) {
        const std::size_t m = std::min(bs, hi - i);
        soa.clear();
        for (std::size_t k = 0; k < m; ++k) soa.push(reports[i + k]);
        verify_epoch_aware_batch(soa, 0, m, tables, &memo, verdicts.data());
        for (std::size_t k = 0; k < m; ++k) t.add(verdicts[k]);
        i += m;
      }
    });
  }
  for (std::thread& t : pool) t.join();

  StreamTotals total;
  for (const StreamTotals& p : parts) total += p;
  return total;
}

void ParallelServer::start() {
  if (running()) return;
  if (!publisher_.synced()) publisher_.sync();
  for (const auto& lane : lanes_) lane->q.open();
  failure_queue_.open();
  const unsigned n = worker_count();
  // Stats persist across start/stop cycles so health() stays cumulative.
  while (worker_stats_.size() < n)
    worker_stats_.push_back(std::make_unique<WorkerStats>());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  failure_consumer_ = std::thread([this] { failure_loop(); });
}

bool ParallelServer::submit(const TagReport& report) {
  Lane& lane = lane_for(report.outport.sw);
  {
    MutexLock lk(lane.mu);
    ++lane.received;
    if (!lane.seqs.note(report.outport.sw, report.seq)) {
      ++lane.deduped;
      return false;
    }
  }
  // The shed decision runs outside the lane ingest lock — the queue has
  // its own synchronization and the depth reading is advisory anyway.
  if (!admission_.admits(lane.q.size(), report.seq) ||
      !lane.q.try_push(report)) {
    MutexLock lk(lane.mu);
    ++lane.shed;
    return false;
  }
  return true;
}

bool ParallelServer::submit_datagram(
    const std::vector<std::uint8_t>& datagram) {
  const auto report = wire::decode_report(datagram);
  if (!report) {
    Lane& lane = *lanes_.front();  // malformed payloads name no switch
    {
      MutexLock lk(lane.mu);
      ++lane.received;
      ++lane.quarantined;
    }
    MutexLock qk(quarantine_mu_);
    keep_recent(quarantine_, datagram, kQuarantineKeep);
    return false;
  }
  return submit(*report);
}

ParallelServer::Lane* ParallelServer::pick_victim(std::size_t own) {
  Lane* best = nullptr;
  std::size_t best_depth = kStealThreshold - 1;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (i == own) continue;
    const std::size_t depth = lanes_[i]->q.size();
    if (depth > best_depth) {
      best_depth = depth;
      best = lanes_[i].get();
    }
  }
  return best;
}

bool ParallelServer::all_lanes_drained() const {
  for (const auto& lane : lanes_)
    if (!lane->q.drained()) return false;
  return true;
}

void ParallelServer::worker_loop(unsigned idx) {
  using clock = std::chrono::steady_clock;
  WorkerStats& ws = *worker_stats_[idx];
  WorkerProfile& wp = prof_.slot(idx % prof_.slots());
  Lane& own = *lanes_[idx % lanes_.size()];
  const std::size_t own_idx = idx % lanes_.size();
  std::vector<TagReport> batch;
  batch.reserve(kBatch);
  // Worker-local scratch for the batched verify kernel: the dequeued
  // reports are transposed into SoA lanes once per batch.
  ReportBatch soa;
  soa.reserve(kBatch);
  std::vector<Verdict> verdicts(kBatch);
  // Per-worker duplicate-report memo (lock-free by construction). It is
  // valid for exactly one snapshot; `held` keeps that snapshot alive so
  // a newly published snapshot can never be allocated at the same
  // address while stale memo entries still reference the old one.
  VerifyMemo memo;
  std::shared_ptr<const EpochSnapshot> held;
  const std::uint64_t cpu0 = thread_cpu_now_ns();
  for (;;) {
    // Own lane first — the shard-affine fast path: one lane-local lock,
    // no sibling contention.
    Lane* src = &own;
    std::size_t n = own.q.try_pop_batch(batch, kBatch);
    WorkerProfile::bump(wp.lock_acquisitions);
    if (n == 0) {
      // Dry lane: bounded rebalance — raid the deepest sibling once.
      WorkerProfile::bump(wp.steal_attempts);
      if (Lane* victim = pick_victim(own_idx)) {
        n = victim->q.try_pop_batch(batch, kBatch);
        WorkerProfile::bump(wp.lock_acquisitions);
        if (n != 0) {
          src = victim;
          WorkerProfile::bump(wp.stolen_batches);
          WorkerProfile::bump(wp.stolen_items, n);
        }
      }
    }
    if (n == 0) {
      if (all_lanes_drained()) break;  // closed everywhere: exit
      // Nothing to do anywhere right now: park on the own lane with a
      // bounded backoff, then rescan (a sibling may have filled while
      // we only get woken for our own lane's pushes).
      const clock::time_point w0 = clock::now();
      n = own.q.pop_batch_for(batch, kBatch, kIdleBackoff);
      WorkerProfile::bump(wp.lock_acquisitions);
      WorkerProfile::bump(
          wp.queue_wait_ns,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  clock::now() - w0)
                  .count()));
      if (n == 0) continue;
      src = &own;
    }
    const clock::time_point b0 = clock::now();
    // The whole RCU read side is this one acquire load per batch;
    // everything behind the pointer is immutable. Epoch-stale reports
    // in the batch still verify against their own epoch via the ring.
    const std::shared_ptr<const EpochSnapshot> snap = snapshot();
    WorkerProfile::bump(wp.snapshot_loads);
    if (snap != held) {
      memo.clear();
      held = snap;
    }
    const EpochTables tables = snap->view();
    const std::uint64_t hits_before = memo.hits();
    const std::uint64_t lookups_before = memo.lookups();
    soa.clear();
    for (const TagReport& r : batch) soa.push(r);
    if (verdicts.size() < n) verdicts.resize(n);
    verify_epoch_aware_batch(soa, 0, n, tables, &memo, verdicts.data());
    VerdictTotals t;
    for (std::size_t k = 0; k < n; ++k) {
      // Hand each mismatch to the localization stage. Bounded: if the
      // stage is hopelessly behind, overflow mismatches are dropped
      // (they are still counted in `failed`).
      if (t.add(verdicts[k])) failure_queue_.try_push(batch[k]);
    }
    bump_relaxed(ws.verified, t.verified);
    bump_relaxed(ws.passed, t.passed);
    bump_relaxed(ws.failed, t.failed);
    bump_relaxed(ws.stale, t.stale);
    bump_relaxed(ws.memo_hits, memo.hits() - hits_before);
    WorkerProfile::bump(wp.memo_hits, memo.hits() - hits_before);
    WorkerProfile::bump(wp.memo_lookups, memo.lookups() - lookups_before);
    WorkerProfile::bump(wp.batches);
    WorkerProfile::bump(wp.batch_items, n);
    src->q.task_done(n);
    WorkerProfile::bump(wp.lock_acquisitions);
    WorkerProfile::bump(
        wp.busy_ns,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - b0)
                .count()));
  }
  WorkerProfile::bump(wp.cpu_ns, thread_cpu_now_ns() - cpu0);
}

void ParallelServer::failure_loop() {
  std::vector<TagReport> batch;
  for (;;) {
    const std::size_t n = failure_queue_.pop_batch(batch, 16);
    if (n == 0) return;
    {
      MutexLock lk(failures_mu_);
      for (const TagReport& r : batch)
        keep_recent(failures_, r, cfg_.failure_keep);
    }
    failure_queue_.task_done(n);
  }
}

void ParallelServer::drain() {
  // Workers push to the failure queue before task_done on their lane,
  // so once every lane is idle every mismatch is already inside the
  // failure queue; waiting on it second closes the pipeline.
  for (const auto& lane : lanes_) lane->q.wait_idle();
  failure_queue_.wait_idle();
}

void ParallelServer::stop() {
  if (workers_.empty() && !failure_consumer_.joinable()) return;
  // Close every lane: workers drain the leftovers (stealing included),
  // then exit once all_lanes_drained().
  for (const auto& lane : lanes_) lane->q.close();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  failure_queue_.close();
  if (failure_consumer_.joinable()) failure_consumer_.join();
}

std::size_t ParallelServer::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& lane : lanes_) depth += lane->q.size();
  return depth;
}

std::uint64_t ParallelServer::queue_over_reported() const {
  std::uint64_t n = failure_queue_.over_reported();
  for (const auto& lane : lanes_) n += lane->q.over_reported();
  return n;
}

ParallelHealth ParallelServer::health() const {
  ParallelHealth h;
  for (const auto& lane : lanes_) {
    MutexLock lk(lane->mu);
    h.received += lane->received;
    h.deduped += lane->deduped;
    h.shed += lane->shed;
    h.quarantined += lane->quarantined;
    h.lost_estimate += lane->seqs.lost_estimate();
  }
  for (const auto& ws : worker_stats_) {
    h.verified += read_relaxed(ws->verified);
    h.passed += read_relaxed(ws->passed);
    h.failed += read_relaxed(ws->failed);
    h.stale += read_relaxed(ws->stale);
    h.memo_hits += read_relaxed(ws->memo_hits);
  }
  h.in_queue = queue_depth();
  h.regime = admission_.regime();
  h.regime_transitions = admission_.transitions();
  h.failsafe_events = watchdog_.failsafe_events();
  h.snapshot_flips = publisher_.published();
  return h;
}

std::vector<TagReport> ParallelServer::take_failures() {
  MutexLock lk(failures_mu_);
  std::vector<TagReport> out(failures_.begin(), failures_.end());
  failures_.clear();
  return out;
}

LocalizeResult ParallelServer::localize(const TagReport& report) const {
  Localizer localizer(controller_->topology(),
                      controller_->logical_configs());
  return localizer.infer(report);
}

}  // namespace veridp
