// Multi-threaded verification server — the paper closes §6.4 with "the
// verification is still single-threaded without optimization, we expect
// a higher throughput with multi-threading in the future"; this is that
// future. Architecture (DESIGN.md §6):
//
//   producers ──► shard-affine lanes: lane = (sw % shards) % workers
//   (any thread)  each lane: {dedup trackers + counters, bounded queue}
//                                                │ batch dequeue by the
//                                                │ OWNING worker; idle
//                                                │ workers steal batches
//                                                ▼
//                             N workers, each: load snapshot (atomic
//                             shared_ptr), verify_epoch_aware per report,
//                             per-worker counters + profiler slot
//                                                │ mismatches
//                                                ▼
//                             single-consumer localization stage
//
// Shard-affine dispatch (the fix for the flat PR-3 scaling curve): the
// old pipeline funneled every producer and every worker through ONE
// BoundedMpmcQueue — one mutex and one condvar bouncing between all
// cores, so adding workers added contention instead of throughput.
// Reports are now routed by switch shard to per-worker lanes: a lane's
// dedup trackers, health counters and bounded queue are touched only by
// the producers of that lane's switches and by its owning worker, so on
// the hot path no lock and no counter cacheline is shared across
// workers. Skewed switch distributions (one hot switch would starve
// N-1 workers) are handled by bounded work-stealing at dequeue: a
// worker whose own lane is dry raids the deepest sibling lane for one
// batch. Verification itself is stateless across lanes (immutable
// snapshot + per-worker memo), so a stolen report's verdict is
// bit-identical wherever it lands; dedup stays exact because it is
// decided at lane admission, before any steal can move the report.
//
// Snapshot publication (RCU-style, SnapshotPublisher in publisher.hpp,
// shared with the sequential Server): the path table plus the ring of
// retired tables live in one immutable EpochSnapshot published through
// an atomic shared_ptr swap. Readers take no lock — they load the
// pointer once per batch and verify against frozen state, while the
// next snapshot builds in a fresh BDD arena. Old snapshots stay alive
// until the last in-flight batch drops its reference.
//
// Equivalence guarantee: verification classification is the shared
// verify_epoch_aware (verifier.hpp) — the same function the sequential
// Server runs — so verify_stream()'s merged verdict totals are
// bit-identical to a sequential Server fed the same reports under the
// same epoch history. The stress tests assert this exactly.
//
// Observability: every worker owns a ScalProfiler slot (queue-wait,
// lock, snapshot-load, memo and steal counters — common/scal_profiler
// .hpp); the bench dumps the attribution into BENCH_parallel_verify
// .json so a future flat curve names the shared state responsible.
//
// Threading contract (machine-checked where expressible — DESIGN.md §8:
// lane state, failure and quarantine buffers carry GUARDED_BY
// annotations enforced by the clang-strict preset; the publisher's
// single-threaded control-plane fields and its lock-free snapshot
// pointer are the two documented-only exceptions, covered by the TSan
// suites):
//   * control-plane side (ctor, sync, publish, heartbeat, rule events
//     via the controller, localize, take_failures) — ONE thread;
//   * data-plane side (submit, submit_datagram) — any number of
//     producer threads, concurrently with workers and with publish();
//   * health() — any thread, merges per-lane/per-worker counters.
//
// Only Server::Mode::kFullRebuild semantics are supported: kIncremental
// mutates its table in place, which is incompatible with lock-free
// snapshot readers (the sequential Server keeps the grace-window rule
// for that mode).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/scal_profiler.hpp"
#include "common/thread_annotations.hpp"
#include "controller/controller.hpp"
#include "veridp/admission.hpp"
#include "veridp/localizer.hpp"
#include "veridp/mpmc_queue.hpp"
#include "veridp/publisher.hpp"
#include "veridp/seq_tracker.hpp"
#include "veridp/verifier.hpp"

namespace veridp {

struct ParallelConfig {
  unsigned workers = 0;              ///< 0 = hardware_concurrency
  std::size_t queue_capacity = 4096; ///< hard bound, split across lanes
  std::size_t high_watermark = 3072; ///< shedding starts above this (split)
  std::uint32_t shed_modulus = 4;    ///< keep seq % modulus == 0 when shedding
  std::size_t shards = 16;           ///< switch-affinity granularity
  std::size_t dedup_window = 4096;   ///< remembered seqs per switch
  std::size_t failure_keep = 256;    ///< mismatched reports retained
};

/// Merged health counters (the parallel analogue of IngestHealth).
/// Conservation law — every submitted report sits in exactly one
/// terminal bucket or is still queued:
///
///   received == passed + failed + stale + shed + quarantined + deduped
///               + in_queue
///
/// and within the verified portion:
///
///   verified  == passed + failed + stale
///   memo_hits <= verified
///
/// memo_hits is deliberately NOT a seventh bucket: a report answered
/// from the per-worker verify memo IS verified — the memo returns a
/// verdict bit-identical to recomputation, and that verdict is counted
/// in passed/failed/stale like any other. memo_hits records how many of
/// the verified reports took the memo fast path. accounted() is the
/// terminal-bucket sum of the first law; conserved() checks all three
/// relations (the invariant the stress tests assert).
struct ParallelHealth {
  std::uint64_t received = 0;
  std::uint64_t verified = 0;  ///< == passed + failed + stale
  std::uint64_t passed = 0;
  std::uint64_t failed = 0;
  std::uint64_t stale = 0;
  std::uint64_t shed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t deduped = 0;
  std::uint64_t lost_estimate = 0;
  std::uint64_t memo_hits = 0;  ///< verified via the memo fast path
  std::uint64_t in_queue = 0;   ///< admitted, not yet verified
  AdmissionRegime regime = AdmissionRegime::kNormal;  ///< commanded regime
  std::uint64_t regime_transitions = 0;  ///< edge-triggered changes applied
  std::uint64_t failsafe_events = 0;     ///< watchdog failovers (loud)
  std::uint64_t snapshot_flips = 0;      ///< A/B slot publications

  [[nodiscard]] std::uint64_t accounted() const {
    return passed + failed + stale + shed + quarantined + deduped;
  }
  /// Exact whenever no worker is mid-batch (before start(), after
  /// drain()/stop(), or with producers and workers quiescent): between a
  /// worker popping a batch and counting its verdicts the reports are in
  /// neither bucket, so a mid-flight snapshot may transiently violate
  /// the law — the sequential IngestHealth::conserved() is the
  /// any-time-exact variant.
  [[nodiscard]] bool conserved() const {
    return accounted() + in_queue == received &&
           verified == passed + failed + stale && memo_hits <= verified;
  }
};

class ParallelServer {
 public:
  /// Verdict totals of one verify_stream call. Bit-identical to the
  /// pass/fail/stale counters a sequential Server accumulates over the
  /// same reports.
  using StreamTotals = VerdictTotals;

  /// Subscribes to `controller`'s rule events (controller must outlive
  /// the server and mutate only from the control thread).
  explicit ParallelServer(Controller& controller, ParallelConfig cfg = {},
                          int tag_bits = BloomTag::kDefaultBits);
  ~ParallelServer();
  ParallelServer(const ParallelServer&) = delete;
  ParallelServer& operator=(const ParallelServer&) = delete;

  // -- Snapshot publication + A/B failsafe (SnapshotPublisher) -------------
  /// Same opt-in as Server::enable_epoch_checking. Call before sync().
  void enable_epoch_checking(std::size_t snapshot_ring = 8,
                             std::uint32_t grace_window = 64) {
    publisher_.enable_epoch_checking(snapshot_ring, grace_window);
  }
  /// Builds and publishes the first snapshot.
  void sync() { publisher_.sync(); }
  /// Publishes pending rule events unless the publisher is wedged. Safe
  /// while workers run — that is the point.
  void publish() { publisher_.publish(); }
  /// While `fault` returns true the publisher is wedged.
  void set_publish_fault(std::function<bool()> fault) {
    watchdog_.set_fault(std::move(fault));
  }
  /// One publisher heartbeat, once per control tick: fails over to the
  /// last-good snapshot after `deadline_ticks` wedged heartbeats with
  /// events pending, and publishes (lifting the failsafe) once the wedge
  /// clears (SnapshotPublisher::heartbeat). Returns in_failsafe().
  bool heartbeat(std::uint64_t deadline_ticks = 3) {
    return publisher_.heartbeat(deadline_ticks);
  }
  [[nodiscard]] bool in_failsafe() const { return watchdog_.in_failsafe(); }
  [[nodiscard]] std::uint64_t failsafe_events() const {
    return watchdog_.failsafe_events();
  }

  /// Hands admission over to a control loop, exactly as
  /// ReportIngest::govern does (AdmissionControl, admission.hpp): the
  /// regime's policy replaces the fixed per-lane watermark. Control
  /// thread writes; submit() reads the command with relaxed atomics.
  void govern(AdmissionRegime regime, std::uint32_t shed_modulus) {
    admission_.govern(regime, shed_modulus);
  }
  [[nodiscard]] bool governed() const { return admission_.governed(); }
  [[nodiscard]] AdmissionRegime regime() const { return admission_.regime(); }

  /// Verifies `reports` across `workers` threads (0 = configured count)
  /// against the currently published snapshot and returns merged totals.
  /// Bypasses ingest (no dedup/shedding) — this is the pure verification
  /// fan-out; its totals match a sequential Server::verify loop exactly.
  StreamTotals verify_stream(const std::vector<TagReport>& reports,
                             unsigned workers = 0);

  // -- Streaming mode -------------------------------------------------------
  /// Launches the worker pool and the localization-stage consumer.
  void start();
  /// Offers one decoded report: lane-affine dedup → shed check → lane
  /// queue. Returns true iff enqueued for verification. Thread-safe.
  bool submit(const TagReport& report);
  /// Offers one encoded datagram (decode failures are quarantined).
  bool submit_datagram(const std::vector<std::uint8_t>& datagram)
      EXCLUDES(quarantine_mu_);
  /// Blocks until every submitted report has been verified and every
  /// mismatch has cleared the localization stage. Producers must be
  /// quiescent.
  void drain();
  /// drain() + joins the pool. Idempotent; start() may be called again.
  void stop();

  [[nodiscard]] ParallelHealth health() const;

  /// Drains the mismatches the localization stage retained (bounded by
  /// failure_keep). Control thread only.
  std::vector<TagReport> take_failures() EXCLUDES(failures_mu_);

  /// Runs Algorithm 4 for a failed report against the controller's
  /// *current* logical config. Control thread only, config quiescent.
  [[nodiscard]] LocalizeResult localize(const TagReport& report) const;

  [[nodiscard]] std::shared_ptr<const EpochSnapshot> snapshot() const {
    return publisher_.snapshot();
  }
  [[nodiscard]] std::uint32_t epoch() const { return publisher_.epoch(); }
  [[nodiscard]] bool epoch_checking() const {
    return publisher_.epoch_checking();
  }
  [[nodiscard]] std::uint64_t snapshots_published() const {
    return publisher_.published();
  }
  /// Total undispatched reports across all lanes.
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] bool running() const { return !workers_.empty(); }
  [[nodiscard]] unsigned worker_count() const;
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
  [[nodiscard]] int tag_bits() const { return tag_bits_; }

  /// Per-worker stall/steal/memo attribution (one slot per worker).
  /// Counters accumulate across start/stop cycles; reset via
  /// profiler().reset() while the pool is stopped.
  [[nodiscard]] const ScalProfiler& profiler() const { return prof_; }
  [[nodiscard]] ScalProfiler& profiler() { return prof_; }

  /// Cumulative task_done over-reports across every lane queue and the
  /// failure queue. Always 0 unless a consumer double-accounts; the
  /// lifecycle tests assert it stays 0.
  [[nodiscard]] std::uint64_t queue_over_reported() const;

 private:
  /// Per-worker verdict counters, cacheline-separated so workers never
  /// share a line; merged (relaxed loads) by health().
  struct alignas(64) WorkerStats {
    std::atomic<std::uint64_t> verified{0};
    std::atomic<std::uint64_t> passed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> stale{0};
    std::atomic<std::uint64_t> memo_hits{0};
  };

  /// One shard-affine dispatch lane: the per-switch dedup trackers and
  /// ingest counters for the switches routed here, plus the bounded
  /// queue its owning worker dequeues from. Producers for different
  /// lanes share nothing; producers for the same lane serialize on
  /// `mu` exactly like the old per-switch shards did — every mutable
  /// ingest member is GUARDED_BY(mu) and the clang-strict build rejects
  /// any access outside a MutexLock(lane.mu) scope. The queue carries
  /// its own internal synchronization (it must: thieves bypass `mu`).
  struct alignas(64) Lane {
    Lane(std::size_t capacity, std::size_t dedup_window)
        : seqs(dedup_window), q(capacity) {}
    // Named lock (DESIGN.md §12): a thread holds no other named lock
    // with it — submit() releases it before the queue push or the
    // quarantine append.
    mutable Mutex mu{"ParallelServer::Lane::mu"};
    SeqTrackers seqs GUARDED_BY(mu);
    std::uint64_t received GUARDED_BY(mu) = 0;
    std::uint64_t deduped GUARDED_BY(mu) = 0;
    std::uint64_t shed GUARDED_BY(mu) = 0;
    std::uint64_t quarantined GUARDED_BY(mu) = 0;
    BoundedMpmcQueue<TagReport> q;
  };

  Lane& lane_for(SwitchId sw) {
    const std::size_t shard = static_cast<std::size_t>(sw) % shards_;
    return *lanes_[shard % lanes_.size()];
  }
  /// Deepest sibling lane with at least kStealThreshold queued reports,
  /// or nullptr. O(lanes) advisory size reads — only taken when the
  /// worker's own lane ran dry.
  Lane* pick_victim(std::size_t own);
  [[nodiscard]] bool all_lanes_drained() const;
  void worker_loop(unsigned idx);
  void failure_loop();

  /// Reports per worker dequeue — also the lane count handed to
  /// verify_epoch_aware_batch per snapshot load (one RCU read and one
  /// batched kernel call per dequeue).
  static constexpr std::size_t kBatch = 32;
  /// Minimum victim depth worth stealing.
  static constexpr std::size_t kStealThreshold = 1;
  /// Idle park on the own lane between steal scans.
  static constexpr std::chrono::microseconds kIdleBackoff{200};

  Controller* controller_;
  ParallelConfig cfg_;
  int tag_bits_;
  std::size_t shards_ = 16;  ///< affinity modulus (>= 1)
  /// Per-lane admission: the global capacity and watermark split evenly
  /// across lanes; one regime command governs every lane.
  AdmissionControl admission_;
  PublishWatchdog watchdog_;  ///< see set_publish_fault
  /// Rule events → published snapshots, each built in a fresh arena
  /// because workers read while the next one builds.
  SnapshotPublisher publisher_;

  // Data-plane pipeline.
  std::vector<std::unique_ptr<Lane>> lanes_;
  BoundedMpmcQueue<TagReport> failure_queue_;
  std::vector<std::unique_ptr<WorkerStats>> worker_stats_;
  std::vector<std::thread> workers_;
  std::thread failure_consumer_;
  ScalProfiler prof_;

  // Localization-stage output + quarantine (cold paths, mutex-guarded;
  // never held together).
  mutable Mutex failures_mu_{"ParallelServer::failures_mu"};
  std::deque<TagReport> failures_ GUARDED_BY(failures_mu_);
  mutable Mutex quarantine_mu_{"ParallelServer::quarantine_mu"};
  std::deque<std::vector<std::uint8_t>> quarantine_
      GUARDED_BY(quarantine_mu_);
};

}  // namespace veridp
