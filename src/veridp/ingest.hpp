// Report ingest: the bounded front door between the (lossy, adversarial)
// report channel and the verifier.
//
// The paper's server consumes tag reports as fast as switches emit them;
// under heavy traffic that is exactly the overload path. This stage makes
// the server degrade gracefully instead of silently mis-verifying or
// growing without bound:
//
//   * decode quarantine — datagrams that fail wire::decode_report
//     (truncated, bit-flipped, foreign) are counted and set aside, never
//     interpreted;
//   * duplicate suppression — the v2 per-switch sequence numbers identify
//     retransmitted/duplicated datagrams; duplicates are dropped before
//     they can double-count a verification;
//   * loss accounting — gaps in the per-switch sequence space estimate
//     how many reports the channel lost;
//   * load shedding — a bounded queue with a high watermark: above it the
//     ingest verifies only a deterministic sample (seq % shed_modulus ==
//     0, reproducible run-to-run). Slowing the switches' samplers is the
//     control loop's job (IngestGovernor -> Network::command_sampling,
//     control_loop.hpp), not the ingest's.
//
// Dedup (SeqTrackers) and admission (AdmissionControl) are the types the
// ParallelServer lanes use, so the two ingest paths cannot drift apart.
//
// Every received datagram lands in exactly one bucket:
//   passed + failed + stale + shed + quarantined + deduped + in-queue
//     == received
// which the overload tests assert — graceful degradation must account
// for what it degraded.
//
// Thread-safety: NOT internally synchronized — this is the sequential
// Server's single-threaded front door. The multi-producer analogue is
// ParallelServer's shard-affine dispatch lanes, whose ingest state is
// GUARDED_BY the lane lock and machine-checked under the clang-strict
// preset (common/thread_annotations.hpp, DESIGN.md §8).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "veridp/admission.hpp"
#include "veridp/report_batch.hpp"
#include "veridp/seq_tracker.hpp"
#include "veridp/server.hpp"

namespace veridp {

struct IngestConfig {
  std::size_t capacity = 1024;        ///< hard queue bound
  std::size_t high_watermark = 768;   ///< shedding starts above this
  std::uint32_t shed_modulus = 4;     ///< keep seq % modulus == 0 when shedding
  std::size_t dedup_window = 4096;    ///< remembered seqs per switch
  std::size_t failure_keep = 32;      ///< failed reports retained

  /// Throws std::invalid_argument on a config that silently misbehaves:
  /// capacity == 0 (nothing can ever be queued), high_watermark >=
  /// capacity (shedding could not engage before the hard bound) and
  /// shed_modulus == 0 (seq % 0 is UB). ReportIngest validates at
  /// construction.
  void validate() const;
};

struct IngestHealth {
  std::uint64_t received = 0;     ///< datagrams offered
  std::uint64_t passed = 0;       ///< verified kOk
  std::uint64_t failed = 0;       ///< verified kNoPath / kTagMismatch
  std::uint64_t stale = 0;        ///< verified kStaleEpoch (inconclusive)
  std::uint64_t shed = 0;         ///< dropped by load shedding
  std::uint64_t quarantined = 0;  ///< failed decode
  std::uint64_t deduped = 0;      ///< duplicate seq suppressed
  std::uint64_t in_queue = 0;     ///< admitted, not yet verified
  std::uint64_t lost_estimate = 0;  ///< per-switch seq gaps
  AdmissionRegime regime = AdmissionRegime::kNormal;  ///< commanded regime
  std::uint64_t regime_transitions = 0;  ///< edge-triggered changes applied

  /// Everything that reached a terminal bucket. Equals `received` once
  /// the queue is drained (the conservation law above).
  [[nodiscard]] std::uint64_t accounted() const {
    return passed + failed + stale + shed + quarantined + deduped;
  }
  /// The conservation law INCLUDING in-flight reports: every received
  /// datagram is in exactly one terminal bucket or still queued. Exact
  /// at any point of the sequential ingest's life — the invariants
  /// harness asserts it mid-flight, not only after drain.
  [[nodiscard]] bool conserved() const {
    return accounted() + in_queue == received;
  }
};

class ReportIngest {
 public:
  /// The server must outlive the ingest. Throws std::invalid_argument
  /// if `cfg` fails IngestConfig::validate().
  explicit ReportIngest(Server& server, IngestConfig cfg = {});

  /// Observation tap: invoked for every report process() verifies, with
  /// the verdict it received, in verification order. The fuzz oracle
  /// uses it to capture the exact verified stream for time-to-detection
  /// scoring and for the parallel verify_stream equality check; pass an
  /// empty function to detach. Must not re-enter the ingest.
  void set_verdict_sink(
      std::function<void(const TagReport&, const Verdict&)> sink) {
    verdict_sink_ = std::move(sink);
  }

  /// Offers one datagram (encoded report bytes) to the queue. Returns
  /// true iff it was enqueued for verification (false: quarantined,
  /// deduped, or shed — see health()).
  bool offer(const std::vector<std::uint8_t>& datagram);

  /// Decoded-report entry point for callers that bypass the wire (the
  /// report still goes through dedup/shedding, not quarantine).
  bool offer_report(const TagReport& report);

  /// Verifies up to `max` queued reports through Server::verify_batch,
  /// at most autotuned_batch_size() lanes per call. Returns how many it
  /// verified.
  std::size_t process(std::size_t max = SIZE_MAX);

  /// Hands admission over to a control loop: from now on the commanded
  /// regime's declared policy (admission.hpp) replaces the fixed
  /// watermark of the ungoverned ingest — kNormal verifies all (hard
  /// capacity bound only), kSoft keeps the deterministic seq % modulus
  /// == 0 sample, kHard admits nothing to the verify queue.
  /// Edge-triggered: applying the current regime again only updates the
  /// modulus. Typically called each tick by IngestGovernor
  /// (control_loop.hpp).
  void govern(AdmissionRegime regime, std::uint32_t shed_modulus) {
    admission_.govern(regime, shed_modulus);
  }
  [[nodiscard]] bool governed() const { return admission_.governed(); }
  [[nodiscard]] AdmissionRegime regime() const { return admission_.regime(); }

  [[nodiscard]] const IngestConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] bool shedding() const {
    return admission_.shedding(queue_.size());
  }
  /// Health counters with the loss estimate refreshed.
  [[nodiscard]] IngestHealth health() const;

  /// Most recent malformed payloads (at most kQuarantineKeep).
  [[nodiscard]] const std::deque<std::vector<std::uint8_t>>& quarantine()
      const {
    return quarantine_;
  }
  /// Most recent definitively failed reports (bounded by failure_keep) —
  /// the inputs for localization.
  [[nodiscard]] const std::deque<TagReport>& recent_failures() const {
    return failures_;
  }

 private:
  /// Dedup + admission shared by offer / offer_report: returns true iff
  /// the report should be queued (false: counted deduped or shed).
  bool admit(const TagReport& report);

  Server* server_;
  IngestConfig cfg_;
  /// Decode and admission buckets; the verdict buckets live in totals_.
  IngestHealth health_;
  VerdictTotals totals_;
  AdmissionControl admission_;
  SeqTrackers seqs_;
  /// Admitted-but-unverified reports in SoA form: offer() appends
  /// lanes, process() verifies a prefix batch-wise and compacts. The
  /// columns double as the verify kernel's input — no per-report
  /// repacking between the queue and the verifier.
  ReportBatch queue_;
  std::vector<Verdict> verdicts_;  ///< process() scratch, one per lane
  std::deque<std::vector<std::uint8_t>> quarantine_;
  std::deque<TagReport> failures_;

  std::function<void(const TagReport&, const Verdict&)> verdict_sink_;
};

}  // namespace veridp
