// Admission regimes: the server's declared overload postures.
//
// PR 1's load shedding was a single fixed policy (watermark + modulus)
// whose behavior an operator could only predict by reading the ingest
// source. Regimes make the degradation ladder explicit — each regime
// maps to exactly one admission policy, so "what is the server doing to
// my reports right now?" is answered by one exported enum value:
//
//   kNormal  →  kVerifyAll          every well-formed report is queued
//                                   for verification (only the hard
//                                   capacity bound can shed);
//   kSoft    →  kDeterministicSample only the seq % shed_modulus == 0
//                                   subset is verified — reproducible
//                                   run-to-run, like PR 1 shedding but
//                                   with a controller-commanded modulus;
//   kHard    →  kQuarantineOnly     no report reaches the verify queue;
//                                   decode quarantine and duplicate
//                                   bookkeeping continue so the books
//                                   still balance and recovery starts
//                                   from accurate loss estimates.
//
// Transitions between regimes are decided by the ControlLoop
// (control_loop.hpp) with hysteresis — distinct enter/exit pressure
// thresholds — and are edge-triggered: both ingest paths count
// transitions, never re-apply a regime they are already in, and export
// the current regime through IngestHealth / ParallelHealth.
// Ungoverned, the fixed watermark picks kVerifyAll or kDeterministicSample
// by queue depth. Both ingest paths decide through one AdmissionControl.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>

namespace veridp {

enum class AdmissionRegime : std::uint8_t {
  kNormal = 0,
  kSoft = 1,
  kHard = 2,
};

enum class AdmissionPolicy : std::uint8_t {
  kVerifyAll = 0,
  kDeterministicSample = 1,
  kQuarantineOnly = 2,
};

/// The regime → policy map is total and fixed: operators predict
/// behavior from the regime alone.
[[nodiscard]] constexpr AdmissionPolicy policy_for(AdmissionRegime r) {
  switch (r) {
    case AdmissionRegime::kSoft:
      return AdmissionPolicy::kDeterministicSample;
    case AdmissionRegime::kHard:
      return AdmissionPolicy::kQuarantineOnly;
    case AdmissionRegime::kNormal:
      break;
  }
  return AdmissionPolicy::kVerifyAll;
}

/// Ungoverned admission: the fixed watermark picks the policy by depth.
[[nodiscard]] constexpr AdmissionPolicy watermark_policy(
    std::size_t depth, std::size_t high_watermark) {
  return depth >= high_watermark ? AdmissionPolicy::kDeterministicSample
                                 : AdmissionPolicy::kVerifyAll;
}

/// The one admission decision for a decoded, non-duplicate report that
/// finds `depth` reports queued under a hard bound of `capacity`. The
/// sample depends only on seqs, so a rerun sheds the same reports.
[[nodiscard]] constexpr bool admits(AdmissionPolicy policy, std::size_t depth,
                                    std::size_t capacity,
                                    std::uint32_t modulus, std::uint32_t seq) {
  switch (policy) {
    case AdmissionPolicy::kQuarantineOnly:
      return false;
    case AdmissionPolicy::kDeterministicSample:
      return depth < capacity && seq % modulus == 0;
    case AdmissionPolicy::kVerifyAll:
      break;
  }
  return depth < capacity;
}

/// Malformed payloads each ingest path retains for inspection.
inline constexpr std::size_t kQuarantineKeep = 16;

/// Appends to a retention ring (quarantine, failures), dropping the
/// oldest entries beyond `keep`.
template <typename T>
void keep_recent(std::deque<T>& ring, const T& item, std::size_t keep) {
  ring.push_back(item);
  if (ring.size() > keep) ring.pop_front();
}

/// An ingest path's admission state: the fixed watermark until a control
/// loop calls govern(), the commanded regime's policy from then on. The
/// control thread writes; producers read with relaxed atomics — a report
/// raced with a regime flip lands under either policy, both of which
/// conserve.
class AdmissionControl {
 public:
  /// `shed_modulus` must be non-zero (both configs validate or clamp it).
  AdmissionControl(std::size_t capacity, std::size_t high_watermark,
                   std::uint32_t shed_modulus)
      : capacity_(capacity),
        high_watermark_(high_watermark),
        modulus_(shed_modulus) {}

  /// Hands admission to a control loop. Edge-triggered: re-applying the
  /// current regime only updates the modulus (0 keeps the current one).
  void govern(AdmissionRegime regime, std::uint32_t shed_modulus) {
    // veridp-lint: allow(relaxed-atomic, advisory admission knobs; each read stands alone)
    governed_.store(true, std::memory_order_relaxed);
    if (shed_modulus != 0)
      // veridp-lint: allow(relaxed-atomic, advisory admission knobs; each read stands alone)
      modulus_.store(shed_modulus, std::memory_order_relaxed);
    const auto next = static_cast<std::uint8_t>(regime);
    // veridp-lint: allow(relaxed-atomic, advisory admission knobs; each read stands alone)
    if (regime_.exchange(next, std::memory_order_relaxed) != next)
      // veridp-lint: allow(relaxed-atomic, commutative counter increment; no ordering carried)
      transitions_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Whether a report with `seq` that finds `depth` reports queued is
  /// admitted (false: it is counted shed).
  [[nodiscard]] bool admits(std::size_t depth, std::uint32_t seq) const {
    return veridp::admits(governed() ? policy_for(regime())
                                     : watermark_policy(depth, high_watermark_),
                          depth, capacity_, read(modulus_), seq);
  }
  [[nodiscard]] bool shedding(std::size_t depth) const {
    return governed() ? regime() != AdmissionRegime::kNormal
                      : depth >= high_watermark_;
  }
  [[nodiscard]] bool governed() const { return read(governed_); }
  [[nodiscard]] AdmissionRegime regime() const {
    return static_cast<AdmissionRegime>(read(regime_));
  }
  /// Edge-triggered regime changes applied.
  [[nodiscard]] std::uint64_t transitions() const {
    return read(transitions_);
  }

 private:
  template <typename T>
  static T read(const std::atomic<T>& a) {
    // veridp-lint: allow(relaxed-atomic, advisory admission knobs and a monitoring counter; each read stands alone)
    return a.load(std::memory_order_relaxed);
  }

  std::size_t capacity_;
  std::size_t high_watermark_;
  std::atomic<bool> governed_{false};
  std::atomic<std::uint8_t> regime_{0};
  std::atomic<std::uint32_t> modulus_;
  std::atomic<std::uint64_t> transitions_{0};
};

[[nodiscard]] constexpr const char* to_string(AdmissionRegime r) {
  switch (r) {
    case AdmissionRegime::kSoft:
      return "soft";
    case AdmissionRegime::kHard:
      return "hard";
    case AdmissionRegime::kNormal:
      break;
  }
  return "normal";
}

}  // namespace veridp
