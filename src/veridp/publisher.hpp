// Snapshot publication: the one path from a controller rule event to a
// served EpochSnapshot, shared by ParallelServer and by Server in
// kFullRebuild mode (DESIGN.md §6, §9). A build lands in the inactive A/B
// slot; one release store of the served pointer publishes it.
//
// The build arena is the one thing the owners choose differently. An
// owner whose readers run while it builds takes a fresh arena per build,
// so no build mutates a node a reader is evaluating (each HeaderSet keeps
// its arena alive exactly as long as its table). An owner whose tables
// must be comparable via `equivalent` builds in one shared arena.
//
// Threading: one control thread, except snapshot(), published() and
// PublishWatchdog's in_failsafe()/failsafe_events(), which any thread
// may call.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "controller/controller.hpp"
#include "veridp/verifier.hpp"

namespace veridp {

/// Failsafe state of a publisher that may wedge: the fault hook, the
/// heartbeats missed with events pending, and the edge-triggered failsafe
/// flag and event count. Each server owns one; a SnapshotPublisher books
/// into its owner's, and Server in kIncremental mode, whose table mutates
/// in place and so publishes no snapshot, books into it by the same rules.
class PublishWatchdog {
 public:
  /// While `fault` returns true the publisher is wedged.
  void set_fault(std::function<bool()> fault) { fault_ = std::move(fault); }
  [[nodiscard]] bool wedged() const { return fault_ && fault_(); }
  /// Books one heartbeat missed with events pending; returns true on the
  /// miss that reaches `deadline_ticks` in a row and trips the failsafe.
  bool miss(std::uint64_t deadline_ticks) {
    if (++missed_ < deadline_ticks || in_failsafe()) return false;
    // veridp-lint: allow(relaxed-atomic, independent status flag; readers poll it)
    in_failsafe_.store(true, std::memory_order_relaxed);
    // veridp-lint: allow(relaxed-atomic, commutative counter increment; no ordering carried)
    failsafe_events_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  /// Nothing is pending any more: the failsafe lifts.
  void clear() {
    missed_ = 0;
    // veridp-lint: allow(relaxed-atomic, independent status flag; readers poll it)
    in_failsafe_.store(false, std::memory_order_relaxed);
  }

  [[nodiscard]] bool in_failsafe() const {
    // veridp-lint: allow(relaxed-atomic, advisory status poll; no data guarded by it)
    return in_failsafe_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failsafe_events() const {
    // veridp-lint: allow(relaxed-atomic, monitoring counter; exactness not ordering)
    return failsafe_events_.load(std::memory_order_relaxed);
  }

 private:
  std::function<bool()> fault_;
  std::uint64_t missed_ = 0;
  std::atomic<bool> in_failsafe_{false};
  std::atomic<std::uint64_t> failsafe_events_{0};
};

class SnapshotPublisher {
 public:
  /// Subscribes to `controller`'s rule events. Builds in `arena`, or in
  /// a fresh arena per build if none. `controller` and `watchdog` must
  /// outlive the publisher.
  SnapshotPublisher(Controller& controller, int tag_bits,
                    std::optional<HeaderSpace> arena,
                    PublishWatchdog& watchdog);
  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  /// Takes effect from the next build.
  void enable_epoch_checking(std::size_t snapshot_ring,
                             std::uint32_t grace_window) {
    epoch_checking_ = true;
    ring_capacity_ = snapshot_ring;
    grace_window_ = grace_window;
  }
  /// Builds from the live config, wedged or not; nothing stays pending.
  void sync();
  /// Builds if events are pending and the publisher is not wedged.
  void publish();
  /// Builds pending events unless wedged; else books a miss, and the
  /// miss that trips the watchdog drops the inactive slot and re-serves
  /// the last-good active one. Its table_valid_to predates the pending
  /// events, so later reports verify pass or kStaleEpoch, never failed.
  /// The first call syncs. Returns in_failsafe().
  bool heartbeat(std::uint64_t deadline_ticks);
  /// The served snapshot, for readers on any thread (null before the
  /// first sync).
  [[nodiscard]] std::shared_ptr<const EpochSnapshot> snapshot() const {
    return served_.load(std::memory_order_acquire);
  }
  /// The same snapshot for the control thread, without the atomic load.
  [[nodiscard]] const std::shared_ptr<const EpochSnapshot>& active() const {
    return slots_[active_slot_];
  }
  [[nodiscard]] std::uint64_t published() const {
    // veridp-lint: allow(relaxed-atomic, monitoring counter; exactness not ordering)
    return published_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] bool synced() const { return active() != nullptr; }
  /// Events are pending; the first of them came at dirty_from().
  [[nodiscard]] bool dirty() const { return dirty_; }
  [[nodiscard]] std::uint32_t dirty_from() const { return dirty_from_; }
  [[nodiscard]] bool epoch_checking() const { return epoch_checking_; }

 private:
  void rebuild();

  Controller* controller_;
  int tag_bits_;
  std::optional<HeaderSpace> arena_;
  bool dirty_ = false;
  bool epoch_checking_ = false;
  std::size_t ring_capacity_ = 8;
  std::uint32_t grace_window_ = 64;
  std::uint32_t epoch_ = 0;
  std::uint32_t dirty_from_ = 0;
  /// The active slot pins the last good snapshot, which the watchdog
  /// re-serves whatever a wedged build left in the other one.
  std::shared_ptr<const EpochSnapshot> slots_[2];
  unsigned active_slot_ = 0;
  std::atomic<std::shared_ptr<const EpochSnapshot>> served_;
  std::atomic<std::uint64_t> published_{0};
  PublishWatchdog& watchdog_;
};

}  // namespace veridp
