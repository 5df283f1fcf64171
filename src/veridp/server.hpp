// The VeriDP server (§3.2, §3.4): sits beside the controller, intercepts
// the southbound rule stream to keep its path table current, receives tag
// reports from switches, verifies them (Algorithm 3) and localizes faulty
// switches on failure (Algorithm 4).
//
// Two maintenance modes:
//  * kIncremental — rules must be dst-prefix-only with priority equal to
//    prefix length and no ACLs (§4.4's fragment); updates are O(affected
//    branches) via IncrementalUpdater.
//  * kFullRebuild — arbitrary rules/ACLs; the table is rebuilt from the
//    controller's logical configs on demand (rebuilds are batched: the
//    table is marked dirty and rebuilt lazily before the next lookup) by
//    the same SnapshotPublisher that feeds ParallelServer, building in
//    this server's shared arena.
//
// Epoch-aware verification (opt-in via enable_epoch_checking): every rule
// event advances the config epoch; reports carry the epoch they were
// sampled under. A report stamped with a past epoch is checked against
// the path table that was current *then* — kFullRebuild serves the
// publisher's EpochSnapshot and its ring of superseded tables, as
// ParallelServer does; kIncremental (whose table mutates in place)
// applies a grace-window rule instead: a recent-epoch report that fails
// against the current table is classified kStaleEpoch, not failed.
// Either way, in-flight reports straddling a rule update can never
// produce false positives. The ring also keeps Verdict::matched pointers
// valid across lazy rebuilds until a snapshot ages out.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "controller/controller.hpp"
#include "veridp/incremental.hpp"
#include "veridp/localizer.hpp"
#include "veridp/publisher.hpp"
#include "veridp/verifier.hpp"

namespace veridp {

class Server {
 public:
  enum class Mode { kFullRebuild, kIncremental };

  /// Creates a server monitoring `controller`'s network. Subscribes to
  /// the controller's rule events. The controller (and its topology)
  /// must outlive the server. Pass a HeaderSpace to share one BDD arena
  /// with other components (HeaderSpace copies share their manager);
  /// required when this server's path table will be compared with
  /// another via `equivalent`.
  Server(Controller& controller, Mode mode,
         int tag_bits = BloomTag::kDefaultBits,
         HeaderSpace space = HeaderSpace{});

  /// Builds the path table from the current logical state. Call once
  /// after the initial policy installation.
  void sync();

  /// Verifies one tag report against the path table. With epoch
  /// checking enabled the report's epoch stamp selects the table (see
  /// the header comment); otherwise the current table is always used.
  Verdict verify(const TagReport& report);

  /// Batched verify over lanes [first, first + count) of a ReportBatch:
  /// one ensure_fresh/epoch_tables per call instead of per report, then
  /// the batched kernel (verify_epoch_aware_batch). Verdicts land in
  /// out[0..count) and the health counters advance exactly as count
  /// scalar verify() calls would — verdicts are bit-identical by the
  /// kernel's contract.
  void verify_batch(const ReportBatch& batch, std::size_t first,
                    std::size_t count, Verdict* out);

  /// Runs fault localization for a (failed) report. Localization uses
  /// the controller's *current* logical config, so it is only
  /// meaningful for current-epoch failures — kStaleEpoch verdicts
  /// should not be localized.
  [[nodiscard]] LocalizeResult localize(const TagReport& report) const;

  [[nodiscard]] const PathTable& table();
  [[nodiscard]] PathTableStats stats();
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] int tag_bits() const { return tag_bits_; }

  /// Turns on epoch-aware verification. `snapshot_ring` bounds how many
  /// superseded tables kFullRebuild mode retains; `grace_window` is the
  /// number of recent epochs whose reports may still be judged against
  /// the current table when no snapshot covers them (kIncremental mode,
  /// or epochs that fell between two lazy rebuilds).
  void enable_epoch_checking(std::size_t snapshot_ring = 8,
                             std::uint32_t grace_window = 64);
  [[nodiscard]] bool epoch_checking() const { return epoch_checking_; }

  /// The config epoch the server has observed (mirrors the controller).
  [[nodiscard]] std::uint32_t epoch() const {
    return publisher_ ? publisher_->epoch() : epoch_;
  }
  /// Epoch the current table was built at; reports stamped >= this are
  /// verified against the current table.
  [[nodiscard]] std::uint32_t table_epoch() const {
    if (!publisher_) return table_valid_from_;
    return held_ ? held_->table_valid_from : 0;
  }
  /// Number of retained snapshots (kFullRebuild + epoch checking only).
  [[nodiscard]] std::size_t snapshots() const {
    return held_ ? held_->ranges.size() : 0;
  }

  // Health counters. Every verify() lands in exactly one of passed /
  // failed / stale.
  [[nodiscard]] std::uint64_t reports_verified() const {
    return totals_.verified;
  }
  [[nodiscard]] std::uint64_t reports_passed() const { return totals_.passed; }
  [[nodiscard]] std::uint64_t reports_failed() const { return totals_.failed; }
  [[nodiscard]] std::uint64_t reports_stale() const { return totals_.stale; }

  /// Duplicate-report memo effectiveness (see VerifyMemo).
  [[nodiscard]] std::uint64_t memo_hits() const { return memo_.hits(); }

  /// Fault-injection hook for the table publisher: while it returns
  /// true, rebuilds (kFullRebuild) / event application (kIncremental)
  /// are wedged. Every lookup is a heartbeat with a deadline of one
  /// (publisher.hpp): the first lookup behind pending events enters
  /// failsafe and the last-good table serves. Once the hook clears,
  /// kFullRebuild rebuilds and kIncremental replays the deferred events
  /// in order; sync() rebuilds wedged or not.
  void set_publish_fault(std::function<bool()> fault) {
    watchdog_.set_fault(std::move(fault));
  }
  /// True while serving the last-good table because the publisher is
  /// wedged behind pending rule events.
  [[nodiscard]] bool in_failsafe() const { return watchdog_.in_failsafe(); }
  /// Edge-triggered count of failsafe engagements (loud by design).
  [[nodiscard]] std::uint64_t failsafe_events() const {
    return watchdog_.failsafe_events();
  }

 private:
  void on_rule_event(const RuleEvent& ev);
  void ensure_fresh();
  /// View of the epoch → table state consumed by verify_epoch_aware
  /// (the classification shared with ParallelServer). Requires
  /// ensure_fresh() to have run.
  [[nodiscard]] EpochTables epoch_tables() const;

  Controller* controller_;
  Mode mode_;
  int tag_bits_;
  HeaderSpace space_;

  PublishWatchdog watchdog_;  ///< see set_publish_fault
  /// kFullRebuild: the publisher (building in space_) and the snapshot
  /// it serves, which memo_ was filled against. Only this server makes
  /// the publisher build, and it refreshes held_ each time.
  std::unique_ptr<SnapshotPublisher> publisher_;
  std::shared_ptr<const EpochSnapshot> held_;

  // kIncremental: the in-place table and its event tracking.
  std::unique_ptr<IncrementalUpdater> updater_;
  std::vector<RuleEvent> deferred_;  ///< events queued while wedged
  bool dirty_ = false;
  std::uint32_t epoch_ = 0;
  std::uint32_t table_valid_from_ = 0;
  std::uint32_t dirty_from_ = 0;  ///< epoch of the first event since clean

  bool epoch_checking_ = false;
  std::uint32_t grace_window_ = 64;
  /// Duplicate-report fast path. Valid only for the current epoch state:
  /// cleared whenever a new snapshot serves AND on every in-place
  /// incremental update (kIncremental mutates the table without a
  /// rebuild).
  VerifyMemo memo_;

  VerdictTotals totals_;  ///< health counters
};

}  // namespace veridp
