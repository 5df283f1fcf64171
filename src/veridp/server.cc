#include "veridp/server.hpp"

#include "veridp/report_batch.hpp"

namespace veridp {

Server::Server(Controller& controller, Mode mode, int tag_bits,
               HeaderSpace space)
    : controller_(&controller),
      mode_(mode),
      tag_bits_(tag_bits),
      space_(std::move(space)) {
  if (mode_ == Mode::kFullRebuild)
    publisher_ = std::make_unique<SnapshotPublisher>(controller, tag_bits_,
                                                     space_, watchdog_);
  else
    controller_->subscribe(
        [this](const RuleEvent& ev) { on_rule_event(ev); });
}

void Server::enable_epoch_checking(std::size_t snapshot_ring,
                                   std::uint32_t grace_window) {
  epoch_checking_ = true;
  grace_window_ = grace_window;
  if (publisher_)
    publisher_->enable_epoch_checking(snapshot_ring, grace_window);
}

// kIncremental only: kFullRebuild's events go to the publisher.
void Server::on_rule_event(const RuleEvent& ev) {
  epoch_ = controller_->epoch();  // events arrive post-bump
  if (!updater_) return;  // events before the first sync are folded into it
  if (watchdog_.wedged() || !deferred_.empty()) {
    // Publisher wedged (or still holding a backlog): defer the event
    // instead of mutating the table — the last-good table keeps
    // serving, and ensure_fresh replays the backlog in order once the
    // wedge clears.
    if (deferred_.empty()) dirty_from_ = epoch_;
    deferred_.push_back(ev);
    dirty_ = true;
    return;
  }
  updater_->apply(ev);
  table_valid_from_ = epoch_;
  memo_.clear();  // table mutated in place: cached verdicts are void
}

void Server::sync() {
  if (publisher_) {
    publisher_->sync();
    ensure_fresh();  // serves the new snapshot
    return;
  }
  epoch_ = controller_->epoch();
  updater_ = std::make_unique<IncrementalUpdater>(space_,
                                                  controller_->topology(),
                                                  tag_bits_);
  updater_->initialize(controller_->logical_configs());
  // The rebuilt table holds every event, the deferred ones included.
  deferred_.clear();
  table_valid_from_ = epoch_;
  dirty_ = false;
  watchdog_.clear();
  memo_.clear();
}

void Server::ensure_fresh() {
  if (publisher_) {
    // Each lookup is a heartbeat with a deadline of one: a wedged
    // publisher with events pending enters failsafe at once.
    publisher_->heartbeat(1);
    if (publisher_->active() != held_) {
      held_ = publisher_->active();
      memo_.clear();
    }
    return;
  }
  if (!updater_) sync();
  if (!dirty_) return;
  if (watchdog_.wedged()) {
    // Failsafe: keep serving the last-good table. epoch_tables() caps
    // table_valid_to at the last pre-event epoch, so the ahead-of-table
    // rule turns would-be false positives into kStaleEpoch.
    watchdog_.miss(1);
    return;
  }
  // Recovery: replay the backlog deferred while wedged, in order.
  updater_->apply_batch(deferred_);
  deferred_.clear();
  table_valid_from_ = epoch_;
  memo_.clear();
  dirty_ = false;
  watchdog_.clear();
}

const PathTable& Server::table() {
  ensure_fresh();
  return publisher_ ? *held_->current : updater_->table();
}

PathTableStats Server::stats() { return table().stats(); }

EpochTables Server::epoch_tables() const {
  // The tables come from the served snapshot (kFullRebuild) or the
  // in-place table; the epoch fields from the live event tracking,
  // whose epoch moves past the table's while events are pending.
  EpochTables t;
  if (publisher_) {
    t = held_->view();
    t.epoch = publisher_->epoch();
    // Dirty (only possible here when the publisher is wedged — verify()
    // runs ensure_fresh first): the current table definitively covers
    // only epochs before the first pending event.
    t.table_valid_to =
        publisher_->dirty() ? publisher_->dirty_from() - 1 : t.epoch;
  } else {
    t.current = &updater_->table();
    t.epoch = epoch_;
    t.table_valid_from = table_valid_from_;
    t.table_valid_to = dirty_ ? dirty_from_ - 1 : epoch_;
  }
  t.epoch_checking = epoch_checking_;
  t.grace_window = grace_window_;
  return t;
}

Verdict Server::verify(const TagReport& report) {
  ensure_fresh();
  const Verdict v = verify_epoch_aware(report, epoch_tables(), &memo_);
  totals_.add(v);
  return v;
}

void Server::verify_batch(const ReportBatch& batch, std::size_t first,
                          std::size_t count, Verdict* out) {
  if (count == 0) return;
  ensure_fresh();
  verify_epoch_aware_batch(batch, first, count, epoch_tables(), &memo_, out);
  for (std::size_t k = 0; k < count; ++k) totals_.add(out[k]);
}

LocalizeResult Server::localize(const TagReport& report) const {
  Localizer localizer(controller_->topology(), controller_->logical_configs());
  return localizer.infer(report);
}

}  // namespace veridp
