#include "veridp/publisher.hpp"

#include "veridp/path_builder.hpp"

namespace veridp {

SnapshotPublisher::SnapshotPublisher(Controller& controller, int tag_bits,
                                     std::optional<HeaderSpace> arena,
                                     PublishWatchdog& watchdog)
    : controller_(&controller),
      tag_bits_(tag_bits),
      arena_(std::move(arena)),
      watchdog_(watchdog) {
  controller_->subscribe([this](const RuleEvent&) {
    epoch_ = controller_->epoch();  // events arrive post-bump
    // Events before the first sync are folded into it.
    if (synced() && !dirty_) {
      dirty_ = true;
      dirty_from_ = epoch_;
    }
  });
}

void SnapshotPublisher::rebuild() {
  const Topology& topo = controller_->topology();
  const HeaderSpace space = arena_ ? *arena_ : HeaderSpace{};
  ConfigTransferProvider provider(space, topo,
                                  controller_->logical_configs());
  PathTableBuilder builder(space, topo, provider, tag_bits_);
  auto next = std::make_shared<EpochSnapshot>();
  // Covers exactly the epoch it was built from.
  next->epoch = next->table_valid_from = next->table_valid_to = epoch_;
  next->grace_window = grace_window_;
  next->epoch_checking = epoch_checking_;
  next->current = std::make_shared<const PathTable>(builder.build());
  const std::shared_ptr<const EpochSnapshot>& prev = slots_[active_slot_];
  if (epoch_checking_ && prev)
    next->inherit_ring(*prev, dirty_ ? dirty_from_ : epoch_, ring_capacity_);

  // A/B flip: the inactive slot becomes the active one, then one atomic
  // store makes it the served snapshot.
  active_slot_ = 1 - active_slot_;
  slots_[active_slot_] = next;
  served_.store(std::move(next), std::memory_order_release);
  dirty_ = false;
  watchdog_.clear();
  // veridp-lint: allow(relaxed-atomic, commutative counter increment; no ordering carried)
  published_.fetch_add(1, std::memory_order_relaxed);
}

void SnapshotPublisher::sync() {
  epoch_ = controller_->epoch();
  rebuild();
}

void SnapshotPublisher::publish() {
  if (!synced())
    sync();
  else if (dirty_ && !watchdog_.wedged())
    rebuild();
}

bool SnapshotPublisher::heartbeat(std::uint64_t deadline_ticks) {
  if (!synced() || !dirty_ || !watchdog_.wedged()) {
    if (!synced())
      sync();
    else if (dirty_)
      rebuild();
    watchdog_.clear();  // nothing is pending any more
    return false;
  }
  if (watchdog_.miss(deadline_ticks)) {
    // The inactive slot never serves again, so its lifecycle generation
    // is retired first: a view() through a kept handle is a
    // use-across-failsafe-flip bug and aborts in checked builds.
    std::shared_ptr<const EpochSnapshot>& abandoned = slots_[1 - active_slot_];
    if (abandoned)
      lockdep::snapshot::retire(abandoned->lifecycle_gen, "failsafe-flip");
    abandoned.reset();
    served_.store(slots_[active_slot_], std::memory_order_release);
  }
  return watchdog_.in_failsafe();
}

}  // namespace veridp
