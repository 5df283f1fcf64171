// The declared lock hierarchy the observed_*.json fixtures are diffed
// against (tools/lock_order_extract.py --root tests/lockdep_fixtures).
// The extractor only parses this file; nothing compiles it. It declares
// one cross-class edge in comment form and one same-class edge in
// attribute form, so both declaration shapes stay covered.
#pragma once

namespace fixture {

struct Lane {
  // ACQUIRED_BEFORE("Fixture::queue")
  mutable Mutex mu{"Fixture::lane"};
};

struct Queue {
  mutable Mutex mu{"Fixture::queue"};
};

struct Buffers {
  mutable Mutex failures_mu ACQUIRED_BEFORE(quarantine_mu){
      "Fixture::failures"};
  mutable Mutex quarantine_mu{"Fixture::quarantine"};
};

}  // namespace fixture
