// Regression coverage for the VERIDP_LOCKDEP runtime checker
// (common/lockdep.hpp, DESIGN.md §12): the one-named-lock-per-thread
// rule — every nesting shape of two named locks aborts, whatever its
// order, mode or blocking kind — and the snapshot-lifecycle
// (use-after-retire) half.
//
// This executable compiles its own copy of lockdep.cc with the macro
// defined (see tests/CMakeLists.txt) rather than linking the veridp
// umbrella — the default build must keep the hooks compiled out, and a
// tree-wide define would put every other test behind the checker.
#include <gtest/gtest.h>

#include <thread>

#include "common/thread_annotations.hpp"

namespace veridp {
namespace {

// The nesting abort names the lock already held and the one being
// acquired; each death test pins both names.
#define NESTING(held, acquired) \
  "holds named lock \"" held "\" while acquiring named lock \"" acquired "\""

TEST(Lockdep, ConsistentOrderStaysSilent) {
  // Sequential use of many named locks, always in one order, from
  // several threads: a thread lets go of each lock before it takes the
  // next, so the slot is empty at every acquisition.
  Mutex outer{"test.consistent.outer"};
  Mutex inner{"test.consistent.inner"};
  Mutex lane0{"test.consistent.lane"};
  Mutex lane1{"test.consistent.lane"};
  SharedMutex table{"test.consistent.table"};
  auto sequential = [&] {
    for (int i = 0; i < 64; ++i) {
      { MutexLock lo(outer); }
      { MutexLock li(inner); }
      { MutexLock l0(lane0); }
      { MutexLock l1(lane1); }
      { ReaderLock r(table); }
      { WriterLock w(table); }
      if (outer.try_lock()) outer.unlock();
    }
  };
  std::thread t1(sequential), t2(sequential), t3(sequential);
  t1.join();
  t2.join();
  t3.join();
  SUCCEED();
}

TEST(Lockdep, UnnamedLocksAreUntracked) {
  Mutex anon_a;  // default-constructed: no name, never in the slot
  Mutex anon_b;
  Mutex named{"test.unnamed.named"};
  {
    MutexLock la(anon_a);
    MutexLock lb(anon_b);
  }
  {
    MutexLock lb(anon_b);
    MutexLock la(anon_a);  // inverted — but invisible by design
  }
  {
    // An unnamed lock nests freely on either side of a named one.
    MutexLock la(anon_a);
    MutexLock ln(named);
    MutexLock lb(anon_b);
  }
  SUCCEED();
}

TEST(LockdepDeathTest, ConsistentOrderNestingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The declared-hierarchy shape: outer before inner, never inverted.
  // An order graph accepts it; the one-lock rule does not.
  Mutex outer{"test.nest.outer"};
  Mutex inner{"test.nest.inner"};
  EXPECT_DEATH(
      {
        MutexLock lo(outer);
        MutexLock li(inner);
      },
      NESTING("test.nest.outer", "test.nest.inner"));
}

TEST(LockdepDeathTest, AbbaInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a{"test.abba.a"};
  Mutex b{"test.abba.b"};
  // Either half of the ABBA pair is already a nesting; the first one
  // aborts before the inverted order can ever run.
  EXPECT_DEATH(
      {
        {
          MutexLock la(a);
          MutexLock lb(b);
        }
        {
          MutexLock lb(b);
          MutexLock la(a);
        }
      },
      NESTING("test.abba.a", "test.abba.b"));
  EXPECT_DEATH(
      {
        MutexLock lb(b);
        MutexLock la(a);
      },
      NESTING("test.abba.b", "test.abba.a"));
}

TEST(LockdepDeathTest, TransitiveInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a{"test.chain.a"};
  Mutex b{"test.chain.b"};
  Mutex c{"test.chain.c"};
  // a -> b, b -> c, c -> a: each edge of the 3-cycle on its own thread,
  // so no thread ever inverts an order it saw — only the cycle across
  // threads deadlocks. Each edge is a nesting, so the first one aborts.
  EXPECT_DEATH(
      {
        std::thread([&] {
          MutexLock la(a);
          MutexLock lb(b);
        }).join();
        std::thread([&] {
          MutexLock lb(b);
          MutexLock lc(c);
        }).join();
        std::thread([&] {
          MutexLock lc(c);
          MutexLock la(a);
        }).join();
      },
      NESTING("test.chain.a", "test.chain.b"));
  EXPECT_DEATH(
      {
        MutexLock lc(c);
        MutexLock la(a);  // the edge that closes the cycle
      },
      NESTING("test.chain.c", "test.chain.a"));
}

TEST(LockdepDeathTest, SameClassNestingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two INSTANCES of one name: exactly the per-lane shape where thread
  // 1 nests lane[0] under lane[1] and thread 2 the reverse.
  Mutex lane0{"test.recursion.lane"};
  Mutex lane1{"test.recursion.lane"};
  EXPECT_DEATH(
      {
        MutexLock l0(lane0);
        MutexLock l1(lane1);
      },
      NESTING("test.recursion.lane", "test.recursion.lane"));
}

TEST(LockdepDeathTest, ReaderThenWriterNestingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SharedMutex table{"test.rw.table"};
  Mutex side{"test.rw.side"};
  // A shared hold counts: a reader nesting a lock aborts like a writer.
  EXPECT_DEATH(
      {
        ReaderLock r(table);
        MutexLock s(side);
      },
      NESTING("test.rw.table", "test.rw.side"));
  EXPECT_DEATH(
      {
        WriterLock w(table);
        MutexLock s(side);
      },
      NESTING("test.rw.table", "test.rw.side"));
}

TEST(LockdepDeathTest, WriterInversionAgainstReaderOrderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SharedMutex table{"test.rwinv.table"};
  Mutex side{"test.rwinv.side"};
  EXPECT_DEATH(
      {
        MutexLock s(side);
        WriterLock w(table);
      },
      NESTING("test.rwinv.side", "test.rwinv.table"));
  EXPECT_DEATH(
      {
        MutexLock s(side);
        ReaderLock r(table);  // a shared acquisition is checked too
      },
      NESTING("test.rwinv.side", "test.rwinv.table"));
}

TEST(LockdepDeathTest, TryLockUnderHeldLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex held{"test.try.held"};
  Mutex tried{"test.try.tried"};
  // A try_lock cannot block, but a held try-acquired lock can still be
  // the lock another thread waits on: the rule checks it before trying.
  EXPECT_DEATH(
      {
        MutexLock lh(held);
        if (tried.try_lock()) tried.unlock();
      },
      NESTING("test.try.held", "test.try.tried"));
}

// Two shapes an order-hierarchy diff flags only after the fact: a pair
// taken against its declared order, and an edge no hierarchy declares.

TEST(LockdepDeathTest, InvertedBufferPairAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Failure and quarantine buffers taken together, in the order
  // opposite to a declared failures -> quarantine hierarchy.
  Mutex failures{"test.fixture.failures"};
  Mutex quarantine{"test.fixture.quarantine"};
  EXPECT_DEATH(
      {
        MutexLock lq(quarantine);
        MutexLock lf(failures);
      },
      NESTING("test.fixture.quarantine", "test.fixture.failures"));
}

TEST(LockdepDeathTest, UndeclaredSharedThenTryLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A counter held shared while a queue lock is try-acquired: the edge
  // no hierarchy declared.
  SharedMutex counter{"test.fixture.counter"};
  Mutex queue{"test.fixture.queue"};
  EXPECT_DEATH(
      {
        ReaderLock lc(counter);
        if (queue.try_lock()) queue.unlock();
      },
      NESTING("test.fixture.counter", "test.fixture.queue"));
}

TEST(LockdepDeathTest, UnbalancedReleaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a{"test.unbalanced.a"};
  Mutex b{"test.unbalanced.b"};
  EXPECT_DEATH(a.unlock(), "release of named lock \"test.unbalanced.a\" "
                           "that this thread does not hold");
  // Releasing a lock other than the one held is unbalanced too.
  EXPECT_DEATH(
      {
        MutexLock la(a);
        b.unlock();
      },
      "release of named lock \"test.unbalanced.b\"");
}

// -- Snapshot lifecycle (the arena-generation trick for EpochSnapshot) --

TEST(SnapshotLifecycle, LiveGenerationPassesChecks) {
  const std::uint64_t gen = lockdep::snapshot::register_gen();
  ASSERT_NE(gen, 0u);
  lockdep::snapshot::check(gen, "test.live");
  lockdep::snapshot::check(gen, "test.live");  // idempotent
  lockdep::snapshot::unregister(gen);
}

TEST(SnapshotLifecycle, GenerationZeroAlwaysPasses) {
  // Release-built objects carry gen 0; the checker must interoperate.
  lockdep::snapshot::check(0, "test.release-built");
  lockdep::snapshot::retire(0, "must-be-ignored");
  lockdep::snapshot::check(0, "test.release-built");
  SUCCEED();
}

TEST(SnapshotLifecycleDeathTest, UseAfterRetireAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::uint64_t gen = lockdep::snapshot::register_gen();
  lockdep::snapshot::retire(gen, "failsafe-flip");
  EXPECT_DEATH(lockdep::snapshot::check(gen, "EpochSnapshot::view"),
               "use-after-retire.*failsafe-flip");
  lockdep::snapshot::unregister(gen);
}

TEST(SnapshotLifecycleDeathTest, DanglingHandleAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::uint64_t gen = lockdep::snapshot::register_gen();
  lockdep::snapshot::unregister(gen);  // the snapshot was destroyed
  EXPECT_DEATH(lockdep::snapshot::check(gen, "EpochSnapshot::view"),
               "dangling");
}

}  // namespace
}  // namespace veridp
