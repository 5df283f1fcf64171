// Lockdep runtime: the per-thread named-lock slot and the
// snapshot-lifecycle generation registry. See lockdep.hpp for the
// model and DESIGN.md §12 for the workflow.
//
// Implementation notes:
//  * The snapshot registry synchronizes on a raw std::mutex, NOT
//    veridp::Mutex — instrumenting the instrument would recurse. The
//    raw-lock / relaxed-atomic lint rules exempt this file for the
//    same reason.
//  * The lock slot is thread_local and touched only by its own thread,
//    so the lock half takes no lock at all.
//  * Stacks are captured with glibc backtrace() and printed with
//    backtrace_symbols_fd() inside the abort path — symbols_fd does
//    not malloc, which matters because we are about to abort() anyway.
#include "common/lockdep.hpp"

#ifdef VERIDP_LOCKDEP

#include <execinfo.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

namespace veridp {
namespace lockdep {
namespace {

constexpr int kStackDepth = 24;

[[noreturn]] void die_with_stack(const char* label) {
  void* frames[kStackDepth];
  const int depth = ::backtrace(frames, kStackDepth);
  ::fprintf(stderr, "%s\n", label);
  ::fflush(stderr);
  if (depth > 0) ::backtrace_symbols_fd(frames, depth, STDERR_FILENO);
  ::abort();
}

/// The one named lock this thread holds (lock == nullptr: none).
struct Held {
  const void* lock = nullptr;
  const char* name = nullptr;
};

thread_local Held held;

}  // namespace

void pre_acquire(const char* name) {
  if (!name || !held.lock) return;
  ::fprintf(stderr,
            "lockdep: thread holds named lock \"%s\" while acquiring "
            "named lock \"%s\" (a thread may hold at most one named "
            "lock; nesting two is the shape every lock-order deadlock "
            "needs)\n",
            held.name, name);
  die_with_stack("lockdep: current acquisition stack:");
}

void post_acquire(const void* lock, const char* name) {
  if (name) held = {lock, name};
}

void on_release(const void* lock, const char* name) {
  if (!name) return;
  if (held.lock == lock) {
    held = {};
    return;
  }
  ::fprintf(stderr,
            "lockdep: release of named lock \"%s\" that this thread "
            "does not hold (unbalanced lock/unlock?)\n",
            name);
  die_with_stack("lockdep: current release stack:");
}

namespace snapshot {
namespace {

struct SnapRegistry {
  std::mutex mu;
  std::uint64_t next_gen = 1;
  // gen -> retire reason; a missing live entry means unregistered.
  std::unordered_map<std::uint64_t, const char*> live;
};

SnapRegistry& snap_reg() {
  static SnapRegistry* r = new SnapRegistry();
  return *r;
}

}  // namespace

std::uint64_t register_gen() {
  SnapRegistry& r = snap_reg();
  std::lock_guard<std::mutex> lk(r.mu);
  const std::uint64_t gen = r.next_gen++;
  r.live.emplace(gen, nullptr);
  return gen;
}

void retire(std::uint64_t gen, const char* why) {
  if (gen == 0) return;
  SnapRegistry& r = snap_reg();
  std::lock_guard<std::mutex> lk(r.mu);
  auto it = r.live.find(gen);
  if (it != r.live.end() && it->second == nullptr)
    it->second = why ? why : "retired";
}

void unregister(std::uint64_t gen) {
  if (gen == 0) return;
  SnapRegistry& r = snap_reg();
  std::lock_guard<std::mutex> lk(r.mu);
  r.live.erase(gen);
}

void check(std::uint64_t gen, const char* what) {
  if (gen == 0) return;  // built without the checker: interoperate
  SnapRegistry& r = snap_reg();
  std::lock_guard<std::mutex> lk(r.mu);
  auto it = r.live.find(gen);
  if (it != r.live.end() && it->second == nullptr) return;
  const char* why =
      it == r.live.end() ? "destroyed (dangling handle)" : it->second;
  ::fprintf(stderr,
            "lockdep: snapshot use-after-retire in %s: lifecycle "
            "generation %llu was retired (%s); a snapshot handle must "
            "not be referenced after the publisher dropped it\n",
            what, static_cast<unsigned long long>(gen), why);
  die_with_stack("lockdep: offending use stack:");
}

}  // namespace snapshot

}  // namespace lockdep
}  // namespace veridp

#else  // !VERIDP_LOCKDEP

// The release build compiles this TU to nothing; the inline no-ops in
// the header are the whole implementation.

#endif  // VERIDP_LOCKDEP
