// Runtime lock and snapshot-lifecycle discipline (DESIGN.md §12).
//
// TSan proves the *absence of data races on the schedules it saw*; it
// is structurally blind to lock-order deadlocks (an ABBA pair that
// never interleaved in CI deadlocks in production) and to a retired
// epoch snapshot quietly serving one more batch. This module monitors
// those two invariants the way the paper monitors the data plane:
// continuously, on every execution, instead of trusting one run.
//
// Lock half: ONE NAMED LOCK PER THREAD. A thread holds at most one
// named veridp::Mutex / veridp::SharedMutex at a time. Each thread
// keeps one slot for the named lock it holds; every acquisition of a
// named lock — blocking or try_lock, shared or exclusive — aborts
// before locking when the slot is already full, naming both locks and
// printing the current stack. A thread that never nests two named
// locks cannot be part of a lock-order cycle, so the rule is stronger
// than any order graph over those locks, and needs no declared
// hierarchy: the deadlock shape is rejected the first time a nesting
// runs, not the first time the timing loses. A release of a lock that
// is not in the slot aborts too (unbalanced lock/unlock). Unnamed
// locks (tests, scratch) are untracked.
//
// Snapshot-lifecycle half (the arena-generation trick, extended from
// BddRefs to EpochSnapshots): every EpochSnapshot registers a
// monotonically increasing lifecycle generation at construction. The
// parallel server's failsafe watchdog *retires* the generation of the
// slot it abandons; using a retired snapshot (EpochSnapshot::view())
// aborts with the retire reason — catching use-across-failsafe-flip
// and use-after-retire instead of letting the stale table answer one
// more probe.
//
// Everything here is compiled away unless VERIDP_LOCKDEP is defined
// (the `lockdep` CMake preset / -DVERIDP_LOCKDEP=ON): in release
// builds the hooks are empty inlines, the wrappers keep their exact
// std-primitive layout, and the hot path is untouched — the perf-smoke
// gate runs against the release build precisely so this stays true.
#pragma once

#include <cstdint>

namespace veridp {
namespace lockdep {

#ifdef VERIDP_LOCKDEP

/// Called BEFORE any acquisition of a lock named `name` (nullptr:
/// unnamed, untracked): aborts if this thread already holds a named
/// lock. Aborting before the underlying lock() means the checker
/// reports the nesting instead of joining a deadlock.
void pre_acquire(const char* name);

/// Called AFTER a successful acquisition: fills this thread's slot.
void post_acquire(const void* lock, const char* name);

/// Called on release: aborts unless `lock` is the one in the slot,
/// then empties it.
void on_release(const void* lock, const char* name);

namespace snapshot {

/// Registers a new snapshot lifecycle handle; returns its generation.
std::uint64_t register_gen();

/// Marks `gen` retired with a human-readable reason (e.g.
/// "failsafe-flip"). Idempotent; retiring generation 0 is a no-op so
/// release-built objects (which carry gen 0) interoperate.
void retire(std::uint64_t gen, const char* why);

/// Unregisters at destruction; subsequent checks abort (the handle no
/// longer exists — any use is a dangling reference).
void unregister(std::uint64_t gen);

/// Aborts with `what` + the retire reason if `gen` is retired or
/// unregistered. gen 0 (release-built object) passes.
void check(std::uint64_t gen, const char* what);

}  // namespace snapshot

#else  // !VERIDP_LOCKDEP — every hook is a free no-op.

inline void pre_acquire(const char*) {}
inline void post_acquire(const void*, const char*) {}
inline void on_release(const void*, const char*) {}

namespace snapshot {
inline std::uint64_t register_gen() { return 0; }
inline void retire(std::uint64_t, const char*) {}
inline void unregister(std::uint64_t) {}
inline void check(std::uint64_t, const char*) {}
}  // namespace snapshot

#endif  // VERIDP_LOCKDEP

}  // namespace lockdep
}  // namespace veridp
