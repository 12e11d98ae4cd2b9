#ifndef HOMP_SIM_ENGINE_H
#define HOMP_SIM_ENGINE_H

/// \file engine.h
/// Single-threaded discrete-event simulation engine.
///
/// The HOMP runtime's per-device proxy threads are modelled as actors that
/// schedule continuation callbacks on this engine. Running on virtual time
/// makes multi-device scheduling experiments deterministic and independent
/// of the host's actual core count (see DESIGN.md §2).
///
/// Tie-break contract (docs/DETERMINISM.md): events pop in strict
/// (time, seq) order, where seq is the global scheduling sequence number —
/// FIFO within a timestamp, regardless of generation tag or cancellation
/// history, which gives dynamic-chunk acquisition a reproducible winner on
/// ties. set_reverse_ties() pops same-timestamp events newest-first
/// instead; homp-fuzz --reverse-ties runs the invariant oracles under it
/// to catch logic that silently depends on the canonical order.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace homp::sim {

class Engine {
 public:
  using Callback = std::function<void()>;

  /// Cancellation generation tag. Events scheduled with a tag belong to
  /// that generation and can all be cancelled in one cancel_generation()
  /// call — the timer-lifecycle primitive behind job-level failure
  /// domains (docs/SERVING.md): a finishing job revokes every watchdog /
  /// probation / deadline timer it ever armed, so nothing it scheduled
  /// can fire after its owner is destroyed. Tag 0 means "untagged".
  using GenTag = std::uint64_t;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time. Valid inside and outside callbacks.
  Time now() const noexcept { return now_; }

  /// Mint a fresh, never-before-issued generation tag (never 0).
  GenTag new_generation() noexcept { return ++next_gen_; }

  /// Schedule `fn` at absolute virtual time `t`. `t` must be >= now().
  /// Returns an id usable with cancel(). A non-zero `tag` enrols the
  /// event in that cancellation generation.
  std::uint64_t schedule_at(Time t, Callback fn, GenTag tag = 0);

  /// Schedule `fn` after a non-negative delay.
  std::uint64_t schedule_after(Time dt, Callback fn, GenTag tag = 0) {
    return schedule_at(now_ + dt, std::move(fn), tag);
  }

  /// Cancel a pending event. Returns false if it already ran or was
  /// cancelled. Cancellation is O(1): the entry is tombstoned and skipped.
  /// Every tombstone is reclaimed when its queue entry surfaces, so
  /// repeated cancellation cannot grow the engine without bound.
  bool cancel(std::uint64_t id);

  /// Cancel every still-pending event in `tag`'s generation and retire
  /// the generation's bookkeeping. Returns how many events were
  /// cancelled. Safe to call for a generation with no pending events
  /// (returns 0); the tag may be re-armed afterwards.
  std::size_t cancel_generation(GenTag tag);

  /// Pending (scheduled, not yet run or cancelled) events in `tag`'s
  /// generation.
  std::size_t pending_in(GenTag tag) const;

  /// Number of generations that currently have at least one pending
  /// event — the memory-flatness gauge: a drained server must read 0.
  std::size_t live_generations() const { return gens_.size(); }

  /// Run until the queue is empty (or stop() is called from a callback).
  /// stop() only interrupts the current drain: a later run()/run_until()
  /// resumes with the remaining events.
  void run();

  /// Run until virtual time would exceed `deadline`; events at exactly
  /// `deadline` are processed. Returns the number of events processed.
  std::size_t run_until(Time deadline);

  /// Run until the queue is empty, stop() is called, or `max_events` more
  /// events have been processed — the step-budget watchdog behind
  /// OffloadOptions::harness.step_budget (docs/FUZZING.md): a scheduler
  /// livelock spins in bounded virtual time, so a deadline cannot catch
  /// it, but an event budget can. Returns the number of events this call
  /// processed; afterwards idle() distinguishes "drained" from "budget
  /// exhausted with work pending".
  std::size_t run_bounded(std::size_t max_events);

  /// Request run()/run_until() to return after the current callback.
  void stop() noexcept { stopped_ = true; }

  /// True when no pending (non-cancelled) events remain.
  bool idle() const { return live_events_ == 0; }

  /// Pending (non-cancelled) events across all generations.
  std::size_t live_events() const { return live_events_; }

  /// Pop same-timestamp events newest-first (true) instead of in the
  /// canonical FIFO order (false, the default). Only legal while idle():
  /// the order applies to events scheduled after the call. Results must
  /// not depend on it; schedules may (docs/DETERMINISM.md).
  void set_reverse_ties(bool reverse);

  std::size_t events_processed() const noexcept { return processed_; }

 private:
  struct Entry {
    Time t;
    std::uint64_t key;  // pop order within t: seq, or ~seq when reversed
    std::uint64_t seq;  // cancellation id
    GenTag tag;         // 0 = untagged
    Callback fn;
    bool operator>(const Entry& o) const noexcept {
      if (t != o.t) return t > o.t;
      return key > o.key;
    }
  };

  bool pop_one();  // runs the next event; false if queue exhausted
  void purge_cancelled_top();  // drop tombstones sitting at the queue top

  /// Drop `id` from its generation's pending set (no-op when untagged).
  void retire_from_generation(std::uint64_t id, GenTag tag);

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  std::unordered_set<std::uint64_t> pending_;    // scheduled, not yet run
  std::unordered_set<std::uint64_t> cancelled_;  // tombstones in queue_
  /// Generation membership, kept only for tagged *pending* events; a
  /// generation's map entry disappears when its last pending event runs
  /// or is cancelled, so long-lived engines stay flat.
  std::unordered_map<GenTag, std::unordered_set<std::uint64_t>> gens_;
  std::unordered_map<std::uint64_t, GenTag> tag_of_;  // tagged pending only
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  GenTag next_gen_ = 0;
  std::size_t processed_ = 0;
  std::size_t live_events_ = 0;
  bool stopped_ = false;
  bool reverse_ties_ = false;
};

}  // namespace homp::sim

#endif  // HOMP_SIM_ENGINE_H
