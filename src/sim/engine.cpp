#include "sim/engine.h"

#include "common/error.h"

namespace homp::sim {

std::uint64_t Engine::schedule_at(Time t, Callback fn, GenTag tag) {
  HOMP_ASSERT(t >= now_);
  HOMP_ASSERT(fn != nullptr);
  const std::uint64_t id = next_seq_++;
  queue_.push(Entry{t, reverse_ties_ ? ~id : id, id, tag, std::move(fn)});
  pending_.insert(id);
  if (tag != 0) {
    gens_[tag].insert(id);
    tag_of_.emplace(id, tag);
  }
  ++live_events_;
  return id;
}

void Engine::retire_from_generation(std::uint64_t id, GenTag tag) {
  if (tag == 0) return;
  tag_of_.erase(id);
  auto git = gens_.find(tag);
  if (git == gens_.end()) return;
  git->second.erase(id);
  if (git->second.empty()) gens_.erase(git);
}

bool Engine::cancel(std::uint64_t id) {
  // Only genuinely pending events may be tombstoned: cancelling an id that
  // already ran (or was never issued) must not leave a tombstone behind —
  // nothing in the queue would ever reclaim it.
  auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  pending_.erase(it);
  cancelled_.insert(id);
  auto tit = tag_of_.find(id);
  if (tit != tag_of_.end()) retire_from_generation(id, tit->second);
  if (live_events_ > 0) --live_events_;
  return true;
}

std::size_t Engine::cancel_generation(GenTag tag) {
  if (tag == 0) return 0;
  auto git = gens_.find(tag);
  if (git == gens_.end()) return 0;
  // Detach the set first: cancel() mutates gens_ via retire_from_generation
  // and would invalidate the iteration otherwise.
  std::unordered_set<std::uint64_t> ids = std::move(git->second);
  gens_.erase(git);
  std::size_t n = 0;
  for (std::uint64_t id : ids) {
    tag_of_.erase(id);
    if (pending_.erase(id) == 0) continue;
    cancelled_.insert(id);
    if (live_events_ > 0) --live_events_;
    ++n;
  }
  return n;
}

std::size_t Engine::pending_in(GenTag tag) const {
  auto git = gens_.find(tag);
  return git == gens_.end() ? 0 : git->second.size();
}

void Engine::purge_cancelled_top() {
  while (!queue_.empty()) {
    auto it = cancelled_.find(queue_.top().seq);
    if (it == cancelled_.end()) return;
    cancelled_.erase(it);
    queue_.pop();
  }
}

bool Engine::pop_one() {
  purge_cancelled_top();
  if (queue_.empty()) return false;
  Entry e = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();
  pending_.erase(e.seq);
  retire_from_generation(e.seq, e.tag);
  HOMP_ASSERT(e.t >= now_);
  now_ = e.t;
  --live_events_;
  ++processed_;
  e.fn();
  return true;
}

void Engine::set_reverse_ties(bool reverse) {
  HOMP_REQUIRE(idle(), "set_reverse_ties needs an idle engine");
  reverse_ties_ = reverse;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && pop_one()) {
  }
}

std::size_t Engine::run_bounded(std::size_t max_events) {
  stopped_ = false;
  std::size_t n = 0;
  while (n < max_events && !stopped_ && pop_one()) ++n;
  return n;
}

std::size_t Engine::run_until(Time deadline) {
  stopped_ = false;
  std::size_t n = 0;
  for (;;) {
    if (stopped_) break;
    // The deadline check must see the next *live* event: a tombstone at
    // the top would otherwise let pop_one() skip it and run an event past
    // the deadline.
    purge_cancelled_top();
    if (queue_.empty() || queue_.top().t > deadline) break;
    if (pop_one()) ++n;
  }
  if (now_ < deadline && queue_.empty()) now_ = deadline;
  return n;
}

}  // namespace homp::sim
