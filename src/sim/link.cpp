#include "sim/link.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.h"

namespace homp::sim {

namespace {
// Completion slop: transfers whose remaining bytes fall below this are
// done. Rounding enters through `now - last_update` (catastrophic
// cancellation once the virtual clock is large), scaled by bandwidth when
// converted to bytes — so the slop must carry a bandwidth*clock term in
// addition to the per-transfer relative one. All terms stay far below one
// cache line's worth of timing effect.
bool is_done(double remaining, double total, double bandwidth, double now) {
  const double eps =
      1e-6 + total * 1e-9 + bandwidth * (now + 1.0) * 1e-13;
  return remaining <= eps;
}
}  // namespace

SharedLink::SharedLink(Engine& engine, std::string name, double latency_s,
                       double bytes_per_s)
    : engine_(engine),
      name_(std::move(name)),
      latency_(latency_s),
      bandwidth_(bytes_per_s) {
  HOMP_REQUIRE(latency_s >= 0.0, "link latency must be non-negative");
  HOMP_REQUIRE(bytes_per_s > 0.0, "link bandwidth must be positive");
}

void SharedLink::transfer(double bytes, std::function<void()> done) {
  HOMP_REQUIRE(bytes >= 0.0, "transfer size must be non-negative");
  HOMP_ASSERT(done != nullptr);
  // The fixed latency is paid before the transfer contends for bandwidth.
  engine_.schedule_after(latency_, [this, bytes, cb = std::move(done)]() mutable {
    admit(bytes, std::move(cb));
  });
}

void SharedLink::admit(double bytes, std::function<void()> done) {
  advance();
  active_.push_back(Active{bytes, bytes, std::move(done)});
  reschedule();
}

void SharedLink::advance() {
  const Time now = engine_.now();
  const Time elapsed = now - last_update_;
  last_update_ = now;
  if (active_.empty() || elapsed <= 0.0) return;
  busy_time_ += elapsed;
  const double per_transfer =
      elapsed * bandwidth_ / static_cast<double>(active_.size());
  for (auto& a : active_) a.remaining -= per_transfer;
}

void SharedLink::reschedule() {
  if (has_pending_event_) {
    engine_.cancel(pending_event_);
    has_pending_event_ = false;
  }
  if (active_.empty()) return;
  double min_remaining = active_.front().remaining;
  for (const auto& a : active_) min_remaining = std::min(min_remaining, a.remaining);
  min_remaining = std::max(min_remaining, 0.0);
  const Time dt =
      min_remaining * static_cast<double>(active_.size()) / bandwidth_;
  pending_event_ = engine_.schedule_after(dt, [this] { on_completion_event(); });
  has_pending_event_ = true;
}

void SharedLink::on_completion_event() {
  has_pending_event_ = false;
  advance();
  // Collect finished transfers first: a done-callback may start a new
  // transfer on this same link re-entrantly.
  std::vector<std::function<void()>> finished;
  for (auto it = active_.begin(); it != active_.end();) {
    if (is_done(it->remaining, it->total, bandwidth_, engine_.now())) {
      bytes_delivered_ += it->total;
      finished.push_back(std::move(it->done));
      it = active_.erase(it);
      ++completed_;
    } else {
      ++it;
    }
  }
  HOMP_ASSERT(!finished.empty());
  reschedule();
  for (auto& cb : finished) cb();
}

}  // namespace homp::sim
