// OffloadExecution's fault recovery. The fault-free pipeline lives in
// offload_exec.cpp and calls into this file only while `recovery_` is
// allocated, i.e. when the offload can fault or verifies payloads
// regardless.
//
// The pipeline is fault-tolerant (docs/RESILIENCE.md): transient
// transfer/launch faults injected by the sim::FaultPlan are retried with
// capped exponential backoff; a device that exhausts its retry budget or
// is permanently lost is quarantined, and its in-flight plus unissued
// iterations are requeued and redistributed to the survivors. Host
// commits (copy-out, reduction, iteration counts) ride the copy-out
// completion, so a quarantined chunk never half-writes host arrays.
//
// On top of retry/quarantine sits a watchdog (armed only while fault
// injection is active): every compute gets a soft deadline derived from
// the model-predicted chunk time, and a hard deadline a fixed multiple
// beyond it. A chunk past its soft deadline is *tardy* — it may be
// speculatively duplicated onto the fastest idle survivor, with
// first-commit-wins deciding which copy's host effects land (the loser
// is discarded before touching host state, keeping results
// bit-identical). A chunk past its hard deadline is presumed hung
// (FaultKind::kHang) and its device is quarantined. Quarantine is no
// longer necessarily permanent: unless the device is really lost, it is
// re-admitted after an exponentially growing cooldown into a probation
// state that feeds it small probe chunks until it either proves itself
// (promotion) or fails again (re-quarantine).
//
// The third resilience leg is end-to-end data integrity
// (docs/RESILIENCE.md "Integrity"): chunk payloads are checksummed on
// the device side and verified before their host commit, so silently
// corrupted transfers or kernel results (FaultKind::kCorruptTransfer /
// kCorruptCompute) are discarded before touching host state,
// re-executed on a different device, and escalated to quorum voting on
// repeated disagreement. Devices that repeatedly fail verification trip
// a circuit breaker into the same quarantine + probation machinery.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/checksum.h"
#include "common/error.h"
#include "model/loop_model.h"
#include "sched/extended_sched.h"
#include "runtime/offload_exec.h"
#include "runtime/offload_state.h"

namespace homp::rt {

/// Shared state of the copies of one tardy chunk racing to commit.
/// Exactly one copy wins (`committed` flips once, on the single-threaded
/// engine); every other copy discards its results before they reach the
/// host, so the race cannot double-apply effects or corrupt arrays.
struct OffloadExecution::SpecToken {
  dist::Range range;
  int origin_slot = -1;   ///< the tardy device that triggered speculation
  int runners = 0;        ///< copies currently in some pipeline
  bool committed = false; ///< a copy's host effects have landed
  bool queued = false;    ///< still offered in the spec queue
  /// Non-null once a copy of this chunk failed payload verification; the
  /// surviving racers inherit the integrity state so a late clean copy
  /// settles the chunk instead of re-queueing it.
  std::shared_ptr<IntegrityState> integ;
};

/// Shared recovery state of one chunk whose commit failed payload
/// verification (docs/RESILIENCE.md "Integrity"). The chunk is queued
/// for re-execution on another device; after `vote_after_failures`
/// mismatches it escalates to voting, where each execution becomes a
/// ballot keyed by its payload checksum and the chunk commits only once
/// `vote_quorum` ballots agree on the same sum.
struct OffloadExecution::IntegrityState {
  dist::Range range;
  int failures = 0;     ///< verification mismatches observed so far
  int executions = 0;   ///< re-executions served from the integrity queue
  bool voting = false;  ///< escalated to quorum voting
  bool resolved = false;  ///< the range's host commit has landed
  std::vector<int> suspects;  ///< slots whose payload failed verification
  std::vector<int> balloted;  ///< slots that already cast a ballot
  struct Ballot {
    std::uint64_t sum = 0;
    int count = 0;
  };
  std::vector<Ballot> ballots;  ///< distinct payload sums seen while voting
};

void OffloadExecution::build_recovery() {
  // Option values were already validated (OffloadOptions::validate_or_throw
  // in the constructor); this only derives the runtime plan from them.
  auto r = std::make_unique<Recovery>();
  const WatchdogOptions& w = opts_.watchdog;
  r->probe_grain = w.probe_iterations > 0
                       ? w.probe_iterations
                       : std::max(opts_.sched.min_chunk,
                                  kernel_.iterations.size() / 64);
  if (r->probe_grain < 1) r->probe_grain = 1;

  r->plan.set_seed(opts_.fault.seed);
  for (const auto& p : proxies_) {
    const sim::FaultProfile combined =
        p->desc->fault.combined(opts_.fault.extra);
    if (combined.any()) r->plan.set_profile(p->device_id, combined);
  }
  for (const auto& f : opts_.fault.scripted) r->plan.add_scripted(f);
  r->faults = r->plan.active();
  // Checksumming is armed whenever it could matter (fault injection on) or
  // when explicitly requested (`integrity.always`, to measure its cost).
  // Offloads inside a data region move no per-chunk bytes — integrity of
  // the region's bulk transfers is the DataRegion's own verified exit.
  r->verify = opts_.integrity.enabled && region_envs_ == nullptr &&
              (r->faults || opts_.integrity.always);
  if (r->faults || r->verify) recovery_ = std::move(r);
}

void OffloadExecution::arm_loss_timers() {
  if (!recovery_->faults) return;
  for (const auto& p : proxies_) {
    const double lt = recovery_->plan.loss_time(p->device_id);
    // loss_time() is relative to the offload's start; store and
    // schedule it absolute so quarantine's permanence check and the
    // event both live on the shared clock.
    p->loss_time = lt >= 0.0 ? start_time_ + lt : -1.0;
    if (lt >= 0.0) {
      const int s = p->slot;
      sched_after(lt, [this, s] { on_device_lost(s); });
    }
  }
}

std::optional<dist::Range> OffloadExecution::next_recovery_chunk(
    int slot, ChunkOrigin* origin) {
  Recovery& r = *recovery_;
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  std::optional<dist::Range> chunk;
  while (!r.integrity_queue.empty() && r.integrity_queue.front()->resolved) {
    r.integrity_queue.pop_front();
  }
  for (auto it = r.integrity_queue.begin(); it != r.integrity_queue.end();
       ++it) {
    // Chunks that failed payload verification outrank everything else:
    // they sit on the critical path (completion waits on them) and may
    // need several sequential vote rounds to settle.
    if ((*it)->resolved || !integrity_slot_allowed(**it, slot)) continue;
    origin->integ = *it;
    r.integrity_queue.erase(it);
    break;
  }
  if (origin->integ) {
    IntegrityState& st = *origin->integ;
    chunk = st.range;
    origin->from_requeue = true;  // recovery work, not the scheduler's own
    ++st.executions;
    ++p.stats.integrity_reexecutions;
    if (st.voting) ++p.stats.vote_rounds;
  } else if (!r.requeue.empty()) {
    // Orphaned iterations of a quarantined device are served first, in
    // dynamic grains, regardless of the algorithm in use — the
    // redistribution fallback that lets single-stage (BLOCK/MODEL) plans
    // survive a device loss.
    chunk = take_requeue();
    origin->from_requeue = true;
  } else {
    // Speculative duplicates of tardy chunks come next. Not for the tardy
    // device itself (it is still running the original) and not for
    // probation devices (probes must be cheap scheduler work).
    while (!r.spec_queue.empty() && r.spec_queue.front()->committed) {
      r.spec_queue.front()->queued = false;
      r.spec_queue.pop_front();
    }
    if (!p.probation) {
      for (auto it = r.spec_queue.begin(); it != r.spec_queue.end(); ++it) {
        if ((*it)->committed || (*it)->origin_slot == slot) continue;
        origin->token = *it;
        r.spec_queue.erase(it);
        SpecToken& token = *origin->token;
        token.queued = false;
        ++token.runners;
        origin->is_spec = true;
        // A speculative copy of a chunk that already failed verification
        // inherits its integrity state (set when the mismatch happened
        // after speculation started).
        origin->integ = token.integ;
        chunk = token.range;
        ++p.stats.spec_copies_run;
        break;
      }
    }
    if (!chunk) chunk = scheduler_->next_chunk(slot);
  }
  if (chunk && p.probation && !origin->is_spec && !origin->integ) {
    // Probation: serve only a small probe; the rest goes back to the
    // requeue where any device (including this one, later) can take it.
    origin->is_probe = true;
    ++p.stats.probe_chunks;
    if (chunk->size() > r.probe_grain) {
      r.requeue.push_front(dist::Range(chunk->lo + r.probe_grain, chunk->hi));
      chunk = dist::Range(chunk->lo, chunk->lo + r.probe_grain);
      kick_survivors();
    }
  }
  return chunk;
}

dist::Range OffloadExecution::take_requeue() {
  std::deque<dist::Range>& requeue = recovery_->requeue;
  HOMP_ASSERT(!requeue.empty());
  dist::Range& front = requeue.front();
  const long long take = std::min(recovery_->requeue_grain, front.size());
  const dist::Range chunk(front.lo, front.lo + take);
  front.lo += take;
  if (front.empty()) requeue.pop_front();
  return chunk;
}

OffloadExecution::TransferFault OffloadExecution::draw_transfer_fault(
    const Proxy& p) {
  TransferFault f;
  if (!recovery_->faults) return f;
  // Whether this transfer attempt fails is drawn when it is issued; the
  // failure surfaces when the transfer (virtually) completes, so a failed
  // attempt costs its full transfer time before the retry backoff.
  f.failed = recovery_->plan.transfer_fails(p.device_id);
  // Silent corruption of the payload is drawn alongside the loss fault so
  // the per-device fault stream stays deterministic; a *failed* attempt
  // delivers no payload, so it cannot also be corrupted.
  const std::uint64_t seed = recovery_->plan.transfer_corrupts(p.device_id);
  if (!f.failed) f.wire_seed = seed;
  return f;
}

bool OffloadExecution::draw_launch_faults(int slot, int attempt, double* slow,
                                          bool* hangs) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (!recovery_->faults) return false;
  sim::FaultPlan& plan = recovery_->plan;
  if (plan.launch_fails(p.device_id)) {
    // The failure surfaces after the launch overhead has been spent.
    const double launch = p.desc->launch_overhead_s;
    sched_after(launch, [this, slot, attempt, launch] {
      Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
      if (q.lost || !q.computing) return;  // quarantined meanwhile
      const std::string r = q.computing->range.to_string();
      fail_attempt(slot, attempt, sim::FaultKind::kLaunch,
                   engine_.now() - launch, launch, r + " launch fault",
                   "launch " + r,
                   [this, slot, attempt] { start_launch(slot, attempt + 1); });
    });
    return true;
  }
  const dist::Range& r = p.computing->range;
  const double s = plan.slowdown(p.device_id);
  if (s > 1.0) {
    note_fault(slot, sim::FaultKind::kSlowdown, false,
               "compute " + r.to_string() + " slowed x" + std::to_string(s));
    *slow = s;
  }
  *hangs = plan.compute_hangs(p.device_id);
  if (*hangs) {
    note_fault(slot, sim::FaultKind::kHang, false,
               "compute " + r.to_string() + " hangs (silent stall)");
  }
  const double deg = plan.degrade(p.device_id);
  if (deg > 1.0) {
    p.degrade_factor = std::max(p.degrade_factor, deg);
    note_fault(slot, sim::FaultKind::kDegrade, false,
               "sustained degradation x" + std::to_string(deg) + " from " +
                   r.to_string());
  }
  if (p.up != nullptr) {
    // Silent compute corruption: the kernel finishes on time but its
    // output region is bit-flipped. Shared-memory devices are exempt —
    // their writes land directly in host arrays with no commit
    // boundary to verify at, so modelling silent corruption there
    // would be undetectable by construction.
    const std::uint64_t cs = plan.compute_corrupts(p.device_id);
    if (cs != 0) {
      p.computing->corrupt_seed = cs;
      ++p.stats.corruptions_injected;
      note_fault(slot, sim::FaultKind::kCorruptCompute, false,
                 "compute " + r.to_string() + " result silently corrupted");
    }
  }
  return false;
}

void OffloadExecution::arm_watchdog(int slot) {
  // A hung chunk never completes; only the watchdog can reclaim it (with
  // the watchdog disabled, the offload deadlocks and run() reports the
  // stuck device — the pre-watchdog behaviour).
  if (!recovery_->faults || !opts_.watchdog.enabled) return;
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  const double launch = p.desc->launch_overhead_s;
  const std::uint64_t serial = p.compute_serial;
  const double soft =
      std::max(opts_.watchdog.deadline_floor_s,
               opts_.watchdog.deadline_multiplier *
                   predicted_chunk_seconds(p, p.computing->range));
  sched_after(launch + soft, [this, slot, serial] {
    watchdog_soft(slot, serial);
  });
  // The kill window after the soft fire must leave a speculative
  // duplicate room to complete end-to-end, and the duplicate pays the
  // per-transfer alpha cost the per-iteration prediction deliberately
  // excludes — so the hard deadline scales (soft + round-trip latency),
  // not soft alone. With no link the grace is zero and hard stays a
  // plain multiple of soft.
  const auto& din = loop_context_.devices[static_cast<std::size_t>(slot)];
  const double grace = din.has_link ? 2.0 * din.link_latency_s : 0.0;
  sched_after(
      launch + (soft + grace) * opts_.watchdog.hard_kill_multiplier,
      [this, slot, serial] { watchdog_hard(slot, serial); });
}

void OffloadExecution::fail_attempt(int slot, int attempt, sim::FaultKind kind,
                                    double start, double spent,
                                    const std::string& span_label,
                                    const std::string& what,
                                    std::function<void()> retry) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  p.stats.phase_time[static_cast<int>(Phase::kRecovery)] += spent;
  p.record_span(opts_.collect_trace, Phase::kRecovery, start, engine_.now(),
                span_label);
  note_fault(slot, kind, false, what + " attempt " + std::to_string(attempt));
  handle_transient(slot, attempt, kind, std::move(retry));
}

void OffloadExecution::check_copy_in(int slot, int attempt,
                                     std::uint64_t wire_seed) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  const bool had_transfer = p.down != nullptr && p.inflight->bytes_in > 0.0;
  if (wire_seed != 0) {
    // The copy-in payload was silently flipped on the wire. Only the
    // chunk's own input slices are damaged (never writable statics — those
    // are staged once and a re-transfer could not repair them).
    ++p.stats.corruptions_injected;
    note_fault(slot, sim::FaultKind::kCorruptTransfer, false,
               "copy-in " + p.inflight->range.to_string() +
                   " payload silently corrupted");
    if (opts_.execute_bodies) {
      apply_corruption(p.inflight->chunk_maps, /*input_side=*/true,
                       wire_seed);
    }
  }

  if (recovery_->verify && opts_.integrity.verify_copy_in && had_transfer) {
    // Corrupted *input* would produce a wrong-but-self-consistent result
    // that output verification can never catch, so inputs get their own
    // check: host-side sum (computed before the DMA) against the
    // device-side sum of what arrived.
    ++p.stats.integrity_checks;
    bool bad;
    if (opts_.execute_bodies) {
      const std::uint64_t want =
          payload_checksum(p.inflight->chunk_maps, /*input_side=*/true,
                           /*host_side=*/true);
      const std::uint64_t got =
          payload_checksum(p.inflight->chunk_maps, /*input_side=*/true);
      bad = want != got;
    } else {
      bad = wire_seed != 0;  // pure-simulation mode models the comparison
    }
    const double vdelay = integrity_delay(p.inflight->bytes_in, p);
    p.stats.phase_time[static_cast<int>(Phase::kCopyIn)] += vdelay;
    if (bad) {
      ++p.stats.integrity_failures;
      note_recovery(slot, RecoveryAction::kCorruptionDetected,
                    "copy-in " + p.inflight->range.to_string() +
                        " checksum mismatch — re-transferring");
      // The verification scan still costs its time before the retry; the
      // re-transfer re-stages the slices, repairing the flipped bytes.
      sched_after(vdelay, [this, slot, attempt] {
        Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
        if (q.lost || !q.inflight) return;
        handle_transient(slot, attempt, sim::FaultKind::kCorruptTransfer,
                         [this, slot, attempt] {
                           issue_input(slot, attempt + 1);
                         });
      });
      return;
    }
    if (vdelay > 0.0) {
      sched_after(vdelay, [this, slot] { input_ready(slot); });
      return;
    }
  }
  input_ready(slot);
}

bool OffloadExecution::discard_superseded(int slot,
                                          const PendingChunk& chunk) {
  SpecToken& token = *chunk.origin.token;
  if (!token.committed) return false;
  // Another copy of this chunk already committed while we computed:
  // discard before any host effect, skip the (now pointless) output.
  --token.runners;
  note_recovery(slot, RecoveryAction::kTardyAbandoned,
                chunk.range.to_string() + " (other copy committed)");
  try_start_compute(slot);
  try_fetch(slot);
  check_completion(slot);
  return true;
}

bool OffloadExecution::settle_integrity(int slot, const ChunkOrigin& origin,
                                        const dist::Range& range) {
  // No wire was crossed, so a re-executed chunk landing here settles its
  // integrity state without further verification.
  IntegrityState& st = *origin.integ;
  if (st.resolved) return false;
  st.resolved = true;
  note_recovery(slot,
                st.voting ? RecoveryAction::kVoteCommitted
                          : RecoveryAction::kReexecuteCommitted,
                range.to_string() + " settled by a shared-memory execution");
  return true;
}

void OffloadExecution::seal_payload(OutRecord& rec,
                                    std::uint64_t corrupt_seed) {
  rec.verify = recovery_->verify;
  if (!rec.verify && corrupt_seed == 0) return;
  if (opts_.execute_bodies) {
    rec.sum_result = payload_checksum(rec.maps, /*input_side=*/false);
    if (corrupt_seed != 0) {
      apply_corruption(rec.maps, /*input_side=*/false, corrupt_seed);
      rec.sum_payload = payload_checksum(rec.maps, /*input_side=*/false);
    } else {
      rec.sum_payload = rec.sum_result;
    }
  } else {
    // Pure-simulation mode: model the sums symbolically. An injected
    // flip XORs in a nonzero token, so a corrupted hand-off always
    // compares unequal — same detection outcome, no real bytes.
    rec.sum_result = 0;
    rec.sum_payload = corrupt_seed != 0 ? (mix64(corrupt_seed) | 1) : 0;
  }
  rec.sum_wire = rec.sum_payload;
}

bool OffloadExecution::land_output(int slot,
                                   const std::shared_ptr<OutRecord>& rec,
                                   std::uint64_t wire_seed) {
  Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
  if (wire_seed != 0) {
    // The copy-out payload was flipped on the wire. The flips land in
    // the device-side chunk slices (the staging the host commit reads
    // from), so an unverified commit materialises the damage.
    ++q.stats.corruptions_injected;
    note_fault(slot, sim::FaultKind::kCorruptTransfer, false,
               "copy-out " + rec->range.to_string() +
                   " payload silently corrupted");
    if (opts_.execute_bodies) {
      apply_corruption(rec->maps, /*input_side=*/false, wire_seed);
      rec->sum_wire = payload_checksum(rec->maps, /*input_side=*/false);
    } else {
      rec->sum_wire = rec->sum_payload ^ (mix64(wire_seed) | 1);
    }
  }
  if (!rec->verify) return false;
  // Verified commit: spend the checksum scan (device-side sum was
  // computed at compute end; the host side re-scans the received
  // payload), then compare before any host effect lands.
  const double vdelay = integrity_delay(2.0 * rec->bytes_out, q);
  q.stats.phase_time[static_cast<int>(Phase::kCopyOut)] += vdelay;
  if (vdelay > 0.0) {
    sched_after(vdelay, [this, slot, rec] { finish_commit(slot, rec); });
  } else {
    finish_commit(slot, rec);
  }
  return true;
}

bool OffloadExecution::corrupt_write_back(int slot, double bytes,
                                          int attempt) {
  // The final static write-back rides the same transfer fault stream, so
  // it can also be silently corrupted. With integrity armed it is caught
  // and re-sent; unarmed it is modelled only (no real bytes are flipped:
  // flipping host statics could poison a later revived device's copy-in,
  // and the retry path could not repair it — see docs/RESILIENCE.md).
  Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
  ++q.stats.corruptions_injected;
  note_fault(slot, sim::FaultKind::kCorruptTransfer, false,
             "final write-back payload silently corrupted");
  if (!recovery_->verify) return false;
  ++q.stats.integrity_checks;
  ++q.stats.integrity_failures;
  note_recovery(slot, RecoveryAction::kCorruptionDetected,
                "final write-back checksum mismatch — re-sending");
  handle_transient(slot, attempt, sim::FaultKind::kCorruptTransfer,
                   [this, slot, bytes, attempt] {
                     issue_finalize(slot, bytes, attempt + 1);
                   });
  return true;
}

bool OffloadExecution::recovery_work_left() {
  Recovery& r = *recovery_;
  if (!r.requeue.empty()) return true;
  // Unsettled integrity re-executions are mandatory work: nobody
  // finalizes while a discarded chunk still awaits a verified commit.
  for (auto it = r.integrity_queue.begin(); it != r.integrity_queue.end();) {
    it = (*it)->resolved ? r.integrity_queue.erase(it) : std::next(it);
  }
  return !r.integrity_queue.empty();
}

std::uint64_t OffloadExecution::payload_checksum(
    const std::vector<mem::DeviceMapping*>& maps, bool input_side,
    bool host_side) const {
  const ChecksumKind kind = opts_.integrity.checksum;
  std::uint64_t h = 0;
  for (auto* m : maps) {
    if (m->shared()) continue;  // no wire crossed, nothing to verify
    if (input_side ? !mem::copies_in(m->spec().dir)
                   : !mem::copies_out(m->spec().dir)) {
      continue;
    }
    const dist::Region& r = input_side ? m->footprint() : m->owned();
    const std::uint64_t s =
        host_side ? m->checksum_host(r, kind) : m->checksum_device(r, kind);
    h = mix64(h ^ s);
  }
  return h;
}

void OffloadExecution::apply_corruption(
    const std::vector<mem::DeviceMapping*>& maps, bool input_side,
    std::uint64_t seed) const {
  // The seed picks one of the chunk's transferable slices and drives the
  // byte flips inside it — always in *device* storage, so a re-transfer
  // (copy-in) or a discarded commit (copy-out) leaves the host intact.
  std::vector<mem::DeviceMapping*> candidates;
  for (auto* m : maps) {
    if (m->shared()) continue;
    if (input_side ? !mem::copies_in(m->spec().dir)
                   : !mem::copies_out(m->spec().dir)) {
      continue;
    }
    const dist::Region& r = input_side ? m->footprint() : m->owned();
    if (r.empty()) continue;
    candidates.push_back(m);
  }
  if (candidates.empty()) return;
  auto* m = candidates[static_cast<std::size_t>(
      seed % static_cast<std::uint64_t>(candidates.size()))];
  m->corrupt_device(input_side ? m->footprint() : m->owned(), seed);
}

double OffloadExecution::integrity_delay(double bytes, const Proxy& p) const {
  // One pass over the payload at the device's sustained memory bandwidth —
  // the checksum is memory-bound by construction.
  const double bw = p.desc->sustained_membw_Bps();
  return bw > 0.0 && bytes > 0.0 ? bytes / bw : 0.0;
}

bool OffloadExecution::integrity_slot_allowed(const IntegrityState& st,
                                              int slot) const {
  const Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost) return false;
  auto excluded = [&st](int s) {
    if (std::find(st.suspects.begin(), st.suspects.end(), s) !=
        st.suspects.end()) {
      return true;
    }
    return st.voting && std::find(st.balloted.begin(), st.balloted.end(),
                                  s) != st.balloted.end();
  };
  // Graduated fallback: prefer an untainted full-service device; if none
  // is alive, accept an untainted probation device; if even that fails
  // (e.g. a two-device machine where both are implicated), let anyone
  // alive serve so the queue can always drain.
  bool strict = false;
  bool relaxed = false;
  for (const auto& q : proxies_) {
    if (q->lost) continue;
    if (!excluded(q->slot)) {
      relaxed = true;
      if (!q->probation) strict = true;
    }
  }
  if (strict) return !excluded(slot) && !p.probation;
  if (relaxed) return !excluded(slot);
  return true;
}

void OffloadExecution::finish_commit(int slot, std::shared_ptr<OutRecord> rec) {
  Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
  if (q.lost || rec->abandoned) return;  // quarantined during the scan
  ++q.stats.integrity_checks;
  const bool bad_compute = rec->sum_payload != rec->sum_result;
  const bool bad_wire = rec->sum_wire != rec->sum_payload;
  if (bad_compute || bad_wire) {
    handle_corrupt_commit(slot, rec, bad_wire && !bad_compute);
    return;
  }

  auto st = rec->origin.integ;
  if (st && st->resolved) {
    // Another execution already settled this chunk (vote quorum reached,
    // or a clean re-execution committed): discard this late clean copy
    // before it double-applies host effects.
    if (rec->origin.token) --rec->origin.token->runners;
    note_recovery(slot, RecoveryAction::kTardyAbandoned,
                  rec->range.to_string() + " (chunk already settled)");
    retire_output(q, rec);
    try_fetch(slot);
    sweep_completion();
    return;
  }
  if (st && rec->origin.token && rec->origin.token->committed) {
    // The racing copy committed while we verified; claim_commit below
    // discards this copy, and the race winner's commit settled the range.
    st->resolved = true;
    st = nullptr;
  }
  if (st && st->voting) {
    // Voting: this clean execution is a ballot keyed by its payload sum.
    // The chunk commits only when vote_quorum ballots agree — and since
    // equal checksums mean equal payloads, committing the quorum-reaching
    // copy commits the agreed bytes.
    int agree = 0;
    for (auto& b : st->ballots) {
      if (b.sum == rec->sum_wire) {
        agree = ++b.count;
        break;
      }
    }
    if (agree == 0) {
      st->ballots.push_back({rec->sum_wire, 1});
      agree = 1;
    }
    st->balloted.push_back(slot);
    if (agree < opts_.integrity.vote_quorum) {
      if (rec->origin.token) --rec->origin.token->runners;
      note_recovery(slot, RecoveryAction::kReexecuteQueued,
                    rec->range.to_string() + " ballot " +
                        std::to_string(agree) + "/" +
                        std::to_string(opts_.integrity.vote_quorum) +
                        " — needs another agreeing execution");
      if (st->executions >= opts_.integrity.max_attempts) {
        throw OffloadError(
            "chunk " + rec->range.to_string() + " failed to reach a " +
            std::to_string(opts_.integrity.vote_quorum) +
            "-vote integrity quorum within integrity.max_attempts (" +
            std::to_string(opts_.integrity.max_attempts) +
                ") executions — data integrity cannot be established",
            FailClass::kQuorumExhausted);
      }
      recovery_->integrity_queue.push_back(st);
      retire_output(q, rec);
      kick_survivors();
      try_fetch(slot);
      sweep_completion();
      return;
    }
    st->resolved = true;
    note_recovery(slot, RecoveryAction::kVoteCommitted,
                  rec->range.to_string() + " quorum " +
                      std::to_string(agree) + "/" +
                      std::to_string(opts_.integrity.vote_quorum) +
                      " — agreed payload committed");
  } else if (st) {
    st->resolved = true;
    note_recovery(slot, RecoveryAction::kReexecuteCommitted,
                  rec->range.to_string() +
                      " re-execution verified and committed");
  }

  commit_to_host(q, rec->origin, rec->range, rec->maps, rec->reduction);
  retire_output(q, rec);
  sample_queue_depth(q);
  try_fetch(slot);
  sweep_completion();
}

void OffloadExecution::handle_corrupt_commit(
    int slot, const std::shared_ptr<OutRecord>& rec, bool wire_only) {
  Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
  ++q.stats.integrity_failures;
  note_recovery(slot, RecoveryAction::kCorruptionDetected,
                rec->range.to_string() +
                    (wire_only ? " copy-out" : " kernel result") +
                    " checksum mismatch — chunk discarded before commit");

  auto st = rec->origin.integ;
  if (!st) {
    st = std::make_shared<IntegrityState>();
    st->range = rec->range;
  }
  ++st->failures;
  if (std::find(st->suspects.begin(), st->suspects.end(), slot) ==
      st->suspects.end()) {
    st->suspects.push_back(slot);
  }
  if (!st->voting && st->failures >= opts_.integrity.vote_after_failures) {
    st->voting = true;
    note_recovery(slot, RecoveryAction::kVoteOpened,
                  rec->range.to_string() + " escalated to " +
                      std::to_string(opts_.integrity.vote_quorum) +
                      "-vote agreement after " +
                      std::to_string(st->failures) + " integrity failures");
  }

  // Spec-token bookkeeping: this copy is discarded. If a racing copy is
  // still running it inherits the integrity state and may settle the
  // chunk.
  bool need_requeue = !st->resolved;
  if (const auto& token = rec->origin.token) {
    if (!token->committed) token->integ = st;
    if (!leave_race(token)) need_requeue = false;
  }

  rec->abandoned = true;
  retire_output(q, rec);

  if (need_requeue) {
    if (st->executions >= opts_.integrity.max_attempts) {
      throw OffloadError(
          "chunk " + rec->range.to_string() +
          " still fails integrity verification after integrity."
          "max_attempts (" +
          std::to_string(opts_.integrity.max_attempts) +
              ") executions — data integrity cannot be established",
          FailClass::kMaxAttempts);
    }
    note_recovery(slot, RecoveryAction::kReexecuteQueued,
                  st->range.to_string() +
                      " queued for re-execution on another device");
    recovery_->integrity_queue.push_back(st);
  }

  // Integrity circuit breaker: a device that repeatedly ships corrupt
  // payloads is quarantined like a tardy straggler — and a probation
  // device gets no second chance at all.
  const sim::FaultKind kind = wire_only ? sim::FaultKind::kCorruptTransfer
                                        : sim::FaultKind::kCorruptCompute;
  const int threshold = opts_.integrity.quarantine_threshold;
  if (q.probation) {
    quarantine(slot, kind, "probation chunk failed integrity verification");
  } else if (threshold > 0 &&
             q.stats.integrity_failures >=
                 static_cast<std::size_t>(threshold)) {
    quarantine(slot, kind,
               "repeated integrity failures (" +
                   std::to_string(q.stats.integrity_failures) + ")");
  } else {
    kick_survivors();
    try_fetch(slot);
    sweep_completion();
  }
}

void OffloadExecution::handle_transient(int slot, int attempt,
                                        sim::FaultKind kind,
                                        std::function<void()> retry) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (attempt > opts_.fault.max_retries) {
    quarantine(slot, kind,
               std::string(sim::to_string(kind)) + " retry budget (" +
                   std::to_string(opts_.fault.max_retries) + ") exhausted");
    return;
  }
  ++p.stats.retries;
  const double backoff =
      std::min(opts_.fault.backoff_base_s *
                   std::pow(2.0, static_cast<double>(attempt - 1)),
               opts_.fault.backoff_cap_s);
  p.stats.phase_time[static_cast<int>(Phase::kRecovery)] += backoff;
  p.record_span(opts_.collect_trace, Phase::kRecovery, engine_.now(),
                engine_.now() + backoff,
                "backoff #" + std::to_string(attempt));
  sched_after(backoff, [this, slot, retry = std::move(retry)] {
    if (!proxies_[static_cast<std::size_t>(slot)]->lost) retry();
  });
}

void OffloadExecution::note_fault(int slot, sim::FaultKind kind, bool fatal,
                                  std::string detail) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  ++p.stats.faults;
  recovery_->fault_events.push_back(FaultEvent{
      engine_.now(), slot, p.device_id, kind, fatal, std::move(detail)});
}

void OffloadExecution::on_device_lost(int slot) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost) return;
  if (p.done) {
    // The device finished its share before failing: its results are
    // committed and nothing needs requeuing — but it must never be
    // revived for redistribution work.
    p.lost = true;
    note_fault(slot, sim::FaultKind::kDeviceLoss, true,
               "device lost after completing its share");
    return;
  }
  ++p.stats.faults;
  quarantine(slot, sim::FaultKind::kDeviceLoss, "device permanently lost");
}

void OffloadExecution::quarantine(int slot, sim::FaultKind kind,
                                  const std::string& detail) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost) return;
  p.lost = true;
  p.probation = false;
  p.probes_passed = 0;
  p.stats.quarantined = true;
  p.stats.quarantined_at = engine_.now();
  ++p.stats.quarantine_count;
  ++p.compute_serial;  // disarm any pending watchdog events
  recovery_->fault_events.push_back(FaultEvent{engine_.now(), slot,
                                               p.device_id, kind,
                                               /*fatal=*/true,
                                               "quarantined: " + detail});
  if (audit_on()) {
    note_decision(slot, DecisionKind::kQuarantined, dist::Range(),
                  std::string(sim::to_string(kind)) + ": " + detail);
  }
  if (opts_.collect_trace) {
    p.outstanding_bytes = 0.0;
    record_counter(p, CounterTrack::kOutstandingBytes, 0.0);
    sample_queue_depth(p);
  }

  // Requeue everything in flight. None of it has been committed to the
  // host (commits ride the copy-out completion), so re-executing the
  // chunks elsewhere cannot double-count or corrupt host arrays.
  // Spec-token'd chunks go through orphan_range, which keeps the
  // first-commit-wins invariant (committed ranges never requeue).
  long long taken = 0;
  for (auto* stage : {&p.inflight, &p.ready, &p.computing}) {
    if (!*stage) continue;
    orphan_range((*stage)->range, (*stage)->origin.token, &taken);
    stage->reset();
  }
  p.fetching = false;
  for (auto& rec : p.outputs) {
    if (!rec->abandoned) {
      rec->abandoned = true;
      orphan_range(rec->range, rec->origin.token, &taken);
    }
  }
  p.outputs.clear();
  p.outstanding_outputs = 0;
  end_stage_wait(p, nullptr);

  // No survivors means nobody is left to serve the requeue: surface a
  // clean error *before* asking the scheduler to deactivate its last
  // slot (which would throw its own, less informative, OffloadError).
  std::size_t survivors = 0;
  for (const auto& q : proxies_) {
    if (!q->lost) ++survivors;
  }
  if (survivors == 0) {
    throw OffloadError("all devices lost during offload of '" +
                           kernel_.name + "' (last: '" + p.desc->name +
                           "', " + detail + ")",
                       FailClass::kAllDevicesLost);
  }

  // Reserved-but-unissued iterations come back from the scheduler.
  // Single-shot (BLOCK / MODEL_*) plans thereby fall back to dynamic
  // redistribution of the orphaned partition.
  for (const auto& r : scheduler_->deactivate(slot)) {
    orphan_range(r, nullptr, &taken);
  }
  p.stats.requeued_iterations += taken;

  Recovery& rc = *recovery_;
  if (!rc.requeue.empty()) {
    long long total = 0;
    for (const auto& r : rc.requeue) total += r.size();
    rc.requeue_grain = std::max(
        opts_.sched.min_chunk,
        total / static_cast<long long>(4 * survivors));
    if (rc.requeue_grain < 1) rc.requeue_grain = 1;
  }

  // Unless the device is *really* gone, give it a path back: after an
  // exponentially growing cooldown it re-enters in probation.
  const bool permanent =
      kind == sim::FaultKind::kDeviceLoss ||
      (p.loss_time >= 0.0 && engine_.now() >= p.loss_time);
  if (!permanent && opts_.watchdog.enabled && opts_.watchdog.probation) {
    schedule_readmission(slot);
  }

  pass_serial_token(slot);
  kick_survivors();
  // The dead slot no longer holds the stage barrier; removing it may
  // release the survivors.
  check_stage_barrier();
  // A spec-token'd chunk whose duplicate already committed requeues
  // nothing, so this quarantine may have been the offload's last word.
  maybe_finish();
}

void OffloadExecution::orphan_range(const dist::Range& range,
                                    const std::shared_ptr<SpecToken>& token,
                                    long long* taken) {
  if ((token && !leave_race(token)) || range.empty()) return;
  recovery_->requeue.push_back(range);
  *taken += range.size();
}

bool OffloadExecution::leave_race(const std::shared_ptr<SpecToken>& token) {
  --token->runners;
  if (token->committed) return false;  // results already on the host
  if (token->queued) {
    // Still offered as optional work: withdraw the offer, so the range
    // becomes mandatory work (nobody has to take an offer, which would
    // strand the chunk).
    auto& spec_queue = recovery_->spec_queue;
    auto it = std::find(spec_queue.begin(), spec_queue.end(), token);
    if (it != spec_queue.end()) spec_queue.erase(it);
    token->queued = false;
  }
  return token->runners == 0;  // otherwise another copy is still racing
}

double OffloadExecution::predicted_chunk_seconds(
    const Proxy& p, const dist::Range& chunk) const {
  // MODEL_2's per-iteration prediction (peak numbers: systematically
  // optimistic), loosened by what the device has actually demonstrated —
  // its cross-offload throughput history and this offload's per-iteration
  // EWMA — so a legitimately slow device is not hounded by false fires.
  double iter_s = model::model2_iter_time(
      loop_context_.kernel,
      loop_context_.devices[static_cast<std::size_t>(p.slot)]);
  if (opts_.sched.history != nullptr &&
      opts_.sched.history->has(opts_.sched.history_kernel, p.device_id)) {
    const double rate =
        opts_.sched.history->rate(opts_.sched.history_kernel, p.device_id);
    if (rate > 0.0) iter_s = std::max(iter_s, 1.0 / rate);
  }
  if (p.ewma_iter_s > 0.0) iter_s = std::max(iter_s, p.ewma_iter_s);
  double t = static_cast<double>(chunk.size()) * iter_s +
             p.desc->launch_overhead_s;
  if (kernel_.work_factor) t *= kernel_.work_factor(chunk);
  return t;
}

void OffloadExecution::watchdog_soft(int slot, std::uint64_t serial) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost || !p.computing || p.compute_serial != serial) return;
  ++p.stats.tardy_chunks;
  note_recovery(slot, RecoveryAction::kWatchdogFired,
                p.computing->range.to_string() + " missed its soft deadline");

  if (p.probation) {
    // A probe that cannot even meet a 4x-slack deadline fails probation.
    quarantine(slot, sim::FaultKind::kHang,
               "probation probe " + p.computing->range.to_string() +
                   " missed its deadline");
    return;
  }
  const int threshold = opts_.watchdog.tardy_quarantine_threshold;
  if (threshold > 0 &&
      p.stats.tardy_chunks >= static_cast<std::size_t>(threshold)) {
    quarantine(slot, sim::FaultKind::kHang,
               "repeatedly tardy (" + std::to_string(p.stats.tardy_chunks) +
                   " chunks missed their deadline)");
    return;
  }

  // Speculate the tardy chunk onto a survivor. Disabled inside data
  // regions (the chunk's data lives only in the tardy device's region
  // slice) and for chunks that already carry a token.
  if (!opts_.watchdog.speculation || region_envs_ != nullptr ||
      p.computing->origin.token) {
    return;
  }
  std::vector<Proxy*> candidates;
  for (const auto& q : proxies_) {
    if (q->lost || q->slot == slot || q->probation) continue;
    candidates.push_back(q.get());
  }
  if (candidates.empty()) return;

  auto token = std::make_shared<SpecToken>();
  token->range = p.computing->range;
  token->origin_slot = slot;
  token->runners = 1;  // the tardy original
  token->queued = true;
  token->integ = p.computing->origin.integ;  // racing copies share votes
  p.computing->origin.token = token;
  recovery_->spec_queue.push_back(std::move(token));
  note_recovery(slot, RecoveryAction::kSpeculated,
                p.computing->range.to_string() +
                    " duplicated onto the survivors");
  if (audit_on()) {
    note_chunk_decision(p, DecisionKind::kSpeculated, p.computing->range,
                        "tardy chunk offered to the survivors");
  }

  // Wake idle survivors, fastest first: FIFO at the same virtual instant
  // means the first proxy roused fetches the duplicate first.
  std::sort(candidates.begin(), candidates.end(),
            [](const Proxy* a, const Proxy* b) {
              if (a->desc->sustained_gflops != b->desc->sustained_gflops) {
                return a->desc->sustained_gflops > b->desc->sustained_gflops;
              }
              return a->slot < b->slot;
            });
  for (Proxy* q : candidates) rouse(*q);
}

void OffloadExecution::watchdog_hard(int slot, std::uint64_t serial) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost || !p.computing || p.compute_serial != serial) return;
  // The chunk blew even the hard deadline: presumed hung. The time sunk
  // into it was recovery overhead, not useful compute.
  p.stats.phase_time[static_cast<int>(Phase::kRecovery)] +=
      engine_.now() - p.compute_started;
  p.record_span(opts_.collect_trace, Phase::kRecovery, p.compute_started,
                engine_.now(), p.computing->range, " hung");
  quarantine(slot, sim::FaultKind::kHang,
             "compute " + p.computing->range.to_string() +
                 " exceeded the hard watchdog deadline");
}

bool OffloadExecution::claim_commit(int slot, const ChunkOrigin& chunk,
                                    const dist::Range& range) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (const auto& token = chunk.token) {
    --token->runners;
    if (token->committed) {
      note_recovery(slot, RecoveryAction::kTardyAbandoned,
                    range.to_string() + " (lost the commit race)");
      return false;
    }
    token->committed = true;
    if (chunk.is_spec) {
      ++p.stats.spec_copies_won;
      note_recovery(slot, RecoveryAction::kSpecCommitted, range.to_string());
      // First-commit-wins cancels the loser *now*. The origin missed its
      // soft deadline and then lost to a from-scratch duplicate that paid
      // the full copy-in/copy-out cost — it is hung or degraded beyond
      // use, and every further second it grinds on an already-committed
      // chunk holds the final barrier hostage. Quarantine it immediately
      // (probation can re-admit it); the hard deadline stays as the
      // backstop for chunks that were never speculated.
      Proxy& origin = *proxies_[static_cast<std::size_t>(token->origin_slot)];
      if (!origin.lost && origin.computing &&
          origin.computing->origin.token == token) {
        origin.stats.phase_time[static_cast<int>(Phase::kRecovery)] +=
            engine_.now() - origin.compute_started;
        origin.record_span(opts_.collect_trace, Phase::kRecovery,
                           origin.compute_started, engine_.now(),
                           range, " lost to its duplicate");
        quarantine(token->origin_slot, sim::FaultKind::kHang,
                   "compute " + range.to_string() +
                       " lost the commit race to its speculative duplicate");
      }
    }
  }
  if (chunk.is_probe && p.probation) {
    ++p.probes_passed;
    note_recovery(slot, RecoveryAction::kProbePassed, range.to_string());
    if (p.probes_passed >= opts_.watchdog.probation_successes) {
      p.probation = false;
      note_recovery(slot, RecoveryAction::kPromoted,
                    "restored to full service after " +
                        std::to_string(p.probes_passed) + " probes");
    }
  }
  return true;
}

void OffloadExecution::schedule_readmission(int slot) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  const double cooldown = std::min(
      opts_.watchdog.cooldown_cap_s,
      opts_.watchdog.cooldown_base_s *
          std::pow(opts_.watchdog.cooldown_growth,
                   static_cast<double>(p.stats.quarantine_count - 1)));
  p.record_span(opts_.collect_trace, Phase::kRecovery, engine_.now(),
                engine_.now() + cooldown, "quarantine cooldown");
  sched_after(cooldown, [this, slot] { readmit(slot); });
}

void OffloadExecution::readmit(int slot) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (!p.lost) return;
  // Quarantined first, *then* its scheduled permanent loss passed: dead.
  if (p.loss_time >= 0.0 && engine_.now() >= p.loss_time) return;
  // Offload effectively over: nothing left to prove, stay quarantined.
  bool work_left = recovery_work_left();
  for (const auto& q : proxies_) {
    if (!q->lost && !q->done) work_left = true;
  }
  if (!work_left) return;

  p.lost = false;
  p.probation = true;
  p.probes_passed = 0;
  p.done = false;
  p.finalizing = false;
  p.stats.quarantined = false;
  ++p.stats.readmissions;
  note_recovery(slot, RecoveryAction::kReadmitted,
                "probation after cooldown (quarantine #" +
                    std::to_string(p.stats.quarantine_count) + ")");
  if (audit_on()) {
    note_decision(slot, DecisionKind::kReadmitted, dist::Range(),
                  "probation after cooldown (quarantine #" +
                      std::to_string(p.stats.quarantine_count) + ")");
  }
  scheduler_->reactivate(slot);
  sched_after(0.0, [this, slot] { try_fetch(slot); });
}

bool OffloadExecution::has_work_for(int slot) const {
  const Recovery& r = *recovery_;
  if (!r.requeue.empty()) return true;
  for (const auto& st : r.integrity_queue) {
    if (!st->resolved && integrity_slot_allowed(*st, slot)) return true;
  }
  for (const auto& t : r.spec_queue) {
    if (!t->committed && t->origin_slot != slot) return true;
  }
  return false;
}

void OffloadExecution::rouse(Proxy& q) {
  const int s = q.slot;
  if (q.done) {
    // Revival: the proxy had already finalized, but new work arrived. It
    // re-enters the pipeline and finalizes again later (the repeated
    // static write-back is deterministic byte accounting on idempotent
    // copies, not a correctness hazard).
    q.done = false;
    q.finalizing = false;
  } else if (!end_stage_wait(q, "stage") && q.busy()) {
    // Barrier waiters pick up work before re-waiting; busy proxies pick
    // it up at their next pipeline step.
    return;
  }
  sched_after(0.0, [this, s] { try_fetch(s); });
}

void OffloadExecution::note_recovery(int slot, RecoveryAction action,
                                     std::string detail) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  recovery_->recovery_events.push_back(RecoveryEvent{
      engine_.now(), slot, p.device_id, action, std::move(detail)});
}

void OffloadExecution::kick_survivors() {
  for (const auto& q : proxies_) {
    if (q->lost || !has_work_for(q->slot)) continue;
    rouse(*q);
  }
}

}  // namespace homp::rt
