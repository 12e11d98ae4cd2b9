#ifndef HOMP_RUNTIME_OFFLOAD_EXEC_H
#define HOMP_RUNTIME_OFFLOAD_EXEC_H

/// \file offload_exec.h
/// Execution of one multi-device offload on the discrete-event engine.
///
/// Each participating device is driven by a proxy actor — the simulated
/// counterpart of the paper's per-device host pthread proxies (§V, Fig. 4).
/// A proxy walks the offloading pipeline:
///
///   acquire chunk -> (alloc +) copy-in -> launch + compute -> copy-out
///        ^                                    |
///        +--------- prefetch next chunk ------+   (double buffering)
///
/// Input transfer of chunk k+1 overlaps computation of chunk k, which is
/// the mechanism behind the paper's observation that SCHED_DYNAMIC wins on
/// data-intensive kernels (§VI-A). Host->device and device->host
/// directions are independent full-duplex PCIe lanes; dies sharing a card
/// contend on the same lane pair.
///
/// Data movement is real: unless `execute_bodies` is off, mapped
/// subregions are memcpy'd between host arrays and per-device storage and
/// kernel bodies run against the device copies, so distribution bugs
/// corrupt results instead of hiding in the timing model.
///
/// Fault tolerance (retry, quarantine, watchdog, speculation, probation
/// and integrity voting; docs/RESILIENCE.md) lives in
/// offload_recovery.cpp. Its state is allocated only when the offload can
/// fault or verifies payloads regardless, and the pipeline calls into it
/// at a few fixed points, so a fault-free offload runs only the pipeline.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dist/distribution.h"
#include "machine/device.h"
#include "memory/data_env.h"
#include "memory/map_spec.h"
#include "runtime/exec_context.h"
#include "runtime/kernel.h"
#include "runtime/options.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/link.h"

namespace homp::rt {

class OffloadExecution {
 public:
  /// \param forced_loop_dist non-null inside a `target data` region whose
  ///        entry already fixed the loop distribution (DataRegion).
  /// \param region_envs per-slot data environments of an enclosing data
  ///        region; when given, data is already device-resident, so the
  ///        offload moves no bytes (entry/halo/exit transfers are the
  ///        region's) and `maps` should be empty.
  /// \param ctx non-null to run on a *shared* engine + link lanes
  ///        (exec_context.h): the execution schedules relative to the
  ///        engine's current time and delivers its result through the
  ///        callback given to start() instead of returning from run().
  ///        The context must outlive this object.
  OffloadExecution(const mach::MachineDescriptor& machine,
                   const LoopKernel& kernel,
                   const std::vector<mem::MapSpec>& maps,
                   const OffloadOptions& opts,
                   const dist::Distribution* forced_loop_dist = nullptr,
                   const std::vector<mem::DeviceDataEnv>* region_envs =
                       nullptr,
                   const ExecContext* ctx = nullptr);

  ~OffloadExecution();  // out-of-line: Proxy/Recovery are private types

  /// Run the offload to completion on the *owned* engine; single use.
  /// Standalone mode only (no ExecContext).
  OffloadResult run();

  /// Shared-engine mode: enqueue the offload's first events on the
  /// context's engine and return immediately. `on_complete` fires (as an
  /// engine event) once every device is done or quarantined and all
  /// redistribution/integrity work has settled; the caller drives the
  /// shared engine. Times inside the result (total_time, per-device
  /// finish_time) are relative to launch; trace spans and event streams
  /// keep absolute virtual time so multi-tenant traces interleave
  /// correctly. Single use, requires a context.
  ///
  /// Shared-mode executions are their own *failure domain*
  /// (docs/SERVING.md): an unrecoverable OffloadError raised inside any
  /// of this execution's events is captured, every timer the execution
  /// armed is revoked (cancel_generation), and on_complete receives a
  /// result with `failed` set instead of the exception unwinding the
  /// caller's engine drain. After on_complete returns the caller may
  /// destroy the execution immediately — nothing it scheduled can fire
  /// afterwards.
  void start(std::function<void(OffloadResult&&)> on_complete);

  /// Cooperative cancellation (shared mode; no-op standalone or once the
  /// result is already on its way). New work stops being fetched, idle
  /// proxies park immediately, busy ones drain their in-flight transfer
  /// or compute and then park — no final static write-back is paid. The
  /// result arrives through on_complete with `cancelled` set, carrying
  /// `cls`/`reason` and whatever partial statistics accrued.
  void request_cancel(FailClass cls, std::string reason);

  /// Shared mode: the cancellation generation every timer this execution
  /// arms belongs to; 0 standalone. After the completion callback fires
  /// the generation has no pending events — the serving layer's
  /// memory-flatness invariant checks this via Engine::live_generations.
  sim::Engine::GenTag generation() const noexcept { return gen_; }

  /// The effective cost profile (kernel FLOPs/memory plus transfer bytes
  /// per iteration derived from the actual map footprints) used for model
  /// predictions.
  const model::KernelCostProfile& effective_profile() const noexcept {
    return effective_profile_;
  }

 private:
  struct SpecPlan;
  struct ChunkOrigin;
  struct PendingChunk;
  struct OutRecord;
  struct Proxy;
  struct Recovery;
  struct SpecToken;
  struct IntegrityState;

  void validate_and_plan();
  void build_proxies();
  /// Schedule the offload's opening events (fetches, loss timers) at the
  /// engine's current time; shared front half of run()/start().
  void launch();
  /// Collect the OffloadResult once every proxy has settled; shared back
  /// half of run()/start().
  OffloadResult harvest();
  /// Shared-engine completion probe: when every proxy is done or lost
  /// and no mandatory work remains, fire the start() callback exactly
  /// once (as a fresh engine event, so it never runs inside a commit
  /// chain). No-op in standalone mode.
  void maybe_finish();

  // Failure domain (shared mode; docs/SERVING.md "Job failure domains").
  /// Event trampoline: every engine event and link-completion callback
  /// this execution arms goes through here. Standalone it is the
  /// identity (exceptions propagate out of run(), as ever). Shared, it
  /// (a) goes inert once the owner destroyed the execution or the
  /// domain is sealed by a failure, (b) charges the per-job step budget,
  /// and (c) converts an escaping OffloadError/ExecutionError into
  /// fail() instead of unwinding the shared engine.
  sim::Engine::Callback guard(sim::Engine::Callback fn);
  /// schedule_after through guard(), tagged with this job's generation.
  std::uint64_t sched_after(double dt, sim::Engine::Callback fn);
  /// Seal the domain: record the error, revoke every pending timer and
  /// deliver the failed result. Idempotent.
  void fail(FailClass cls, std::string what);
  /// Common terminal path: cancel the generation and schedule the
  /// (untagged, lifetime-guarded) delivery event.
  void finish_now();
  /// Cancellation parking: retire an idle / barrier-waiting proxy; busy
  /// proxies drain back through try_fetch and park there.
  void park_proxy(int slot);
  double compute_seconds(Proxy& p, const dist::Range& chunk) const;
  void make_chunk_mappings(Proxy& p, const dist::Range& chunk,
                           std::vector<mem::DeviceMapping*>* out) const;
  void make_static_mappings(Proxy& p);

  // Proxy state machine (offload_exec.cpp).
  void try_fetch(int slot);
  void issue_input(int slot, int attempt);
  void on_input_done(int slot, int attempt, std::uint64_t wire_seed);
  void input_ready(int slot);
  void try_start_compute(int slot);
  void start_launch(int slot, int attempt);
  void on_compute_done(int slot);
  void issue_output(int slot, std::shared_ptr<OutRecord> rec, int attempt);
  /// Land a chunk's host effects (copy_out, partial reduction, iteration
  /// count); a speculated or probe chunk lands only if claim_commit
  /// grants it.
  void commit_to_host(Proxy& p, const ChunkOrigin& origin,
                      const dist::Range& range,
                      const std::vector<mem::DeviceMapping*>& maps,
                      double reduction);
  /// Drop a committed or discarded copy-out from its proxy's pipeline.
  void retire_output(Proxy& p, const std::shared_ptr<OutRecord>& rec);
  /// Leave the stage barrier, charging the wait and tracing it under
  /// `span_label` (untraced when null); false if the proxy was not
  /// waiting.
  bool end_stage_wait(Proxy& p, const char* span_label);
  void check_stage_barrier();
  void check_completion(int slot);
  /// check_completion for every slot — used when the integrity queue
  /// drains, since earlier refusals may have parked idle proxies.
  void sweep_completion();
  void finalize_device(int slot);
  void issue_finalize(int slot, double bytes, int attempt);
  void complete_finalize(int slot);
  void pass_serial_token(int slot);

  // Fault recovery (offload_recovery.cpp; docs/RESILIENCE.md). The
  // pipeline calls into it only while recovery_ is allocated.
  void build_recovery();
  void arm_loss_timers();
  /// try_fetch's chunk source: integrity re-executions, then requeued
  /// iterations, then speculative duplicates, then the scheduler.
  std::optional<dist::Range> next_recovery_chunk(int slot,
                                                 ChunkOrigin* origin);
  /// One transfer attempt's fault draw (wire_seed 0: payload intact).
  struct TransferFault {
    bool failed = false;
    std::uint64_t wire_seed = 0;
  };
  TransferFault draw_transfer_fault(const Proxy& p);
  /// True when the launch fails (its retry is then scheduled); otherwise
  /// draws the kernel's slowdown, hang, degradation and corruption.
  bool draw_launch_faults(int slot, int attempt, double* slow, bool* hangs);
  void arm_watchdog(int slot);
  /// A transfer or launch attempt failed after costing `spent` seconds
  /// since `start`: charge and log it, then retry with backoff.
  void fail_attempt(int slot, int attempt, sim::FaultKind kind, double start,
                    double spent, const std::string& span_label,
                    const std::string& what, std::function<void()> retry);
  /// Corrupt and verify an arrived copy-in, then input_ready or re-send.
  void check_copy_in(int slot, int attempt, std::uint64_t wire_seed);
  /// Drop a computed copy whose racing twin already committed.
  bool discard_superseded(int slot, const PendingChunk& chunk);
  /// A wire-free commit settles a re-execution; true if it was unsettled.
  bool settle_integrity(int slot, const ChunkOrigin& origin,
                        const dist::Range& range);
  void seal_payload(OutRecord& rec, std::uint64_t corrupt_seed);
  /// Corrupt an arrived copy-out; true if it goes on to verification.
  bool land_output(int slot, const std::shared_ptr<OutRecord>& rec,
                   std::uint64_t wire_seed);
  /// A corrupted final write-back; true if it is re-sent.
  bool corrupt_write_back(int slot, double bytes, int attempt);
  /// Requeued iterations or unsettled integrity re-executions remain.
  bool recovery_work_left();
  void on_device_lost(int slot);
  void handle_transient(int slot, int attempt, sim::FaultKind kind,
                        std::function<void()> retry);
  void quarantine(int slot, sim::FaultKind kind, const std::string& detail);
  void note_fault(int slot, sim::FaultKind kind, bool fatal,
                  std::string detail);
  dist::Range take_requeue();
  void kick_survivors();

  // Watchdog, speculation, probation (docs/RESILIENCE.md).
  double predicted_chunk_seconds(const Proxy& p,
                                 const dist::Range& chunk) const;
  void watchdog_soft(int slot, std::uint64_t serial);
  void watchdog_hard(int slot, std::uint64_t serial);
  /// First-commit-wins gate + probation bookkeeping; true when this copy
  /// of the chunk owns the host commit.
  bool claim_commit(int slot, const ChunkOrigin& chunk,
                    const dist::Range& range);
  /// Requeue one orphaned range at quarantine, honouring its spec token
  /// (committed ranges are never requeued; racing copies keep running).
  void orphan_range(const dist::Range& range,
                    const std::shared_ptr<SpecToken>& token,
                    long long* taken);
  /// A copy leaves its speculation race uncommitted; true if no copy is
  /// left to settle the range.
  bool leave_race(const std::shared_ptr<SpecToken>& token);
  /// Anything (mandatory requeue or a speculative duplicate another
  /// device originated) this slot could usefully fetch right now?
  bool has_work_for(int slot) const;
  /// Wake an idle / done / barrier-waiting proxy to fetch work.
  void rouse(Proxy& q);
  void schedule_readmission(int slot);
  void readmit(int slot);
  void note_recovery(int slot, RecoveryAction action, std::string detail);

  // Data integrity (docs/RESILIENCE.md "Integrity").
  /// Device-side (or host-side) combined checksum over the chunk's
  /// mappings in the given direction. 0 in pure-simulation mode.
  std::uint64_t payload_checksum(
      const std::vector<mem::DeviceMapping*>& maps, bool input_side,
      bool host_side = false) const;
  /// Flip seeded bytes in one of the chunk's mappings (device storage).
  void apply_corruption(const std::vector<mem::DeviceMapping*>& maps,
                        bool input_side, std::uint64_t seed) const;
  /// Virtual time to checksum `bytes` on the device (device memory scan).
  double integrity_delay(double bytes, const Proxy& p) const;
  /// May `slot` serve this troubled chunk? Suspect and already-balloted
  /// devices are excluded, with graduated fallback so the queue can
  /// always drain (docs/RESILIENCE.md).
  bool integrity_slot_allowed(const IntegrityState& st, int slot) const;
  /// Deferred half of the output-commit path: verify the payload
  /// checksums, ballot when voting, then commit via claim_commit.
  void finish_commit(int slot, std::shared_ptr<OutRecord> rec);
  /// A commit-side checksum mismatch: discard, queue a re-execution,
  /// maybe open a vote, maybe trip the integrity circuit breaker.
  void handle_corrupt_commit(int slot, const std::shared_ptr<OutRecord>& rec,
                             bool wire_only);

  // Observability (docs/OBSERVABILITY.md).
  /// Decision-audit recording armed? (collect_audit or collect_trace.)
  bool audit_on() const noexcept {
    return opts_.collect_audit || opts_.collect_trace;
  }
  /// Append a decision record; returns its index (for actual_s backfill).
  std::size_t note_decision(int slot, DecisionKind kind,
                            const dist::Range& range, std::string detail);
  /// note_decision for a chunk, plus its bytes and predicted times.
  std::size_t note_chunk_decision(const Proxy& p, DecisionKind kind,
                                  const dist::Range& range,
                                  std::string detail);
  /// One counter-track sample (no-op unless collect_trace).
  void record_counter(const Proxy& p, CounterTrack track, double value);
  /// Sample the proxy's pipeline occupancy onto the queue-depth track.
  void sample_queue_depth(const Proxy& p);
  /// Adjust + sample the proxy's in-flight transfer byte count.
  void adjust_outstanding_bytes(Proxy& p, double delta);
  /// Fold one healthy chunk's measured times into the per-device
  /// MODEL_1/MODEL_2/PROFILE relative-error accumulators (always on).
  void accumulate_prediction_error(Proxy& p, const dist::Range& chunk,
                                   double compute_s, double chunk_s);
  /// Per-predictor expected seconds for `chunk` on `p`, at current state.
  void predict_chunk(const Proxy& p, const dist::Range& chunk,
                     double* model1_s, double* model2_s,
                     double* profile_s) const;

  const mach::MachineDescriptor& machine_;
  const LoopKernel& kernel_;
  const std::vector<mem::MapSpec>& maps_;
  OffloadOptions opts_;

  /// Shared-engine mode (exec_context.h) when non-null: engine_ and the
  /// link lanes are borrowed from the context, and completion is
  /// delivered through on_complete_ instead of run()'s return.
  const ExecContext* ctx_ = nullptr;
  std::unique_ptr<sim::Engine> owned_engine_;  // standalone mode only
  sim::Engine& engine_;  // the engine this execution schedules on
  /// Owned lanes (standalone) feeding the borrowed-or-owned views below.
  std::vector<std::unique_ptr<sim::SharedLink>> owned_down_links_;
  std::vector<std::unique_ptr<sim::SharedLink>> owned_up_links_;
  std::vector<sim::SharedLink*> down_links_;  // per machine link
  std::vector<sim::SharedLink*> up_links_;
  /// Engine time at launch(); all result times are reported relative to
  /// it (zero standalone, so nothing changes there).
  double start_time_ = 0.0;
  std::size_t events_at_launch_ = 0;
  std::function<void(OffloadResult&&)> on_complete_;
  bool finished_ = false;  // completion callback already scheduled

  /// Failure-domain state (shared mode). `alive_` is the lifetime
  /// sentinel captured (weakly) by link-completion callbacks, which live
  /// inside the server's SharedLinks and cannot be generation-tagged; it
  /// dying with the execution makes them inert. `events_used_` is the
  /// per-job step-budget meter — run_bounded() guards standalone runs,
  /// but on a shared engine only a per-domain budget can pin a livelock
  /// on the job that spins.
  sim::Engine::GenTag gen_ = 0;
  std::shared_ptr<bool> alive_;
  bool failed_ = false;
  bool cancelled_ = false;
  FailClass fail_class_ = FailClass::kUnspecified;
  std::string fail_error_;
  std::size_t events_used_ = 0;

  std::vector<SpecPlan> plans_;
  model::KernelCostProfile effective_profile_;
  sched::LoopContext loop_context_;
  std::unique_ptr<sched::LoopScheduler> scheduler_;
  sched::AlgorithmKind algorithm_used_ = sched::AlgorithmKind::kBlock;

  std::vector<std::unique_ptr<Proxy>> proxies_;
  const std::vector<mem::DeviceDataEnv>* region_envs_ = nullptr;
  int serial_token_ = 0;  // !parallel_offload: next slot allowed to set up
  bool ran_ = false;

  /// Null unless the offload can fault or always verifies payloads.
  std::unique_ptr<Recovery> recovery_;

  /// Scheduler decision audit trail (collect_audit / collect_trace) and
  /// counter-track samples (collect_trace), in virtual-time order.
  std::vector<SchedDecision> decisions_;
  std::vector<CounterSample> counters_;
};

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_OFFLOAD_EXEC_H
