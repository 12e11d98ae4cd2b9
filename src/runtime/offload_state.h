#ifndef HOMP_RUNTIME_OFFLOAD_STATE_H
#define HOMP_RUNTIME_OFFLOAD_STATE_H

/// \file offload_state.h
/// OffloadExecution's private state types, shared by the fault-free
/// pipeline (offload_exec.cpp) and the recovery code
/// (offload_recovery.cpp). Not part of the runtime's API.

#include <deque>
#include <string>
#include <utility>

#include "common/prng.h"
#include "runtime/offload_exec.h"

namespace homp::rt {

/// How a chunk copy came to run, for the recovery code: empty (all
/// defaults) for the scheduler's own chunks, and always empty in a
/// fault-free offload.
struct OffloadExecution::ChunkOrigin {
  bool from_requeue = false;   ///< recovery work the scheduler never issued
  std::shared_ptr<SpecToken> token;  ///< non-null once speculated
  bool is_spec = false;        ///< this copy is the speculative duplicate
  bool is_probe = false;       ///< probation probe chunk
  std::shared_ptr<IntegrityState> integ;  ///< set once it failed verification
};

/// A chunk moving through a proxy's pipeline.
struct OffloadExecution::PendingChunk {
  dist::Range range;
  std::vector<mem::DeviceMapping*> chunk_maps;
  mem::DeviceDataEnv env;      ///< statics + chunk slices
  double fetch_start = 0.0;    ///< virtual time the chunk was acquired
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  ChunkOrigin origin;
  /// Non-zero: FaultPlan decided this chunk's kernel output is silently
  /// corrupted; the seed drives the injected bit flips.
  std::uint64_t corrupt_seed = 0;
  /// Index of this chunk's kChunkAssigned audit record (actual_s is
  /// backfilled at compute completion); npos when audit is off.
  std::size_t decision_index = static_cast<std::size_t>(-1);
};

/// A computed chunk whose results are still device-resident: the output
/// transfer is in flight (possibly retrying). Host-visible effects —
/// copy_out into host arrays, the partial reduction, the iteration count —
/// commit only when the transfer succeeds, so a device quarantined
/// mid-copy-out leaves the host bit-identical and its chunk free to
/// requeue.
struct OffloadExecution::OutRecord {
  dist::Range range;
  std::vector<mem::DeviceMapping*> maps;
  double bytes_out = 0.0;
  double reduction = 0.0;  ///< body result, committed on success
  bool abandoned = false;  ///< quarantine requeued this chunk
  ChunkOrigin origin;
  /// Integrity verification (docs/RESILIENCE.md "Integrity"). The three
  /// sums snapshot the payload at each hand-off: after the kernel body
  /// (`sum_result`), after any injected compute corruption
  /// (`sum_payload`, the device-side checksum shipped with the chunk),
  /// and as received after the output transfer (`sum_wire`). The commit
  /// compares them to tell a corrupted kernel result from a corrupted
  /// transfer.
  bool verify = false;
  std::uint64_t sum_result = 0;
  std::uint64_t sum_payload = 0;
  std::uint64_t sum_wire = 0;
};

/// Per-device proxy actor state.
struct OffloadExecution::Proxy {
  int slot = -1;
  int device_id = -1;
  const mach::DeviceDescriptor* desc = nullptr;
  sim::SharedLink* down = nullptr;  ///< host -> device lane
  sim::SharedLink* up = nullptr;    ///< device -> host lane
  Prng noise{0};

  mem::MappingStore store;
  mem::DeviceDataEnv static_env;
  bool statics_loaded = false;
  bool alloc_paid = false;
  bool setup_signalled = false;  ///< for serialized (!parallel) offloading

  bool fetching = false;
  std::optional<PendingChunk> inflight;   ///< input transfer in progress
  std::optional<PendingChunk> ready;      ///< resident, awaiting compute
  std::optional<PendingChunk> computing;  ///< kernel in progress
  double compute_started = 0.0;
  int outstanding_outputs = 0;
  std::vector<std::shared_ptr<OutRecord>> outputs;  ///< in-flight copy-outs

  bool waiting_stage = false;
  double stage_wait_start = 0.0;
  bool finalizing = false;
  bool done = false;

  bool lost = false;        ///< quarantined (possibly re-admitted later)
  double loss_time = -1.0;  ///< scheduled permanent loss; < 0 = never

  /// Watchdog / probation state.
  std::uint64_t compute_serial = 0;  ///< guards stale watchdog events
  double degrade_factor = 1.0;  ///< latched sustained-slowdown multiplier
  double ewma_iter_s = 0.0;     ///< observed per-iteration time (EWMA)
  bool probation = false;       ///< re-admitted, serving probe chunks
  int probes_passed = 0;

  double partial_reduction = 0.0;
  double outstanding_bytes = 0.0;  ///< transfer bytes currently in flight
  DeviceStats stats;
  std::vector<TraceSpan> spans;

  /// Some pipeline stage holds work, so the proxy will come back to
  /// try_fetch on its own.
  bool busy() const noexcept {
    return fetching || inflight || ready || computing || finalizing ||
           outstanding_outputs > 0;
  }

  void record_span(bool enabled, Phase phase, double t0, double t1,
                   std::string label = {}) {
    if (!enabled || t1 <= t0) return;
    spans.push_back(TraceSpan{slot, desc->name, phase, t0, t1,
                              std::move(label)});
  }

  /// As above, labelled with a chunk's range plus `suffix`; the label is
  /// formatted only when the span is kept.
  void record_span(bool enabled, Phase phase, double t0, double t1,
                   const dist::Range& range, const char* suffix = "") {
    if (!enabled || t1 <= t0) return;
    record_span(true, phase, t0, t1, range.to_string() + suffix);
  }
};

/// Recovery-only state (docs/RESILIENCE.md). Allocated only when the
/// offload can fault or verifies payloads regardless; a fault-free
/// offload never creates it.
struct OffloadExecution::Recovery {
  sim::FaultPlan plan;
  bool faults = false;  ///< the plan can inject something
  bool verify = false;  ///< payload checksums armed (integrity)
  /// Orphaned iterations of quarantined devices, redistributed to the
  /// survivors in dynamic grains ahead of the scheduler's own chunks.
  std::deque<dist::Range> requeue;
  long long requeue_grain = 1;
  /// Tardy chunks offered for speculative duplication (optional work:
  /// completion never waits on it; a hung original converts its entry
  /// into mandatory requeue work at quarantine).
  std::deque<std::shared_ptr<SpecToken>> spec_queue;
  long long probe_grain = 1;
  /// Chunks discarded after a checksum mismatch, awaiting re-execution
  /// (served ahead of everything else; completion waits on it).
  std::deque<std::shared_ptr<IntegrityState>> integrity_queue;
  std::vector<FaultEvent> fault_events;
  std::vector<RecoveryEvent> recovery_events;
};

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_OFFLOAD_STATE_H
