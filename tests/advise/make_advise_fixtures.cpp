// Fixture generator for the homp-advise CLI contract suite
// (tests/advise/run_advise_tests.py).
//
// Usage: make_advise_fixtures <outdir>
//
// Writes a Fig. 6-style session into <outdir>:
//   run1.audit.json / run1.metrics.json / run1.trace.json
//   run2.audit.json / run2.metrics.json / run2.trace.json
//     two identical seeded offloads, MODEL_2-distributed, where one
//     device carries a scripted degrade fault the model knows nothing
//     about — the canonical "a device ran far slower than predicted"
//     scenario whose under-prediction the advisor must rank first.
//     The suite asserts both runs' exports are byte-identical and that
//     cross-run merging marks the finding persistent.
//   serve.audit.json
//     a small two-tenant serving run's audit (serve/report.h
//     write_audit_json) — exercises the serve-artifact ingestion path.
//
// and the fixtures of the trace summary and diff cases:
//   dyn1.trace.json / dyn1.metrics.json   one seeded dynamic-schedule
//   dyn2.trace.json / dyn2.metrics.json   offload, and its identical re-run
//   adversarial.trace.json / adversarial.metrics.json   a hand-built
//     result whose device names / labels / details carry quotes,
//     backslashes, newlines and control characters (the suite
//     json.loads-round-trips them — the escaping contract)
//   serve.trace.json       the two-tenant serving run, traced
//   servefail.trace.json   a serving run with a failed and a cancelled job
//
// Ground truth goes to stdout as key=value lines. The run_* and
// degraded_* keys replicate the attribution formulas
// (advise/attribution.cpp) on the runtime's own OffloadResult, so the
// suite can check the CLI's figures independently of the export/reload
// path; the dyn_* keys are the dynamic run's own telemetry (notably
// Imbalance::percent()) for the summary figures.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "kernels/axpy.h"
#include "machine/profiles.h"
#include "runtime/audit_export.h"
#include "runtime/metrics_export.h"
#include "runtime/runtime.h"
#include "runtime/trace.h"
#include "serve/server.h"

namespace {

using namespace homp;

constexpr int kDegradedDevice = 2;
constexpr double kDegradeFactor = 64.0;

/// A static MODEL_2 split with a sustained degrade on one device from
/// its first compute onwards. The split has no way to know, so the
/// device runs far slower than its MODEL_2 prediction and finishes far
/// behind the others — textbook under-prediction with a large saving.
/// (The factor is large because axpy chunks are transfer-dominated:
/// only the compute fraction of the chunk degrades, and the bias must
/// clear the advisor's 1.5x threshold with margin.)
/// The watchdog stays off: speculation would steal the degraded chunks
/// (their actual_s would never backfill) and the bias evidence with it.
rt::OffloadResult degraded_run() {
  rt::Runtime runtime{mach::testing_machine(3)};
  kern::AxpyCase c(200'000, /*materialize=*/false);
  rt::OffloadOptions o;
  o.device_ids = {1, 2, 3};
  o.sched.kind = sched::AlgorithmKind::kModel2Auto;
  o.execute_bodies = false;
  o.collect_trace = true;  // implies collect_audit
  sim::ScriptedFault f;
  f.device_id = kDegradedDevice;
  f.kind = sim::FaultKind::kDegrade;
  f.op = 0;
  f.factor = kDegradeFactor;
  o.fault.scripted.push_back(f);
  o.watchdog.enabled = false;
  auto maps = c.maps();
  auto kernel = c.kernel();
  return runtime.offload(kernel, maps, o);
}

void write_run(const rt::OffloadResult& res, const std::string& stem) {
  rt::write_audit_file(res, stem + ".audit.json");
  rt::write_metrics_file(res, stem + ".metrics.json");
  rt::write_chrome_trace_file(res, stem + ".trace.json");
}

/// A seeded, fault-free dynamic-schedule offload with tracing on.
rt::OffloadResult dynamic_run() {
  rt::Runtime runtime{mach::testing_machine(3)};
  kern::AxpyCase c(200'000, /*materialize=*/false);
  rt::OffloadOptions o;
  o.device_ids = {1, 2, 3};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  o.execute_bodies = false;
  o.collect_trace = true;
  auto maps = c.maps();
  auto kernel = c.kernel();
  return runtime.offload(kernel, maps, o);
}

void write_trace_pair(const rt::OffloadResult& res, const std::string& stem) {
  rt::write_chrome_trace_file(res, stem + ".trace.json");
  rt::write_metrics_file(res, stem + ".metrics.json");
}

/// A result whose every string field tries to break the JSON document.
rt::OffloadResult adversarial_result() {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t bell\x07";
  rt::OffloadResult res;
  res.total_time = 10e-6;
  res.chunks_issued = 2;
  for (int slot = 0; slot < 2; ++slot) {
    rt::DeviceStats d;
    d.device_name = "dev\"" + std::to_string(slot) + "\\\n";
    d.device_id = slot + 1;
    d.chunks = 1;
    d.iterations = 100;
    d.finish_time = (slot + 1) * 5e-6;
    d.chunk_seconds.observe(3e-6);
    res.devices.push_back(d);

    rt::TraceSpan span;
    span.slot = slot;
    span.device = d.device_name;
    span.phase = rt::Phase::kCompute;
    span.t0 = 0.0;
    span.t1 = d.finish_time;
    span.label = nasty;
    res.trace.push_back(span);

    rt::SchedDecision dec;
    dec.time = 0.0;
    dec.slot = slot;
    dec.device_id = d.device_id;
    dec.kind = rt::DecisionKind::kChunkAssigned;
    dec.range = dist::Range(0, 100);
    dec.detail = nasty;
    res.decisions.push_back(dec);

    rt::CounterSample cs;
    cs.time = 1e-6;
    cs.slot = slot;
    cs.track = rt::CounterTrack::kQueueDepth;
    cs.value = 1.0;
    res.counters.push_back(cs);
  }
  rt::FaultEvent f;
  f.time = 2e-6;
  f.slot = 0;
  f.device_id = 1;
  f.detail = nasty;
  res.fault_events.push_back(f);
  rt::RecoveryEvent r;
  r.time = 3e-6;
  r.slot = 1;
  r.device_id = 2;
  r.detail = nasty;
  res.recovery_events.push_back(r);
  return res;
}

/// A small two-tenant serving run (no overload: a clean run may yield
/// zero serve findings, which is itself part of the contract under
/// test). Writes its audit, or with `trace` its chrome trace, whose
/// per-tenant summary sections the suite checks against real spans.
void write_two_tenant_serve(const std::string& path, bool trace) {
  serve::TenantSpec gold, bronze;
  gold.name = "gold";
  gold.priority = serve::PriorityClass::kGold;
  bronze.name = "bronze";
  bronze.priority = serve::PriorityClass::kBronze;

  serve::ServeOptions opts;
  opts.collect_trace = trace;
  serve::OffloadServer server(mach::builtin("full"), {gold, bronze}, opts);
  serve::JobSpec j;
  j.kernel = "axpy";
  j.n = 1 << 14;
  j.devices = 2;
  server.submit("gold", j);
  server.submit("bronze", j);
  server.run();

  std::ofstream out(path);
  if (trace) {
    server.report().write_trace_json(out);
  } else {
    server.report().write_audit_json(out);
  }
}

/// A serving run with a poison tenant (every granted device dies
/// mid-run -> terminal kFail) and a deadline job on a covertly slow
/// tenant (admitted, then cancelled mid-run as deadline_miss): real
/// serve events for the summary's failed/cancelled-jobs section.
void write_serve_failure_trace(const std::string& path) {
  serve::TenantSpec good, poison, slow;
  good.name = "good";
  poison.name = "poison";
  poison.fault.fail_at_s = 1e-4;
  slow.name = "slow";
  slow.fault.slowdown_rate = 0.95;
  slow.fault.slowdown_factor = 64.0;

  serve::ServeOptions opts;
  opts.collect_trace = true;
  opts.breaker_threshold = 0;  // keep every poison job a kFail record
  serve::OffloadServer server(mach::builtin("full"), {good, poison, slow},
                              opts);
  serve::JobSpec j;
  j.kernel = "axpy";
  j.n = 1 << 14;
  j.devices = 2;
  server.submit("good", j);
  server.submit("poison", j);
  serve::JobSpec doomed = j;
  // Clears admission on the predicted runtime, unreachable at 64x slow.
  doomed.deadline_s =
      4.0 * server.predicted_job_seconds(doomed.kernel, doomed.n, 2);
  server.submit("slow", doomed);
  server.run();

  std::ofstream out(path);
  server.report().write_trace_json(out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <outdir>\n", argv[0]);
    return 2;
  }
  const std::string outdir = argv[1];

  const auto run1 = degraded_run();
  const auto run2 = degraded_run();
  write_run(run1, outdir + "/run1");
  write_run(run2, outdir + "/run2");
  write_two_tenant_serve(outdir + "/serve.audit.json", /*trace=*/false);

  const auto dyn1 = dynamic_run();
  const auto dyn2 = dynamic_run();
  write_trace_pair(dyn1, outdir + "/dyn1");
  write_trace_pair(dyn2, outdir + "/dyn2");
  write_trace_pair(adversarial_result(), outdir + "/adversarial");
  write_two_tenant_serve(outdir + "/serve.trace.json", /*trace=*/true);
  write_serve_failure_trace(outdir + "/servefail.trace.json");

  // Ground truth, replicating advise/attribution.cpp's arithmetic on the
  // in-memory result. Device rows match decisions by id; the advisor
  // matches by name after the audit reload — same pairing.
  const rt::DeviceStats* degraded = nullptr;
  for (const auto& d : run1.devices) {
    if (d.device_id == kDegradedDevice) degraded = &d;
  }
  if (degraded == nullptr || degraded->chunks == 0) {
    std::fprintf(stderr, "degraded device ran no chunks — fixture broken\n");
    return 1;
  }

  double actual = 0.0, predicted = 0.0;
  long long samples = 0;
  for (const auto& dec : run1.decisions) {
    if (dec.kind != rt::DecisionKind::kChunkAssigned ||
        dec.device_id != kDegradedDevice) {
      continue;
    }
    if (dec.actual_s <= 0.0 || dec.predicted_model2_s <= 0.0) continue;
    actual += dec.actual_s;
    predicted += dec.predicted_model2_s;
    ++samples;
  }
  if (samples == 0 || predicted <= 0.0) {
    std::fprintf(stderr, "no bias evidence for the degraded device\n");
    return 1;
  }
  const double bias = actual / predicted;

  // Mean finish of the other participating devices, in device order —
  // the under_prediction saving baseline.
  double others = 0.0;
  int n_others = 0;
  for (const auto& d : run1.devices) {
    if (d.chunks == 0 || d.device_id == kDegradedDevice) continue;
    others += d.finish_time;
    ++n_others;
  }
  const double mean_others = n_others > 0 ? others / n_others : 0.0;
  const double saving = std::max(0.0, degraded->finish_time - mean_others);

  std::printf("degraded_device=%s\n", degraded->device_name.c_str());
  std::printf("degraded_bias=%.17g\n", bias);
  std::printf("degraded_bias_samples=%lld\n", samples);
  std::printf("degraded_finish_s=%.17g\n", degraded->finish_time);
  std::printf("mean_other_finish_s=%.17g\n", mean_others);
  std::printf("expected_saving_s=%.17g\n", saving);
  std::printf("run_total_time_s=%.17g\n", run1.total_time);
  std::printf("run_chunks=%zu\n", run1.chunks_issued);
  std::printf("run_decisions=%zu\n", run1.decisions.size());
  std::printf("run_devices=%zu\n", run1.devices.size());
  std::printf("dyn_imbalance_pct=%.17g\n", dyn1.imbalance().percent());
  std::printf("dyn_total_time_s=%.17g\n", dyn1.total_time);
  std::printf("dyn_decisions=%zu\n", dyn1.decisions.size());
  std::printf("dyn_devices=%zu\n", dyn1.devices.size());
  return 0;
}
