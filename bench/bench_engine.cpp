// Engine-throughput microbenchmark: how many discrete-event-simulator
// events (and whole simulated offloads) the runtime machinery pushes
// through per wall-clock second. This is host overhead, not simulated
// time — the cost of running HOMP's scheduling/transfer/fault pipeline
// itself. Regressions here mean every bench and every fuzz corpus got
// slower.
//
// Three scenarios spanning the machinery's operating points:
//   - gpu4 + axpy@1M, SCHED_DYNAMIC: many small chunks, chunk-per-event
//     pressure on the scheduler and transfer pipeline.
//   - full + matmul@512, MODEL_2_AUTO: heterogeneous 9-device machine,
//     model-weighted single-stage distribution.
//   - cpu-mic + stencil2d@128, SCHED_GUIDED: shared+discrete memory mix
//     with shrinking chunk sizes.
//
// Output: a human table on stdout and (with --json-out FILE) a JSON
// document suitable for committing as BENCH_engine.json and diffing
// across PRs. Numbers vary with host load; treat >2x deltas as signal.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "kernels/case.h"
#include "obs/metrics.h"
#include "runtime/audit_export.h"
#include "runtime/metrics_export.h"
#include "runtime/runtime.h"
#include "sched/scheduler.h"
#include "support/harness.h"

namespace {

using namespace homp;

struct Scenario {
  const char* name;
  const char* machine;
  const char* kernel;
  long long n;
  sched::AlgorithmKind kind;
};

struct Result {
  const char* name = nullptr;
  int reps = 0;
  double seconds = 0.0;
  long long events = 0;
  double events_per_s = 0.0;
  double offloads_per_s = 0.0;
};

Result run_scenario(const Scenario& s) {
  auto rt = rt::Runtime::from_builtin(s.machine);
  auto c = kern::make_case(s.kernel, s.n, /*materialize=*/false);
  auto maps = c->maps();
  auto kernel = c->kernel();

  rt::OffloadOptions o;
  o.device_ids = rt.all_devices();
  o.sched.kind = s.kind;
  o.execute_bodies = false;

  // Warm-up offload: first-touch allocations and lazy tables out of the
  // timed region.
  (void)rt.offload(kernel, maps, o);

  // Time enough repetitions to get past clock granularity (~0.5 s).
  Result r;
  r.name = s.name;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.5) {
    const auto res = rt.offload(kernel, maps, o);
    r.events += static_cast<long long>(res.engine_events);
    ++r.reps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  }
  r.seconds = elapsed;
  r.events_per_s = static_cast<double>(r.events) / elapsed;
  r.offloads_per_s = static_cast<double>(r.reps) / elapsed;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace homp;
  std::string json_out;
  std::string audit_out;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--audit-out") == 0 && i + 1 < argc) {
      audit_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json-out FILE] [--audit-out FILE] "
                   "[--metrics-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  const Scenario scenarios[] = {
      {"gpu4-axpy1M-dynamic", "gpu4", "axpy", 1'000'000,
       sched::AlgorithmKind::kDynamic},
      {"full-matmul512-model2", "full", "matmul", 512,
       sched::AlgorithmKind::kModel2Auto},
      {"cpumic-stencil128-guided", "cpu-mic", "stencil2d", 128,
       sched::AlgorithmKind::kGuided},
  };

  std::vector<Result> results;
  std::printf("engine throughput (host wall-clock; execute_bodies=off)\n\n");
  std::printf("%-28s %8s %10s %14s %12s\n", "scenario", "reps", "events",
              "events/sec", "offloads/sec");
  for (const auto& s : scenarios) {
    const auto r = run_scenario(s);
    std::printf("%-28s %8d %10lld %14.0f %12.1f\n", r.name, r.reps, r.events,
                r.events_per_s, r.offloads_per_s);
    results.push_back(r);
  }

  // Advisor artifacts: one extra audited offload per scenario, outside
  // the timed region. These are deterministic (virtual time only, no
  // wall clocks), unlike the throughput numbers above — so the CI perf
  // sentinel can attribute a regression from the same invocation that
  // measured it.
  if (!audit_out.empty() || !metrics_out.empty()) {
    obs::MetricsRegistry reg;
    bool audit_written = false;
    for (const auto& s : scenarios) {
      auto rt = rt::Runtime::from_builtin(s.machine);
      auto c = kern::make_case(s.kernel, s.n, /*materialize=*/false);
      rt::OffloadOptions o;
      o.device_ids = rt.all_devices();
      o.sched.kind = s.kind;
      o.execute_bodies = false;
      o.collect_audit = true;
      const auto res = rt.offload(c->kernel(), c->maps(), o);
      rt::collect_metrics(res, reg);
      if (!audit_out.empty() && !audit_written) {
        rt::write_audit_file(res, audit_out);
        audit_written = true;
      }
    }
    if (!metrics_out.empty()) {
      rt::write_registry_file(reg, metrics_out);
    }
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "bench_engine: cannot write %s\n",
                   json_out.c_str());
      return 2;
    }
    out << "{\n  \"bench\": \"engine\",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "    {\"name\": \"%s\", \"reps\": %d, \"events\": %lld, "
                    "\"events_per_sec\": %.0f, \"offloads_per_sec\": %.1f",
                    r.name, r.reps, r.events, r.events_per_s, r.offloads_per_s);
      out << buf << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  return 0;
}
