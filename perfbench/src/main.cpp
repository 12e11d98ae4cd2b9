// Host-cost benchmark of the HOMP runtime (perfbench/README.md).
//
//   homp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// Runs one workload in this (single-threaded) process: sets it up
// several times (setup_s is the median), then repeats its fixed cycle
// of ops until S seconds of cycles have run. Every time it reports is
// in reference-host seconds: divided by the host's slowness, measured
// with a fixed reference routine right after the work (bench.h). Of
// those, the timing metrics take, for each op of the cycle, the lower
// decile over the cycles (kOpQuantile). Lines before the last
// are for people ("input ...", "metric ...", "layer ..."); the last line
// is one JSON object with "correct", "attempted", "failed" and
// "metrics" — the end-to-end metrics untraced, the per-layer metrics
// traced.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The gated end-to-end metrics (BENCHMARK.json "end_to_end"). Every
// workload reports all of them and none can read 0.
const MetricDef kEndToEnd[] = {
    {"throughput_ops_s", "1/s"},
    {"op_p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// The per-layer metrics (BENCHMARK.json "per_layer"). A layer that does
// no work in a workload reads 0 there.
const MetricDef kPerLayer[] = {
    {"runtime.offload_us", "us"},
    {"runtime.ns_per_event", "ns"},
    {"runtime.events_per_op", "count"},
    {"runtime.chunks_per_op", "count"},
    {"runtime.allocs_per_op", "count"},
    {"runtime.allocs_per_event", "count"},
    {"runtime.offload_traced_us", "us"},
    {"runtime.export_us", "us"},
    {"runtime.export_bytes", "bytes"},
    {"runtime.offload_plain_us", "us"},
    {"runtime.offload_verified_us", "us"},
    {"sim.event_ns", "ns"},
    {"sim.tagged_event_ns", "ns"},
    {"sched.next_chunk_ns", "ns"},
    {"model.weights_us", "us"},
    {"dist.chunk_region_ns", "ns"},
    {"memory.data_env_ns", "ns"},
    {"memory.copy_gb_s", "GB/s"},
    {"kernels.body_gb_s", "GB/s"},
    {"kernels.init_ms", "ms"},
    {"checksum.gb_s", "GB/s"},
    {"checksum.checks_per_op", "count"},
    {"host.memcpy_gb_s", "GB/s"},
    {"data.payload_vs_memcpy", "ratio"},
    {"fuzz.generate_us", "us"},
    {"fuzz.oracle_ms", "ms"},
    {"fuzz.offloads_per_scenario", "count"},
    {"fuzz.toml_roundtrip_us", "us"},
    {"serve.run_s", "s"},
    {"serve.events_per_job", "count"},
    {"serve.ns_per_event", "ns"},
    {"serve.validate_ms", "ms"},
    {"serve.export_ms", "ms"},
    {"serve.retained_records", "count"},
    {"trace.overhead_pct", "%"},
};

// Timed set-ups per run: at least kSetups, more while they take less
// than kSetupShare of the measured time; setup_s is their median.
constexpr int kSetups = 3;
constexpr double kSetupShare = 0.05;
constexpr double kWarmSeconds = 0.5;

// Quantile, over the cycles of a run, of each op's time. A cycle
// repeats the same ops, so op j of every cycle does the same work and
// its low quantile is the time that work takes when nothing else on the
// host gets in its way; the median would follow the host's load.
constexpr double kOpQuantile = 0.1;

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// Full precision, and JSON-safe for non-finite values.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sim-sweep|data-path|fuzz-corpus|"
               "serve-soak --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               argv0);
  return 2;
}

/// Op times and counts of the cycles run with one tracing setting.
///
/// Op j's times are kept for at most kMaxSamples cycles: when the store
/// fills, every other kept cycle is dropped and from then on only every
/// other cycle is kept, so the kept cycles stay evenly spread over the
/// run. The store is reserved in full when an op first appears, so the
/// benchmark's own memory does not grow with the number of cycles a run
/// fits and peak_rss_mb stays the program's.
struct Tally {
  static constexpr std::size_t kMaxSamples = 256;

  /// [op j of the cycle][kept cycle], reference-host seconds (op_ref_s).
  std::vector<std::vector<double>> by_op;
  std::uint64_t ops = 0;
  double busy_s = 0.0;      ///< host seconds inside ops
  double busy_ref_s = 0.0;  ///< the same in reference-host seconds
  double payload_bytes = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t stride = 1;  ///< keep the cycles whose count divides by it

  void add(const CycleStats& cs) {
    ops += cs.ops;
    // A workload may time a group of ops as one (serve-soak: a batch of
    // jobs); each entry of op_s is then the group's time per op.
    const double ops_per_entry = cs.op_s.empty()
                                 ? 0.0
                                 : static_cast<double>(cs.ops) /
                                       static_cast<double>(cs.op_s.size());
    for (double s : cs.op_s) busy_s += s * ops_per_entry;
    for (double s : cs.op_ref_s) busy_ref_s += s * ops_per_entry;
    if (cycles++ % stride != 0) return;
    while (by_op.size() < cs.op_ref_s.size()) {
      by_op.emplace_back().reserve(kMaxSamples);
    }
    for (std::size_t j = 0; j < cs.op_ref_s.size(); ++j) {
      by_op[j].push_back(cs.op_ref_s[j]);
    }
    if (by_op.empty() || by_op.front().size() < kMaxSamples) return;
    for (auto& times : by_op) {
      for (std::size_t i = 0; 2 * i < times.size(); ++i) {
        times[i] = times[2 * i];
      }
      times.resize((times.size() + 1) / 2);
    }
    stride *= 2;
  }

  /// kOpQuantile of each op's times over the kept cycles, in op order.
  std::vector<double> op_quantiles() const {
    std::vector<double> q;
    q.reserve(by_op.size());
    for (const auto& times : by_op) q.push_back(quantile(times, kOpQuantile));
    return q;
  }

  /// Ops per second of a cycle whose every op takes its kOpQuantile time.
  double throughput() const {
    double cycle_s = 0.0;
    for (double s : op_quantiles()) cycle_s += s;
    return cycle_s > 0.0 ? static_cast<double>(by_op.size()) / cycle_s : 0.0;
  }

  /// Ops per host second over every op run (how fast the run went).
  double mean_throughput() const {
    return busy_s > 0.0 ? static_cast<double>(ops) / busy_s : 0.0;
  }

  /// Host seconds per reference-host second, over every op run.
  double slowness() const {
    return busy_ref_s > 0.0 ? busy_s / busy_ref_s : 0.0;
  }

  /// Every kept time of every op, in reference-host seconds.
  std::vector<double> kept_op_s() const {
    std::vector<double> all;
    for (const auto& times : by_op) {
      all.insert(all.end(), times.begin(), times.end());
    }
    return all;
  }
};

int run(const RunConfig& cfg) {
  std::unique_ptr<Workload> w;
  if (cfg.workload == "sim-sweep") {
    w = make_sim_sweep(cfg);
  } else if (cfg.workload == "data-path") {
    w = make_data_path(cfg);
  } else if (cfg.workload == "fuzz-corpus") {
    w = make_fuzz_corpus(cfg);
  } else if (cfg.workload == "serve-soak") {
    w = make_serve_soak(cfg);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 cfg.workload.c_str());
    return 2;
  }

  std::printf("input workload %s\ninput seed %llu\ninput seconds %g\n"
              "input trace %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("input nproc %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  const std::size_t l3 = host_l3_bytes();
  if (l3 != 0) {
    std::printf("input l3_bytes %zu\n", l3);
  } else {
    std::printf("input l3_bytes unknown\n");
  }
  w->print_inputs();
  std::fflush(stdout);

  // Untimed set-ups first, for at least kWarmSeconds, so the timed ones
  // start with warm caches, a faulted-in heap and the CPU out of idle.
  const double warm_start = now_s();
  do {
    w->setup();
  } while (now_s() - warm_start < kWarmSeconds);

  // Timed set-ups: one before the first cycle, then one after a cycle
  // while fewer than kSetups have run or while they total less than
  // kSetupShare of the measured time. They are spread over the whole
  // run, so their median does not hang on the host's speed at one
  // moment, and a cheap set-up is sampled many times. Set-up time is not
  // part of the measured time.
  std::vector<double> setups;
  double setup_total_s = 0.0;
  const auto timed_setup = [&] {
    const double t0 = now_s();
    w->setup();
    const double dt = now_s() - t0;
    setups.push_back(dt / calibrate_after(dt));
    setup_total_s += dt;
  };
  timed_setup();

  // Untraced cycles give the end-to-end metrics. A traced run alternates
  // untraced and traced cycles, so trace.overhead_pct compares the two
  // under the same conditions.
  Tally untraced, traced;
  CycleStats all;
  std::uint64_t attempted = 0;
  double measured_s = 0.0;
  for (std::uint64_t c = 0;; ++c) {
    const bool traced_cycle = cfg.trace && (c % 2 == 1);
    tracer().set_on(traced_cycle);
    CycleStats cs;
    const double t0 = now_s();
    w->run_cycle(c, cs);
    measured_s += now_s() - t0;
    cs.settle();
    tracer().set_on(false);
    Tally& t = traced_cycle ? traced : untraced;
    t.add(cs);
    t.payload_bytes += w->cycle_payload_bytes();
    attempted += cs.ops;
    all.failed += cs.failed;
    for (const auto& p : cs.problems) {
      if (all.problems.size() < 8) all.problems.push_back(p);
    }
    const bool few_setups = setups.size() < static_cast<std::size_t>(kSetups);
    if (few_setups || setup_total_s < kSetupShare * measured_s) {
      timed_setup();
    }
    const bool enough =
        !cfg.trace || (untraced.cycles > 0 && traced.cycles > 0);
    if (enough && setups.size() >= static_cast<std::size_t>(kSetups) &&
        measured_s >= cfg.seconds) {
      break;
    }
  }

  MetricSet e2e;
  e2e.set("throughput_ops_s", untraced.throughput(), "1/s");
  e2e.set("op_p50_us", quantile(untraced.op_quantiles(), 0.5) * 1e6, "us");
  e2e.set("setup_s", quantile(setups, 0.5), "s");
  e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  // Not gated (see README.md "Metrics"), printed for people: the host's
  // slowness and the plain mean over every op in host time show how much
  // the host's load slowed this run.
  e2e.set("host_slowness", untraced.slowness(), "ratio");
  e2e.set("throughput_mean_ops_s", untraced.mean_throughput(), "1/s");
  const std::vector<double> kept = untraced.kept_op_s();
  e2e.set("op_all_p50_us", quantile(kept, 0.5) * 1e6, "us");
  if (kept.size() >= 100) {
    e2e.set("op_p90_us", quantile(kept, 0.9) * 1e6, "us");
  }
  if (untraced.payload_bytes > 0.0) {
    e2e.set("payload_gb_s", untraced.payload_bytes / untraced.busy_s / 1e9,
            "GB/s");
  }
  e2e.set("fail_ratio",
          attempted == 0 ? 0.0
                         : static_cast<double>(all.failed) /
                               static_cast<double>(attempted),
          "ratio");
  w->extra_metrics(e2e);
  std::printf("input setups %zu\ninput cycles %llu\ninput ops %llu\n",
              setups.size(),
              static_cast<unsigned long long>(untraced.cycles + traced.cycles),
              static_cast<unsigned long long>(attempted));
  for (const auto& [name, v] : e2e.values) {
    std::printf("metric %s %s %s\n", name.c_str(), number(v.value).c_str(),
                v.unit.c_str());
  }

  MetricSet layers;
  if (cfg.trace) {
    tracer().set_on(true);
    w->layer_metrics(layers);
    tracer().set_on(false);
    const double overhead =
        traced.throughput() > 0.0
            ? (untraced.throughput() / traced.throughput() - 1.0) * 100.0
            : 0.0;
    layers.set("trace.overhead_pct", overhead, "%");
    if (traced.payload_bytes > 0.0 &&
        layers.values.count("host.memcpy_gb_s") != 0 &&
        layers.values["host.memcpy_gb_s"].value > 0.0) {
      layers.set("data.payload_vs_memcpy",
                 traced.payload_bytes / traced.busy_s / 1e9 /
                     layers.values["host.memcpy_gb_s"].value,
                 "ratio");
    }
    for (const auto& [name, l] : tracer().layers()) {
      std::printf("layer %-28s count %10llu total_s %12.6f self_s %12.6f "
                  "self_allocs %12llu\n",
                  name, static_cast<unsigned long long>(l.count), l.total_s,
                  l.self_s, static_cast<unsigned long long>(l.allocs_self));
    }
    if (!cfg.trace_out.empty()) {
      if (tracer().write_chrome_trace(cfg.trace_out)) {
        std::printf("trace %s\n", cfg.trace_out.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     cfg.trace_out.c_str());
      }
    }
  }

  for (const auto& p : all.problems) {
    std::printf("FAILED %s\n", p.c_str());
  }

  // Metric names are plain identifiers, so no JSON escaping is needed.
  const bool correct = all.failed == 0 && attempted > 0;
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(all.failed) +
                    ", \"metrics\": {";
  const auto emit = [&](const MetricDef& d, const MetricSet& set) {
    const auto it = set.values.find(d.name);
    const std::string v = number(it == set.values.end() ? 0.0
                                                        : it->second.value);
    if (out.back() != '{') out.append(", ");
    out.append("\"").append(d.name).append("\": {\"value\": ").append(v);
    out.append(", \"unit\": \"").append(d.unit).append("\"}");
    if (cfg.trace) {
      std::printf("perlayer %s %s %s\n", d.name, v.c_str(), d.unit);
    }
  };
  if (cfg.trace) {
    for (const auto& d : kPerLayer) emit(d, layers);
  } else {
    for (const auto& d : kEndToEnd) emit(d, e2e);
  }
  out.append("}}");
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && cfg.seconds > 0.0 &&
                     cfg.seconds <= 600.0;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      cfg.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--trace-out") {
      cfg.trace_out = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage(argv[0]);
  }
  try {
    return run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
