#ifndef HOMP_PERFBENCH_BENCH_H
#define HOMP_PERFBENCH_BENCH_H

/// \file bench.h
/// Shared machinery of the host-cost benchmark (perfbench/README.md):
/// the host clock, the heap-allocation counter, the span tracer of the
/// traced run, and the interface every workload implements.
///
/// A workload is a fixed *cycle* of ops that the main loop repeats until
/// the run's time is spent. Every cycle does identical work, so per-op
/// metrics compare the same work on any two commits however many cycles
/// a run fits.

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Host seconds from std::chrono::steady_clock.
double now_s();

/// L3 cache size from sysfs (cpu0, index3); 0 when the host does not say.
std::size_t host_l3_bytes();

/// Heap allocations (operator new calls) since process start. Counted by
/// the replacement operator new in trace.cpp.
std::uint64_t allocations();

/// Deterministic 64-bit hash step (splitmix64 over a ^ b).
std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b);
std::uint64_t hash_double(std::uint64_t h, double v);

// ---------------------------------------------------------------------
// Span tracer. Off unless the run is traced; when off a Span costs one
// branch. Spans nest (the process is single-threaded), so a span's self
// time is its duration minus the durations of its direct children.

struct LayerTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t allocs_total = 0;
  std::uint64_t allocs_self = 0;
};

class Tracer {
 public:
  struct Record {
    const char* name;
    std::int32_t parent;  ///< index into records, -1 for a root span
    std::uint64_t op;     ///< op id current when the span opened
    double t0;
    double t1;
    std::uint64_t allocs;  ///< self allocations
  };

  bool on() const noexcept { return on_; }
  void set_on(bool on) noexcept { on_ = on; }

  /// Op id stamped on spans opened from now on.
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  int open(const char* name);
  void close(int handle);

  /// Per-name totals over every closed span, in first-use order.
  const std::vector<std::pair<const char*, LayerTotals>>& layers()
      const noexcept {
    return layers_;
  }
  const LayerTotals& layer(const std::string& name) const;

  /// Chrome trace ("traceEvents" object form) with the per-layer
  /// summary under "layerSummary".
  bool write_chrome_trace(const std::string& path) const;

  /// Records kept for the chrome trace; later spans still count in
  /// layers() but are not stored.
  static constexpr std::size_t kMaxRecords = 400000;

 private:
  struct Open {
    std::int32_t record;  ///< -1 when not stored
    const char* name;
    double t0;
    std::uint64_t allocs0;
    double child_s = 0.0;
    std::uint64_t child_allocs = 0;
  };
  bool on_ = false;
  std::uint64_t op_ = 0;
  std::vector<Record> records_;
  std::vector<Open> stack_;
  /// Keyed by the name literal's address: lookups never build a
  /// std::string, so closing a span allocates nothing.
  std::vector<std::pair<const char*, LayerTotals>> layers_;
  std::size_t dropped_ = 0;
};

Tracer& tracer();

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name)
      : handle_(tracer().on() ? tracer().open(name) : -1) {}
  ~Span() {
    if (handle_ >= 0) tracer().close(handle_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int handle_;
};

// ---------------------------------------------------------------------
// Workload interface.

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< chrome trace path of the traced run
};

// ---------------------------------------------------------------------
// Host speed. Other tenants of a shared host slow the whole process down,
// for seconds to minutes at a time. A fixed reference routine (sorting,
// hashing and a tree of 4096 keys, then a dependent floating-point loop;
// it never touches the program) is timed right after the work it
// calibrates, and the work's time is divided by the routine's slowness.

/// Time of one run of the reference routine on the host the bounds were
/// set on (4-vCPU KVM guest, Xeon Sapphire Rapids, 105 MiB L3): about
/// the lowest lower-decile time it showed there. Only a scale; a run
/// divides by it, so it sets the units, not the spread.
constexpr double kReferenceRoutineS = 600e-6;

/// Op time after which the ops run since the last calibration are
/// calibrated (one routine run per this much op time, at least three).
constexpr double kCalibrateEvery = 0.01;

/// Median time of `reps` runs of the reference routine over
/// kReferenceRoutineS: how much slower than the reference host this host
/// runs right now.
double host_slowness(int reps);

/// Calibrate `busy_s` seconds of work just done: run the routine once
/// per kCalibrateEvery of it (at least three times) and return
/// host_slowness of those runs.
double calibrate_after(double busy_s);

/// What one cycle's ops produced; the main loop aggregates cycles.
struct CycleStats {
  /// Host seconds per op, in op order. An entry may stand for a group
  /// of ops timed together, as the group's time per op.
  std::vector<double> op_s;
  /// op_s[i] divided by the host slowness measured after op i: seconds
  /// on the reference host. Filled by settle().
  std::vector<double> op_ref_s;
  std::uint64_t ops = 0;  ///< ops the cycle counted (>= op_s.size())
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< first few failure descriptions
  double unsettled_s = 0.0;  ///< host time of the ops not yet settled

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 8) problems.push_back(why);
  }

  /// Record an entry of op_s that took `busy_s` of host time in all,
  /// and settle once kCalibrateEvery of op time is unsettled.
  void add_op(double op_s_value, double busy_s) {
    op_s.push_back(op_s_value);
    unsettled_s += busy_s;
    if (unsettled_s >= kCalibrateEvery) settle();
  }

  /// Calibrate after the unsettled ops and fill their op_ref_s.
  void settle() {
    if (op_ref_s.size() == op_s.size()) return;
    const double slowness = calibrate_after(unsettled_s);
    for (std::size_t i = op_ref_s.size(); i < op_s.size(); ++i) {
      op_ref_s.push_back(op_s[i] / slowness);
    }
    unsettled_s = 0.0;
  }
};

/// Run one op: time it on the host clock, wrap it in an "op" span that
/// carries `op_id`, and count an exception it throws as a failed op.
template <typename F>
void timed_op(CycleStats& stats, std::uint64_t op_id, const char* what,
              F&& fn) {
  tracer().set_op(op_id);
  const double t0 = now_s();
  try {
    Span s("op");
    fn();
  } catch (const std::exception& e) {
    stats.fail(std::string(what) + ": " + e.what());
  }
  const double dt = now_s() - t0;
  ++stats.ops;
  stats.add_op(dt, dt);
}

/// Named values with units, printed as "metric <name> <value> <unit>".
struct MetricSet {
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> values;
  void set(const std::string& name, double value, const std::string& unit) {
    values[name] = Value{value, unit};
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Print the run's inputs (sizes, counts) as "input <key> <value>".
  virtual void print_inputs() const = 0;

  /// Build everything the cycles need. Called several times; each call
  /// replaces what the previous one built.
  virtual void setup() = 0;

  /// Run one cycle. `index` counts cycles from 0 across the whole run.
  virtual void run_cycle(std::uint64_t index, CycleStats& stats) = 0;

  /// Per-op payload bytes moved by the last cycle (0 when nothing moves).
  virtual double cycle_payload_bytes() const { return 0.0; }

  /// Workload-specific end-to-end values that BENCHMARK.json does not
  /// gate (virtual times, fail ratios), added to `out`.
  virtual void extra_metrics(MetricSet& out) const = 0;

  /// Traced run only: run the layer probes (under spans) and derive the
  /// per-layer metrics from the tracer's totals and the probe counts.
  virtual void layer_metrics(MetricSet& out) = 0;
};

std::unique_ptr<Workload> make_sim_sweep(const RunConfig& cfg);
std::unique_ptr<Workload> make_data_path(const RunConfig& cfg);
std::unique_ptr<Workload> make_fuzz_corpus(const RunConfig& cfg);
std::unique_ptr<Workload> make_serve_soak(const RunConfig& cfg);

/// Mean of `layer`'s span durations, in seconds (0 when it never ran).
double mean_span_s(const std::string& layer);

/// Geometric mean (0 for an empty input).
double geomean(const std::vector<double>& v);

/// Quantile q in [0, 1] of unsorted data, linearly interpolated.
double quantile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // HOMP_PERFBENCH_BENCH_H
