// serve-soak: the bench_traffic --soak mix (four tenants at 2x overload
// plus a poison tenant whose every job dies mid-run) on the "full"
// machine, at a fixed job count per batch. One shared engine carries
// generation-tagged timers and cancellations, and the server retains a
// JobRecord per job. An op is one submitted job; jobs run interleaved
// inside one OffloadServer::run(), so a batch's host time is shared
// evenly among its jobs.

#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench.h"
#include "machine/profiles.h"
#include "obs/metrics.h"
#include "probes.h"
#include "serve/server.h"
#include "serve/traffic.h"

namespace perfbench {
namespace {

using namespace homp;
using namespace homp::serve;

/// Submissions per batch (about). A batch is timed as one entry, so
/// small batches give a run many entries to take its lower decile from.
constexpr std::size_t kJobs = 1000;

/// Mean of the bounded Pareto on [lo, hi] with tail index a (a != 1).
double pareto_mean(long long lo, long long hi, double a) {
  if (lo == hi) return static_cast<double>(lo);
  const double xm = static_cast<double>(lo);
  const double xM = static_cast<double>(hi);
  const double head = std::pow(xm, a) / (1.0 - std::pow(xm / xM, a));
  return head * a / (a - 1.0) *
         (std::pow(xm, 1.0 - a) - std::pow(xM, 1.0 - a));
}

/// One tenant of the mix; the same shapes as bench/bench_traffic.cpp.
struct Mix {
  const char* name;
  PriorityClass cls;
  double weight;
  BackpressureMode bp;
  std::size_t depth;
  double share;  ///< of pool capacity
  const char* kernel;
  long long size_min, size_max;
  double tail_alpha;
  int devices;
  bool deadline;
  sim::FaultProfile fault;
};

std::vector<Mix> soak_mix() {
  sim::FaultProfile none;
  sim::FaultProfile flaky;
  flaky.transfer_fault_rate = 0.01;
  sim::FaultProfile slow;
  slow.slowdown_rate = 0.05;
  slow.slowdown_factor = 3.0;
  sim::FaultProfile poison;
  poison.fail_at_s = 1e-4;  // every granted device dies mid-run
  return {
      {"gold", PriorityClass::kGold, 2.0, BackpressureMode::kReject, 8,
       0.30, "axpy", 1 << 14, 1 << 17, 1.5, 2, false, none},
      {"silver-a", PriorityClass::kSilver, 2.0, BackpressureMode::kReject,
       12, 0.60, "matvec", 1 << 9, 1 << 11, 1.5, 2, true, none},
      {"silver-b", PriorityClass::kSilver, 1.0, BackpressureMode::kBlock,
       12, 0.50, "axpy", 1 << 14, 1 << 17, 1.5, 2, false, slow},
      {"bronze", PriorityClass::kBronze, 1.0, BackpressureMode::kReject, 16,
       0.60, "sum", 1 << 15, 1 << 19, 1.2, 1, false, flaky},
      {"chaos", PriorityClass::kBronze, 1.0, BackpressureMode::kReject, 8,
       0.05, "axpy", 1 << 12, 1 << 14, 1.5, 2, false, poison},
  };
}

struct Batch {
  std::size_t submitted = 0, completed = 0, failed = 0, cancelled = 0,
              rejected = 0;
  std::uint64_t digest = 0;
  double gold_p99_s = 0.0;
};

class ServeSoak final : public Workload {
 public:
  explicit ServeSoak(const RunConfig& cfg) : seed_(cfg.seed) {}

  void print_inputs() const override {
    std::printf("input machine full\ninput tenants gold,silver-a,silver-b,"
                "bronze,chaos(poison)\n");
    std::printf("input jobs_per_batch %zu (about; Poisson arrivals)\n", kJobs);
  }

  void setup() override {
    mixes_ = soak_mix();
    tenants_.clear();
    for (const auto& m : mixes_) {
      TenantSpec t;
      t.name = m.name;
      t.priority = m.cls;
      t.weight = m.weight;
      t.backpressure = m.bp;
      t.max_queue_depth = m.depth;
      t.fault = m.fault;
      tenants_.push_back(t);
    }
    opts_ = ServeOptions{};
    opts_.seed = hash_mix(seed_, 0x5e12e);
    opts_.shed_l1_depth = 8;
    opts_.shed_l2_depth = 16;
    opts_.shed_l3_depth = 24;
    opts_.floor_fraction = 0.1;
    // Arrival rates placing each tenant's share of the pool's
    // device-seconds, from the MODEL_2-predicted mean job.
    OffloadServer probe(mach::builtin("full"), tenants_, opts_);
    const double pool = static_cast<double>(probe.pool().size());
    double total_rate = 0.0;
    loads_.clear();
    for (std::size_t i = 0; i < mixes_.size(); ++i) {
      const Mix& m = mixes_[i];
      const double mean_n = pareto_mean(m.size_min, m.size_max, m.tail_alpha);
      const double pred = probe.predicted_job_seconds(
          m.kernel, static_cast<long long>(mean_n), m.devices);
      TenantLoad l;
      l.tenant = tenants_[i];
      l.job.kernel = m.kernel;
      l.job.devices = m.devices;
      if (m.deadline) l.job.deadline_s = 8.0 * pred;
      l.arrival_rate_hz =
          m.share * pool / (pred * static_cast<double>(m.devices));
      l.size_min = m.size_min;
      l.size_max = m.size_max;
      l.tail_alpha = m.tail_alpha;
      l.seed = hash_mix(seed_, i + 1);
      total_rate += l.arrival_rate_hz;
      loads_.push_back(l);
    }
    for (auto& l : loads_) {
      l.duration_s = static_cast<double>(kJobs) / total_rate;
    }
    // Warm-up: a tenth of a batch.
    (void)run_batch(0.1, nullptr);
  }

  void run_cycle(std::uint64_t index, CycleStats& stats) override {
    tracer().set_op(index);
    const Batch b = run_batch(1.0, &stats);
    if (index == 0) {
      first_ = b;
    } else if (b.digest != first_.digest) {
      stats.fail("batch " + std::to_string(index) +
                 ": job outcomes differ from the first batch");
    }
    if (stats.failed > 0) stats.failed = b.submitted;  // the whole batch
  }

  void extra_metrics(MetricSet& out) const override {
    out.set("virtual_gold_p99_ms", first_.gold_p99_s * 1e3, "ms");
    // Jobs the server failed, cancelled or rejected, over submissions:
    // the poison tenant and the 2x overload make this nonzero by design.
    out.set("fail_ratio",
            static_cast<double>(first_.failed + first_.cancelled +
                                first_.rejected) /
                static_cast<double>(first_.submitted),
            "ratio");
    out.set("jobs_completed", static_cast<double>(first_.completed), "count");
  }

  void layer_metrics(MetricSet& out) override {
    const LayerTotals& run = tracer().layer("serve.run");
    const double jobs = static_cast<double>(jobs_);
    const double events = static_cast<double>(events_);
    out.set("serve.run_s", mean_span_s("serve.run"), "s");
    out.set("serve.events_per_job", events / jobs, "count");
    out.set("serve.ns_per_event", run.total_s / events * 1e9, "ns");
    out.set("serve.validate_ms", mean_span_s("serve.validate") * 1e3, "ms");
    out.set("serve.export_ms", mean_span_s("serve.export") * 1e3, "ms");
    out.set("serve.retained_records",
            static_cast<double>(retained_) / static_cast<double>(run.count),
            "count");
    out.set("runtime.events_per_op", events / jobs, "count");
    out.set("runtime.allocs_per_op",
            static_cast<double>(run.allocs_total) / jobs, "count");
    out.set("runtime.allocs_per_event",
            static_cast<double>(run.allocs_total) / events, "count");
    out.set("sim.tagged_event_ns", engine_probe_ns(true, 400000), "ns");
  }

 private:
  /// One batch on a fresh server, its arrivals spread over `scale` times
  /// the batch duration. With `stats`, the batch counts `submitted` ops,
  /// timed together as one entry: the batch's host time per job.
  Batch run_batch(double scale, CycleStats* stats) {
    auto loads = loads_;
    for (auto& l : loads) l.duration_s *= scale;
    const double t0 = now_s();
    OffloadServer server(mach::builtin("full"), tenants_, opts_);
    {
      Span op("op");
      TrafficGen gen(server, loads);
      gen.start();
      Span s("serve.run");
      server.run();
    }
    const double dt = now_s() - t0;

    Batch b;
    const ServeReport& rep = server.report();
    for (const auto& c : rep.counts) {
      b.submitted += c.submitted;
      b.completed += c.completed;
      b.failed += c.failed;
      b.cancelled += c.cancelled;
      b.rejected += c.rejected();
      b.digest = hash_mix(b.digest, c.submitted);
      b.digest = hash_mix(b.digest, c.completed);
      b.digest = hash_mix(b.digest, c.failed);
      b.digest = hash_mix(b.digest, c.cancelled);
      b.digest = hash_mix(b.digest, c.rejected());
    }
    b.digest = hash_double(b.digest, rep.makespan_s);
    const PriorityClass gold = PriorityClass::kGold;
    b.gold_p99_s = rep.latency_percentile(0.99, &gold);
    b.digest = hash_double(b.digest, b.gold_p99_s);
    if (stats == nullptr) return b;

    stats->ops += b.submitted;
    stats->add_op(dt / static_cast<double>(b.submitted), dt);
    std::vector<std::string> breaches;
    {
      Span s("serve.validate");
      breaches = rep.validate();
    }
    for (const auto& v : breaches) stats->fail("serve invariant: " + v);
    if (server.retained_jobs() != 0 || server.engine().live_events() != 0 ||
        server.engine().live_generations() != 0) {
      stats->fail("drained server retains jobs, events or generations");
    }
    if (tracer().on()) {
      {
        Span s("serve.export");
        std::ostringstream os;
        rep.write_summary_json(os);
        obs::MetricsRegistry reg;
        rep.export_metrics(reg);
        reg.write_json(os);
      }
      jobs_ += b.submitted;
      events_ += server.engine().events_processed();
      retained_ += rep.jobs.size();
    }
    return b;
  }

  std::uint64_t seed_;
  std::vector<Mix> mixes_;
  std::vector<TenantSpec> tenants_;
  std::vector<TenantLoad> loads_;
  ServeOptions opts_;
  Batch first_;
  // Traced-batch counts.
  std::uint64_t jobs_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t retained_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_soak(const RunConfig& cfg) {
  return std::make_unique<ServeSoak>(cfg);
}

}  // namespace perfbench
