// sim-sweep: pure-simulation offloads (execute_bodies off) at the
// paper's Table V sizes on three machines, six kernels, the seven
// Table II policies and the 15% CUTOFF variants of the four policies
// that support one. No bytes move, so the engine, scheduler, model,
// distribution and data-env layers carry almost all the host time.
// Once per cycle per machine one offload runs with collect_trace on and
// is exported (chrome trace, audit, metrics) to memory.

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "kernels/case.h"
#include "memory/data_env.h"
#include "model/loop_model.h"
#include "obs/metrics.h"
#include "probes.h"
#include "runtime/audit_export.h"
#include "runtime/metrics_export.h"
#include "runtime/runtime.h"
#include "runtime/trace.h"
#include "sched/scheduler.h"
#include "support/harness.h"

namespace perfbench {
namespace {

using namespace homp;

const char* const kMachines[] = {"gpu4", "cpu-mic", "full"};

struct Config {
  int machine = 0;
  int kernel = 0;
  bench::PolicyRun policy;
  rt::OffloadOptions opts;
  bool traced = false;  ///< the per-machine collect_trace offload
};

std::uint64_t result_digest(const rt::OffloadResult& r) {
  std::uint64_t h = hash_double(0, r.total_time);
  h = hash_mix(h, r.chunks_issued);
  for (const auto& d : r.devices) {
    h = hash_mix(h, static_cast<std::uint64_t>(d.iterations));
    h = hash_mix(h, d.chunks);
  }
  return h;
}

class SimSweep final : public Workload {
 public:
  explicit SimSweep(const RunConfig& cfg) : cfg_(cfg) {}

  void print_inputs() const override {
    std::printf("input machines gpu4,cpu-mic,full\n");
    for (const auto& name : kern::all_kernel_names()) {
      std::printf("input size.%s %lld\n", name.c_str(),
                  kern::paper_size(name));
    }
    std::printf("input policies %zu\n", bench::seven_policies().size() + 4);
    std::printf("input ops_per_cycle %zu\n",
                std::size(kMachines) * kern::all_kernel_names().size() *
                        (bench::seven_policies().size() + 4) +
                    std::size(kMachines));
  }

  void setup() override {
    runtimes_.clear();
    cases_.clear();
    kernels_.clear();
    maps_.clear();
    configs_.clear();
    for (const char* m : kMachines) {
      runtimes_.push_back(rt::Runtime::from_builtin(m));
    }
    for (const auto& name : kern::all_kernel_names()) {
      cases_.push_back(kern::make_case(name, kern::paper_size(name),
                                       /*materialize=*/false));
      kernels_.push_back(cases_.back()->kernel());
      maps_.push_back(cases_.back()->maps());
    }
    std::vector<bench::PolicyRun> policies = bench::seven_policies(0.0);
    for (const auto& p : bench::seven_policies(0.15)) {
      if (p.cutoff > 0.0) policies.push_back(p);
    }
    for (int m = 0; m < static_cast<int>(runtimes_.size()); ++m) {
      const auto& rt = runtimes_[static_cast<std::size_t>(m)];
      // Figure 5 runs gpu4 on its four GPUs; Figures 8 and 9 use every
      // device of cpu-mic and full.
      const auto devices = m == 0 ? rt.accelerators() : rt.all_devices();
      for (int k = 0; k < static_cast<int>(kernels_.size()); ++k) {
        for (const auto& p : policies) {
          Config c;
          c.machine = m;
          c.kernel = k;
          c.policy = p;
          c.opts.device_ids = devices;
          c.opts.sched.kind = p.kind;
          c.opts.sched.cutoff_ratio = p.cutoff;
          c.opts.execute_bodies = false;
          c.opts.noise_seed = hash_mix(cfg_.seed, configs_.size());
          configs_.push_back(std::move(c));
        }
      }
      Config t;  // SCHED_DYNAMIC axpy: the most chunks, so the most spans
      t.machine = m;
      t.kernel = 0;
      t.policy = policies[1];
      t.opts = configs_.back().opts;
      t.opts.sched.kind = sched::AlgorithmKind::kDynamic;
      t.opts.sched.cutoff_ratio = 0.0;
      t.opts.noise_seed = hash_mix(cfg_.seed, configs_.size());
      t.opts.collect_trace = true;
      t.traced = true;
      configs_.push_back(std::move(t));
    }
    // Warm-up: one cycle, outside the measurement; its digests are the
    // reference every measured cycle must reproduce.
    first_digest_.clear();
    virtual_s_.clear();
    for (const auto& c : configs_) {
      const auto r = offload(c);
      first_digest_.push_back(result_digest(r));
      virtual_s_.push_back(r.total_time);
    }
  }

  void run_cycle(std::uint64_t index, CycleStats& stats) override {
    const bool traced_cycle = tracer().on();
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const Config& c = configs_[i];
      timed_op(stats, index * configs_.size() + i, "sim-sweep", [&] {
        rt::OffloadResult r;
        if (c.traced) {
          {
            Span s("runtime.offload_traced");
            r = offload(c);
          }
          export_result(r);
        } else {
          Span s("runtime.offload");
          r = offload(c);
        }
        check(i, r, stats);
        if (traced_cycle && !c.traced) {
          events_ += r.engine_events;
          chunks_ += r.chunks_issued;
          ++offloads_;
        }
      });
    }
  }

  void extra_metrics(MetricSet& out) const override {
    std::vector<double> ms;
    for (double s : virtual_s_) ms.push_back(s * 1e3);
    out.set("virtual_ms_geomean", geomean(ms), "ms");
  }

  void layer_metrics(MetricSet& out) override {
    const LayerTotals& off = tracer().layer("runtime.offload");
    const double n = static_cast<double>(offloads_);
    out.set("runtime.offload_us", mean_span_s("runtime.offload") * 1e6, "us");
    out.set("runtime.ns_per_event",
            off.total_s / static_cast<double>(events_) * 1e9, "ns");
    out.set("runtime.events_per_op", static_cast<double>(events_) / n,
            "count");
    out.set("runtime.chunks_per_op", static_cast<double>(chunks_) / n,
            "count");
    out.set("runtime.allocs_per_op",
            static_cast<double>(off.allocs_total) / n, "count");
    out.set("runtime.allocs_per_event",
            static_cast<double>(off.allocs_total) /
                static_cast<double>(events_),
            "count");
    out.set("runtime.offload_traced_us",
            mean_span_s("runtime.offload_traced") * 1e6, "us");
    out.set("runtime.export_us", mean_span_s("runtime.export") * 1e6, "us");
    out.set("runtime.export_bytes",
            static_cast<double>(export_bytes_) /
                static_cast<double>(exports_),
            "bytes");

    out.set("sim.event_ns", engine_probe_ns(false, 400000), "ns");
    probe_model(out);
    probe_chunks(out);
  }

 private:
  rt::OffloadResult offload(const Config& c) const {
    const auto k = static_cast<std::size_t>(c.kernel);
    return runtimes_[static_cast<std::size_t>(c.machine)].offload(
        kernels_[k], maps_[k], c.opts);
  }

  void check(std::size_t i, const rt::OffloadResult& r,
             CycleStats& stats) const {
    const Config& c = configs_[i];
    const auto& k = kernels_[static_cast<std::size_t>(c.kernel)];
    if (r.total_iterations() != k.iterations.size()) {
      stats.fail(std::string(kMachines[c.machine]) + " " + k.name + " " +
                 c.policy.label + ": iterations not conserved");
    } else if (result_digest(r) != first_digest_[i]) {
      stats.fail(std::string(kMachines[c.machine]) + " " + k.name + " " +
                 c.policy.label + ": virtual result differs from cycle 0");
    }
  }

  void export_result(const rt::OffloadResult& r) {
    Span s("runtime.export");
    std::ostringstream os;
    rt::write_chrome_trace(r, os);
    rt::write_audit_json(r, os);
    obs::MetricsRegistry reg;
    rt::collect_metrics(r, reg);
    reg.write_json(os);
    if (tracer().on()) {
      export_bytes_ += os.str().size();
      ++exports_;
    }
  }

  // model2_weights + apply_cutoff per (machine, kernel).
  void probe_model(MetricSet& out) const {
    constexpr int kReps = 200;
    const double t0 = now_s();
    {
      Span s("model.weights");
      for (int rep = 0; rep < kReps; ++rep) {
        for (const auto& rt : runtimes_) {
          const auto inputs =
              model::prediction_inputs(rt.machine(), rt.all_devices());
          for (const auto& k : kernels_) {
            const auto w = model::model2_weights(k.cost, inputs);
            (void)model::apply_cutoff(w, 0.15);
          }
        }
      }
    }
    const double calls =
        static_cast<double>(kReps * runtimes_.size() * kernels_.size());
    out.set("model.weights_us", (now_s() - t0) / calls * 1e6, "us");
  }

  // Drain every config's scheduler, then build the chunk regions and
  // per-chunk data environments the runtime builds for those chunks.
  void probe_chunks(MetricSet& out) const {
    struct Chunk {
      std::size_t config;
      dist::Range range;
    };
    std::vector<Chunk> chunks;
    double sched_s = 0.0;
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const Config& c = configs_[i];
      const auto& k = kernels_[static_cast<std::size_t>(c.kernel)];
      const auto& rt = runtimes_[static_cast<std::size_t>(c.machine)];
      sched::LoopContext ctx;
      ctx.loop = k.iterations;
      ctx.kernel = k.cost;
      ctx.devices = model::prediction_inputs(rt.machine(), c.opts.device_ids);
      std::vector<double> iter_s;
      for (const auto& d : ctx.devices) {
        iter_s.push_back(model::model2_iter_time(k.cost, d));
      }
      const int slots = static_cast<int>(ctx.devices.size());
      const double t0 = now_s();
      Span s("sched.next_chunk");
      auto sched = sched::make_scheduler(c.opts.sched, ctx);
      for (int pass = 0; pass < 1000000; ++pass) {
        bool progress = false, done = true;
        for (int slot = 0; slot < slots; ++slot) {
          if (sched->finished(slot)) continue;
          done = false;
          if (auto r = sched->next_chunk(slot)) {
            sched->report(slot, *r,
                          static_cast<double>(r->size()) *
                              iter_s[static_cast<std::size_t>(slot)]);
            chunks.push_back({i, *r});
            progress = true;
          }
        }
        if (done) break;
        if (!progress) {
          if (!sched->stage_barrier_pending()) {
            throw std::runtime_error("scheduler probe stalled");
          }
          sched->advance_stage();
        }
      }
      sched_s += now_s() - t0;
    }
    out.set("sched.next_chunk_ns",
            sched_s / static_cast<double>(chunks.size()) * 1e9, "ns");

    // Loop-following map specs and their regions, as
    // OffloadExecution::make_chunk_mappings derives them.
    std::vector<std::pair<dist::Region, dist::Region>> regions;
    regions.reserve(chunks.size() * 3);
    double t0 = now_s();
    {
      Span s("dist.chunk_region");
      for (const auto& ch : chunks) {
        const auto k = static_cast<std::size_t>(configs_[ch.config].kernel);
        for (const auto& spec : maps_[k]) {
          const auto pol = spec.partitioned_policy();
          if (pol.kind != dist::PolicyKind::kAlign) continue;
          const auto d = static_cast<std::size_t>(spec.partitioned_dim());
          const dist::Range owned =
              ch.range.scaled(pol.align_ratio).clamped_to(spec.region.dim(d));
          const dist::Range fp =
              owned.widened(spec.halo_before, spec.halo_after)
                  .clamped_to(spec.region.dim(d));
          regions.emplace_back(spec.region.with_dim(d, owned),
                               spec.region.with_dim(d, fp));
        }
      }
    }
    out.set("dist.chunk_region_ns",
            (now_s() - t0) / static_cast<double>(chunks.size()) * 1e9, "ns");

    t0 = now_s();
    {
      Span s("memory.data_env");
      std::size_t next = 0;
      for (const auto& ch : chunks) {
        const auto k = static_cast<std::size_t>(configs_[ch.config].kernel);
        mem::MappingStore store;
        mem::DeviceDataEnv env;
        for (const auto& spec : maps_[k]) {
          if (spec.partitioned_policy().kind != dist::PolicyKind::kAlign) {
            continue;
          }
          const auto& [owned, fp] = regions[next++];
          env.add(spec.name, &store.create(spec, owned, fp, /*shared=*/false,
                                           /*materialize=*/false));
          (void)env.mapping(spec.name);
        }
      }
    }
    out.set("memory.data_env_ns",
            (now_s() - t0) / static_cast<double>(chunks.size()) * 1e9, "ns");
  }

  RunConfig cfg_;
  std::vector<rt::Runtime> runtimes_;
  std::vector<std::unique_ptr<kern::KernelCase>> cases_;
  std::vector<rt::LoopKernel> kernels_;
  std::vector<std::vector<mem::MapSpec>> maps_;
  std::vector<Config> configs_;
  std::vector<std::uint64_t> first_digest_;
  std::vector<double> virtual_s_;
  // Traced-cycle counts.
  std::uint64_t events_ = 0;
  std::uint64_t chunks_ = 0;
  std::uint64_t offloads_ = 0;
  std::uint64_t export_bytes_ = 0;
  std::uint64_t exports_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sim_sweep(const RunConfig& cfg) {
  return std::make_unique<SimSweep>(cfg);
}

}  // namespace perfbench
