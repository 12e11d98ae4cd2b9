// data-path: materialized offloads on gpu4's four GPUs with
// SCHED_DYNAMIC. axpy at 1M (cache-resident) and at >= 4x the L3 size,
// stencil2d (halo rows through ALIGN) and matmul (compute-bound), each
// once with integrity disarmed and once with integrity.always. memcpy,
// per-element ArrayView checks, kernel bodies and the mix64 checksum do
// the work; the engine does almost none.

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.h"
#include "common/checksum.h"
#include "kernels/case.h"
#include "memory/data_env.h"
#include "runtime/runtime.h"

namespace perfbench {
namespace {

using namespace homp;

constexpr long long kSmallAxpy = 1'000'000;
constexpr long long kStencil = 1024;
constexpr long long kMatmul = 256;

struct Case {
  std::string label;
  std::unique_ptr<kern::KernelCase> kc;
  rt::LoopKernel kernel;
  std::vector<mem::MapSpec> maps;
  std::uint64_t reference = 0;  ///< checksum of the serial result
};

/// Combined mix64 checksum of the arrays the offload copies out.
std::uint64_t output_checksum(const std::vector<mem::MapSpec>& maps) {
  std::uint64_t h = 0;
  for (const auto& m : maps) {
    if (!mem::copies_out(m.dir)) continue;
    h = hash_mix(h, checksum_bytes(ChecksumKind::kMix64, m.binding.base,
                                   static_cast<std::size_t>(m.region_bytes())));
  }
  return h;
}

/// The kernel body over the whole loop on the host, through checked
/// views aliasing the host arrays: the serial reference.
void run_serial(const Case& c) {
  mem::MappingStore store;
  mem::DeviceDataEnv env;
  for (const auto& m : c.maps) {
    env.add(m.name, &store.create(m, m.region, m.region, /*shared=*/true,
                                  /*materialize=*/false));
  }
  c.kernel.body(c.kernel.iterations, env);
}

class DataPath final : public Workload {
 public:
  explicit DataPath(const RunConfig& cfg) : cfg_(cfg) {
    l3_ = host_l3_bytes();
    // axpy maps x and y: 16 bytes per element. Smallest power of two
    // whose arrays fill at least 4x the L3 (32 MiB assumed if unknown).
    const std::size_t target = 4 * (l3_ == 0 ? (32u << 20) : l3_);
    large_ = 1 << 20;
    while (static_cast<std::size_t>(large_) * 16 < target) large_ *= 2;
  }

  void print_inputs() const override {
    std::printf("input machine gpu4 (4 GPUs, SCHED_DYNAMIC)\n");
    std::printf("input axpy_small_n %lld (array bytes %lld)\n", kSmallAxpy,
                kSmallAxpy * 16);
    std::printf("input axpy_large_n %lld (array bytes %lld, %.2fx L3)\n",
                large_, large_ * 16,
                static_cast<double>(large_ * 16) /
                    static_cast<double>(l3_ == 0 ? (32u << 20) : l3_));
    std::printf("input stencil2d_n %lld (array bytes %lld)\n", kStencil,
                kStencil * kStencil * 16);
    std::printf("input matmul_n %lld (array bytes %lld)\n", kMatmul,
                kMatmul * kMatmul * 24);
    std::printf("input ops_per_cycle 8 (4 cases x plain/verified)\n");
  }

  void setup() override {
    cases_.clear();  // frees the previous setup's arrays first
    runtime_ = std::make_unique<rt::Runtime>(rt::Runtime::from_builtin("gpu4"));
    const std::pair<const char*, long long> specs[] = {
        {"axpy", kSmallAxpy}, {"axpy", large_}, {"stencil2d", kStencil},
        {"matmul", kMatmul}};
    for (const auto& [name, n] : specs) {
      Case c;
      c.label = std::string(name) + "-" + std::to_string(n);
      c.kc = kern::make_case(name, n, /*materialize=*/true);
      c.kernel = c.kc->kernel();
      c.maps = c.kc->maps();
      run_serial(c);
      std::string why;
      if (!c.kc->verify(&why)) {
        throw std::runtime_error("serial reference of " + c.label +
                                 " fails verify: " + why);
      }
      c.reference = output_checksum(c.maps);
      cases_.push_back(std::move(c));
    }
    // Warm-up: the cache-resident cases once each. The large axpy gains
    // nothing from it: its data cannot stay cached and every offload
    // allocates fresh device buffers.
    for (auto& c : cases_) {
      if (c.kernel.iterations.size() == large_) continue;
      c.kc->init();
      (void)runtime_->offload(c.kernel, c.maps, options(false, 0));
    }
  }

  void run_cycle(std::uint64_t index, CycleStats& stats) override {
    const bool traced_cycle = tracer().on();
    payload_ = 0.0;
    std::uint64_t op = index * 8;
    for (auto& c : cases_) {
      for (int verified = 0; verified < 2; ++verified, ++op) {
        {
          Span s("kernels.init");
          c.kc->init();
        }
        const rt::OffloadOptions opts = options(verified != 0, op % 8);
        rt::OffloadResult r;
        timed_op(stats, op, c.label.c_str(), [&] {
          Span s(verified ? "runtime.offload_verified"
                          : "runtime.offload_plain");
          r = runtime_->offload(c.kernel, c.maps, opts);
        });
        std::string why;
        if (output_checksum(c.maps) != c.reference) {
          stats.fail(c.label + ": result checksum differs from the serial "
                               "reference");
        } else if (!c.kc->verify(&why)) {
          stats.fail(c.label + ": " + why);
        }
        double bytes = 0.0;
        std::uint64_t checks = 0;
        for (const auto& d : r.devices) {
          bytes += d.bytes_in + d.bytes_out;
          checks += d.integrity_checks;
        }
        payload_ += bytes;
        if (index == 0) virtual_s_.push_back(r.total_time);
        if (traced_cycle) {
          events_ += r.engine_events;
          chunks_ += r.chunks_issued;
          ++offloads_;
          if (verified) {
            checks_ += checks;
            ++verified_ops_;
          }
        }
      }
    }
  }

  double cycle_payload_bytes() const override { return payload_; }

  void extra_metrics(MetricSet& out) const override {
    std::vector<double> ms;
    for (double s : virtual_s_) ms.push_back(s * 1e3);
    out.set("virtual_ms_geomean", geomean(ms), "ms");
  }

  void layer_metrics(MetricSet& out) override {
    const LayerTotals& plain = tracer().layer("runtime.offload_plain");
    const LayerTotals& ver = tracer().layer("runtime.offload_verified");
    const double n = static_cast<double>(offloads_);
    const double events = static_cast<double>(events_);
    const auto allocs = static_cast<double>(plain.allocs_total +
                                            ver.allocs_total);
    out.set("runtime.offload_us", (plain.total_s + ver.total_s) / n * 1e6,
            "us");
    out.set("runtime.ns_per_event",
            (plain.total_s + ver.total_s) / events * 1e9, "ns");
    out.set("runtime.events_per_op", events / n, "count");
    out.set("runtime.chunks_per_op", static_cast<double>(chunks_) / n,
            "count");
    out.set("runtime.allocs_per_op", allocs / n, "count");
    out.set("runtime.allocs_per_event", allocs / events, "count");
    out.set("runtime.offload_plain_us",
            mean_span_s("runtime.offload_plain") * 1e6, "us");
    out.set("runtime.offload_verified_us",
            mean_span_s("runtime.offload_verified") * 1e6, "us");
    out.set("kernels.init_ms", mean_span_s("kernels.init") * 1e3, "ms");
    out.set("checksum.checks_per_op",
            static_cast<double>(checks_) / static_cast<double>(verified_ops_),
            "count");

    // Kernel bodies over the full arrays through checked views.
    double body_bytes = 0.0, body_s = 0.0;
    for (auto& c : cases_) {
      c.kc->init();
      const double t0 = now_s();
      {
        Span s("kernels.body");
        run_serial(c);
      }
      body_s += now_s() - t0;
      body_bytes += c.kernel.cost.mem_bytes_per_iter *
                    static_cast<double>(c.kernel.iterations.size());
    }
    out.set("kernels.body_gb_s", body_bytes / body_s / 1e9, "GB/s");

    // DeviceMapping copy-in/out of every mapped array, next to a plain
    // memcpy and a mix64 checksum of the same bytes.
    double copy_s = 0.0, memcpy_s = 0.0, sum_s = 0.0, bytes = 0.0;
    for (const auto& c : cases_) {
      for (const auto& m : c.maps) {
        if (m.binding.elem_size != sizeof(double)) continue;
        mem::DeviceMapping dm(m, m.region, m.region, /*shared=*/false,
                              /*materialize=*/true);
        const bool in = mem::copies_in(m.dir), out_dir = mem::copies_out(m.dir);
        const auto len = static_cast<std::size_t>(m.region_bytes());
        double t0 = now_s();
        {
          Span s("memory.copy");
          if (in) dm.copy_in();
          if (out_dir) dm.copy_out();
        }
        copy_s += now_s() - t0;
        bytes += dm.bytes_in() + dm.bytes_out();
        double* dev = dm.view<double>().local_data();
        t0 = now_s();
        {
          Span s("host.memcpy");
          if (in) std::memcpy(dev, m.binding.base, len);
          if (out_dir) std::memcpy(m.binding.base, dev, len);
        }
        memcpy_s += now_s() - t0;
        t0 = now_s();
        {
          Span s("checksum");
          if (in) (void)checksum_bytes(ChecksumKind::kMix64, dev, len);
          if (out_dir) {
            (void)checksum_bytes(ChecksumKind::kMix64, m.binding.base, len);
          }
        }
        sum_s += now_s() - t0;
      }
    }
    out.set("memory.copy_gb_s", bytes / copy_s / 1e9, "GB/s");
    out.set("host.memcpy_gb_s", bytes / memcpy_s / 1e9, "GB/s");
    out.set("checksum.gb_s", bytes / sum_s / 1e9, "GB/s");
  }

 private:
  rt::OffloadOptions options(bool verified, std::uint64_t op) const {
    rt::OffloadOptions o;
    o.device_ids = runtime_->accelerators();
    o.sched.kind = sched::AlgorithmKind::kDynamic;
    o.execute_bodies = true;
    o.noise_seed = hash_mix(cfg_.seed, op);
    o.integrity.always = verified;
    return o;
  }

  RunConfig cfg_;
  std::size_t l3_ = 0;
  long long large_ = 0;
  std::unique_ptr<rt::Runtime> runtime_;
  std::vector<Case> cases_;
  double payload_ = 0.0;
  std::vector<double> virtual_s_;
  // Traced-cycle counts.
  std::uint64_t events_ = 0;
  std::uint64_t chunks_ = 0;
  std::uint64_t offloads_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t verified_ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_data_path(const RunConfig& cfg) {
  return std::make_unique<DataPath>(cfg);
}

}  // namespace perfbench
