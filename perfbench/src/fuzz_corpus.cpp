// fuzz-corpus: one op is one scenario — generate_scenario plus
// run_oracle, the calls run_fuzz makes — over a fixed corpus of scenario
// seeds. Many small materialized offloads run under faults, retry,
// watchdog, speculation and voting, so array setup/teardown, the
// resilience paths and the oracle carry the host time. --seed permutes
// the order the corpus runs in; the corpus itself is fixed so every run
// does the same work.

#include <cstdio>
#include <numeric>

#include "bench.h"
#include "fuzz/oracle.h"
#include "fuzz/scenario.h"

namespace perfbench {
namespace {

using namespace homp;

constexpr std::uint64_t kFirstSeed = 1;  ///< homp-fuzz --seed 1 --count 40
constexpr std::size_t kScenarios = 40;
constexpr std::uint64_t kWarmup = 4;

class FuzzCorpus final : public Workload {
 public:
  explicit FuzzCorpus(const RunConfig& cfg)
      : order_(kScenarios), digests_(kScenarios, 0) {
    std::iota(order_.begin(), order_.end(), 0);
    for (std::size_t i = kScenarios; i > 1; --i) {  // Fisher-Yates
      const std::size_t j = hash_mix(cfg.seed, i) % i;
      std::swap(order_[i - 1], order_[j]);
    }
  }

  void print_inputs() const override {
    std::printf("input scenario_seeds %llu..%llu\n",
                static_cast<unsigned long long>(kFirstSeed),
                static_cast<unsigned long long>(kFirstSeed + kScenarios - 1));
    std::printf("input ops_per_cycle %zu (scenarios)\n", kScenarios);
    std::printf("input first_in_order %llu\n",
                static_cast<unsigned long long>(kFirstSeed + order_[0]));
  }

  void setup() override {
    // Warm-up on the scenarios after the corpus.
    for (std::uint64_t s = 0; s < kWarmup; ++s) {
      (void)fuzz::run_oracle(
          fuzz::generate_scenario(kFirstSeed + kScenarios + s));
    }
  }

  void run_cycle(std::uint64_t index, CycleStats& stats) override {
    const bool traced_cycle = tracer().on();
    for (std::size_t i = 0; i < kScenarios; ++i) {
      const std::size_t s = order_[i];
      const std::uint64_t seed = kFirstSeed + s;
      fuzz::ScenarioSpec spec;
      fuzz::OracleReport rep;
      bool ran = false;
      const std::string what = "scenario " + std::to_string(seed);
      timed_op(stats, index * kScenarios + i, what.c_str(), [&] {
        {
          Span g("fuzz.generate");
          spec = fuzz::generate_scenario(seed);
        }
        Span o("fuzz.oracle");
        rep = fuzz::run_oracle(spec);
        ran = true;
      });
      if (!ran) continue;
      if (!rep.ok()) {
        const auto& v = rep.violations.front();
        stats.fail(what + ": " + v.invariant + " (" + v.algorithm +
                   "): " + v.detail);
      } else if (index == 0) {
        digests_[s] = rep.digest();
        for (const auto& r : rep.runs) {
          if (r.completed && r.total_time > 0.0) {
            virtual_ms_.push_back(r.total_time * 1e3);
          }
        }
      } else if (rep.digest() != digests_[s]) {
        stats.fail(what + ": oracle digest differs from the first pass");
      }
      if (traced_cycle) {
        ++scenarios_;
        offloads_ += rep.runs.size();
        for (const auto& r : rep.runs) {
          events_ += r.engine_events;
          chunks_ += r.chunks_issued;
        }
        // Outside the op: the repro-file round trip of the scenario.
        std::string toml;
        fuzz::ParsedScenario parsed;
        {
          Span t("fuzz.toml_roundtrip");
          toml = fuzz::to_toml(spec);
          parsed = fuzz::parse_scenario(toml);
        }
        if (fuzz::to_toml(parsed.scenario) != toml) {
          stats.fail(what + ": TOML round trip changed the scenario");
        }
      }
    }
  }

  void extra_metrics(MetricSet& out) const override {
    out.set("virtual_ms_geomean", geomean(virtual_ms_), "ms");
  }

  void layer_metrics(MetricSet& out) override {
    const double n = static_cast<double>(scenarios_);
    const double events = static_cast<double>(events_);
    const auto allocs =
        static_cast<double>(tracer().layer("fuzz.oracle").allocs_total);
    out.set("runtime.events_per_op", events / n, "count");
    out.set("runtime.chunks_per_op", static_cast<double>(chunks_) / n,
            "count");
    out.set("runtime.allocs_per_op", allocs / n, "count");
    out.set("runtime.allocs_per_event", allocs / events, "count");
    out.set("fuzz.generate_us", mean_span_s("fuzz.generate") * 1e6, "us");
    out.set("fuzz.oracle_ms", mean_span_s("fuzz.oracle") * 1e3, "ms");
    out.set("fuzz.offloads_per_scenario", static_cast<double>(offloads_) / n,
            "count");
    out.set("fuzz.toml_roundtrip_us",
            mean_span_s("fuzz.toml_roundtrip") * 1e6, "us");
  }

 private:
  std::vector<std::size_t> order_;
  std::vector<std::uint64_t> digests_;  ///< per scenario, first pass
  std::vector<double> virtual_ms_;
  // Traced-cycle counts.
  std::uint64_t scenarios_ = 0;
  std::uint64_t offloads_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t chunks_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz_corpus(const RunConfig& cfg) {
  return std::make_unique<FuzzCorpus>(cfg);
}

}  // namespace perfbench
