#include "fuzz/serve_scenario.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/checksum.h"
#include "common/error.h"
#include "common/prng.h"
#include "common/strings.h"
#include "fuzz/scenario.h"
#include "sched/algorithm.h"

namespace homp::fuzz {

namespace {

long long irange(Prng& rng, long long lo, long long hi) {
  return lo + static_cast<long long>(
                  rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

/// Rates as multiples of 0.0005 — small enough to stay transient-heavy,
/// exactly representable, never >= 1.
double rate(Prng& rng, double cap) {
  const auto steps = static_cast<std::uint64_t>(cap / 0.0005);
  if (steps == 0) return 0.0;
  return 0.0005 * static_cast<double>(rng.below(steps + 1));
}

/// The algorithm families serve scenarios draw from. kHistoryAuto is
/// excluded: it needs a primed ThroughputHistory the server does not
/// carry.
const sched::AlgorithmKind kServeAlgorithms[] = {
    sched::AlgorithmKind::kBlock,
    sched::AlgorithmKind::kDynamic,
    sched::AlgorithmKind::kGuided,
    sched::AlgorithmKind::kModel1Auto,
    sched::AlgorithmKind::kModel2Auto,
    sched::AlgorithmKind::kSchedProfileAuto,
    sched::AlgorithmKind::kModelProfileAuto,
    sched::AlgorithmKind::kCyclic,
    sched::AlgorithmKind::kWorkStealing,
};
constexpr int kNumServeAlgorithms = 9;

const char* kServeKernels[6] = {"axpy",      "matvec", "matmul",
                                "stencil2d", "sum",    "bm2d"};

/// Per-tenant fault shape: most tenants are clean; a band is flaky
/// (transient rates the retry/quarantine machinery absorbs); one band is
/// "molasses" — a near-certain heavy slowdown the admission predictor
/// cannot see, so admitted deadlines get missed mid-run and the server
/// must cancel (the kCancelled driver); one band is toxic enough to
/// force terminal kFail records (the containment and breaker driver);
/// one is "poison" — every job deterministically loses all granted
/// devices shortly after dispatch.
sim::FaultProfile draw_tenant_fault(Prng& rng) {
  sim::FaultProfile f;
  const auto band = rng.below(10);
  if (band < 4) return f;  // clean
  if (band < 7) {          // flaky but recoverable
    f.transfer_fault_rate = rate(rng, 0.04);
    f.launch_fault_rate = rate(rng, 0.04);
    f.slowdown_rate = rate(rng, 0.08);
    f.slowdown_factor = 1.0 + 0.25 * static_cast<double>(irange(rng, 4, 16));
    f.hang_rate = rate(rng, 0.01);  // the base options always arm the watchdog
    return f;
  }
  if (band == 7) {  // molasses: admission-invisible 16-64x chunk slowdown
    // Rates must stay below 1 (FaultProfile::validate); clamping keeps
    // the draw, so every other generated value is unchanged.
    f.slowdown_rate =
        std::min(0.999, 0.9 + 0.001 * static_cast<double>(rng.below(101)));
    f.slowdown_factor = static_cast<double>(1LL << irange(rng, 4, 6));
    return f;
  }
  if (band == 8) {  // corruption-heavy: integrity voting exhausts attempts
    f.corrupt_compute_rate =
        0.25 + 0.0005 * static_cast<double>(rng.below(501));
    return f;
  }
  // poison: all granted devices die this long after the job starts
  f.fail_at_s = 1e-4 * static_cast<double>(irange(rng, 1, 40));
  return f;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

serve::PriorityClass parse_priority(const std::string& s, int line) {
  if (iequals(s, "gold")) return serve::PriorityClass::kGold;
  if (iequals(s, "silver")) return serve::PriorityClass::kSilver;
  if (iequals(s, "bronze")) return serve::PriorityClass::kBronze;
  throw ConfigError("serve scenario line " + std::to_string(line) +
                    ": unknown priority '" + s + "'");
}

serve::BackpressureMode parse_backpressure(const std::string& s, int line) {
  if (iequals(s, "reject")) return serve::BackpressureMode::kReject;
  if (iequals(s, "block")) return serve::BackpressureMode::kBlock;
  throw ConfigError("serve scenario line " + std::to_string(line) +
                    ": unknown backpressure '" + s + "'");
}

}  // namespace

ServeScenarioSpec generate_serve_scenario(std::uint64_t seed,
                                          const ServeGeneratorLimits& limits) {
  HOMP_REQUIRE(limits.max_devices >= 2 && limits.max_tenants >= 1 &&
                   limits.max_jobs >= 1,
               "serve fuzz generator needs a host+accelerator machine, one "
               "tenant and one job");

  // The single-offload generator already synthesizes valid, text-exact
  // machines; borrow its topology (device fault rates included — the
  // serve base options always arm watchdog + integrity, so every rate
  // kind is containable).
  GeneratorLimits mach_limits;
  mach_limits.max_devices = limits.max_devices;
  mach_limits.allow_faults = limits.allow_faults;
  ServeScenarioSpec s;
  s.seed = seed;
  s.machine = generate_scenario(seed, mach_limits).machine;
  s.machine.name = "serve-fuzz-" + std::to_string(seed);
  const int n_accel = static_cast<int>(s.machine.devices.size()) - 1;

  Prng rng(mix64(seed ^ 0x5e12ef0cc5ULL));

  // --- server knobs ---
  serve::ServeOptions& o = s.options;
  o.seed = mix64(seed * 9 + 5) | 1;
  const double mem_choices[4] = {8e9, 1e6, 1e5, 2e4};
  o.device_mem_bytes = mem_choices[rng.below(4)];
  o.max_devices_per_job =
      rng.below(4) == 0 ? static_cast<int>(irange(rng, 1, n_accel)) : 0;
  o.shed_l1_depth = static_cast<std::size_t>(irange(rng, 2, 8));
  o.shed_l2_depth = o.shed_l1_depth + static_cast<std::size_t>(irange(rng, 0, 6));
  o.shed_l3_depth = o.shed_l2_depth + static_cast<std::size_t>(irange(rng, 0, 6));
  o.breaker_threshold = static_cast<int>(rng.below(4));  // 0 = disabled
  o.breaker_cooldown_base_s = 5e-4 * static_cast<double>(irange(rng, 1, 100));
  o.breaker_cooldown_growth = 2.0;
  o.breaker_cooldown_cap_s =
      o.breaker_cooldown_base_s * static_cast<double>(1LL << irange(rng, 2, 6));
  o.materialize = rng.below(2) == 0;
  // Watchdog + integrity stay armed (base defaults) so hangs and
  // corruption are always containable; the per-job step budget converts
  // any livelock into a terminal kStepBudget record instead of a stuck
  // drain.
  o.base.harness.step_budget = 300000;

  // --- tenant roster ---
  const int n_tenants = static_cast<int>(irange(rng, 1, limits.max_tenants));
  for (int t = 0; t < n_tenants; ++t) {
    serve::TenantSpec ts;
    ts.name = "t" + std::to_string(t);
    ts.priority = static_cast<serve::PriorityClass>(rng.below(3));
    ts.weight = 0.5 * static_cast<double>(irange(rng, 1, 6));
    ts.backpressure = rng.below(2) == 0 ? serve::BackpressureMode::kReject
                                        : serve::BackpressureMode::kBlock;
    ts.max_queue_depth = static_cast<std::size_t>(irange(rng, 1, 6));
    if (limits.allow_faults) ts.fault = draw_tenant_fault(rng);
    s.tenants.push_back(std::move(ts));
  }

  // --- timed job list ---
  // Deadlines are drawn as multiples of the server's own MODEL_2
  // prediction (a throwaway server provides it): tight multiples get
  // rejected at admission, middling ones are admitted and then missed
  // whenever tenant faults inflate the actual runtime — the kCancelled
  // driver — and generous ones are met.
  serve::OffloadServer predictor(s.machine, s.tenants, s.options);
  const int n_jobs = static_cast<int>(
      irange(rng, std::min<long long>(3, limits.max_jobs), limits.max_jobs));
  for (int j = 0; j < n_jobs; ++j) {
    ServeJobEntry e;
    e.tenant = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_tenants)));
    e.at_s = 1e-3 * static_cast<double>(irange(rng, 0, 400));
    e.job.kernel = kServeKernels[rng.below(6)];
    long long cap = limits.max_trip;
    if (e.job.kernel == "matmul" || e.job.kernel == "stencil2d") {
      cap = std::min<long long>(cap, 64);
    } else if (e.job.kernel == "bm2d") {
      cap = std::min<long long>(cap, 96);
    } else if (e.job.kernel == "matvec") {
      cap = std::min<long long>(cap, 256);
    }
    e.job.n = quantize_trip(e.job.kernel,
                            irange(rng, min_trip(e.job.kernel), cap));
    e.job.devices = static_cast<int>(irange(rng, 1, n_accel));
    if (rng.below(3) == 0) {
      const double predicted = predictor.predicted_job_seconds(
          e.job.kernel, e.job.n, e.job.devices);
      const double mult = 1.2 * static_cast<double>(1LL << rng.below(6)) *
                          (1.0 + 0.1 * static_cast<double>(rng.below(10)));
      e.job.deadline_s = std::max(1e-9, mult * predicted);
    }
    e.job.algorithm = kServeAlgorithms[rng.below(kNumServeAlgorithms)];
    s.jobs.push_back(e);
  }

  s.machine.validate();
  return s;
}

std::string serve_to_toml(const ServeScenarioSpec& s,
                          const std::string& machine_file,
                          const std::string& invariant) {
  std::ostringstream os;
  os << "# homp-fuzz serve scenario (docs/FUZZING.md); replay with\n"
        "#   homp-fuzz --replay <this file>\n";
  os << "[serve]\n";
  os << "seed = " << s.seed << "\n";
  if (!machine_file.empty()) os << "machine_file = " << machine_file << "\n";
  if (!invariant.empty()) os << "invariant = " << invariant << "\n";
  os << "serve_seed = " << s.options.seed << "\n";
  os << "device_mem_bytes = " << fmt_double(s.options.device_mem_bytes) << "\n";
  os << "max_devices_per_job = " << s.options.max_devices_per_job << "\n";
  os << "shed_l1_depth = " << s.options.shed_l1_depth << "\n";
  os << "shed_l2_depth = " << s.options.shed_l2_depth << "\n";
  os << "shed_l3_depth = " << s.options.shed_l3_depth << "\n";
  os << "shed_hysteresis = " << fmt_double(s.options.shed_hysteresis) << "\n";
  os << "shed_l2_device_cap = " << s.options.shed_l2_device_cap << "\n";
  os << "floor_fraction = " << fmt_double(s.options.floor_fraction) << "\n";
  os << "breaker_threshold = " << s.options.breaker_threshold << "\n";
  os << "breaker_cooldown_base_s = "
     << fmt_double(s.options.breaker_cooldown_base_s) << "\n";
  os << "breaker_cooldown_growth = "
     << fmt_double(s.options.breaker_cooldown_growth) << "\n";
  os << "breaker_cooldown_cap_s = "
     << fmt_double(s.options.breaker_cooldown_cap_s) << "\n";
  os << "materialize = " << (s.options.materialize ? "true" : "false") << "\n";
  os << "step_budget = " << s.options.base.harness.step_budget << "\n";
  // Only when set: canonical-order repro files stay byte-identical.
  if (s.reverse_ties) os << "reverse_ties = true\n";

  for (std::size_t t = 0; t < s.tenants.size(); ++t) {
    const auto& ts = s.tenants[t];
    os << "\n[tenant." << t << "]\n";
    os << "name = " << ts.name << "\n";
    os << "priority = " << serve::to_string(ts.priority) << "\n";
    os << "weight = " << fmt_double(ts.weight) << "\n";
    os << "backpressure = " << serve::to_string(ts.backpressure) << "\n";
    os << "max_queue_depth = " << ts.max_queue_depth << "\n";
    const auto& f = ts.fault;
    os << "transfer_fault_rate = " << fmt_double(f.transfer_fault_rate) << "\n";
    os << "launch_fault_rate = " << fmt_double(f.launch_fault_rate) << "\n";
    os << "slowdown_rate = " << fmt_double(f.slowdown_rate) << "\n";
    os << "slowdown_factor = " << fmt_double(f.slowdown_factor) << "\n";
    os << "hang_rate = " << fmt_double(f.hang_rate) << "\n";
    os << "degrade_rate = " << fmt_double(f.degrade_rate) << "\n";
    os << "degrade_factor = " << fmt_double(f.degrade_factor) << "\n";
    os << "corrupt_transfer_rate = " << fmt_double(f.corrupt_transfer_rate)
       << "\n";
    os << "corrupt_compute_rate = " << fmt_double(f.corrupt_compute_rate)
       << "\n";
    os << "fail_at_s = " << fmt_double(f.fail_at_s) << "\n";
  }

  for (std::size_t j = 0; j < s.jobs.size(); ++j) {
    const auto& e = s.jobs[j];
    os << "\n[job." << j << "]\n";
    os << "tenant = " << e.tenant << "\n";
    os << "at_s = " << fmt_double(e.at_s) << "\n";
    os << "kernel = " << e.job.kernel << "\n";
    os << "n = " << e.job.n << "\n";
    os << "devices = " << e.job.devices << "\n";
    os << "deadline_s = " << fmt_double(e.job.deadline_s) << "\n";
    os << "algorithm = " << sched::to_string(e.job.algorithm) << "\n";
  }
  return os.str();
}

bool is_serve_scenario(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string t(trim(line));
    if (t == "[serve]") return true;
    if (!t.empty() && t.front() == '[') return false;  // first section wins
  }
  return false;
}

ParsedServeScenario parse_serve_scenario(const std::string& text) {
  ParsedServeScenario out;
  ServeScenarioSpec& s = out.scenario;

  std::istringstream in(text);
  std::string line;
  std::string section;
  serve::TenantSpec* tenant = nullptr;
  ServeJobEntry* job = nullptr;
  int lineno = 0;
  bool saw_serve = false;
  auto bad = [&](const std::string& why) {
    throw ConfigError("serve scenario line " + std::to_string(lineno) + ": " +
                      why);
  };

  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string t(trim(line));
    if (t.empty()) continue;
    if (t.front() == '[') {
      if (t.back() != ']') bad("unterminated section header");
      section = t.substr(1, t.size() - 2);
      tenant = nullptr;
      job = nullptr;
      if (section == "serve") {
        saw_serve = true;
      } else if (starts_with(section, "tenant.")) {
        s.tenants.emplace_back();
        tenant = &s.tenants.back();
      } else if (starts_with(section, "job.")) {
        s.jobs.emplace_back();
        job = &s.jobs.back();
      } else {
        bad("unknown section [" + section + "]");
      }
      continue;
    }
    const auto eq = t.find('=');
    if (eq == std::string::npos) bad("expected key = value");
    const std::string key(trim(t.substr(0, eq)));
    const std::string val(trim(t.substr(eq + 1)));
    if (key.empty() || val.empty()) bad("empty key or value");

    auto as_ll = [&]() -> long long {
      try {
        return std::stoll(val);
      } catch (...) {
        bad("'" + key + "' needs an integer, got '" + val + "'");
      }
      return 0;
    };
    auto as_u64 = [&]() -> std::uint64_t {
      try {
        return std::stoull(val);
      } catch (...) {
        bad("'" + key + "' needs an unsigned integer, got '" + val + "'");
      }
      return 0;
    };
    auto as_double = [&]() -> double {
      try {
        return std::stod(val);
      } catch (...) {
        bad("'" + key + "' needs a number, got '" + val + "'");
      }
      return 0.0;
    };
    auto as_bool = [&]() -> bool {
      if (iequals(val, "true")) return true;
      if (iequals(val, "false")) return false;
      bad("'" + key + "' needs true/false, got '" + val + "'");
      return false;
    };

    if (section == "serve") {
      auto& o = s.options;
      if (key == "seed") s.seed = as_u64();
      else if (key == "machine_file") out.machine_file = val;
      else if (key == "invariant") out.invariant = val;
      else if (key == "serve_seed") o.seed = as_u64();
      else if (key == "device_mem_bytes") o.device_mem_bytes = as_double();
      else if (key == "max_devices_per_job")
        o.max_devices_per_job = static_cast<int>(as_ll());
      else if (key == "shed_l1_depth")
        o.shed_l1_depth = static_cast<std::size_t>(as_ll());
      else if (key == "shed_l2_depth")
        o.shed_l2_depth = static_cast<std::size_t>(as_ll());
      else if (key == "shed_l3_depth")
        o.shed_l3_depth = static_cast<std::size_t>(as_ll());
      else if (key == "shed_hysteresis") o.shed_hysteresis = as_double();
      else if (key == "shed_l2_device_cap")
        o.shed_l2_device_cap = static_cast<int>(as_ll());
      else if (key == "floor_fraction") o.floor_fraction = as_double();
      else if (key == "breaker_threshold")
        o.breaker_threshold = static_cast<int>(as_ll());
      else if (key == "breaker_cooldown_base_s")
        o.breaker_cooldown_base_s = as_double();
      else if (key == "breaker_cooldown_growth")
        o.breaker_cooldown_growth = as_double();
      else if (key == "breaker_cooldown_cap_s")
        o.breaker_cooldown_cap_s = as_double();
      else if (key == "materialize") o.materialize = as_bool();
      else if (key == "step_budget") o.base.harness.step_budget = as_ll();
      else if (key == "reverse_ties") s.reverse_ties = as_bool();
      else bad("unknown [serve] key '" + key + "'");
    } else if (tenant != nullptr) {
      auto& f = tenant->fault;
      if (key == "name") tenant->name = val;
      else if (key == "priority") tenant->priority = parse_priority(val, lineno);
      else if (key == "weight") tenant->weight = as_double();
      else if (key == "backpressure")
        tenant->backpressure = parse_backpressure(val, lineno);
      else if (key == "max_queue_depth")
        tenant->max_queue_depth = static_cast<std::size_t>(as_ll());
      else if (key == "transfer_fault_rate") f.transfer_fault_rate = as_double();
      else if (key == "launch_fault_rate") f.launch_fault_rate = as_double();
      else if (key == "slowdown_rate") f.slowdown_rate = as_double();
      else if (key == "slowdown_factor") f.slowdown_factor = as_double();
      else if (key == "hang_rate") f.hang_rate = as_double();
      else if (key == "degrade_rate") f.degrade_rate = as_double();
      else if (key == "degrade_factor") f.degrade_factor = as_double();
      else if (key == "corrupt_transfer_rate")
        f.corrupt_transfer_rate = as_double();
      else if (key == "corrupt_compute_rate")
        f.corrupt_compute_rate = as_double();
      else if (key == "fail_at_s") f.fail_at_s = as_double();
      else bad("unknown [tenant] key '" + key + "'");
    } else if (job != nullptr) {
      if (key == "tenant") job->tenant = static_cast<int>(as_ll());
      else if (key == "at_s") job->at_s = as_double();
      else if (key == "kernel") job->job.kernel = val;
      else if (key == "n") job->job.n = as_ll();
      else if (key == "devices") job->job.devices = static_cast<int>(as_ll());
      else if (key == "deadline_s") job->job.deadline_s = as_double();
      else if (key == "algorithm")
        job->job.algorithm = sched::algorithm_from_string(val);
      else bad("unknown [job] key '" + key + "'");
    } else {
      bad("key '" + key + "' outside any section");
    }
  }
  if (!saw_serve) {
    throw ConfigError("serve scenario file has no [serve] section");
  }
  if (s.tenants.empty() || s.jobs.empty()) {
    throw ConfigError("serve scenario needs at least one tenant and one job");
  }
  for (const auto& e : s.jobs) {
    if (e.tenant < 0 || e.tenant >= static_cast<int>(s.tenants.size())) {
      throw ConfigError("serve scenario job references tenant " +
                        std::to_string(e.tenant) + " of " +
                        std::to_string(s.tenants.size()));
    }
  }
  return out;
}

}  // namespace homp::fuzz
