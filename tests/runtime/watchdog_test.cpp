// Watchdog, straggler mitigation, and probation re-admission
// (docs/RESILIENCE.md): hung chunks must be reclaimed through speculative
// re-execution bit-correctly, degraded devices must trip the tardiness
// circuit breaker, quarantined devices must be re-admitted through
// probation, and the whole machinery must stay deterministic per seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/error.h"
#include "kernels/axpy.h"
#include "kernels/case.h"
#include "kernels/sum.h"
#include "machine/profiles.h"
#include "runtime/runtime.h"

namespace homp {
namespace {

long long wd_size(const std::string& name) {
  if (name == "axpy") return 1000;
  if (name == "matvec") return 64;
  if (name == "matmul") return 48;
  if (name == "stencil2d") return 40;
  if (name == "sum") return 2000;
  if (name == "bm2d") return 64;
  ADD_FAILURE() << "unknown kernel " << name;
  return 16;
}

bool run_and_verify(rt::Runtime& rt, kern::KernelCase& c,
                    const rt::OffloadOptions& o, rt::OffloadResult* out,
                    std::string* why) {
  c.init();
  auto maps = c.maps();
  auto kernel = c.kernel();
  *out = rt.offload(kernel, maps, o);
  if (auto* sum = dynamic_cast<kern::SumCase*>(&c)) {
    sum->set_result(out->reduction);
  }
  return c.verify(why);
}

/// Deadlines bite at the microsecond scale of the testing machine only
/// with the production 50us floor lowered.
void tighten(rt::OffloadOptions& o) { o.watchdog.deadline_floor_s = 1e-8; }

bool has_action(const rt::OffloadResult& res, rt::RecoveryAction a) {
  return std::any_of(res.recovery_events.begin(), res.recovery_events.end(),
                     [a](const rt::RecoveryEvent& e) { return e.action == a; });
}

const sched::AlgorithmKind kWatchdogAlgorithms[] = {
    sched::AlgorithmKind::kBlock,
    sched::AlgorithmKind::kDynamic,
    sched::AlgorithmKind::kModel2Auto,
};

class Watchdog : public ::testing::TestWithParam<std::string> {};

TEST_P(Watchdog, HungChunkIsSpeculatedBitCorrectly) {
  const std::string name = GetParam();
  for (auto alg : kWatchdogAlgorithms) {
    rt::Runtime rt{mach::testing_machine(3)};
    auto c = kern::make_case(name, wd_size(name), /*materialize=*/true);

    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3};
    o.sched.kind = alg;
    tighten(o);
    sim::ScriptedFault hang;
    hang.device_id = 2;
    hang.kind = sim::FaultKind::kHang;
    hang.op = 0;  // the device's first compute never completes
    o.fault.scripted.push_back(hang);

    rt::OffloadResult res;
    std::string why;
    ASSERT_TRUE(run_and_verify(rt, *c, o, &res, &why))
        << name << "/" << sched::to_string(alg) << ": " << why;
    EXPECT_EQ(res.total_iterations(), c->kernel().iterations.size())
        << name << "/" << sched::to_string(alg);
    // The hang is injected and attributed to the hung device.
    ASSERT_FALSE(res.fault_events.empty()) << name;
    EXPECT_TRUE(std::any_of(
        res.fault_events.begin(), res.fault_events.end(),
        [](const rt::FaultEvent& f) {
          return f.kind == sim::FaultKind::kHang && f.device_id == 2;
        }));
    // The soft deadline fired and the chunk was duplicated elsewhere.
    EXPECT_TRUE(has_action(res, rt::RecoveryAction::kWatchdogFired))
        << name << "/" << sched::to_string(alg);
    EXPECT_TRUE(has_action(res, rt::RecoveryAction::kSpeculated))
        << name << "/" << sched::to_string(alg);
    const auto& hung = res.devices[1];  // slot order follows device_ids
    EXPECT_GE(hung.tardy_chunks, 1u);
    std::size_t spec_run = 0, spec_won = 0;
    for (const auto& d : res.devices) {
      spec_run += d.spec_copies_run;
      spec_won += d.spec_copies_won;
    }
    EXPECT_GE(spec_run, 1u) << name << "/" << sched::to_string(alg);
    EXPECT_GE(spec_won, 1u) << name << "/" << sched::to_string(alg);
    EXPECT_TRUE(res.degraded);
  }
}

TEST_P(Watchdog, DegradedStragglerTripsTheCircuitBreaker) {
  const std::string name = GetParam();
  rt::Runtime rt{mach::testing_machine(3)};
  auto c = kern::make_case(name, wd_size(name), /*materialize=*/true);

  rt::OffloadOptions o;
  o.device_ids = {1, 2, 3};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  tighten(o);
  // Keep the probation machinery out of the timing question here: the
  // degrade factor is latched, so probes would just re-quarantine.
  o.watchdog.probation = false;
  sim::ScriptedFault deg;
  deg.device_id = 2;
  deg.kind = sim::FaultKind::kDegrade;
  deg.op = 0;
  deg.factor = 64.0;  // way past the 4x soft deadline
  o.fault.scripted.push_back(deg);

  rt::OffloadResult res;
  std::string why;
  ASSERT_TRUE(run_and_verify(rt, *c, o, &res, &why)) << name << ": " << why;
  EXPECT_EQ(res.total_iterations(), c->kernel().iterations.size());
  const auto& straggler = res.devices[1];
  EXPECT_GE(straggler.tardy_chunks, 1u) << name;
  EXPECT_GE(straggler.quarantine_count, 1u)
      << name << ": repeated tardiness must quarantine";
  EXPECT_TRUE(has_action(res, rt::RecoveryAction::kWatchdogFired)) << name;
  EXPECT_TRUE(res.degraded);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, Watchdog,
                         ::testing::ValuesIn(kern::all_kernel_names()),
                         [](const auto& tpinfo) { return tpinfo.param; });

TEST(Watchdog, HangOnOnlyDeviceThrowsOffloadError) {
  rt::Runtime rt{mach::testing_machine(1)};
  kern::AxpyCase c(1000, /*materialize=*/true);

  rt::OffloadOptions o;
  o.device_ids = {1};
  tighten(o);
  sim::ScriptedFault hang;
  hang.device_id = 1;
  hang.kind = sim::FaultKind::kHang;
  hang.op = 0;
  o.fault.scripted.push_back(hang);

  auto maps = c.maps();
  auto kernel = c.kernel();
  // The hard deadline quarantines the sole device: no survivors.
  EXPECT_THROW(rt.offload(kernel, maps, o), OffloadError);
}

TEST(Watchdog, SpeculationKeepsHangSlowdownBounded) {
  // ISSUE acceptance: a mid-run hang under SCHED_DYNAMIC must finish in
  // under 2x the fault-free time thanks to speculative re-execution.
  auto run_once = [](bool with_hang) {
    rt::Runtime rt{mach::testing_machine(3)};
    kern::AxpyCase c(30000, /*materialize=*/true);
    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3};
    o.sched.kind = sched::AlgorithmKind::kDynamic;
    tighten(o);
    if (with_hang) {
      sim::ScriptedFault hang;
      hang.device_id = 3;
      hang.kind = sim::FaultKind::kHang;
      hang.op = 4;  // mid-run
      o.fault.scripted.push_back(hang);
    }
    auto maps = c.maps();
    auto kernel = c.kernel();
    auto res = rt.offload(kernel, maps, o);
    std::string why;
    EXPECT_TRUE(c.verify(&why)) << why;
    return res.total_time;
  };
  const double clean = run_once(false);
  const double hung = run_once(true);
  ASSERT_GT(clean, 0.0);
  EXPECT_LT(hung, 2.0 * clean)
      << "speculation must cap the hang penalty below 2x";
}

TEST(Watchdog, CorruptedSpeculativeCopyIsDiscardedBitCorrectly) {
  // Device 2 hangs on its first chunk, which is speculated onto the
  // survivors; device 1 corrupts the kernel result of the copy it runs.
  // The corrupted copy of the speculated chunk is discarded before
  // commit and hands its integrity state to the chunk's other copies.
  struct Case {
    sched::AlgorithmKind alg;
    long long corrupt_op;  // device 1's compute op running the duplicate
  };
  const Case cases[] = {{sched::AlgorithmKind::kBlock, 1},
                        {sched::AlgorithmKind::kDynamic, 2}};
  for (const Case& k : cases) {
    rt::Runtime rt{mach::testing_machine(3)};
    kern::AxpyCase c(1000, /*materialize=*/true);
    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3};
    o.sched.kind = k.alg;
    tighten(o);
    sim::ScriptedFault hang;
    hang.device_id = 2;
    hang.kind = sim::FaultKind::kHang;
    hang.op = 0;
    sim::ScriptedFault corrupt;
    corrupt.device_id = 1;
    corrupt.kind = sim::FaultKind::kCorruptCompute;
    corrupt.op = k.corrupt_op;
    o.fault.scripted = {hang, corrupt};

    rt::OffloadResult res;
    std::string why;
    ASSERT_TRUE(run_and_verify(rt, c, o, &res, &why))
        << sched::to_string(k.alg) << ": " << why;
    EXPECT_EQ(res.total_iterations(), 1000) << sched::to_string(k.alg);
    // The mismatch struck a copy of the speculated chunk.
    std::string speculated;
    for (const auto& e : res.recovery_events) {
      if (e.action == rt::RecoveryAction::kSpeculated) {
        speculated = e.detail.substr(0, e.detail.find(' '));
      }
    }
    ASSERT_FALSE(speculated.empty()) << sched::to_string(k.alg);
    EXPECT_TRUE(std::any_of(
        res.recovery_events.begin(), res.recovery_events.end(),
        [&](const rt::RecoveryEvent& e) {
          return e.action == rt::RecoveryAction::kCorruptionDetected &&
                 e.device_id == 1 && e.detail.rfind(speculated + " ", 0) == 0;
        }))
        << sched::to_string(k.alg);
  }
}

TEST(Watchdog, ProbationReadmitsAfterTransientBurst) {
  // ISSUE acceptance: a device quarantined by a transient burst is
  // re-admitted via probation and contributes iterations again within the
  // same offload.
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(20000, /*materialize=*/true);

  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  tighten(o);
  o.fault.max_retries = 2;
  o.fault.backoff_base_s = 1e-7;  // exhaust the budget quickly
  o.fault.backoff_cap_s = 1e-6;
  o.watchdog.cooldown_base_s = 1e-6;  // ... and re-admit mid-offload
  // Attempts 1..3 (ops 0..2) of device 2's first transfer fail; every
  // transfer after re-admission succeeds.
  for (long long op = 0; op < 3; ++op) {
    sim::ScriptedFault f;
    f.device_id = 2;
    f.kind = sim::FaultKind::kTransfer;
    f.op = op;
    o.fault.scripted.push_back(f);
  }

  auto maps = c.maps();
  auto kernel = c.kernel();
  c.init();
  auto res = rt.offload(kernel, maps, o);

  std::string why;
  EXPECT_TRUE(c.verify(&why)) << why;
  EXPECT_EQ(res.total_iterations(), 20000);
  const auto& healed = res.devices[1];
  EXPECT_GE(healed.quarantine_count, 1u);
  EXPECT_GE(healed.readmissions, 1u);
  EXPECT_GE(healed.probe_chunks, 1u);
  EXPECT_GT(healed.iterations, 0) << "re-admitted device must contribute";
  EXPECT_FALSE(healed.quarantined) << "healed, not quarantined, at the end";
  EXPECT_TRUE(has_action(res, rt::RecoveryAction::kReadmitted));
  EXPECT_TRUE(has_action(res, rt::RecoveryAction::kProbePassed));
  EXPECT_TRUE(has_action(res, rt::RecoveryAction::kPromoted));
  // A healed device still marks the run degraded: results are exact but
  // the timing was perturbed by the quarantine episode.
  EXPECT_TRUE(res.degraded);
}

TEST(Watchdog, ProbationDisabledKeepsQuarantinePermanent) {
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(20000, /*materialize=*/true);

  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  tighten(o);
  o.watchdog.probation = false;
  o.fault.max_retries = 2;
  o.fault.backoff_base_s = 1e-7;
  o.fault.backoff_cap_s = 1e-6;
  for (long long op = 0; op < 3; ++op) {
    sim::ScriptedFault f;
    f.device_id = 2;
    f.kind = sim::FaultKind::kTransfer;
    f.op = op;
    o.fault.scripted.push_back(f);
  }

  auto maps = c.maps();
  auto kernel = c.kernel();
  c.init();
  auto res = rt.offload(kernel, maps, o);
  std::string why;
  EXPECT_TRUE(c.verify(&why)) << why;
  const auto& lost = res.devices[1];
  EXPECT_TRUE(lost.quarantined);
  EXPECT_EQ(lost.readmissions, 0u);
  EXPECT_FALSE(has_action(res, rt::RecoveryAction::kReadmitted));
  EXPECT_EQ(res.devices[0].iterations, 20000);
}

TEST(Watchdog, IdenticalSeedAndPlanGiveIdenticalResults) {
  // The whole watchdog/speculation/probation machinery runs in virtual
  // time off the per-device fault streams: same seed + plan => identical
  // OffloadResult, timestamps included.
  for (auto alg : kWatchdogAlgorithms) {
    auto run_once = [alg]() {
      rt::Runtime rt{mach::testing_machine(3)};
      kern::AxpyCase c(5000, /*materialize=*/true);
      rt::OffloadOptions o;
      o.device_ids = {1, 2, 3};
      o.sched.kind = alg;
      tighten(o);
      o.watchdog.cooldown_base_s = 1e-6;
      o.fault.seed = 77;
      o.fault.extra.hang_rate = 0.05;
      o.fault.extra.degrade_rate = 0.05;
      o.fault.extra.degrade_factor = 16.0;
      o.fault.extra.transfer_fault_rate = 0.05;
      auto maps = c.maps();
      auto kernel = c.kernel();
      return rt.offload(kernel, maps, o);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.total_time, b.total_time) << sched::to_string(alg);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.reduction, b.reduction);
    ASSERT_EQ(a.fault_events.size(), b.fault_events.size())
        << sched::to_string(alg);
    for (std::size_t i = 0; i < a.fault_events.size(); ++i) {
      EXPECT_EQ(a.fault_events[i].time, b.fault_events[i].time);
      EXPECT_EQ(a.fault_events[i].device_id, b.fault_events[i].device_id);
      EXPECT_EQ(a.fault_events[i].kind, b.fault_events[i].kind);
    }
    ASSERT_EQ(a.recovery_events.size(), b.recovery_events.size())
        << sched::to_string(alg);
    for (std::size_t i = 0; i < a.recovery_events.size(); ++i) {
      EXPECT_EQ(a.recovery_events[i].time, b.recovery_events[i].time);
      EXPECT_EQ(a.recovery_events[i].slot, b.recovery_events[i].slot);
      EXPECT_EQ(a.recovery_events[i].action, b.recovery_events[i].action);
    }
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
      EXPECT_EQ(a.devices[i].iterations, b.devices[i].iterations);
      EXPECT_EQ(a.devices[i].tardy_chunks, b.devices[i].tardy_chunks);
      EXPECT_EQ(a.devices[i].spec_copies_run, b.devices[i].spec_copies_run);
      EXPECT_EQ(a.devices[i].spec_copies_won, b.devices[i].spec_copies_won);
      EXPECT_EQ(a.devices[i].probe_chunks, b.devices[i].probe_chunks);
      EXPECT_EQ(a.devices[i].readmissions, b.devices[i].readmissions);
      EXPECT_EQ(a.devices[i].quarantine_count,
                b.devices[i].quarantine_count);
      EXPECT_EQ(a.devices[i].finish_time, b.devices[i].finish_time);
    }
  }
}

TEST(Watchdog, FaultFreeRunIsUntouchedByWatchdogOptions) {
  // With no faults the watchdog never arms: toggling it (or tightening
  // its deadlines) must not perturb the simulation at all.
  auto run_once = [](bool watchdog_on, double floor_s) {
    rt::Runtime rt{mach::testing_machine(2)};
    kern::AxpyCase c(1500, /*materialize=*/true);
    rt::OffloadOptions o;
    o.device_ids = {1, 2};
    o.sched.kind = sched::AlgorithmKind::kDynamic;
    o.watchdog.enabled = watchdog_on;
    o.watchdog.deadline_floor_s = floor_s;
    auto maps = c.maps();
    auto kernel = c.kernel();
    return rt.offload(kernel, maps, o);
  };
  const auto a = run_once(true, 50e-6);
  const auto b = run_once(false, 50e-6);
  const auto d = run_once(true, 1e-9);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.total_time, d.total_time);
  EXPECT_TRUE(a.recovery_events.empty());
  EXPECT_TRUE(d.recovery_events.empty());
  EXPECT_FALSE(a.degraded);
}

TEST(Watchdog, RejectsBadWatchdogOptions) {
  rt::Runtime rt{mach::testing_machine(1)};
  kern::AxpyCase c(100, /*materialize=*/true);
  auto maps = c.maps();
  auto kernel = c.kernel();
  auto try_opts = [&](auto mutate) {
    rt::OffloadOptions o;
    o.device_ids = {1};
    o.fault.extra.hang_rate = 0.01;  // arm the fault machinery
    mutate(o);
    EXPECT_THROW(rt.offload(kernel, maps, o), ConfigError);
  };
  try_opts([](rt::OffloadOptions& o) { o.watchdog.deadline_multiplier = 0.0; });
  try_opts([](rt::OffloadOptions& o) { o.watchdog.deadline_floor_s = -1.0; });
  try_opts([](rt::OffloadOptions& o) { o.watchdog.hard_kill_multiplier = 0.9; });
  try_opts([](rt::OffloadOptions& o) { o.watchdog.tardy_quarantine_threshold = -1; });
  try_opts([](rt::OffloadOptions& o) { o.watchdog.cooldown_base_s = -1.0; });
  try_opts([](rt::OffloadOptions& o) { o.watchdog.cooldown_growth = 0.5; });
  try_opts([](rt::OffloadOptions& o) { o.watchdog.cooldown_cap_s = 1e-9; });
  try_opts([](rt::OffloadOptions& o) { o.watchdog.probe_iterations = -5; });
  try_opts([](rt::OffloadOptions& o) { o.watchdog.probation_successes = 0; });
}

}  // namespace
}  // namespace homp
