// End-to-end correctness: every kernel offloaded across a small simulated
// machine must produce results identical to its sequential reference —
// the data path (distribution, alignment, halo, copies) is real even
// though time is virtual.

#include <gtest/gtest.h>

#include <cmath>

#include "kernels/bm2d.h"
#include "kernels/case.h"
#include "kernels/sum.h"
#include "runtime/runtime.h"

namespace homp {
namespace {

long long small_size(const std::string& name) {
  if (name == "axpy") return 1000;
  if (name == "matvec") return 64;
  if (name == "matmul") return 48;
  if (name == "stencil2d") return 40;
  if (name == "sum") return 2000;
  if (name == "bm2d") return 64;  // 4x4 blocks
  ADD_FAILURE() << "unknown kernel " << name;
  return 16;
}

class KernelCorrectness : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelCorrectness, MatchesSequentialReferenceOnBlockSchedule) {
  const std::string name = GetParam();
  auto rt = rt::Runtime::from_builtin("gpu4");
  auto c = kern::make_case(name, small_size(name), /*materialize=*/true);
  c->init();

  rt::OffloadOptions o;
  o.device_ids = rt.all_devices();
  o.sched.kind = sched::AlgorithmKind::kBlock;
  auto maps = c->maps();
  auto kernel = c->kernel();
  auto res = rt.offload(kernel, maps, o);

  if (name == "sum") {
    dynamic_cast<kern::SumCase&>(*c).set_result(res.reduction);
  }
  std::string why;
  EXPECT_TRUE(c->verify(&why)) << why;
  EXPECT_GT(res.total_time, 0.0);
  EXPECT_EQ(res.total_iterations(), c->kernel().iterations.size());
}

TEST_P(KernelCorrectness, MatchesReferenceOnHostOnly) {
  const std::string name = GetParam();
  auto rt = rt::Runtime::from_builtin("host-only");
  auto c = kern::make_case(name, small_size(name), /*materialize=*/true);
  c->init();

  rt::OffloadOptions o;
  o.device_ids = {0};
  auto maps = c->maps();
  auto kernel = c->kernel();
  auto res = rt.offload(kernel, maps, o);

  if (name == "sum") {
    dynamic_cast<kern::SumCase&>(*c).set_result(res.reduction);
  }
  std::string why;
  EXPECT_TRUE(c->verify(&why)) << why;
  // Host is shared memory: nothing crosses an interconnect.
  EXPECT_EQ(res.devices[0].bytes_in, 0.0);
  EXPECT_EQ(res.devices[0].bytes_out, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelCorrectness,
                         ::testing::ValuesIn(kern::all_kernel_names()),
                         [](const auto& tpinfo) { return tpinfo.param; });

TEST(KernelCases, PaperProfilesMatchComputedCharacteristics) {
  // Table IV: our per-iteration accounting must reproduce the paper's
  // MemComp / DataComp within modelling tolerance.
  struct Row {
    const char* name;
    long long n;
    double mem_comp;
    double data_comp;
    double tol;
  };
  const Row rows[] = {
      {"axpy", 1 << 20, 1.5, 1.5, 0.01},
      {"matvec", 1024, 1.0 + 0.5 / 1024, 0.5 + 1.0 / 1024, 0.01},
      {"matmul", 1024, 1.5 / 1024, 1.5 / 1024, 0.01},
      {"stencil2d", 256, 0.5, 1.0 / 13.0, 0.12},
      {"sum", 1 << 20, 1.0, 1.0, 0.01},
  };
  for (const auto& r : rows) {
    auto c = kern::make_case(r.name, r.n, /*materialize=*/false);
    const auto k = c->kernel();
    EXPECT_NEAR(k.cost.mem_comp(), r.mem_comp, r.mem_comp * r.tol) << r.name;
    EXPECT_NEAR(k.cost.data_comp(), r.data_comp, r.data_comp * r.tol)
        << r.name;
  }
}

// --- Cached references -------------------------------------------------
// bm2d, matmul and matvec compute their expected output on the first
// verify() and reuse it. The fuzz oracle shares one case across every
// scheduling family, so a cached reference must still judge each run's
// output afresh.

double* host_array(const kern::KernelCase& c, const std::string& array) {
  for (const auto& m : c.maps()) {
    if (m.name == array) return static_cast<double*>(m.binding.base);
  }
  ADD_FAILURE() << c.name() << " maps no array " << array;
  return nullptr;
}

void run_on_host(kern::KernelCase& c) {
  auto rt = rt::Runtime::from_builtin("host-only");
  rt::OffloadOptions o;
  o.device_ids = {0};
  auto maps = c.maps();
  auto kernel = c.kernel();
  (void)rt.offload(kernel, maps, o);
}

struct CachedCase {
  const char* name;
  long long n;
  const char* output;        ///< output array name
  long long corrupt_at;      ///< flat index of the element corrupted
  const char* corrupt_why;   ///< verify()'s message for that corruption
};

void PrintTo(const CachedCase& p, std::ostream* os) { *os << p.name; }

class CachedReference : public ::testing::TestWithParam<CachedCase> {};

TEST_P(CachedReference, CorruptedElementFailsWithItsMessage) {
  const CachedCase& p = GetParam();
  auto c = kern::make_case(p.name, p.n, /*materialize=*/true);
  run_on_host(*c);
  std::string why;
  ASSERT_TRUE(c->verify(&why)) << why;  // fills the cache
  host_array(*c, p.output)[p.corrupt_at] = 12345.5;
  EXPECT_FALSE(c->verify(&why));
  EXPECT_EQ(why, p.corrupt_why);
}

TEST_P(CachedReference, RerunAfterInitVerifiesFromTheCache) {
  const CachedCase& p = GetParam();
  auto c = kern::make_case(p.name, p.n, /*materialize=*/true);
  run_on_host(*c);
  std::string why;
  ASSERT_TRUE(c->verify(&why)) << why;
  c->init();
  run_on_host(*c);
  EXPECT_TRUE(c->verify(&why)) << why;
}

TEST_P(CachedReference, InitWithoutRunFails) {
  // A previous run's correct output must not carry over: init() clears
  // the outputs, and the cached reference alone cannot pass them.
  const CachedCase& p = GetParam();
  auto c = kern::make_case(p.name, p.n, /*materialize=*/true);
  run_on_host(*c);
  std::string why;
  ASSERT_TRUE(c->verify(&why)) << why;
  c->init();
  EXPECT_FALSE(c->verify(&why));
  EXPECT_EQ(why.rfind(std::string(p.name) + ": ", 0), 0u) << why;
}

INSTANTIATE_TEST_SUITE_P(
    CachingKernels, CachedReference,
    ::testing::Values(
        CachedCase{"matmul", 48, "C", 3 * 48 + 5,
                   "matmul: C[3][5] = 12345.500000, expected 0.600000"},
        CachedCase{"matvec", 64, "y", 17,
                   "matvec: y[17] = 12345.500000, expected 2.591675"},
        // best holds (SAD, motion vector) pairs: block (2, 1) of 4x4.
        CachedCase{"bm2d", 64, "best", 2 * 8 + 2 * 1,
                   "bm2d: best[2][1] = 12345.500000, expected 342.000000"}),
    [](const auto& tpinfo) { return std::string(tpinfo.param.name); });

TEST(CachedReference, Bm2dMatchesBruteForceSearch) {
  // Fill the output with a brute-force search over the initialized host
  // frames and no offload: verify() compares exactly, so it passes only if
  // the cached expectation equals this search block for block.
  for (const long long n : {32LL, 48LL}) {
    kern::Bm2dCase c(n, /*materialize=*/true);
    const double* cur = host_array(c, "cur");
    const double* ref = host_array(c, "ref");
    double* best = host_array(c, "best");
    const long long blocks = c.blocks_per_side();
    const long long b = kern::Bm2dCase::kBlock;
    const long long w = kern::Bm2dCase::kSearch;
    for (long long bi = 0; bi < blocks; ++bi) {
      for (long long bj = 0; bj < blocks; ++bj) {
        double best_sad = 1e300;
        for (long long ri = bi * b - w; ri <= bi * b + w; ++ri) {
          for (long long rj = bj * b - w; rj <= bj * b + w; ++rj) {
            if (ri < 0 || rj < 0 || ri + b > n || rj + b > n) continue;
            double sad = 0.0;
            for (long long y = 0; y < b; ++y) {
              for (long long x = 0; x < b; ++x) {
                sad += std::abs(cur[(bi * b + y) * n + bj * b + x] -
                                ref[(ri + y) * n + rj + x]);
              }
            }
            if (sad < best_sad) best_sad = sad;
          }
        }
        best[bi * 2 * blocks + 2 * bj] = best_sad;
      }
    }
    std::string why;
    EXPECT_TRUE(c.verify(&why)) << "n=" << n << ": " << why;
  }
}

}  // namespace
}  // namespace homp
