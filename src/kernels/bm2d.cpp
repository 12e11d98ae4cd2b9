#include "kernels/bm2d.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace homp::kern {

namespace {
double cur_init(long long i, long long j) {
  return static_cast<double>((i * 13 + j * 7) % 251);
}
double ref_init(long long i, long long j) {
  // A shifted-and-perturbed copy of the current frame so the best match
  // is non-trivial but well defined.
  return static_cast<double>(((i + 3) * 13 + (j + 2) * 7 + i * j % 5) % 251);
}
}  // namespace

Bm2dCase::Bm2dCase(long long n, bool materialize)
    : n_(n), blocks_(n / kBlock), materialize_(materialize) {
  HOMP_REQUIRE(n % kBlock == 0 && n >= 2 * kBlock,
               "bm2d frame edge must be a multiple of 16 and >= 32");
  if (materialize_) {
    cur_ = mem::HostArray<double>::matrix(n, n);
    ref_ = mem::HostArray<double>::matrix(n, n);
    best_ = mem::HostArray<double>::matrix(blocks_, 2 * blocks_);
    init();
  }
}

void Bm2dCase::init() {
  if (!materialize_) return;
  cur_.fill_with_indices(cur_init);
  ref_.fill_with_indices(ref_init);
  best_.fill(0.0);
}

rt::LoopKernel Bm2dCase::kernel() const {
  rt::LoopKernel k;
  k.name = "bm2d";
  k.iterations = dist::Range::of_size(blocks_);  // one iteration per block row
  const double bpr = static_cast<double>(blocks_);  // blocks per row
  const double cands = (2.0 * kSearch + 1) * (2.0 * kSearch + 1);
  const double block_px = static_cast<double>(kBlock * kBlock);
  // Per block: `cands` SAD evaluations of `block_px` pixels, 2 flops each
  // (abs-diff + accumulate); per iteration = blocks-per-row blocks.
  k.cost.flops_per_iter = bpr * cands * block_px * 2.0;
  // Reads: ref window pixels per candidate + current block once.
  k.cost.mem_bytes_per_iter = bpr * (cands * block_px + block_px) * 8.0;
  // Transfers: one band of cur rows + ref band with halo + outputs.
  k.cost.transfer_bytes_per_iter =
      (static_cast<double>(kBlock * n_) +                      // cur band
       static_cast<double>((kBlock + 2 * kSearch) * n_) +      // ref band
       2.0 * bpr) *                                            // best + mv
      8.0;
  if (materialize_) {
    const long long n = n_;
    const long long blocks = blocks_;
    k.body = [n, blocks](const dist::Range& chunk, mem::DeviceDataEnv& env) {
      auto cur = env.view<double>("cur");
      auto ref = env.view<double>("ref");
      auto best = env.view<double>("best");
      for (long long bi = chunk.lo; bi < chunk.hi; ++bi) {
        for (long long bj = 0; bj < blocks; ++bj) {
          const long long i0 = bi * kBlock;
          const long long j0 = bj * kBlock;
          double best_sad = 1e300;
          double best_mv = 0.0;
          for (long long dy = -kSearch; dy <= kSearch; ++dy) {
            for (long long dx = -kSearch; dx <= kSearch; ++dx) {
              const long long ri = i0 + dy;
              const long long rj = j0 + dx;
              if (ri < 0 || rj < 0 || ri + kBlock > n || rj + kBlock > n) {
                continue;  // candidate escapes the frame
              }
              double sad = 0.0;
              for (long long y = 0; y < kBlock; ++y) {
                for (long long x = 0; x < kBlock; ++x) {
                  sad += std::abs(cur(i0 + y, j0 + x) - ref(ri + y, rj + x));
                }
              }
              if (sad < best_sad) {
                best_sad = sad;
                best_mv = static_cast<double>((dy + kSearch) *
                                                  (2 * kSearch + 1) +
                                              (dx + kSearch));
              }
            }
          }
          best(bi, 2 * bj) = best_sad;
          best(bi, 2 * bj + 1) = best_mv;
        }
      }
      return 0.0;
    };
  }
  return k;
}

std::vector<mem::MapSpec> Bm2dCase::maps() const {
  const double ratio = static_cast<double>(kBlock);
  mem::MapSpec cur;
  cur.name = "cur";
  cur.dir = mem::MapDirection::kTo;
  cur.binding =
      materialize_
          ? mem::bind_array(const_cast<mem::HostArray<double>&>(cur_))
          : mem::phantom_binding(sizeof(double), {n_, n_});
  cur.region = dist::Region::of_shape({n_, n_});
  cur.partition = {dist::DimPolicy::align("loop", ratio),
                   dist::DimPolicy::full()};

  mem::MapSpec ref = cur;
  ref.name = "ref";
  if (materialize_) {
    ref.binding = mem::bind_array(const_cast<mem::HostArray<double>&>(ref_));
  }
  ref.halo_before = kSearch;
  ref.halo_after = kSearch;

  mem::MapSpec best;
  best.name = "best";
  best.dir = mem::MapDirection::kFrom;
  best.binding =
      materialize_
          ? mem::bind_array(const_cast<mem::HostArray<double>&>(best_))
          : mem::phantom_binding(sizeof(double), {blocks_, 2 * blocks_});
  best.region = dist::Region::of_shape({blocks_, 2 * blocks_});
  best.partition = {dist::DimPolicy::align("loop"), dist::DimPolicy::full()};

  return {cur, ref, best};
}

const std::vector<double>& Bm2dCase::expected() const {
  if (!expect_.empty()) return expect_;
  const long long n = n_;
  const auto at = [n](long long i, long long j) {
    return static_cast<std::size_t>(i * n + j);
  };
  std::vector<double> cur(at(n, 0)), ref(cur.size());
  for (long long i = 0; i < n; ++i) {
    for (long long j = 0; j < n; ++j) {
      cur[at(i, j)] = cur_init(i, j);
      ref[at(i, j)] = ref_init(i, j);
    }
  }
  expect_.reserve(static_cast<std::size_t>(blocks_ * blocks_));
  for (long long bi = 0; bi < blocks_; ++bi) {
    for (long long bj = 0; bj < blocks_; ++bj) {
      const long long i0 = bi * kBlock;
      const long long j0 = bj * kBlock;
      double best_sad = 1e300;
      for (long long dy = -kSearch; dy <= kSearch; ++dy) {
        for (long long dx = -kSearch; dx <= kSearch; ++dx) {
          const long long ri = i0 + dy;
          const long long rj = j0 + dx;
          if (ri < 0 || rj < 0 || ri + kBlock > n || rj + kBlock > n) continue;
          double sad = 0.0;
          for (long long y = 0; y < kBlock; ++y) {
            for (long long x = 0; x < kBlock; ++x) {
              sad += std::abs(cur[at(i0 + y, j0 + x)] - ref[at(ri + y, rj + x)]);
            }
          }
          best_sad = std::min(best_sad, sad);
        }
      }
      expect_.push_back(best_sad);
    }
  }
  return expect_;
}

bool Bm2dCase::verify(std::string* why) const {
  if (!materialize_) return true;
  const std::vector<double>& ref = expected();
  for (long long bi = 0; bi < blocks_; ++bi) {
    for (long long bj = 0; bj < blocks_; ++bj) {
      const double expect = ref[static_cast<std::size_t>(bi * blocks_ + bj)];
      if (best_(bi, 2 * bj) != expect) {
        if (why) {
          *why = "bm2d: best[" + std::to_string(bi) + "][" +
                 std::to_string(bj) + "] = " + std::to_string(best_(bi, 2 * bj)) +
                 ", expected " + std::to_string(expect);
        }
        return false;
      }
    }
  }
  return true;
}

model::KernelCostProfile Bm2dCase::paper_profile() const {
  model::KernelCostProfile p;
  p.flops_per_iter = kernel().cost.flops_per_iter;
  p.mem_bytes_per_iter = 0.5 * p.flops_per_iter * 8.0;    // MemComp 0.5
  p.transfer_bytes_per_iter = 0.06 * p.flops_per_iter * 8.0;  // DataComp 0.06
  return p;
}

}  // namespace homp::kern
