#ifndef HOMP_KERNELS_CASE_H
#define HOMP_KERNELS_CASE_H

/// \file case.h
/// Common interface of the six evaluation kernels (Table IV): AXPY,
/// Matrix-Vector, Matrix Multiplication, 13-point 2-D Stencil, Sum
/// (reduction) and 2-D Block Matching.
///
/// A KernelCase owns the host arrays, provides the offloadable LoopKernel
/// and its map clauses, and can verify the offloaded result against a
/// sequential reference. Cases can be built without materializing storage
/// (`materialize = false`) for paper-scale pure-simulation benchmarks
/// where only the cost accounting matters (DESIGN.md §2).

#include <memory>
#include <string>
#include <vector>

#include "memory/map_spec.h"
#include "model/kernel_profile.h"
#include "runtime/kernel.h"

namespace homp::kern {

class KernelCase {
 public:
  virtual ~KernelCase() = default;

  virtual const std::string& name() const = 0;

  /// The offloadable loop. The body captures the case's device views; the
  /// case must outlive any offload using it. Null body when the case was
  /// built without materialization.
  virtual rt::LoopKernel kernel() const = 0;

  /// Map clauses (v2 style: data aligned with the loop, so every
  /// scheduling algorithm applies). Returned specs reference the case's
  /// storage; the case must outlive offloads using them.
  virtual std::vector<mem::MapSpec> maps() const = 0;

  /// (Re-)initialize input arrays and clear outputs. No-op when not
  /// materialized.
  virtual void init() = 0;

  /// Check outputs against a sequential reference computation; on failure
  /// returns false and describes the first mismatch in *why. The
  /// reference depends only on the problem size, so bm2d, matmul and
  /// matvec, whose references cost more than a pass over the output,
  /// compute theirs on the first call and reuse it. axpy, stencil2d and sum
  /// recompute theirs in one pass: caching axpy's expected y alone would
  /// add another output-sized array to the largest materialized cases.
  virtual bool verify(std::string* why) const = 0;

  /// The per-iteration cost characteristics as the paper states them
  /// (Table IV), for comparison against the measured profile.
  virtual model::KernelCostProfile paper_profile() const = 0;

  /// Problem-size designator (N), as used in names like "matmul-6144".
  virtual long long problem_size() const = 0;

  virtual bool materialized() const = 0;
};

/// Factory. `name` is one of: "axpy", "matvec", "matmul", "stencil2d",
/// "sum", "bm2d". Throws ConfigError for unknown names.
std::unique_ptr<KernelCase> make_case(const std::string& name, long long n,
                                      bool materialize);

/// The six kernel names in Table IV order.
const std::vector<std::string>& all_kernel_names();

/// The paper's evaluation problem size for each kernel (axpy-100M,
/// matvec-48k, matmul-6144, stencil2d-256, sum-300M, bm2d-256; Table V /
/// figure captions).
long long paper_size(const std::string& name);

}  // namespace homp::kern

#endif  // HOMP_KERNELS_CASE_H
