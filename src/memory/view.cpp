#include "memory/view.h"

#include <string>

namespace homp::mem {

void throw_outside_footprint(long long i, std::size_t dim,
                             const dist::Region& footprint) {
  throw ExecutionError(
      "kernel accessed global index " + std::to_string(i) + " in dim " +
      std::to_string(dim) + " outside mapped footprint " +
      footprint.to_string() +
      " — data distribution/alignment mapped too little data");
}

}  // namespace homp::mem
