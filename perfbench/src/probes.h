#ifndef HOMP_PERFBENCH_PROBES_H
#define HOMP_PERFBENCH_PROBES_H

/// \file probes.h
/// Layer probes shared by more than one workload.

#include <cstdint>

#include "bench.h"

namespace perfbench {

/// Host nanoseconds per event of sim::Engine schedule + run over 64
/// self-rescheduling event chains (`events` events in all). `tagged`
/// uses generation-tagged timers with wholesale cancellation, the way
/// the serving layer arms and revokes its timers.
double engine_probe_ns(bool tagged, std::uint64_t events);

}  // namespace perfbench

#endif  // HOMP_PERFBENCH_PROBES_H
