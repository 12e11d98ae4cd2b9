#ifndef HOMP_FUZZ_SERVE_DRIVER_H
#define HOMP_FUZZ_SERVE_DRIVER_H

/// \file serve_driver.h
/// Corpus loop of homp-fuzz's serve mode (docs/FUZZING.md "--serve"):
/// generate serve scenarios seed, seed+1, ..., run each through the
/// serve-invariant oracle, greedily shrink failures (drop jobs, drop
/// tenants, halve sizes, clear fault scripts) and emit self-contained
/// serve-repro-<seed>.{ini,toml} pairs, then render one deterministic
/// summary — byte-identical for identical (seed, count, limits).

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/serve_oracle.h"
#include "fuzz/serve_scenario.h"

namespace homp::fuzz {

struct ServeFuzzConfig {
  std::uint64_t seed = 1;  ///< first scenario seed; scenario i uses seed+i
  int count = 100;         ///< scenarios to run
  ServeGeneratorLimits limits;

  /// Directory for serve-repro-<seed>.{ini,toml} pairs; created on demand.
  std::string repro_dir = "machines/fuzz";

  bool shrink_failures = true;
  int shrink_budget = 48;  ///< oracle runs the shrinker may spend per failure

  /// Stop emitting repro files (but keep counting) after this many
  /// failures, so a systematically broken build cannot flood the disk.
  int max_repros = 8;

  /// Run every scenario with same-timestamp events popped newest-first
  /// (docs/DETERMINISM.md); every invariant must still hold.
  bool reverse_ties = false;
};

/// One failing serve scenario as the summary reports it.
struct ServeFailureRecord {
  std::uint64_t seed = 0;
  std::string invariant;  ///< primary (first-reported) failing invariant
  std::string detail;
  std::string repro_toml;  ///< empty when max_repros was exhausted
  int shrunk_tenants = 0;
  int shrunk_jobs = 0;
  int shrunk_faulty_tenants = 0;  ///< tenants whose fault script survived
};

struct ServeFuzzSummary {
  int scenarios = 0;
  int jobs = 0;  ///< submissions across the corpus (first runs only)
  std::size_t completed = 0;
  std::size_t failed = 0;     ///< contained terminal kFail records
  std::size_t cancelled = 0;  ///< terminal kCancelled records
  std::size_t rejected = 0;
  std::size_t breaker_trips = 0;
  int violations = 0;
  std::vector<ServeFailureRecord> failures;
  std::string json;  ///< the deterministic summary document
};

/// Run the serve corpus. Throws ConfigError only for unusable
/// configuration; scenario failures are data, not errors.
ServeFuzzSummary run_serve_fuzz(const ServeFuzzConfig& cfg);

/// Re-run the serve scenario recorded in a serve-repro .toml (the paired
/// machine .ini is resolved relative to the .toml's directory).
struct ServeReplayOutcome {
  bool reproduced = false;
  std::string recorded_invariant;
  std::vector<Violation> violations;  ///< what this run actually reported
};

ServeReplayOutcome serve_replay(const std::string& toml_path);

}  // namespace homp::fuzz

#endif  // HOMP_FUZZ_SERVE_DRIVER_H
