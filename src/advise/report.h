#ifndef HOMP_ADVISE_REPORT_H
#define HOMP_ADVISE_REPORT_H

/// \file report.h
/// Rendering and comparison surfaces of the advisor: the ranked finding
/// report (text and JSON), the trace summary, and the direction-aware
/// two-artifact diff the CI perf sentinel runs.
///
/// Both renderers are pure functions of their inputs with deterministic
/// number formatting, so identical sessions produce byte-identical
/// output — the report determinism tests and the sentinel both depend
/// on it.

#include <iosfwd>
#include <string>
#include <vector>

#include "advise/attribution.h"
#include "advise/json.h"

namespace homp::advise {

/// Human-readable ranked report. `top` == 0 prints every finding.
void write_report(const std::vector<Inspection>& findings, std::ostream& os,
                  std::size_t top = 0);

/// Machine-readable report ("homp_advise_version": 1), same ranking.
void write_report_json(const std::vector<Inspection>& findings,
                       std::ostream& os, std::size_t top = 0);

/// Print one trace's summary as `key: value` lines, then its instant
/// timeline.
void write_summary(const TraceEvidence& tr, std::ostream& os);

/// One scalar that moved between the two compared artifacts.
struct DiffEntry {
  std::string key;  ///< flattened path, e.g. "scenarios/gpu4-axpy1M/..."
  double before = 0.0;
  double after = 0.0;
  /// Relative change (after-before)/before; 0 when before == 0.
  double rel = 0.0;
  bool structural = false;  ///< key exists on one side only...
  bool only_in_b = false;   ///< ...and that side is `after`
};

/// Verdict of comparing two artifacts of the same kind.
struct DiffResult {
  std::vector<DiffEntry> regressions;  ///< directional moves past tolerance
  std::vector<DiffEntry> changes;      ///< everything else that moved
  bool identical() const noexcept {
    return regressions.empty() && changes.empty();
  }
};

/// Compare two parsed artifacts. Numeric leaves are flattened to
/// path/value pairs (a trace contributes its summary keys); keys with a
/// known good direction (throughput and overlap higher-better, latency,
/// makespan, imbalance and violations lower-better) become regressions
/// when they move the wrong way by more than `tolerance` (relative);
/// every other move past tolerance is reported as a neutral change.
/// Throws ConfigError when the artifacts are different kinds.
DiffResult diff_artifacts(const Json& before, const Json& after,
                          double tolerance);

/// Render a verdict; `tolerance` is echoed in the header.
void write_diff(const DiffResult& r, double tolerance, std::ostream& os);
void write_diff_json(const DiffResult& r, double tolerance, std::ostream& os);

}  // namespace homp::advise

#endif  // HOMP_ADVISE_REPORT_H
