#ifndef HOMP_ADVISE_REPORT_KEYS_H
#define HOMP_ADVISE_REPORT_KEYS_H

/// \file report_keys.h
/// The rostered string constants of the advisor's public vocabulary:
/// finding kinds, severities, and the stable keys of the JSON report.
///
/// Everything the advisor prints that a consumer might match against
/// (CI scripts grepping `homp-advise report --json`, the perf sentinel,
/// tests asserting exact findings) lives here — never as inline string
/// literals at the emission site. homp-lint HL005 enforces the roster:
/// each constant below must be referenced by the attribution or report
/// code, and emission sites must use the constant.

namespace homp::advise {

// ---- finding kinds ------------------------------------------------------
// One constant per Inspection kind; values are the stable identifiers in
// report JSON and the merge key across runs. docs/OBSERVABILITY.md
// "Inspection catalog" documents the semantics and formulas.

/// Device ran slower than MODEL_2 predicted: bias >= threshold.
inline constexpr char kKindUnderPrediction[] = "under_prediction";
/// Device ran faster than predicted: bias <= 1/threshold (capacity left
/// on the table when chunk sizing trusted the model).
inline constexpr char kKindOverPrediction[] = "over_prediction";
/// CUTOFF dropped a device whose pre-drop share says it would have
/// carried useful work.
inline constexpr char kKindCutoffDropRegret[] = "cutoff_drop_regret";
/// Speculative duplicate chunks that ran but lost the race.
inline constexpr char kKindSpeculationWaste[] = "speculation_waste";
/// One device finishes well after the rest and gates the makespan.
inline constexpr char kKindCriticalPathBlame[] = "critical_path_blame";
/// Transfer time not hidden behind compute (trace evidence).
inline constexpr char kKindOverlapDeficit[] = "overlap_deficit";
/// Too many decisions lack a backfilled actual to attribute reliably.
inline constexpr char kKindActualsCoverage[] = "actuals_coverage";
/// Serving: virtual time spent at shed level >= 1.
inline constexpr char kKindShedPressure[] = "shed_pressure";
/// Serving: a tenant's circuit breaker opened repeatedly.
inline constexpr char kKindBreakerFlap[] = "breaker_flap";

// ---- severities ---------------------------------------------------------

inline constexpr char kSeverityCritical[] = "critical";
inline constexpr char kSeverityWarning[] = "warning";
inline constexpr char kSeverityInfo[] = "info";

// ---- JSON report keys ---------------------------------------------------

/// Version key of `homp-advise report --json` output.
inline constexpr char kReportVersionKey[] = "homp_advise_version";
/// Version key of `homp-advise diff --json` output.
inline constexpr char kDiffVersionKey[] = "homp_advise_diff_version";
/// Array of finding objects, ranked by estimated saving.
inline constexpr char kFindingsKey[] = "findings";
/// Array of regression objects in a diff verdict.
inline constexpr char kRegressionsKey[] = "regressions";
/// Array of non-regression changes in a diff verdict.
inline constexpr char kChangesKey[] = "changes";

// ---- trace summary keys -------------------------------------------------
// `homp-advise summary` prints, and `homp-advise diff` compares, one
// ordered `key: value` list per trace (docs/OBSERVABILITY.md "The trace
// summary"). Times are microseconds of virtual time.

inline constexpr char kSumEvents[] = "events";
inline constexpr char kSumDevices[] = "devices";
inline constexpr char kSumTotalTime[] = "total_time_us";
/// Text: the participating device that reached the final barrier last.
inline constexpr char kSumCriticalDevice[] = "critical_device";
/// Also a per-tenant figure: the tenant's last job-thread finish.
inline constexpr char kSumCriticalPath[] = "critical_path_us";
inline constexpr char kSumCriticalBusy[] = "critical_busy_us";
inline constexpr char kSumBarrierSkew[] = "barrier_skew_us";
/// Imbalance::percent() over finish times; also a per-tenant figure.
inline constexpr char kSumImbalance[] = "imbalance_pct";
inline constexpr char kSumTransfer[] = "transfer_us";
inline constexpr char kSumTransferHidden[] = "transfer_hidden_us";
inline constexpr char kSumOverlapRatio[] = "overlap_ratio";
inline constexpr char kSumFaults[] = "faults";
inline constexpr char kSumRecoveryActions[] = "recovery_actions";
inline constexpr char kSumDecisions[] = "decisions";
/// Families `critical_phase_us[<phase>]` and `phase_us[<phase>]`.
inline constexpr char kSumCriticalPhase[] = "critical_phase_us";
inline constexpr char kSumPhase[] = "phase_us";
/// Serving traces: `tenants`, then `tenant[<name>].<figure>`.
inline constexpr char kSumTenants[] = "tenants";
inline constexpr char kSumTenant[] = "tenant";
inline constexpr char kSumSpans[] = "spans";
inline constexpr char kSumThreads[] = "threads";
inline constexpr char kSumBusy[] = "busy_us";
inline constexpr char kSumMakespan[] = "makespan_us";
/// Serving traces with terminal jobs: the totals, then the families
/// `serve.<outcome>[<tenant>/<error class>]` and, as text,
/// `serve.<outcome>_job[<job id>]`.
inline constexpr char kSumServeFailedJobs[] = "serve.failed_jobs";
inline constexpr char kSumServeCancelledJobs[] = "serve.cancelled_jobs";
inline constexpr char kSumServeBreakerTrips[] = "serve.breaker_trips";
inline constexpr char kSumServe[] = "serve.";
inline constexpr char kSumFailed[] = "failed";
inline constexpr char kSumCancelled[] = "cancelled";
/// Family `counter[<track>].<samples|last|max>`.
inline constexpr char kSumCounter[] = "counter";
inline constexpr char kSumSamples[] = "samples";
inline constexpr char kSumLast[] = "last";
inline constexpr char kSumMax[] = "max";

}  // namespace homp::advise

#endif  // HOMP_ADVISE_REPORT_KEYS_H
