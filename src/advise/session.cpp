#include "advise/session.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <tuple>

#include "advise/report_keys.h"
#include "common/error.h"
#include "common/stats.h"

namespace homp::advise {

namespace {

long long ll(const Json& obj, const char* key, double fallback = 0.0) {
  const double v = obj.number_or(key, fallback);
  // Converting a NaN or out-of-range double to an integer is undefined.
  return std::fabs(v) < 9e18 ? static_cast<long long>(v) : 0;
}

AuditPrediction load_prediction(const Json& p) {
  AuditPrediction out;
  out.model1_mean = p.number_or("model1_mean", -1.0);
  out.model2_mean = p.number_or("model2_mean", -1.0);
  out.profile_mean = p.number_or("profile_mean", -1.0);
  out.model_samples = ll(p, "model_samples");
  out.profile_samples = ll(p, "profile_samples");
  out.model1_min = p.number_or("model1_min", -1.0);
  out.model1_max = p.number_or("model1_max", -1.0);
  out.model2_min = p.number_or("model2_min", -1.0);
  out.model2_max = p.number_or("model2_max", -1.0);
  out.profile_min = p.number_or("profile_min", -1.0);
  out.profile_max = p.number_or("profile_max", -1.0);
  return out;
}

RunAudit load_audit(const Json& doc) {
  RunAudit run;
  run.algorithm = doc.string_or_empty("algorithm");
  run.total_time_s = doc.number_or("total_time_s", 0.0);
  run.chunks_issued = ll(doc, "chunks_issued");
  const Json* degraded = doc.find("degraded");
  run.degraded = degraded != nullptr && degraded->boolean();
  const Json* has_cutoff = doc.find("has_cutoff");
  run.has_cutoff = has_cutoff != nullptr && has_cutoff->boolean();

  if (const Json* cut = doc.find("cutoff"); cut != nullptr) {
    if (const Json* sel = cut->find("selected"); sel != nullptr) {
      for (const Json& v : sel->array()) {
        run.cutoff_selected.push_back(static_cast<int>(v.number()));
      }
    }
    if (const Json* w = cut->find("weights"); w != nullptr) {
      for (const Json& v : w->array()) run.cutoff_weights.push_back(v.number());
    }
    if (const Json* pw = cut->find("pre_weights"); pw != nullptr) {
      for (const Json& v : pw->array()) {
        run.cutoff_pre_weights.push_back(v.number());
      }
    }
  }

  if (const Json* devs = doc.find("devices"); devs != nullptr) {
    for (const Json& d : devs->array()) {
      AuditDevice dev;
      dev.name = d.string_or_empty("name");
      dev.id = static_cast<int>(d.number_or("id", -1.0));
      dev.slot = static_cast<int>(d.number_or("slot", -1.0));
      dev.finish_time_s = d.number_or("finish_time_s", 0.0);
      dev.chunks = ll(d, "chunks");
      dev.iterations = ll(d, "iterations");
      dev.bytes_in = d.number_or("bytes_in", 0.0);
      dev.bytes_out = d.number_or("bytes_out", 0.0);
      dev.tardy_chunks = ll(d, "tardy_chunks");
      dev.spec_copies_run = ll(d, "spec_copies_run");
      dev.spec_copies_won = ll(d, "spec_copies_won");
      dev.requeued_iterations = ll(d, "requeued_iterations");
      dev.quarantine_count = ll(d, "quarantine_count");
      if (const Json* p = d.find("prediction"); p != nullptr) {
        dev.prediction = load_prediction(*p);
      }
      run.devices.push_back(std::move(dev));
    }
  }

  if (const Json* decs = doc.find("decisions"); decs != nullptr) {
    for (const Json& d : decs->array()) {
      AuditDecision dec;
      dec.time_s = d.number_or("time_s", 0.0);
      dec.slot = static_cast<int>(d.number_or("slot", -1.0));
      dec.device = d.string_or_empty("device");
      dec.kind = d.string_or_empty("kind");
      dec.begin = ll(d, "begin");
      dec.end = ll(d, "end");
      dec.chunk_bytes = d.number_or("chunk_bytes", 0.0);
      dec.model1_s = d.number_or("model1_s", -1.0);
      dec.model2_s = d.number_or("model2_s", -1.0);
      dec.profile_s = d.number_or("profile_s", -1.0);
      dec.ewma_iter_s = d.number_or("ewma_iter_s", -1.0);
      dec.actual_s = d.number_or("actual_s", -1.0);
      dec.detail = d.string_or_empty("detail");
      run.decisions.push_back(std::move(dec));
    }
  }
  return run;
}

ServeAudit load_serve_audit(const Json& doc) {
  ServeAudit run;
  run.makespan_s = doc.number_or("makespan_s", 0.0);
  run.final_shed_level = static_cast<int>(doc.number_or("final_shed_level", 0));
  run.shed_transitions = ll(doc, "shed_transitions");
  if (const Json* tenants = doc.find("tenants"); tenants != nullptr) {
    for (const Json& t : tenants->array()) {
      ServeTenantRow row;
      row.name = t.string_or_empty("name");
      row.priority = t.string_or_empty("class");
      row.submitted = ll(t, "submitted");
      row.admitted = ll(t, "admitted");
      row.rejected_shed = ll(t, "rejected_shed");
      row.rejected_breaker = ll(t, "rejected_breaker");
      row.completed = ll(t, "completed");
      row.failed = ll(t, "failed");
      row.cancelled = ll(t, "cancelled");
      row.breaker_trips = ll(t, "breaker_trips");
      run.tenants.push_back(std::move(row));
    }
  }
  if (const Json* events = doc.find("events"); events != nullptr) {
    for (const Json& e : events->array()) {
      ServeAuditEvent ev;
      ev.time_s = e.number_or("time_s", 0.0);
      ev.kind = e.string_or_empty("kind");
      ev.tenant = e.string_or_empty("tenant");
      ev.job_id = static_cast<std::uint64_t>(e.number_or("job_id", 0.0));
      ev.detail = e.string_or_empty("detail");
      run.events.push_back(std::move(ev));
    }
  }
  return run;
}

/// Half-open [t0, t1) intervals, kept sorted and disjoint by normalize().
using Intervals = std::vector<std::pair<double, double>>;

void normalize(Intervals& iv) {
  std::sort(iv.begin(), iv.end());
  Intervals out;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!out.empty() && a <= out.back().second) {
      out.back().second = std::max(out.back().second, b);
    } else {
      out.emplace_back(a, b);
    }
  }
  iv = std::move(out);
}

double measure(const Intervals& iv) {
  double total = 0.0;
  for (const auto& [a, b] : iv) total += b - a;
  return total;
}

/// Total length of the intersection of two normalized interval sets.
double intersection_measure(const Intervals& x, const Intervals& y) {
  double total = 0.0;
  std::size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    const double lo = std::max(x[i].first, y[j].first);
    const double hi = std::min(x[i].second, y[j].second);
    if (hi > lo) total += hi - lo;
    if (x[i].second < y[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

/// First word of a span name: "compute [0, 100)" -> "compute".
std::string phase_of(const std::string& name) {
  const std::size_t sp = name.find(' ');
  return sp == std::string::npos ? name : name.substr(0, sp);
}

/// A keyed summary family member: "phase_us" + "compute" ->
/// "phase_us[compute]".
std::string family(const std::string& base, const std::string& member) {
  return base + '[' + member + ']';
}

bool is_integer(const Json* v) {
  return v != nullptr && v->is_number() && std::fabs(v->number()) < 9e15 &&
         v->number() == std::floor(v->number());
}

/// An event's "args" object, or a null value that answers every lookup
/// with its fallback.
const Json& args_of(const Json& ev) {
  static const Json kNone;
  const Json* args = ev.find("args");
  return args != nullptr ? *args : kNone;
}

/// Runs of whitespace become one space and the ends are trimmed, so an
/// error detail stays on its `key: value` line.
std::string collapse_space(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      out += c;
    } else if (!out.empty() && out.back() != ' ') {
      out += ' ';
    }
  }
  if (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

}  // namespace

const char* to_string(ArtifactKind k) noexcept {
  switch (k) {
    case ArtifactKind::kAudit:
      return "audit";
    case ArtifactKind::kServeAudit:
      return "serve-audit";
    case ArtifactKind::kMetrics:
      return "metrics";
    case ArtifactKind::kTrace:
      return "trace";
    case ArtifactKind::kBench:
      return "bench";
    case ArtifactKind::kUnknown:
      break;
  }
  return "unknown";
}

ArtifactKind classify(const Json& doc) noexcept {
  if (doc.is_array()) return ArtifactKind::kTrace;
  if (!doc.is_object()) return ArtifactKind::kUnknown;
  if (doc.has_key("homp_audit_version")) return ArtifactKind::kAudit;
  if (doc.has_key("homp_serve_audit_version")) return ArtifactKind::kServeAudit;
  if (doc.has_key("homp_metrics_version")) return ArtifactKind::kMetrics;
  if (doc.has_key("bench")) return ArtifactKind::kBench;
  return ArtifactKind::kUnknown;
}

TraceEvidence reduce_trace(const Json& doc) {
  const std::vector<Json>& events = doc.array();
  HOMP_REQUIRE(!events.empty(), "trace is empty (zero events)");

  // Pass 1: reject what no figure can be trusted from, and collect the
  // thread (device) and process (tenant) name metadata.
  std::map<long long, std::string> thread_names, tenants;
  std::size_t n_spans = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& ev = events[i];
    const std::string at = "trace event " + std::to_string(i);
    HOMP_REQUIRE(ev.is_object(), at + " is not an object");
    const std::string& ph = ev.string_or_empty("ph");
    if (ph == "M" && ev.string_or_empty("name") == "thread_name") {
      thread_names[ll(ev, "tid")] = args_of(ev).string_or_empty("name");
    } else if (ph == "M" && ev.string_or_empty("name") == "process_name") {
      tenants[ll(ev, "pid")] = args_of(ev).string_or_empty("name");
    }
    if (ph != "X") continue;
    ++n_spans;
    HOMP_REQUIRE(is_integer(ev.find("tid")),
                 at + " is a span without an integer 'tid'");
    const Json* ts = ev.find("ts");
    HOMP_REQUIRE(ts != nullptr && ts->is_number(),
                 at + " is a span without a numeric 'ts'");
    const Json* pid = ev.find("pid");
    HOMP_REQUIRE(pid == nullptr || is_integer(pid),
                 at + " is a span with a non-integer 'pid'");
  }
  HOMP_REQUIRE(n_spans > 0, "trace contains no spans");

  // Pass 2: spans, per device slot (tid) and per tenant process (pid).
  struct Slot {
    std::string name;
    Intervals transfer, compute, busy;
    std::map<std::string, double> busy_phases;
    long long computes = 0;
    bool arrived = false;  ///< saw its `barrier final` span
    double finish = 0.0;
    double busy_end = 0.0;
  };
  struct Tenant {
    long long spans = 0;
    double start = 0.0;
    std::map<long long, Intervals> threads;
  };
  std::map<long long, Slot> slots;
  std::map<long long, Tenant> by_pid;
  std::map<std::string, double> phase_s;
  TraceEvidence out;
  for (const Json& ev : events) {
    if (ev.string_or_empty("ph") != "X") continue;
    const double t0 = ev.number_or("ts", 0.0) / 1e6;
    const double t1 = t0 + ev.number_or("dur", 0.0) / 1e6;
    const long long tid = ll(ev, "tid");
    const std::string& name = ev.string_or_empty("name");
    const std::string phase = phase_of(name);
    Slot& s = slots[tid];
    if (s.name.empty()) s.name = args_of(ev).string_or_empty("device");
    phase_s[phase] += t1 - t0;
    Tenant& tn = by_pid[ll(ev, "pid")];
    tn.start = tn.spans++ == 0 ? t0 : std::min(tn.start, t0);
    tn.threads[tid].emplace_back(t0, t1);
    out.makespan_s = std::max(out.makespan_s, t1);
    if (phase == "barrier") {
      // The final-barrier span starts when the device arrived at the
      // barrier: its start is the device's finish time.
      if (name.size() >= 5 && name.compare(name.size() - 5, 5, "final") == 0) {
        s.arrived = true;
        s.finish = t0;
      }
      continue;
    }
    s.busy.emplace_back(t0, t1);
    s.busy_end = std::max(s.busy_end, t1);
    s.busy_phases[phase] += t1 - t0;
    if (phase == "compute") {
      s.compute.emplace_back(t0, t1);
      ++s.computes;
    } else if (phase == "copy-in" || phase == "copy-out") {
      s.transfer.emplace_back(t0, t1);
    }
  }

  // Per-device evidence. The critical device is the participating one
  // (>= 1 compute span) that finished last; everything else waits for
  // it at the final barrier.
  std::map<long long, std::string> device_names;
  std::vector<double> fins;
  std::size_t crit = 0;  // the first device when none participates
  double transfer_s = 0.0, hidden_s = 0.0;
  for (auto& [tid, s] : slots) {
    normalize(s.transfer);
    normalize(s.compute);
    normalize(s.busy);
    TraceDevice dev;
    const auto meta = thread_names.find(tid);
    dev.name = meta != thread_names.end() && !meta->second.empty()
                   ? meta->second
                   : s.name.empty() ? "slot " + std::to_string(tid) : s.name;
    dev.slot = static_cast<int>(tid);
    dev.transfer_s = measure(s.transfer);
    dev.compute_s = measure(s.compute);
    dev.hidden_s = intersection_measure(s.transfer, s.compute);
    dev.finish_s = s.arrived ? s.finish : s.busy_end;
    transfer_s += dev.transfer_s;
    hidden_s += dev.hidden_s;
    if (s.computes > 0) {
      fins.push_back(dev.finish_s);
      if (fins.size() == 1 || dev.finish_s > out.devices[crit].finish_s) {
        crit = out.devices.size();
      }
    }
    AuditDevice row;
    row.name = dev.name;
    row.slot = dev.slot;
    row.finish_time_s = dev.finish_s;
    row.chunks = s.computes;
    out.audit.devices.push_back(std::move(row));
    device_names[tid] = dev.name;
    out.devices.push_back(std::move(dev));
  }
  out.audit.total_time_s = out.makespan_s;

  // Pass 3: counter tracks and instants — the timeline, the decision
  // stream in audit form, and the serve layer's terminal job outcomes.
  struct Counter {
    long long samples = 0;
    double last = 0.0, max = 0.0;
  };
  struct JobLine {
    std::string kind, job, tenant, detail;
  };
  std::map<std::string, Counter> counters;
  std::map<std::string, long long> per_cat;
  std::map<std::tuple<std::string, std::string, std::string>, long long>
      classes;  // (kind, tenant, error class) -> jobs
  std::vector<JobLine> jobs;
  long long failed = 0, cancelled = 0, breaker_trips = 0;
  for (const Json& ev : events) {
    const std::string& ph = ev.string_or_empty("ph");
    const Json& args = args_of(ev);
    if (ph == "C") {
      Counter& c = counters[ev.string_or_empty("name")];
      const double v = args.number_or("value", 0.0);
      c.max = c.samples++ == 0 ? v : std::max(c.max, v);
      c.last = v;
      continue;
    }
    if (ph != "i") continue;
    TraceInstant in;
    in.ts_us = ev.number_or("ts", 0.0);
    in.tid = ll(ev, "tid", -1.0);
    const auto dev = device_names.find(in.tid);
    in.device = dev != device_names.end() ? dev->second
                                          : std::to_string(in.tid);
    const Json* cat = ev.find("cat");
    in.cat = cat != nullptr ? cat->string() : "?";
    in.name = ev.string_or_empty("name");
    ++per_cat[in.cat];
    if (in.cat == "decision" && in.name.rfind("decision: ", 0) == 0) {
      AuditDecision d;
      d.time_s = in.ts_us / 1e6;
      d.slot = static_cast<int>(in.tid);
      d.device = in.device;
      d.kind = phase_of(in.name.substr(10));
      d.model1_s = args.number_or("model1_s", -1.0);
      d.model2_s = args.number_or("model2_s", -1.0);
      d.profile_s = args.number_or("profile_s", -1.0);
      d.ewma_iter_s = args.number_or("ewma_iter_s", -1.0);
      d.actual_s = args.number_or("actual_s", -1.0);
      d.detail = args.string_or_empty("detail");
      out.audit.decisions.push_back(std::move(d));
    } else if (in.cat == "serve" && in.name == "breaker-open") {
      ++breaker_trips;
    } else if (in.cat == "serve" &&
               (in.name == "fail" || in.name == "cancel")) {
      // The detail leads with the error class ("all_devices_lost: ...",
      // docs/SERVING.md "Job failure domains").
      JobLine j;
      j.kind = in.name == "fail" ? kSumFailed : kSumCancelled;
      ++(in.name == "fail" ? failed : cancelled);
      j.job = std::to_string(ll(args, "job", -1.0));
      const auto tn = tenants.find(ll(ev, "pid"));
      j.tenant = tn != tenants.end() ? tn->second : "?";
      j.detail = collapse_space(args.string_or_empty("detail"));
      std::string cls = j.detail.substr(0, j.detail.find(':'));
      while (!cls.empty() && cls.back() == ' ') cls.pop_back();
      ++classes[{j.kind, j.tenant, cls.empty() ? "unspecified" : cls}];
      jobs.push_back(std::move(j));
    }
    out.timeline.push_back(std::move(in));
  }
  std::sort(out.timeline.begin(), out.timeline.end(),
            [](const TraceInstant& a, const TraceInstant& b) {
              return std::tie(a.ts_us, a.tid, a.cat, a.name) <
                     std::tie(b.ts_us, b.tid, b.cat, b.name);
            });

  // The summary, in microseconds of virtual time like the trace itself.
  constexpr double kUs = 1e6;
  auto& sum = out.summary;
  auto num = [&sum](std::string key, double v) {
    sum.emplace_back(std::move(key), Json::make_number(v));
  };
  const TraceDevice& cd = out.devices[crit];
  const Slot& cs = slots.at(cd.slot);
  num(kSumEvents, static_cast<double>(events.size()));
  num(kSumDevices, static_cast<double>(slots.size()));
  num(kSumTotalTime, out.makespan_s * kUs);
  sum.emplace_back(kSumCriticalDevice, Json::make_string(cd.name));
  num(kSumCriticalPath, cd.finish_s * kUs);
  num(kSumCriticalBusy, measure(cs.busy) * kUs);
  const auto [lo, hi] = std::minmax_element(fins.begin(), fins.end());
  num(kSumBarrierSkew, fins.empty() ? 0.0 : (*hi - *lo) * kUs);
  num(kSumImbalance, imbalance_of(fins).percent());
  num(kSumTransfer, transfer_s * kUs);
  num(kSumTransferHidden, hidden_s * kUs);
  num(kSumOverlapRatio, transfer_s > 0.0 ? hidden_s / transfer_s : 0.0);
  num(kSumFaults, static_cast<double>(per_cat["fault"]));
  num(kSumRecoveryActions, static_cast<double>(per_cat["recovery"]));
  num(kSumDecisions, static_cast<double>(per_cat["decision"]));
  for (const auto& [ph, t] : cs.busy_phases) {
    num(family(kSumCriticalPhase, ph), t * kUs);
  }
  for (const auto& [ph, t] : phase_s) num(family(kSumPhase, ph), t * kUs);

  // Multi-tenant serving traces lay tenants out as processes (pids);
  // single-offload traces (pid 0, no process metadata) skip this.
  if (!tenants.empty() || by_pid.size() > 1) {
    num(kSumTenants, static_cast<double>(by_pid.size()));
    for (auto& [pid, tn] : by_pid) {
      const auto meta = tenants.find(pid);
      const std::string pre =
          family(kSumTenant, meta != tenants.end() && !meta->second.empty()
                                 ? meta->second
                                 : "pid " + std::to_string(pid)) +
          '.';
      std::vector<double> ends;
      double busy = 0.0;
      for (auto& [tid, iv] : tn.threads) {
        double end = iv.front().second;
        for (const auto& span : iv) end = std::max(end, span.second);
        ends.push_back(end);
        normalize(iv);
        busy += measure(iv);
      }
      const double last = *std::max_element(ends.begin(), ends.end());
      num(pre + kSumSpans, static_cast<double>(tn.spans));
      num(pre + kSumThreads, static_cast<double>(tn.threads.size()));
      num(pre + kSumBusy, busy * kUs);
      num(pre + kSumCriticalPath, last * kUs);
      num(pre + kSumMakespan, (last - tn.start) * kUs);
      num(pre + kSumImbalance, imbalance_of(ends).percent());
    }
  }

  if (!jobs.empty() || breaker_trips > 0) {
    num(kSumServeFailedJobs, static_cast<double>(failed));
    num(kSumServeCancelledJobs, static_cast<double>(cancelled));
    num(kSumServeBreakerTrips, static_cast<double>(breaker_trips));
    for (const auto& [key, n] : classes) {
      const auto& [kind, tenant, cls] = key;
      num(family(kSumServe + kind, tenant + '/' + cls),
          static_cast<double>(n));
    }
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const JobLine& a, const JobLine& b) {
                       return std::tie(a.kind, a.job) < std::tie(b.kind, b.job);
                     });
    for (const JobLine& j : jobs) {
      sum.emplace_back(
          family(kSumServe + j.kind + "_job", j.job),
          Json::make_string("tenant=" + j.tenant + " " + j.detail));
    }
  }

  for (const auto& [name, c] : counters) {
    const std::string pre = family(kSumCounter, name) + '.';
    num(pre + kSumSamples, static_cast<double>(c.samples));
    num(pre + kSumLast, c.last);
    num(pre + kSumMax, c.max);
  }
  return out;
}

void load_metrics(const Json& doc, obs::MetricsRegistry& reg) {
  HOMP_REQUIRE(doc.number_or("homp_metrics_version", 0.0) == 1.0,
               "unsupported homp_metrics_version in metrics document");
  const Json* metrics = doc.find("metrics");
  if (metrics == nullptr) return;
  for (const Json& m : metrics->array()) {
    const Json* has_name = m.find("name");
    HOMP_REQUIRE(has_name != nullptr && has_name->is_string(),
                 "malformed metrics entry (missing 'name')");
    const std::string& name = m.string_or_empty("name");
    const std::string& labels = m.string_or_empty("labels");
    const std::string& type = m.string_or_empty("type");
    if (type == "counter") {
      reg.add(name, labels, m.number_or("value", 0.0));
    } else if (type == "gauge") {
      reg.set(name, labels, m.number_or("value", 0.0));
    } else if (type == "histogram") {
      // Exact reconstruction: the exporter emits cumulative counts for
      // finite buckets 0..last in order, then "+Inf" with the total.
      // Per-bucket counts are the cumulative diffs; any remainder beyond
      // the last finite entry can only live in the final bucket
      // (write_json collapses trailing-empty buckets into +Inf).
      obs::Histogram h;
      std::uint64_t prev = 0;
      int idx = 0;
      const auto total =
          static_cast<std::uint64_t>(m.number_or("count", 0.0));
      if (const Json* buckets = m.find("buckets"); buckets != nullptr) {
        for (const Json& b : buckets->array()) {
          const Json* le = b.find("le");
          if (le == nullptr || !le->is_number()) continue;  // "+Inf" row
          const auto cum = static_cast<std::uint64_t>(b.number_or("count", 0));
          h.add_bucket(idx, cum - prev);
          prev = cum;
          ++idx;
        }
      }
      if (total > prev) {
        h.add_bucket(obs::Histogram::kNumBuckets - 1, total - prev);
      }
      h.add_sum(m.number_or("sum", 0.0));
      reg.merge_histogram(name, labels, h);
    }
  }
}

ArtifactKind Session::add(const Json& doc, const std::string& origin) {
  const ArtifactKind kind = classify(doc);
  switch (kind) {
    case ArtifactKind::kAudit:
      runs.push_back(load_audit(doc));
      break;
    case ArtifactKind::kServeAudit:
      serve_runs.push_back(load_serve_audit(doc));
      break;
    case ArtifactKind::kMetrics:
      load_metrics(doc, metrics);
      ++metrics_files;
      break;
    case ArtifactKind::kTrace:
      traces.push_back(reduce_trace(doc));
      traces.back().origin = origin;
      break;
    case ArtifactKind::kBench:
      ++bench_files;
      break;
    case ArtifactKind::kUnknown:
      HOMP_REQUIRE(false, "unrecognized HOMP artifact: " + origin +
                              " (expected a decision audit, serve audit, "
                              "metrics, trace, or bench record)");
  }
  return kind;
}

ArtifactKind Session::load(const std::string& path) {
  return add(Json::parse_file(path), path);
}

}  // namespace homp::advise
