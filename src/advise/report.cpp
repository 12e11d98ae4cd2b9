#include "advise/report.h"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "advise/report_keys.h"
#include "advise/session.h"
#include "common/error.h"

namespace homp::advise {

namespace {

/// The registry's deterministic rendering rule: integers bare, all other
/// finite doubles through %.17g (or fewer significant `digits`).
std::string num(double v, int digits = 17) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

/// Compact rendering for the text report.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void escape_into(std::ostream& os, const std::string& s) {
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"') {
      os << "\\\"";
    } else if (c == '\\') {
      os << "\\\\";
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      os << buf;
    } else {
      os << c;
    }
  }
}

/// Line-safe rendering for the text summary: a backslash or control byte
/// is written as a C escape, so a hostile name never spans two lines or
/// forges a `key: value` line of its own.
std::string line_safe(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (u < 0x20 || u == 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::size_t capped(std::size_t n, std::size_t top) {
  return top == 0 || top > n ? n : top;
}

}  // namespace

void write_report(const std::vector<Inspection>& findings, std::ostream& os,
                  std::size_t top) {
  const std::size_t n = capped(findings.size(), top);
  if (findings.empty()) {
    os << "homp-advise: no findings — nothing to tune on this evidence.\n";
    return;
  }
  os << "homp-advise: " << findings.size() << " finding"
     << (findings.size() == 1 ? "" : "s");
  if (n < findings.size()) os << " (showing top " << n << ")";
  os << ", ranked by estimated virtual-time saving\n";
  for (std::size_t i = 0; i < n; ++i) {
    const Inspection& f = findings[i];
    os << '\n'
       << (i + 1) << ". [" << f.severity << "] " << f.kind;
    if (!f.device.empty()) os << " @ " << f.device;
    if (!f.tenant.empty()) os << " @ tenant " << f.tenant;
    if (f.saving_s > 0.0) {
      os << "  (est. saving " << fmt(f.saving_s) << "s/run)";
    }
    os << "\n   evidence: " << f.evidence << "\n   knob: " << f.knob << '\n';
  }
}

void write_report_json(const std::vector<Inspection>& findings,
                       std::ostream& os, std::size_t top) {
  const std::size_t n = capped(findings.size(), top);
  os << "{\n  \"" << kReportVersionKey << "\": 1,\n  \"" << kFindingsKey
     << "\": [";
  for (std::size_t i = 0; i < n; ++i) {
    const Inspection& f = findings[i];
    os << (i ? ",\n" : "\n") << "    {\"kind\": \"";
    escape_into(os, f.kind);
    os << "\", \"severity\": \"";
    escape_into(os, f.severity);
    os << "\", \"device\": \"";
    escape_into(os, f.device);
    os << "\", \"tenant\": \"";
    escape_into(os, f.tenant);
    os << "\", \"saving_s\": " << num(f.saving_s)
       << ", \"runs_present\": " << f.runs_present
       << ", \"runs_total\": " << f.runs_total
       << ", \"persistent\": " << (f.persistent ? "true" : "false")
       << ", \"evidence\": \"";
    escape_into(os, f.evidence);
    os << "\", \"knob\": \"";
    escape_into(os, f.knob);
    os << "\"}";
  }
  os << "\n  ]\n}\n";
}

void write_summary(const TraceEvidence& tr, std::ostream& os) {
  // 12 significant digits: the figures are microseconds derived from
  // second-scaled intervals, and the last digits are rounding noise.
  os << "homp-advise summary: " << tr.origin << '\n';
  for (const auto& [key, v] : tr.summary) {
    os << line_safe(key) << ": "
       << (v.is_string() ? line_safe(v.string()) : num(v.number(), 12))
       << '\n';
  }
  if (tr.timeline.empty()) return;
  os << "timeline:\n";
  for (const TraceInstant& in : tr.timeline) {
    os << "  t=" << num(in.ts_us, 12) << "us " << line_safe(in.device) << ' '
       << line_safe(in.cat) << ": " << line_safe(in.name) << '\n';
  }
}

namespace {

/// Leaf name of a flattened path ("scenarios/x/events_per_sec" ->
/// "events_per_sec").
std::string leaf(const std::string& path) {
  const std::size_t sl = path.rfind('/');
  return sl == std::string::npos ? path : path.substr(sl + 1);
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

enum class Direction { kHigherBetter, kLowerBetter, kNeutral };

/// Good direction of a flattened key, by its leaf name. Conservative:
/// only obviously-directional families regress; everything else is a
/// neutral change (reported, never failing the sentinel).
Direction direction_of(const std::string& path) {
  std::string k = leaf(path);
  if (k == "value") {
    // Metrics rows keep their number under a generic "value" leaf; the
    // directional name is the parent component, minus its {label} set.
    std::string name = leaf(path.substr(0, path.rfind('/')));
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) name.resize(brace);
    if (name != "value") k = name;
  }
  if (ends_with(k, "_per_sec") || contains(k, "goodput") ||
      k == kSumOverlapRatio) {
    return Direction::kHigherBetter;
  }
  if (contains(k, "p99") || contains(k, "p50") || contains(k, "latency") ||
      contains(k, "violation") || ends_with(k, "_seconds") ||
      ends_with(k, "_seconds_total") || k == "total_time_s" ||
      k == "makespan_s" || ends_with(k, "overhead") || k == kSumTotalTime ||
      ends_with(k, kSumCriticalPath) || ends_with(k, kSumMakespan) ||
      ends_with(k, kSumImbalance)) {
    return Direction::kLowerBetter;
  }
  return Direction::kNeutral;
}

/// Flatten numeric (and boolean) leaves into path -> value pairs, in
/// document order. Array elements key by member "name" when present so
/// bench scenarios line up even if reordered; metrics rows additionally
/// carry their label set, which disambiguates the many series sharing
/// one metric name.
void flatten(const Json& v, const std::string& path,
             std::vector<std::pair<std::string, double>>& out) {
  switch (v.type()) {
    case Json::Type::kNumber:
    case Json::Type::kBool:
      out.emplace_back(path, v.is_bool() ? (v.boolean() ? 1.0 : 0.0)
                                         : v.number());
      break;
    case Json::Type::kObject:
      for (const auto& [k, child] : v.members()) {
        flatten(child, path.empty() ? k : path + '/' + k, out);
      }
      break;
    case Json::Type::kArray: {
      const auto& items = v.array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        std::string key = std::to_string(i);
        if (items[i].is_object()) {
          const std::string& name = items[i].string_or_empty("name");
          if (!name.empty()) {
            key = name;
            const std::string& labels = items[i].string_or_empty("labels");
            if (!labels.empty()) key += '{' + labels + '}';
          }
        }
        flatten(items[i], path.empty() ? key : path + '/' + key, out);
      }
      break;
    }
    default:
      break;  // strings and nulls don't diff numerically
  }
}

/// The diffable leaves of an artifact. A trace diffs by its summary, not
/// its raw events; a text value joins its key ("critical_device=gpu1"),
/// so a changed device shows as one key leaving and another arriving.
void leaves(const Json& doc, std::vector<std::pair<std::string, double>>& out) {
  if (classify(doc) != ArtifactKind::kTrace) {
    flatten(doc, "", out);
    return;
  }
  for (const auto& [key, v] : reduce_trace(doc).summary) {
    if (v.is_string()) {
      out.emplace_back(key + '=' + v.string(), 1.0);
    } else {
      out.emplace_back(key, v.number());
    }
  }
}

}  // namespace

DiffResult diff_artifacts(const Json& before, const Json& after,
                          double tolerance) {
  HOMP_REQUIRE(classify(before) == classify(after),
               std::string("cannot diff different artifact kinds: ") +
                   to_string(classify(before)) + " vs " +
                   to_string(classify(after)));

  std::vector<std::pair<std::string, double>> a, b;
  leaves(before, a);
  leaves(after, b);

  auto find_in = [](const std::vector<std::pair<std::string, double>>& v,
                    const std::string& key) -> const double* {
    for (const auto& [k, val] : v) {
      if (k == key) return &val;
    }
    return nullptr;
  };

  DiffResult r;
  for (const auto& [key, before_v] : a) {
    const double* after_p = find_in(b, key);
    if (after_p == nullptr) {
      r.changes.push_back({key, before_v, 0.0, 0.0, true});
      continue;
    }
    const double after_v = *after_p;
    if (before_v == after_v) continue;
    DiffEntry e{key, before_v, after_v, 0.0, false};
    if (before_v != 0.0) e.rel = (after_v - before_v) / std::fabs(before_v);
    const Direction dir = direction_of(key);
    const bool past_tolerance =
        before_v == 0.0 ? true : std::fabs(e.rel) > tolerance;
    if (!past_tolerance) continue;
    const bool worse =
        (dir == Direction::kHigherBetter && after_v < before_v) ||
        (dir == Direction::kLowerBetter && after_v > before_v);
    if (worse) {
      r.regressions.push_back(std::move(e));
    } else {
      r.changes.push_back(std::move(e));
    }
  }
  for (const auto& [key, after_v] : b) {
    if (find_in(a, key) == nullptr) {
      r.changes.push_back({key, 0.0, after_v, 0.0, true, true});
    }
  }
  return r;
}

namespace {

void write_entry_text(const DiffEntry& e, std::ostream& os) {
  os << "  " << line_safe(e.key) << ": ";
  if (e.structural) {
    if (e.only_in_b) {
      os << "only in B (" << fmt(e.after) << ")";
    } else {
      os << "only in A (" << fmt(e.before) << ")";
    }
  } else {
    os << fmt(e.before) << " -> " << fmt(e.after);
    if (e.rel != 0.0) {
      os << " (" << (e.rel > 0 ? "+" : "") << fmt(e.rel * 100.0) << "%)";
    }
  }
  os << '\n';
}

void write_entry_json(const DiffEntry& e, std::ostream& os) {
  os << "    {\"key\": \"";
  escape_into(os, e.key);
  // The side a structural key is absent from is null, not 0.
  const bool only_in_a = e.structural && !e.only_in_b;
  os << "\", \"before\": " << (e.only_in_b ? "null" : num(e.before))
     << ", \"after\": " << (only_in_a ? "null" : num(e.after))
     << ", \"rel\": " << num(e.rel)
     << ", \"structural\": " << (e.structural ? "true" : "false") << '}';
}

}  // namespace

void write_diff(const DiffResult& r, double tolerance, std::ostream& os) {
  if (r.identical()) {
    os << "homp-advise diff: identical within tolerance " << fmt(tolerance)
       << '\n';
    return;
  }
  os << "homp-advise diff (tolerance " << fmt(tolerance) << "): "
     << r.regressions.size() << " regression"
     << (r.regressions.size() == 1 ? "" : "s") << ", " << r.changes.size()
     << " other change" << (r.changes.size() == 1 ? "" : "s") << '\n';
  if (!r.regressions.empty()) {
    os << "regressions:\n";
    for (const DiffEntry& e : r.regressions) write_entry_text(e, os);
  }
  if (!r.changes.empty()) {
    os << "changes:\n";
    for (const DiffEntry& e : r.changes) write_entry_text(e, os);
  }
}

void write_diff_json(const DiffResult& r, double tolerance, std::ostream& os) {
  os << "{\n  \"" << kDiffVersionKey
     << "\": 1,\n  \"tolerance\": " << num(tolerance) << ",\n  \""
     << kRegressionsKey << "\": [";
  for (std::size_t i = 0; i < r.regressions.size(); ++i) {
    os << (i ? ",\n" : "\n");
    write_entry_json(r.regressions[i], os);
  }
  os << (r.regressions.empty() ? "]" : "\n  ]") << ",\n  \"" << kChangesKey
     << "\": [";
  for (std::size_t i = 0; i < r.changes.size(); ++i) {
    os << (i ? ",\n" : "\n");
    write_entry_json(r.changes[i], os);
  }
  os << (r.changes.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace homp::advise
