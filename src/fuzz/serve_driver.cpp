#include "fuzz/serve_driver.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "fuzz/scenario.h"
#include "machine/parser.h"

namespace homp::fuzz {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  HOMP_REQUIRE(out.good(), "cannot write repro file: " + path);
  out << content;
  HOMP_REQUIRE(out.good(), "short write to repro file: " + path);
}

bool still_fails(const ServeScenarioSpec& s, const std::string& invariant,
                 int& runs_left) {
  if (runs_left <= 0) return false;
  --runs_left;
  const ServeOracleReport r = run_serve_oracle(s);
  for (const auto& v : r.violations) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

int faulty_tenants(const ServeScenarioSpec& s) {
  int n = 0;
  for (const auto& t : s.tenants) {
    if (t.fault.any()) ++n;
  }
  return n;
}

/// Greedy serve-scenario minimizer: drop jobs, drop whole tenants (with
/// their jobs), halve problem sizes, clear fault scripts — accepting any
/// edit after which `invariant` still fails, until a full sweep makes no
/// progress or the oracle budget runs out. The result is still a valid
/// scenario: jobs always reference live tenants and sizes stay
/// kernel-quantized.
ServeScenarioSpec shrink_serve(const ServeScenarioSpec& start,
                               const std::string& invariant, int budget) {
  ServeScenarioSpec cur = start;
  int runs_left = budget;
  bool progressed = true;
  while (progressed && runs_left > 0) {
    progressed = false;

    // 1. drop individual jobs
    for (std::size_t i = 0; i < cur.jobs.size() && runs_left > 0;) {
      if (cur.jobs.size() == 1) break;  // an empty run exercises nothing
      ServeScenarioSpec cand = cur;
      cand.jobs.erase(cand.jobs.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(cand, invariant, runs_left)) {
        cur = std::move(cand);
        progressed = true;
      } else {
        ++i;
      }
    }

    // 2. drop whole tenants (and their jobs; remap the survivors)
    for (std::size_t t = 0; t < cur.tenants.size() && runs_left > 0;) {
      if (cur.tenants.size() == 1) break;
      ServeScenarioSpec cand = cur;
      cand.tenants.erase(cand.tenants.begin() +
                         static_cast<std::ptrdiff_t>(t));
      for (std::size_t j = 0; j < cand.jobs.size();) {
        if (cand.jobs[j].tenant == static_cast<int>(t)) {
          cand.jobs.erase(cand.jobs.begin() + static_cast<std::ptrdiff_t>(j));
        } else {
          if (cand.jobs[j].tenant > static_cast<int>(t)) {
            --cand.jobs[j].tenant;
          }
          ++j;
        }
      }
      if (!cand.jobs.empty() && still_fails(cand, invariant, runs_left)) {
        cur = std::move(cand);
        progressed = true;
      } else {
        ++t;
      }
    }

    // 3. halve job sizes (kernel-quantized, floored at min_trip)
    for (std::size_t i = 0; i < cur.jobs.size() && runs_left > 0; ++i) {
      while (cur.jobs[i].job.n > min_trip(cur.jobs[i].job.kernel) &&
             runs_left > 0) {
        ServeScenarioSpec cand = cur;
        cand.jobs[i].job.n =
            quantize_trip(cand.jobs[i].job.kernel, cand.jobs[i].job.n / 2);
        if (cand.jobs[i].job.n == cur.jobs[i].job.n) break;
        if (!still_fails(cand, invariant, runs_left)) break;
        cur = std::move(cand);
        progressed = true;
      }
    }

    // 4. clear per-tenant fault scripts
    for (std::size_t t = 0; t < cur.tenants.size() && runs_left > 0; ++t) {
      if (!cur.tenants[t].fault.any()) continue;
      ServeScenarioSpec cand = cur;
      cand.tenants[t].fault = sim::FaultProfile{};
      if (still_fails(cand, invariant, runs_left)) {
        cur = std::move(cand);
        progressed = true;
      }
    }
  }
  return cur;
}

}  // namespace

ServeFuzzSummary run_serve_fuzz(const ServeFuzzConfig& cfg) {
  HOMP_REQUIRE(cfg.count >= 1, "serve fuzz corpus needs count >= 1");
  ServeFuzzSummary summary;
  std::ostringstream scenarios_json;

  for (int i = 0; i < cfg.count; ++i) {
    const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(i);
    ServeScenarioSpec s = generate_serve_scenario(seed, cfg.limits);
    s.reverse_ties = cfg.reverse_ties;

    const ServeOracleReport report = run_serve_oracle(s);
    ++summary.scenarios;
    summary.jobs += static_cast<int>(s.jobs.size());
    summary.completed += report.completed;
    summary.failed += report.failed;
    summary.cancelled += report.cancelled;
    summary.rejected += report.rejected;
    summary.breaker_trips += report.breaker_trips;
    summary.violations += static_cast<int>(report.violations.size());

    if (summary.scenarios > 1) scenarios_json << ",\n";
    scenarios_json << "    {\"seed\": " << seed
                   << ", \"tenants\": " << s.tenants.size()
                   << ", \"jobs\": " << s.jobs.size()
                   << ", \"completed\": " << report.completed
                   << ", \"failed\": " << report.failed
                   << ", \"cancelled\": " << report.cancelled
                   << ", \"rejected\": " << report.rejected
                   << ", \"breaker_trips\": " << report.breaker_trips
                   << ", \"violations\": " << report.violations.size()
                   << ", \"digest\": " << jstr(hex64(report.digest())) << "}";

    if (report.violations.empty()) continue;

    // --- failing scenario: shrink, then emit a self-contained repro ---
    const Violation& primary = report.violations.front();
    ServeScenarioSpec minimal = s;
    if (cfg.shrink_failures) {
      minimal = shrink_serve(s, primary.invariant, cfg.shrink_budget);
    }
    const ServeOracleReport min_report = run_serve_oracle(minimal);
    const Violation* rec = &primary;
    for (const auto& v : min_report.violations) {
      if (v.invariant == primary.invariant) {
        rec = &v;
        break;
      }
    }

    ServeFailureRecord fr;
    fr.seed = seed;
    fr.invariant = primary.invariant;
    fr.detail = rec->detail;
    fr.shrunk_tenants = static_cast<int>(minimal.tenants.size());
    fr.shrunk_jobs = static_cast<int>(minimal.jobs.size());
    fr.shrunk_faulty_tenants = faulty_tenants(minimal);

    if (static_cast<int>(summary.failures.size()) < cfg.max_repros) {
      std::error_code ec;
      std::filesystem::create_directories(cfg.repro_dir, ec);
      HOMP_REQUIRE(!ec, "cannot create repro directory: " + cfg.repro_dir);
      const std::string stem = "serve-repro-" + std::to_string(seed);
      const std::string ini_name = stem + ".ini";
      const std::string toml_path = cfg.repro_dir + "/" + stem + ".toml";
      write_file(cfg.repro_dir + "/" + ini_name,
                 mach::to_text(minimal.machine));
      write_file(toml_path,
                 serve_to_toml(minimal, ini_name, primary.invariant));
      fr.repro_toml = toml_path;
    }
    summary.failures.push_back(std::move(fr));
  }

  // --- deterministic summary document ---
  std::ostringstream os;
  os << "{\n";
  os << "  \"config\": {\"mode\": \"serve\", \"seed\": " << cfg.seed
     << ", \"count\": " << cfg.count
     << ", \"max_devices\": " << cfg.limits.max_devices
     << ", \"max_tenants\": " << cfg.limits.max_tenants
     << ", \"max_jobs\": " << cfg.limits.max_jobs
     << ", \"reverse_ties\": " << (cfg.reverse_ties ? "true" : "false")
     << "},\n";
  os << "  \"invariants\": [";
  const auto& names = serve_invariant_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) os << ", ";
    os << jstr(names[i]);
  }
  os << "],\n";
  os << "  \"scenarios\": " << summary.scenarios << ",\n";
  os << "  \"jobs\": " << summary.jobs << ",\n";
  os << "  \"completed\": " << summary.completed << ",\n";
  os << "  \"failed\": " << summary.failed << ",\n";
  os << "  \"cancelled\": " << summary.cancelled << ",\n";
  os << "  \"rejected\": " << summary.rejected << ",\n";
  os << "  \"breaker_trips\": " << summary.breaker_trips << ",\n";
  os << "  \"violations\": " << summary.violations << ",\n";
  os << "  \"runs\": [\n" << scenarios_json.str() << "\n  ],\n";
  os << "  \"failures\": [";
  for (std::size_t i = 0; i < summary.failures.size(); ++i) {
    const auto& f = summary.failures[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"seed\": " << f.seed << ", \"invariant\": " << jstr(f.invariant)
       << ", \"detail\": " << jstr(f.detail)
       << ", \"repro\": " << jstr(f.repro_toml)
       << ", \"shrunk_tenants\": " << f.shrunk_tenants
       << ", \"shrunk_jobs\": " << f.shrunk_jobs
       << ", \"shrunk_faulty_tenants\": " << f.shrunk_faulty_tenants << "}";
  }
  os << (summary.failures.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  summary.json = os.str();
  return summary;
}

ServeReplayOutcome serve_replay(const std::string& toml_path) {
  std::ifstream in(toml_path);
  HOMP_REQUIRE(in.good(), "cannot open repro file: " + toml_path);
  std::ostringstream buf;
  buf << in.rdbuf();

  ParsedServeScenario parsed = parse_serve_scenario(buf.str());
  HOMP_REQUIRE(!parsed.machine_file.empty(),
               "repro file records no machine_file: " + toml_path);
  HOMP_REQUIRE(!parsed.invariant.empty(),
               "repro file records no failing invariant: " + toml_path);

  std::filesystem::path machine_path(parsed.machine_file);
  if (machine_path.is_relative()) {
    machine_path =
        std::filesystem::path(toml_path).parent_path() / machine_path;
  }
  parsed.scenario.machine = mach::load_machine_file(machine_path.string());
  parsed.scenario.replay = true;

  ServeReplayOutcome out;
  out.recorded_invariant = parsed.invariant;
  ServeOracleReport report = run_serve_oracle(parsed.scenario);
  out.violations = std::move(report.violations);
  for (const auto& v : out.violations) {
    if (v.invariant == out.recorded_invariant) {
      out.reproduced = true;
      break;
    }
  }
  return out;
}

}  // namespace homp::fuzz
