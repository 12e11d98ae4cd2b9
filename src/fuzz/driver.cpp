#include "fuzz/driver.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "fuzz/shrink.h"
#include "machine/parser.h"

namespace homp::fuzz {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// violation details may quote file paths or carry newlines.
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

}  // namespace

FuzzSummary run_fuzz(const FuzzConfig& cfg) {
  HOMP_REQUIRE(cfg.count >= 1, "fuzz corpus needs count >= 1");
  FuzzSummary summary;
  std::ostringstream scenarios_json;

  for (int i = 0; i < cfg.count; ++i) {
    const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(i);
    ScenarioSpec s = generate_scenario(seed, cfg.limits);
    if (cfg.plant) plant_corrupt_commit(s);
    s.reverse_ties = cfg.reverse_ties;

    const OracleReport report = run_oracle(s);
    ++summary.scenarios;
    summary.offloads += static_cast<int>(report.runs.size());
    summary.violations += static_cast<int>(report.violations.size());

    if (summary.scenarios > 1) scenarios_json << ",\n";
    scenarios_json << "    {\"seed\": " << seed << ", \"kernel\": "
                   << jstr(s.kernel) << ", \"n\": " << s.n
                   << ", \"devices\": " << s.machine.devices.size()
                   << ", \"faults\": " << s.faults.size()
                   << ", \"violations\": " << report.violations.size()
                   << ", \"digest\": " << jstr(hex64(report.digest())) << "}";

    if (report.violations.empty()) continue;

    // --- failing scenario: shrink, then emit a self-contained repro ---
    const Violation& primary = report.violations.front();
    ScenarioSpec minimal = s;
    if (cfg.shrink_failures) {
      minimal = shrink(s, primary.invariant, cfg.shrink_budget).scenario;
    }
    // The minimized scenario's own report names the algorithm/detail to
    // record (shrinking may have moved the failure between algorithms).
    const OracleReport min_report = run_oracle(minimal);
    const Violation* rec = &primary;
    for (const auto& v : min_report.violations) {
      if (v.invariant == primary.invariant) {
        rec = &v;
        break;
      }
    }

    FailureRecord fr;
    fr.seed = seed;
    fr.invariant = primary.invariant;
    fr.algorithm = rec->algorithm;
    fr.detail = rec->detail;
    fr.shrunk_devices = static_cast<int>(minimal.machine.devices.size());
    fr.shrunk_n = minimal.n;
    fr.shrunk_faults = static_cast<int>(minimal.faults.size());

    if (static_cast<int>(summary.failures.size()) < cfg.max_repros) {
      std::error_code ec;
      std::filesystem::create_directories(cfg.repro_dir, ec);
      HOMP_REQUIRE(!ec, "cannot create repro directory: " + cfg.repro_dir);
      const std::string stem = "repro-" + std::to_string(seed);
      const std::string ini_name = stem + ".ini";
      const std::string toml_path = cfg.repro_dir + "/" + stem + ".toml";
      write_file(cfg.repro_dir + "/" + ini_name,
                 mach::to_text(minimal.machine));
      write_file(toml_path, to_toml(minimal, ini_name, primary.invariant,
                                    rec->algorithm));
      fr.repro_toml = toml_path;
    }
    summary.failures.push_back(std::move(fr));
  }

  // --- deterministic summary document ---
  std::ostringstream os;
  os << "{\n";
  os << "  \"config\": {\"seed\": " << cfg.seed
     << ", \"count\": " << cfg.count
     << ", \"max_devices\": " << cfg.limits.max_devices
     << ", \"plant\": " << (cfg.plant ? "true" : "false")
     << ", \"reverse_ties\": " << (cfg.reverse_ties ? "true" : "false")
     << "},\n";
  os << "  \"invariants\": [";
  const auto& names = invariant_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) os << ", ";
    os << jstr(names[i]);
  }
  os << "],\n";
  os << "  \"scenarios\": " << summary.scenarios << ",\n";
  os << "  \"offloads\": " << summary.offloads << ",\n";
  os << "  \"violations\": " << summary.violations << ",\n";
  os << "  \"runs\": [\n" << scenarios_json.str() << "\n  ],\n";
  os << "  \"failures\": [";
  for (std::size_t i = 0; i < summary.failures.size(); ++i) {
    const auto& f = summary.failures[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"seed\": " << f.seed << ", \"invariant\": " << jstr(f.invariant)
       << ", \"algorithm\": " << jstr(f.algorithm)
       << ", \"detail\": " << jstr(f.detail)
       << ", \"repro\": " << jstr(f.repro_toml)
       << ", \"shrunk_devices\": " << f.shrunk_devices
       << ", \"shrunk_n\": " << f.shrunk_n
       << ", \"shrunk_faults\": " << f.shrunk_faults << "}";
  }
  os << (summary.failures.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  summary.json = os.str();
  return summary;
}

ReplayOutcome replay(const std::string& toml_path) {
  std::ifstream in(toml_path);
  HOMP_REQUIRE(in.good(), "cannot open repro file: " + toml_path);
  std::ostringstream buf;
  buf << in.rdbuf();

  ParsedScenario parsed = parse_scenario(buf.str());
  HOMP_REQUIRE(!parsed.machine_file.empty(),
               "repro file records no machine_file: " + toml_path);
  HOMP_REQUIRE(!parsed.invariant.empty(),
               "repro file records no failing invariant: " + toml_path);

  // The paired .ini lives next to the .toml.
  std::filesystem::path machine_path(parsed.machine_file);
  if (machine_path.is_relative()) {
    machine_path = std::filesystem::path(toml_path).parent_path() /
                   machine_path;
  }
  parsed.scenario.machine = mach::load_machine_file(machine_path.string());
  parsed.scenario.replay = true;

  ReplayOutcome out;
  out.recorded_invariant = parsed.invariant;
  out.recorded_algorithm = parsed.algorithm;
  OracleReport report = run_oracle(parsed.scenario);
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
