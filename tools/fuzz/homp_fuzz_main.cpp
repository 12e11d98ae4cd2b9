/// \file homp_fuzz_main.cpp
/// The homp-fuzz command-line driver (docs/FUZZING.md).
///
///   homp-fuzz --seed N --count M [--max-devices K] [--repro-dir DIR]
///             [--summary-out FILE] [--no-shrink] [--plant corrupt-commit]
///             [--reverse-ties]
///   homp-fuzz --serve --seed N --count M [--max-tenants T] [--max-jobs J]
///             [--repro-dir DIR] [--summary-out FILE] [--no-shrink]
///             [--reverse-ties]
///   homp-fuzz --replay FILE.toml
///
/// --replay sniffs the repro file: a [serve] section replays through the
/// serve-mode oracle, anything else through the single-offload
/// differential oracle.
///
/// Exit codes, corpus mode:   0 = no invariant violations,
///                            1 = violations found (repros written),
///                            2 = unusable configuration.
/// Exit codes, replay mode:   0 = the recorded violation reproduced,
///                            1 = it did NOT reproduce,
///                            2 = unreadable/malformed repro file.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "fuzz/driver.h"
#include "fuzz/serve_driver.h"

namespace {

void usage(std::ostream& os) {
  os << "usage: homp-fuzz --seed N --count M [options]\n"
        "       homp-fuzz --serve --seed N --count M [options]\n"
        "       homp-fuzz --replay FILE.toml\n"
        "\n"
        "corpus options:\n"
        "  --seed N           first scenario seed (default 1)\n"
        "  --count M          scenarios to run (default 100)\n"
        "  --max-devices K    device cap incl. host (default 6; serve: 5)\n"
        "  --repro-dir DIR    where repro files go (default machines/fuzz)\n"
        "  --summary-out F    also write the summary JSON to F\n"
        "  --no-shrink        emit failing scenarios unminimized\n"
        "  --plant corrupt-commit\n"
        "                     plant the acceptance-test violation into\n"
        "                     every scenario (integrity off + scripted\n"
        "                     silent compute corruption)\n"
        "  --reverse-ties     pop same-timestamp events newest-first\n"
        "                     (docs/DETERMINISM.md): every invariant must\n"
        "                     still hold; works in both corpus modes\n"
        "\n"
        "serve mode (--serve): multi-tenant server scenarios checked\n"
        "against the serve-invariant catalog (fault containment, breaker,\n"
        "timer lifecycle, determinism):\n"
        "  --max-tenants T    tenant roster cap (default 4)\n"
        "  --max-jobs J       timed submissions per scenario (default 14)\n"
        "  --no-faults        admission/scheduling space only\n";
}

long long parse_ll(const std::string& flag, const char* value) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(value, &used);
    if (used == std::string(value).size()) return v;
  } catch (...) {
  }
  throw homp::ConfigError(flag + " needs an integer, got '" +
                          std::string(value) + "'");
}

/// Dispatch --replay on the repro file's own shape.
int run_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "homp-fuzz: cannot open repro file: " << path << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  if (homp::fuzz::is_serve_scenario(buf.str())) {
    const auto outcome = homp::fuzz::serve_replay(path);
    std::cout << "replay: " << path << " (serve)\n";
    std::cout << "recorded: " << outcome.recorded_invariant << "\n";
    for (const auto& v : outcome.violations) {
      std::cout << "violation: " << v.invariant << " " << v.detail << "\n";
    }
    if (outcome.reproduced) {
      std::cout << "REPRODUCED: invariant '" << outcome.recorded_invariant
                << "' failed again\n";
      return 0;
    }
    std::cout << "NOT REPRODUCED: invariant '" << outcome.recorded_invariant
              << "' held this time\n";
    return 1;
  }

  const auto outcome = homp::fuzz::replay(path);
  std::cout << "replay: " << path << "\n";
  std::cout << "recorded: " << outcome.recorded_invariant;
  if (!outcome.recorded_algorithm.empty()) {
    std::cout << " (" << outcome.recorded_algorithm << ")";
  }
  std::cout << "\n";
  for (const auto& v : outcome.violations) {
    std::cout << "violation: " << v.invariant << " [" << v.algorithm << "] "
              << v.detail << "\n";
  }
  if (outcome.reproduced) {
    std::cout << "REPRODUCED: invariant '" << outcome.recorded_invariant
              << "' failed again\n";
    return 0;
  }
  std::cout << "NOT REPRODUCED: invariant '" << outcome.recorded_invariant
            << "' held this time\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using homp::fuzz::FuzzConfig;
  using homp::fuzz::ServeFuzzConfig;
  FuzzConfig cfg;
  ServeFuzzConfig serve_cfg;
  bool serve = false;
  std::string summary_out;
  std::string replay_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw homp::ConfigError(arg + " needs a value");
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else if (arg == "--serve") {
        serve = true;
      } else if (arg == "--seed") {
        cfg.seed = static_cast<std::uint64_t>(parse_ll(arg, value()));
        serve_cfg.seed = cfg.seed;
      } else if (arg == "--count") {
        cfg.count = static_cast<int>(parse_ll(arg, value()));
        serve_cfg.count = cfg.count;
      } else if (arg == "--max-devices") {
        cfg.limits.max_devices = static_cast<int>(parse_ll(arg, value()));
        serve_cfg.limits.max_devices = cfg.limits.max_devices;
      } else if (arg == "--max-tenants") {
        serve_cfg.limits.max_tenants = static_cast<int>(parse_ll(arg, value()));
      } else if (arg == "--max-jobs") {
        serve_cfg.limits.max_jobs = static_cast<int>(parse_ll(arg, value()));
      } else if (arg == "--no-faults") {
        serve_cfg.limits.allow_faults = false;
      } else if (arg == "--repro-dir") {
        cfg.repro_dir = value();
        serve_cfg.repro_dir = cfg.repro_dir;
      } else if (arg == "--summary-out") {
        summary_out = value();
      } else if (arg == "--no-shrink") {
        cfg.shrink_failures = false;
        serve_cfg.shrink_failures = false;
      } else if (arg == "--plant") {
        const std::string what = value();
        if (what == "corrupt-commit") {
          cfg.plant = true;
        } else {
          throw homp::ConfigError("unknown --plant mode '" + what +
                                  "' (corrupt-commit)");
        }
      } else if (arg == "--reverse-ties") {
        cfg.reverse_ties = true;
        serve_cfg.reverse_ties = true;
      } else if (arg == "--replay") {
        replay_path = value();
      } else {
        throw homp::ConfigError("unknown argument '" + arg + "'");
      }
    }

    if (!replay_path.empty()) {
      return run_replay(replay_path);
    }

    if (serve) {
      if (cfg.plant) {
        throw homp::ConfigError("--plant is not a serve-mode option");
      }
      const auto summary = homp::fuzz::run_serve_fuzz(serve_cfg);
      if (!summary_out.empty()) {
        std::ofstream out(summary_out, std::ios::binary);
        if (!out.good()) {
          std::cerr << "homp-fuzz: cannot write " << summary_out << "\n";
          return 2;
        }
        out << summary.json;
      }
      std::cout << summary.json;
      std::cerr << "homp-fuzz: " << summary.scenarios << " serve scenarios, "
                << summary.jobs << " jobs (" << summary.completed
                << " completed, " << summary.failed << " failed, "
                << summary.cancelled << " cancelled), " << summary.violations
                << " violations\n";
      for (const auto& f : summary.failures) {
        std::cerr << "  seed " << f.seed << ": " << f.invariant
                  << (f.repro_toml.empty() ? "" : " -> " + f.repro_toml)
                  << "\n";
      }
      return summary.violations == 0 ? 0 : 1;
    }

    const auto summary = homp::fuzz::run_fuzz(cfg);
    if (!summary_out.empty()) {
      std::ofstream out(summary_out, std::ios::binary);
      if (!out.good()) {
        std::cerr << "homp-fuzz: cannot write " << summary_out << "\n";
        return 2;
      }
      out << summary.json;
    }
    std::cout << summary.json;
    std::cerr << "homp-fuzz: " << summary.scenarios << " scenarios, "
              << summary.offloads << " offloads, " << summary.violations
              << " violations\n";
    for (const auto& f : summary.failures) {
      std::cerr << "  seed " << f.seed << ": " << f.invariant << " ["
                << f.algorithm << "]"
                << (f.repro_toml.empty() ? "" : " -> " + f.repro_toml)
                << "\n";
    }
    return summary.violations == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "homp-fuzz: " << e.what() << "\n";
    return 2;
  }
}
