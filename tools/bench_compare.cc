// bench_compare: the verifier's performance regression gate.
//
//   bench_compare <fresh.json> <baseline.json> [--threshold F]
//
// Both files are BENCH_*.json artifacts (bench/bench_table.h format: a
// "records" array of {name, events_per_sec, wall_seconds, events}). Every
// record name present in BOTH files is compared on events_per_sec; the
// *gated* set is the exploration-throughput records (names starting with
// "arena", "legacy", "proof", or "oo_core" — the configs/s numbers the
// verifier's perf trajectory is defined by — plus the composition
// pipeline's "circuit/" records from BENCH_composition.json, so the gate
// covers both tables). If any gated fresh record falls more
// than `threshold` (default 0.30, i.e. 30%) below its baseline the tool
// prints the offenders and exits 1. Other shared records (e.g. the
// job-submission latency microbenches, which measure condvar wakeups and
// swing far more than 30% on virtualized hosts) are diffed for
// information only. Records only one side has — fast-mode runs emit a
// subset; new workloads appear over time — are reported but never fail
// the gate, so the committed baseline and the bench can evolve
// independently.
//
// Exit codes: 0 = no regression, 1 = regression, 2 = usage/parse error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json_value.h"

namespace {

struct Record {
  double events_per_sec = 0.0;
  double wall_seconds = 0.0;
};

/// A record's number; null (how the writer emits NaN/Inf) reads as 0.
double number_or_zero(const crnkit::util::JsonValue& record,
                      const char* key) {
  const crnkit::util::JsonValue& v = record.get(key);
  return v.is_null() ? 0.0 : v.as_double();
}

/// Loads {name -> record} from a bench_table.h-format JSON file: its
/// "records" array, each record with name, events_per_sec and
/// wall_seconds (other members, nested ones included, are ignored).
bool load_records(const std::string& path,
                  std::map<std::string, Record>& out,
                  std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    const crnkit::util::JsonValue doc =
        crnkit::util::JsonValue::parse(buffer.str());
    for (const crnkit::util::JsonValue& record : doc.get("records").items()) {
      out[record.get("name").as_string()] = {
          number_or_zero(record, "events_per_sec"),
          number_or_zero(record, "wall_seconds")};
    }
  } catch (const std::invalid_argument& e) {
    error = path + ": " + e.what();
    return false;
  }
  if (out.empty()) {
    error = path + " has an empty records array";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double threshold = 0.30;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::strtod(argv[++i], nullptr);
      if (threshold <= 0.0 || threshold >= 1.0) {
        std::fprintf(stderr,
                     "bench_compare: --threshold must be in (0, 1)\n");
        return 2;
      }
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare <fresh.json> <baseline.json> "
                 "[--threshold F]\n");
    return 2;
  }

  std::map<std::string, Record> fresh;
  std::map<std::string, Record> baseline;
  std::string error;
  if (!load_records(paths[0], fresh, error) ||
      !load_records(paths[1], baseline, error)) {
    std::fprintf(stderr, "bench_compare: %s\n", error.c_str());
    return 2;
  }

  const auto gated = [](const std::string& name) {
    return name.rfind("arena", 0) == 0 || name.rfind("legacy", 0) == 0 ||
           name.rfind("proof", 0) == 0 || name.rfind("oo_core", 0) == 0 ||
           name.rfind("circuit/", 0) == 0;
  };
  int compared = 0;
  int only_one_side = 0;
  std::vector<std::string> regressions;
  for (const auto& [name, base] : baseline) {
    const auto it = fresh.find(name);
    if (it == fresh.end()) {
      ++only_one_side;
      continue;
    }
    if (base.events_per_sec <= 0.0) continue;  // nothing to regress from
    const bool gate = gated(name);
    if (gate) ++compared;
    const double ratio = it->second.events_per_sec / base.events_per_sec;
    const bool regressed = gate && ratio < 1.0 - threshold;
    std::printf("%-44s %12.0f -> %12.0f  (%+.1f%%)%s\n", name.c_str(),
                base.events_per_sec, it->second.events_per_sec,
                (ratio - 1.0) * 100.0,
                regressed ? " REGRESSION" : (gate ? "" : "  [not gated]"));
    if (regressed) {
      char line[160];
      std::snprintf(line, sizeof(line), "%s: %.0f -> %.0f (%.1f%% drop)",
                    name.c_str(), base.events_per_sec,
                    it->second.events_per_sec, (1.0 - ratio) * 100.0);
      regressions.emplace_back(line);
    }
  }
  for (const auto& [name, rec] : fresh) {
    if (baseline.find(name) == baseline.end()) ++only_one_side;
    (void)rec;
  }

  std::printf("\ngated %d records (%d present on one side only), "
              "threshold %.0f%%\n",
              compared, only_one_side, threshold * 100.0);
  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_compare: no overlapping gated records to compare\n");
    return 2;
  }
  if (!regressions.empty()) {
    std::fprintf(stderr, "bench_compare: %zu regression(s) beyond %.0f%%:\n",
                 regressions.size(), threshold * 100.0);
    for (const std::string& r : regressions) {
      std::fprintf(stderr, "  %s\n", r.c_str());
    }
    return 1;
  }
  std::printf("no regressions beyond %.0f%%\n", threshold * 100.0);
  return 0;
}
