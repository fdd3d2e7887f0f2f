// Tests for the crnc CLI driver: every subcommand runs in-process against
// captured streams, --json output is syntactically valid JSON, exit codes
// distinguish success / check failure / usage error, and file workloads
// round-trip through compile -> verify.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/crnc.h"
#include "scenario/registry.h"
#include "util/json_value.h"

namespace crnkit::cli {
namespace {

struct RunResult {
  int status = -1;
  std::string out;
  std::string err;
};

RunResult run(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int status = run_crnc(args, out, err);
  return {status, out.str(), err.str()};
}

void expect_valid_json(const std::string& text) {
  EXPECT_NO_THROW((void)util::JsonValue::parse(text)) << "invalid JSON:\n"
                                                     << text;
}

TEST(Crnc, NoArgumentsPrintsUsageAndFails) {
  const auto r = run({});
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Crnc, HelpSucceeds) {
  EXPECT_EQ(run({"help"}).status, 0);
}

TEST(Crnc, UnknownCommandFailsWithUsage) {
  const auto r = run({"frobnicate"});
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Crnc, UnknownScenarioSuggests) {
  const auto r = run({"show", "fig1/minn"});
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("fig1/min"), std::string::npos) << r.err;
}

TEST(Crnc, UnknownFlagIsRejected) {
  const auto r = run({"list", "--bogus"});
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("--bogus"), std::string::npos);
}

TEST(Crnc, ListHumanAndJson) {
  const auto human = run({"list"});
  EXPECT_EQ(human.status, 0);
  EXPECT_NE(human.out.find("fig1/min"), std::string::npos);

  const auto json = run({"list", "--json"});
  EXPECT_EQ(json.status, 0);
  expect_valid_json(json.out);
  EXPECT_NE(json.out.find("\"scenarios\""), std::string::npos);
  EXPECT_NE(json.out.find("chain/compose-256"), std::string::npos);
}

TEST(Crnc, ListMarkdownEmitsTable) {
  const auto r = run({"list", "--markdown"});
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.out.find("| Scenario |"), std::string::npos);
  EXPECT_NE(r.out.find("`fig1/min`"), std::string::npos);
}

TEST(Crnc, ListTagFilter) {
  const auto r = run({"list", "--json", "--tag", "protocol"});
  EXPECT_EQ(r.status, 0);
  expect_valid_json(r.out);
  EXPECT_NE(r.out.find("protocol/majority"), std::string::npos);
  EXPECT_EQ(r.out.find("fig1/min"), std::string::npos);
}

TEST(Crnc, ShowJsonCarriesExpectedOutputs) {
  const auto r = run({"show", "fig1/twice", "--json"});
  EXPECT_EQ(r.status, 0);
  expect_valid_json(r.out);
  EXPECT_NE(r.out.find("\"verify_points\""), std::string::npos);
  EXPECT_NE(r.out.find("\"expected\""), std::string::npos);
  EXPECT_NE(r.out.find("\"crn_text\""), std::string::npos);
}

TEST(Crnc, CompileEmitsParsableText) {
  const auto r = run({"compile", "fig1/min"});
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.out.find("crn min"), std::string::npos);
  EXPECT_NE(r.out.find("rxn"), std::string::npos);
}

TEST(Crnc, CompileToFileThenVerifyAsFileWorkload) {
  const std::string path =
      testing::TempDir() + "/crnc_cli_test_doubling.crn";
  const auto compile = run({"compile", "fig1/twice", "--out", path});
  EXPECT_EQ(compile.status, 0);

  // File workloads carry no reference function: --input/--expect drive it.
  const auto good = run({"verify", path, "--input", "4", "--expect", "8"});
  EXPECT_EQ(good.status, 0) << good.err;
  const auto bad = run({"verify", path, "--input", "4", "--expect", "9"});
  EXPECT_EQ(bad.status, 1);
  const auto missing = run({"verify", path});
  EXPECT_EQ(missing.status, 2);
  std::remove(path.c_str());
}

TEST(Crnc, SimulateAgreesWithReference) {
  const auto r = run({"simulate", "fig1/min", "--input", "5,7",
                      "--trajectories", "4", "--seed", "7", "--json"});
  EXPECT_EQ(r.status, 0) << r.err;
  expect_valid_json(r.out);
  EXPECT_NE(r.out.find("\"expected\": 5"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"ok\": true"), std::string::npos) << r.out;
}

TEST(Crnc, SimulateBudgetCappedReportsInconclusiveNotAgreement) {
  // No trajectory reaches silence inside 3 events, so nothing was actually
  // compared against the reference — the output must say so instead of
  // claiming agreement.
  const auto r = run({"simulate", "fig1/min", "--input", "50,50",
                      "--trajectories", "2", "--max-events", "3", "--json"});
  EXPECT_EQ(r.status, 0) << r.err;
  expect_valid_json(r.out);
  EXPECT_NE(r.out.find("\"silent\": 0"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"compared\": false"), std::string::npos) << r.out;

  const auto human = run({"simulate", "fig1/min", "--input", "50,50",
                          "--trajectories", "2", "--max-events", "3"});
  EXPECT_NE(human.out.find("inconclusive"), std::string::npos) << human.out;
  EXPECT_EQ(human.out.find("agrees"), std::string::npos) << human.out;
}

TEST(Crnc, SimulateMethodsRun) {
  for (const char* method : {"silent", "direct", "next-reaction"}) {
    const auto r = run({"simulate", "fig1/twice", "--input", "20",
                        "--trajectories", "2", "--method", method,
                        "--json"});
    EXPECT_EQ(r.status, 0) << method << ": " << r.err;
    expect_valid_json(r.out);
  }
  // The population scheduler needs a bimolecular network.
  const auto r = run({"simulate", "protocol/floor-3x2", "--input", "12",
                      "--trajectories", "2", "--method", "population",
                      "--json"});
  EXPECT_EQ(r.status, 0) << r.err;
  expect_valid_json(r.out);
}

TEST(Crnc, VerifyScenarioJson) {
  const auto r = run({"verify", "fig1/min", "--json"});
  EXPECT_EQ(r.status, 0) << r.err;
  expect_valid_json(r.out);
  EXPECT_NE(r.out.find("\"ok\": true"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"proved\": 25"), std::string::npos) << r.out;
}

TEST(Crnc, VerifyGridOverride) {
  const auto r = run({"verify", "fig1/twice", "--grid", "3", "--json"});
  EXPECT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("\"proved\": 4"), std::string::npos) << r.out;
}

TEST(Crnc, VerifyStatsEmitsPerfFields) {
  const auto r = run({"verify", "fig1/min", "--stats", "--json"});
  EXPECT_EQ(r.status, 0) << r.err;
  expect_valid_json(r.out);
  for (const char* field : {"\"stats\"", "\"wall_seconds\"",
                            "\"configs_per_sec\"", "\"frontier_peak\"",
                            "\"arena_bytes\"", "\"edges\""}) {
    EXPECT_NE(r.out.find(field), std::string::npos) << field << "\n" << r.out;
  }
}

TEST(Crnc, VerifyThreadsIsDeterministic) {
  // Without --stats (no timings), the whole JSON report must be
  // byte-identical at any thread count.
  const auto serial = run({"verify", "thm52/fig7", "--threads", "1",
                           "--max-configs", "30000", "--json"});
  const auto parallel = run({"verify", "thm52/fig7", "--threads", "3",
                             "--max-configs", "30000", "--json"});
  EXPECT_EQ(serial.status, parallel.status);
  EXPECT_EQ(serial.out, parallel.out);
}

TEST(Crnc, VerifyTruncationIsInconclusiveNotPass) {
  // A budget too small for the reachable set must never produce a PASS:
  // exit 1 and per-point status "inconclusive".
  const auto r = run({"verify", "fig1/twice", "--input", "50",
                      "--max-configs", "5", "--json"});
  EXPECT_EQ(r.status, 1);
  expect_valid_json(r.out);
  EXPECT_NE(r.out.find("\"status\": \"inconclusive\""), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"complete\": false"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"inconclusive\": 1"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("\"status\": \"proved\""), std::string::npos) << r.out;
}

TEST(Crnc, VerifyUnverifiableSkipsUnlessForced) {
  const auto skipped = run({"verify", "fig1/2max-broken", "--json"});
  EXPECT_EQ(skipped.status, 0);
  expect_valid_json(skipped.out);
  EXPECT_NE(skipped.out.find("\"skipped\": true"), std::string::npos);

  const auto forced = run({"verify", "fig1/2max-broken", "--force"});
  EXPECT_EQ(forced.status, 1);
  EXPECT_NE(forced.out.find("FAILED"), std::string::npos);
}

TEST(Crnc, VerifyEveryRegisteredScenario) {
  // The catalog's contract behind `crnc list`: every registered scenario
  // verifies, or is tagged unverifiable (which `verify` reports as a
  // skip). New registrations are covered automatically.
  for (const std::string& name : scenario::Registry::builtin().names()) {
    const auto r = run({"verify", name, "--json"});
    EXPECT_EQ(r.status, 0) << name << ":\n" << r.out << r.err;
    expect_valid_json(r.out);
  }
}

TEST(Crnc, NumericFlagOverflowIsUsageErrorNotCrash) {
  // Out-of-range integers must surface as usage errors (exit 2), never as
  // an uncaught std::out_of_range terminating the process.
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"simulate", "fig1/min", "--max-steps", "99999999999999999999"},
           {"verify", "fig1/twice", "--max-configs",
            "99999999999999999999"},
           {"simulate", "fig1/min", "--trajectories", "-3"},
           {"bench", "fig1/min", "--events", "123abc"}}) {
    const auto r = run(args);
    EXPECT_EQ(r.status, 2) << args[2] << ": " << r.err;
    EXPECT_NE(r.err.find("nonnegative integer"), std::string::npos) << r.err;
  }
}

TEST(Crnc, InputPointOverflowIsUsageErrorNotCrash) {
  const auto huge = run({"verify", "fig1/min", "--input",
                         "99999999999999999999,1"});
  EXPECT_EQ(huge.status, 2) << huge.err;
  EXPECT_NE(huge.err.find("out of range"), std::string::npos) << huge.err;

  const auto junk = run({"simulate", "fig1/min", "--input", "3,x"});
  EXPECT_EQ(junk.status, 2) << junk.err;
}

TEST(Crnc, ComposeExpressionEndToEnd) {
  const auto r = run({"compose", "min(x1 + x2, 2*x3) + 1", "--verify",
                      "--simcheck", "--json"});
  EXPECT_EQ(r.status, 0) << r.err;
  expect_valid_json(r.out);
  EXPECT_NE(r.out.find("\"certified\": true"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"passes\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"verdict\": \"pass\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"non_silent_trials\": 0"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"ok\": true"), std::string::npos) << r.out;
}

TEST(Crnc, ComposeRandomFamilyShrinksAndVerifies) {
  const auto r = run({"compose", "circuit/random-12-1", "--verify",
                      "--json"});
  EXPECT_EQ(r.status, 0) << r.err;
  expect_valid_json(r.out);
  EXPECT_NE(r.out.find("\"modules\": 12"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"failed\": 0"), std::string::npos) << r.out;
  // The optimization passes must strictly shrink the compiled network.
  const auto number_after = [&r](const std::string& key) {
    const auto at = r.out.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    return std::stoll(r.out.substr(at + key.size()));
  };
  EXPECT_LT(number_after("\"species\": "), number_after("\"species_raw\": "));
  EXPECT_LT(number_after("\"reactions\": "),
            number_after("\"reactions_raw\": "));
}

TEST(Crnc, ComposeSimcheckTinyBudgetIsInconclusiveNotFail) {
  const auto r = run({"compose", "min(x1, x2)", "--simcheck", "--max-steps",
                      "1", "--json"});
  EXPECT_EQ(r.status, 1) << r.out;
  expect_valid_json(r.out);
  EXPECT_NE(r.out.find("\"verdict\": \"inconclusive\""), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"mismatches\": 0"), std::string::npos) << r.out;
}

TEST(Crnc, ComposeRejectsNonComposableModule) {
  // The paper's 2max demo: max consumes its output, Lemma 2.3 certifies it
  // non-composable, and compose refuses to build the broken circuit.
  const std::string path = testing::TempDir() + "/crnc_cli_test_2max.wire";
  {
    std::ofstream file(path);
    file << "circuit 2max\narity 2\n"
            "module m fig1/max\nmodule d fig1/twice\n"
            "connect x1 m.1\nconnect x2 m.2\nconnect m d.1\noutput d\n";
  }
  const auto r = run({"compose", path});
  EXPECT_EQ(r.status, 1) << r.out;
  EXPECT_NE(r.out.find("REJECTED (Lemma 2.3)"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("not composable by concatenation"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("certification FAILED"), std::string::npos) << r.out;

  const auto json = run({"compose", path, "--json"});
  EXPECT_EQ(json.status, 1);
  expect_valid_json(json.out);
  EXPECT_NE(json.out.find("\"composable\": false"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Crnc, ComposeWireFileBuildsCorrectCircuit) {
  // min into doubling — both modules oblivious, composes and verifies.
  const std::string path = testing::TempDir() + "/crnc_cli_test_2min.wire";
  {
    std::ofstream file(path);
    file << "circuit 2min  # f = 2*min(x1,x2)\narity 2\n"
            "module m fig1/min\nmodule d fig1/twice\n"
            "connect x1 m.1\nconnect x2 m.2\nconnect m d.1\noutput d\n";
  }
  const auto r = run({"compose", path, "--out",
                      testing::TempDir() + "/crnc_cli_test_2min.crn"});
  EXPECT_EQ(r.status, 0) << r.out;
  // No reference function in a wire file: the compiled artifact is checked
  // through the file-workload verify path instead.
  const auto check = run({"verify",
                          testing::TempDir() + "/crnc_cli_test_2min.crn",
                          "--input", "3,5", "--expect", "6"});
  EXPECT_EQ(check.status, 0) << check.err;
  std::remove(path.c_str());
  std::remove((testing::TempDir() + "/crnc_cli_test_2min.crn").c_str());
}

TEST(Crnc, ComposeRejectsReservedModuleId) {
  // `x<digits>` names external inputs in wire sources; a module with that
  // id would be unreferenceable, so the parser refuses it up front.
  const std::string path = testing::TempDir() + "/crnc_cli_test_xid.wire";
  {
    std::ofstream file(path);
    file << "circuit bad\narity 1\nmodule x1 fig1/twice\n"
            "connect x1 x1.1\noutput x1\n";
  }
  const auto r = run({"compose", path});
  EXPECT_EQ(r.status, 2) << r.out;
  EXPECT_NE(r.err.find("reserved for external inputs"), std::string::npos)
      << r.err;
  std::remove(path.c_str());
}

TEST(Crnc, ComposeParseErrorIsUsageError) {
  const auto r = run({"compose", "min(x1"});
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("parse error"), std::string::npos) << r.err;

  // General max is not obliviously computable; the parser says so.
  const auto max2 = run({"compose", "max(x1, x2)"});
  EXPECT_EQ(max2.status, 2);
  EXPECT_NE(max2.err.find("not obliviously computable"), std::string::npos)
      << max2.err;
}

TEST(Crnc, BenchEmitsRecordShape) {
  const auto r = run({"bench", "fig1/min", "--trajectories", "2", "--events",
                      "50000", "--json"});
  EXPECT_EQ(r.status, 0) << r.err;
  expect_valid_json(r.out);
  EXPECT_NE(r.out.find("\"events_per_sec\""), std::string::npos);
  EXPECT_NE(r.out.find("\"wall_seconds\""), std::string::npos);
}

TEST(Crnc, EveryJsonOutputCarriesSchemaVersion) {
  // All subcommands route through svc::Service and its typed response
  // serializers; every --json top-level object leads with the wire schema
  // version so daemon clients and CLI consumers parse the same shape.
  const std::vector<std::vector<std::string>> commands = {
      {"list", "--json"},
      {"show", "fig1/min", "--json"},
      {"compile", "fig1/min", "--json"},
      {"simulate", "fig1/twice", "--trajectories", "4", "--json"},
      {"verify", "fig1/min", "--json"},
      {"bench", "fig1/min", "--trajectories", "2", "--events", "20000",
       "--json"},
      {"compose", "min(x1, x2) + 1", "--json"},
  };
  for (const auto& argv : commands) {
    const auto r = run(argv);
    EXPECT_EQ(r.status, 0) << argv[0] << ": " << r.err;
    const util::JsonValue root = util::JsonValue::parse(r.out);
    EXPECT_EQ(root.get_int("schema_version", -1), 1) << argv[0];
    EXPECT_EQ(r.out.rfind("{\"schema_version\": 1", 0), 0u)
        << argv[0] << " does not lead with schema_version";
  }
}

TEST(Crnc, VerifyJsonRoundTripsThroughParser) {
  // The --json output is not just syntactically valid: it parses into the
  // documented field shape, and the tallies are internally consistent.
  const auto r = run({"verify", "fig1/min", "--json"});
  EXPECT_EQ(r.status, 0) << r.err;
  const util::JsonValue root = util::JsonValue::parse(r.out);
  EXPECT_EQ(root.get_string("scenario", ""), "fig1/min");
  EXPECT_TRUE(root.get_bool("ok", false));
  const auto points = root.get("points").size();
  EXPECT_EQ(static_cast<std::int64_t>(points),
            root.get_int("proved", -1) + root.get_int("failed", -1) +
                root.get_int("inconclusive", -1));
  // A fresh CLI process starts with a cold cache: all misses, no hits.
  EXPECT_EQ(root.get_int("cache_hits", -1), 0);
  EXPECT_EQ(root.get_int("cache_misses", 0),
            static_cast<std::int64_t>(points));
  for (const util::JsonValue& point : root.get("points").items()) {
    EXPECT_FALSE(point.get_bool("cached", true));
    EXPECT_EQ(point.get_string("status", "?"), "proved");
  }
}

}  // namespace
}  // namespace crnkit::cli
