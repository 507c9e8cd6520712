// Tests for the baseline gate the CI sentinel benches share
// (bench/support.hpp Gate): each rule at its boundary, skipped and
// unmatched cells, malformed baselines and the merge-rewrite of
// --update-baseline.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "../bench/support.hpp"

namespace das::bench {
namespace {

class BenchGateTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes a baseline whose "cells" object is `cells`.
  void write_baseline(json::Value cells) {
    json::Value doc = json::Value::object();
    doc.set("cells", std::move(cells));
    std::ofstream(path_) << doc.dump(2) << '\n';
  }

  Gate gate() const { return Gate{.path = path_}; }

  /// Runs a one-check gate against a baseline holding `ref` for cell "c".
  int verdict(Gate::Rule rule, double ref, double value) {
    json::Value cells = json::Value::object();
    cells.set("c", ref);
    write_baseline(std::move(cells));
    Gate g = gate();
    g.check(rule, "c", value);
    return g.run();
  }

  const std::string path_ =
      ::testing::TempDir() + "bench_gate_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".json";
};

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST_F(BenchGateTest, FloorPassesAtThreeQuartersOfTheReference) {
  const double ref = 0.1;  // 0.75 x 0.1 is not exact in binary
  const double floor = ref * 0.75;
  EXPECT_EQ(verdict(Gate::kFloor, ref, floor), 0);
  EXPECT_EQ(verdict(Gate::kFloor, ref, std::nextafter(floor, -kInf)), 1);
  EXPECT_EQ(verdict(Gate::kFloor, ref, 10 * ref), 0);
}

TEST_F(BenchGateTest, CeilingPassesAtFiveQuartersOfTheReferencePlusSlack) {
  const double ref = 0.031914893617021184;  // job_stream's share error
  const double ceiling = ref * 1.25 + 0.02;
  EXPECT_EQ(verdict(Gate::kCeiling, ref, ceiling), 0);
  EXPECT_EQ(verdict(Gate::kCeiling, ref, std::nextafter(ceiling, kInf)), 1);
  EXPECT_EQ(verdict(Gate::kCeiling, ref, 0.0), 0);
  // A reference of 0 still leaves the absolute slack.
  EXPECT_EQ(verdict(Gate::kCeiling, 0.0, 0.02), 0);
  EXPECT_EQ(verdict(Gate::kCeiling, 0.0, 0.03), 1);
}

TEST_F(BenchGateTest, ExactFailsOnAnyDifference) {
  const double ref = 0.0016280650044725943;
  EXPECT_EQ(verdict(Gate::kExact, ref, ref), 0);
  EXPECT_EQ(verdict(Gate::kExact, ref, std::nextafter(ref, kInf)), 1);
  EXPECT_EQ(verdict(Gate::kExact, ref, std::nextafter(ref, -kInf)), 1);
}

TEST_F(BenchGateTest, ExactChecksReadMembersOfAnObjectCell) {
  json::Value cell = json::Value::object();
  cell.set("makespan_s", 0.5);
  cell.set("tasks_reexecuted", 2);
  json::Value cells = json::Value::object();
  cells.set("c", std::move(cell));
  write_baseline(std::move(cells));
  Gate g = gate();
  g.check(Gate::kExact, "c", 0.5, "makespan_s");
  g.check(Gate::kExact, "c", 2, "tasks_reexecuted");
  EXPECT_EQ(g.run(), 0);
  g.checks.back().value = 3;
  EXPECT_EQ(g.run(), 1);
}

TEST_F(BenchGateTest, CellWithoutReferenceIsSkipped) {
  json::Value cells = json::Value::object();
  cells.set("known", 1.0);
  write_baseline(std::move(cells));
  Gate g = gate();
  g.check(Gate::kFloor, "known", 1.0);
  g.check(Gate::kFloor, "unknown", 0.0);  // would fail any reference
  testing::internal::CaptureStdout();
  EXPECT_EQ(g.run(), 0);
  EXPECT_NE(testing::internal::GetCapturedStdout().find(
                "no reference for cell 'unknown' (skipped)"),
            std::string::npos);
}

TEST_F(BenchGateTest, GateThatComparesNoCellExitsTwo) {
  json::Value cells = json::Value::object();
  cells.set("other", 1.0);
  write_baseline(std::move(cells));
  Gate g = gate();
  EXPECT_EQ(g.run(), 2);  // a run without checks
  g.check(Gate::kFloor, "mine", 1.0);
  EXPECT_EQ(g.run(), 2);  // a run whose cells the baseline lacks
}

TEST_F(BenchGateTest, UnreadableOrMalformedBaselineExitsTwo) {
  Gate g = gate();
  g.check(Gate::kFloor, "c", 1.0);
  EXPECT_EQ(g.run(), 2);  // no file

  std::ofstream(path_) << "{\"cells\": [1, 2]}\n";
  EXPECT_EQ(g.run(), 2);  // "cells" is not an object

  json::Value cells = json::Value::object();
  cells.set("c", "fast");
  write_baseline(cells);
  EXPECT_EQ(g.run(), 2);  // a cell of the wrong shape

  json::Value cell = json::Value::object();
  cell.set("makespan_s", 1.0);
  cells.set("c", std::move(cell));
  write_baseline(cells);
  EXPECT_EQ(g.run(), 2);  // an object where a number belongs

  Gate keyed = gate();
  keyed.check(Gate::kExact, "c", 1.0, "makespan_s");
  keyed.check(Gate::kExact, "c", 0.0, "tasks_reexecuted");
  EXPECT_EQ(keyed.run(), 2);  // a cell that lacks a key
}

TEST_F(BenchGateTest, NoBaselineMeansNoGate) {
  Gate g;
  g.check(Gate::kExact, "c", 1.0);
  EXPECT_EQ(g.run(), 0);
}

TEST_F(BenchGateTest, UpdateRewritesThisRunsCellsInPlaceAndKeepsTheRest) {
  json::Value cells = json::Value::object();
  cells.set("foreign1", 1.0);
  cells.set("mine", 2.0);
  json::Value old_obj = json::Value::object();
  old_obj.set("stale", 9.0);
  cells.set("obj", std::move(old_obj));
  cells.set("foreign2", 3.0);
  write_baseline(std::move(cells));

  Gate g{.path = path_, .update = true, .bench = "b_baseline", .note = "n"};
  g.check(Gate::kFloor, "mine", 20.0);
  g.check(Gate::kExact, "obj", 0.5, "makespan_s");
  g.check(Gate::kExact, "obj", 1.0, "tasks_reexecuted");
  g.check(Gate::kCeiling, "new", 4.0);
  EXPECT_EQ(g.run(), 0);

  const json::Value doc = json::parse_file(path_);
  EXPECT_EQ(doc.find("bench")->as_string(), "b_baseline");
  EXPECT_EQ(doc.find("note")->as_string(), "n");
  EXPECT_EQ(doc.find("schema_version")->as_number(), kResultSchemaVersion);
  const auto& got = doc.find("cells")->members();
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].first, "foreign1");
  EXPECT_EQ(got[0].second.as_number(), 1.0);
  EXPECT_EQ(got[1].first, "mine");
  EXPECT_EQ(got[1].second.as_number(), 20.0);
  EXPECT_EQ(got[2].first, "obj");
  EXPECT_EQ(got[2].second.dump(), "{\"makespan_s\": 0.5, \"tasks_reexecuted\": 1}");
  EXPECT_EQ(got[3].first, "foreign2");
  EXPECT_EQ(got[4].first, "new");
  EXPECT_EQ(got[4].second.as_number(), 4.0);

  // The rewritten file gates the same run.
  g.update = false;
  EXPECT_EQ(g.run(), 0);
}

TEST_F(BenchGateTest, UpdateStartsFreshWithoutAReadableBaseline) {
  Gate g{.path = path_, .update = true, .bench = "b", .note = "n"};
  g.check(Gate::kFloor, "c", 1.0);
  EXPECT_EQ(g.run(), 0);
  const json::Value doc = json::parse_file(path_);
  ASSERT_EQ(doc.find("cells")->members().size(), 1u);
  EXPECT_EQ(doc.find("cells")->find("c")->as_number(), 1.0);
}

}  // namespace
}  // namespace das::bench
