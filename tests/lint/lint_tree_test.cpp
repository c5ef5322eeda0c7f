#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/include_graph.hpp"
#include "lint/scan.hpp"

// Tree-level golden fixtures for the qntn_lint whole-repo passes. Each
// directory under tests/lint/fixtures/trees/ is a miniature repo root in
// which exactly one class of finding fires (plus one clean tree pinned to
// zero findings), proving every pass can actually fail — the repo-is-clean
// test alone would also pass with a checker that checks nothing.

namespace {

using qntn::lint::Finding;

std::string tree_path(const std::string& name) {
  return std::string(QNTN_LINT_FIXTURE_DIR) + "/trees/" + name;
}

std::vector<Finding> check_tree_fixture(const std::string& name) {
  return qntn::lint::check_tree(tree_path(name));
}

std::vector<Finding> with_rule(const std::vector<Finding>& findings,
                               const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

TEST(LintTree, LayerViolationFires) {
  const auto findings = check_tree_fixture("layer_violation");
  const auto hits = with_rule(findings, "layer-violation");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/geo/shape.hpp");
  EXPECT_EQ(hits[0].line, 3u);
  // The diagnostic names the offending include chain and both layers.
  EXPECT_NE(hits[0].message.find("src/geo/shape.hpp -> src/sim/engine.hpp"),
            std::string::npos);
  EXPECT_EQ(findings.size(), hits.size()) << "unexpected extra findings";
}

TEST(LintTree, IncludeCycleFires) {
  const auto findings = check_tree_fixture("include_cycle");
  const auto hits = with_rule(findings, "include-cycle");
  ASSERT_EQ(hits.size(), 1u);
  // One finding per strongly connected component, with a concrete chain
  // that starts and ends at the same file.
  EXPECT_NE(hits[0].message.find("src/common/a.hpp -> src/common/b.hpp -> "
                                 "src/common/a.hpp"),
            std::string::npos);
  EXPECT_EQ(findings.size(), hits.size());
}

TEST(LintTree, ConsistencyMismatchFiresInEveryDirection) {
  const auto findings = check_tree_fixture("consistency_mismatch");
  const std::map<std::string, std::string> expected = {
      {"counter-undocumented", "net.undocumented_counter"},
      {"span-undocumented", "net.undocumented_span"},
      {"config-key-undocumented", "gamma"},
      {"counter-stale-doc", "net.stale_counter"},
      {"span-stale-doc", "net.stale_span"},
      {"span-stale-golden", "ghost.span"},
      {"config-key-stale-doc", "delta"},
  };
  for (const auto& [rule, name] : expected) {
    const auto hits = with_rule(findings, rule);
    ASSERT_EQ(hits.size(), 1u) << rule;
    EXPECT_NE(hits[0].message.find("'" + name + "'"), std::string::npos)
        << rule << ": " << hits[0].message;
  }
  EXPECT_EQ(findings.size(), expected.size());
}

// EXPERIMENTS.md tables under a `qntn-lint: golden` marker must print the
// golden's values; the fixture has exactly one stale cell (0.9410 where the
// golden prints 0.9426), a paper row the row guard skips, and an unmarked
// table.
TEST(LintTree, StaleExperimentsCellFires) {
  const auto findings = check_tree_fixture("golden_stale");
  const auto hits = with_rule(findings, "experiments-stale-golden");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "EXPERIMENTS.md");
  EXPECT_EQ(hits[0].line, 7u);
  EXPECT_NE(hits[0].message.find("'fig8.n108.mean_fidelity' reads '0.9410'"),
            std::string::npos)
      << hits[0].message;
  EXPECT_NE(hits[0].message.find("prints 0.9426"), std::string::npos)
      << hits[0].message;
  EXPECT_EQ(findings.size(), hits.size()) << "unexpected extra findings";
}

// A backticked `bench_*` name in the docs must be a qntn_repro(...) target
// of bench/CMakeLists.txt. The fixture names one target that exists, one
// only in a commented-out qntn_repro line, one only in a CMake comment, one
// nowhere (twice in one file, reported once), plus a glob, a path and a
// fenced code block that the rule skips.
TEST(LintTree, StaleBenchTargetFires) {
  const auto findings = check_tree_fixture("bench_stale");
  const auto hits = with_rule(findings, "bench-target-stale-doc");
  ASSERT_EQ(hits.size(), 3u);
  std::set<std::string> sites;
  for (const Finding& f : hits) {
    for (const std::string name :
         {"bench_perf_commented", "bench_perf_header", "bench_perf_gone"}) {
      if (f.message.find("'" + name + "'") != std::string::npos) {
        sites.insert(f.file + ":" + std::to_string(f.line) + " " + name);
      }
    }
  }
  const std::set<std::string> expected = {
      "EXPERIMENTS.md:1 bench_perf_commented",
      "EXPERIMENTS.md:1 bench_perf_header",
      "README.md:6 bench_perf_gone",
  };
  EXPECT_EQ(sites, expected);
  EXPECT_EQ(findings.size(), hits.size()) << "unexpected extra findings";
}

TEST(LintTree, StaleSuppressionFires) {
  const auto findings = check_tree_fixture("stale_suppression");
  const auto hits = with_rule(findings, "stale-suppression");
  ASSERT_EQ(hits.size(), 2u);
  // A known token whose rule does not fire, and an unknown token.
  EXPECT_NE(hits[0].message.find("ordered-ok"), std::string::npos);
  EXPECT_NE(hits[0].message.find("justifies nothing"), std::string::npos);
  EXPECT_NE(hits[1].message.find("bogus-token"), std::string::npos);
  EXPECT_NE(hits[1].message.find("no known rule token"), std::string::npos);
  EXPECT_EQ(findings.size(), hits.size());
}

TEST(LintTree, CleanTreeHasNoFindings) {
  const auto findings = check_tree_fixture("clean");
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

// The layer table has to grow with the tree: every directory under src/
// appears in it exactly once, and every src-module row matches a real
// directory (tools/bench/examples/tests rows are top-level, not under
// src/).
TEST(LintLayers, LayerTableCoversSrcDirectoriesExactlyOnce) {
  namespace fs = std::filesystem;
  std::set<std::string> src_dirs;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(QNTN_LINT_SOURCE_DIR) / "src")) {
    if (entry.is_directory()) {
      src_dirs.insert(entry.path().filename().string());
    }
  }
  ASSERT_FALSE(src_dirs.empty());

  const std::set<std::string> top_level = {"tools", "bench", "examples",
                                           "tests"};
  std::map<std::string, int> row_count;
  for (const qntn::lint::LayerEntry& entry : qntn::lint::default_layers()) {
    ++row_count[std::string(entry.module)];
  }
  for (const std::string& dir : src_dirs) {
    EXPECT_EQ(row_count[dir], 1)
        << "src/" << dir << " must appear exactly once in the layer table "
        << "(src/lint/include_graph.cpp)";
  }
  for (const auto& [module, count] : row_count) {
    EXPECT_EQ(count, 1) << module << " listed more than once";
    if (top_level.count(module) == 0) {
      EXPECT_EQ(src_dirs.count(module), 1u)
          << "layer table row '" << module << "' matches no src/ directory";
    }
  }
}

TEST(LintTree, PassRulesHaveNamesAndMessages) {
  std::set<std::string_view> names;
  for (const qntn::lint::RuleSpec& rule : qntn::lint::rules()) {
    names.insert(rule.name);
  }
  for (const qntn::lint::PassRule& rule : qntn::lint::pass_rules()) {
    EXPECT_FALSE(rule.name.empty());
    EXPECT_FALSE(rule.message.empty()) << rule.name;
    EXPECT_TRUE(names.insert(rule.name).second)
        << "duplicate rule name " << rule.name;
  }
}

TEST(LintGraph, DotAndJsonDescribeTheFixtureModules) {
  const qntn::lint::TreeScan scan =
      qntn::lint::load_tree(tree_path("layer_violation"));
  const qntn::lint::IncludeGraph graph =
      qntn::lint::build_include_graph(scan.text);
  const auto& layers = qntn::lint::default_layers();

  const std::string dot = qntn::lint::graph_dot(graph, layers);
  EXPECT_NE(dot.find("digraph qntn_includes"), std::string::npos);
  EXPECT_NE(dot.find("\"geo\" -> \"sim\""), std::string::npos);

  const std::string json = qntn::lint::graph_json(graph, layers);
  EXPECT_NE(json.find("\"version\": \"qntn-include-graph-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("{\"from\": \"geo\", \"to\": \"sim\", \"includes\": 1}"),
            std::string::npos);
}

TEST(LintJson, FindingsDocumentIsStableAndEscaped) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 7, "layer-violation", "uses \"quotes\" and\ttabs"}};
  const std::string json = qntn::lint::findings_json(findings, 3);
  EXPECT_NE(json.find("\"version\": \"qntn-lint-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"files\": 3"), std::string::npos);
  EXPECT_NE(json.find("{\"file\": \"src/a.cpp\", \"line\": 7, "
                      "\"rule\": \"layer-violation\", "
                      "\"message\": \"uses \\\"quotes\\\" and\\ttabs\"}"),
            std::string::npos);
}

}  // namespace
