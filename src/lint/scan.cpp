#include "lint/scan.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "common/error.hpp"
#include "lint/consistency.hpp"
#include "lint/include_graph.hpp"

namespace qntn::lint {

namespace fs = std::filesystem;

const std::vector<std::string>& default_scan_dirs() {
  static const std::vector<std::string> kDirs = {"src", "tools", "bench",
                                                 "tests", "examples"};
  return kDirs;
}

const std::vector<PassRule>& pass_rules() {
  static const std::vector<PassRule> kRules = {
      {
          "layer-violation",
          "layer-ok",
          "include edge goes up or sideways in the declared layer DAG "
          "(src/lint/include_graph.cpp); depend only on lower layers",
      },
      {
          "layer-unknown-module",
          "layer-ok",
          "directory missing from the layer table; add it so the DAG "
          "check covers it",
      },
      {
          "include-cycle",
          "cycle-ok",
          "files include each other in a cycle; break it with a forward "
          "declaration or an interface header",
      },
      {
          "counter-undocumented",
          "counter-ok",
          "obs::count/observe/ScopedTimer name missing from the "
          "`qntn-lint: counters` doc table (README.md/DESIGN.md)",
      },
      {
          "span-undocumented",
          "span-ok",
          "obs::Span name missing from the `qntn-lint: spans` doc table "
          "(README.md/DESIGN.md)",
      },
      {
          "config-key-undocumented",
          "key-ok",
          "row of the config key table (src/core/config_io.cpp) missing "
          "from the `qntn-lint: config-keys` doc table (README.md/DESIGN.md)",
      },
      {
          "counter-stale-doc",
          "",
          "documented counter matches no string literal in src/",
      },
      {
          "span-stale-doc",
          "",
          "documented span matches no string literal in src/",
      },
      {
          "span-stale-golden",
          "",
          "profile_schema.golden span matches no string literal in src/",
      },
      {
          "config-key-stale-doc",
          "",
          "documented config key is not in the config key table",
      },
      {
          "bench-target-stale-doc",
          "",
          "backticked bench_* name in README/DESIGN/EXPERIMENTS or the "
          "verify skill is not a qntn_repro(...) target in "
          "bench/CMakeLists.txt",
      },
      {
          "stale-suppression",
          "",
          "`// lint: <token>` justification whose rule no longer fires "
          "here; delete it",
      },
  };
  return kRules;
}

namespace {

[[nodiscard]] bool checked_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("qntn_lint: cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Justification token → the rules it covers, across the lexical table
/// and the tree passes.
[[nodiscard]] std::map<std::string_view, std::set<std::string_view>>
rules_by_token() {
  std::map<std::string_view, std::set<std::string_view>> out;
  for (const RuleSpec& rule : rules()) {
    if (!rule.suppress.empty()) out[rule.suppress].insert(rule.name);
  }
  for (const PassRule& rule : pass_rules()) {
    if (!rule.suppress.empty()) out[rule.suppress].insert(rule.name);
  }
  return out;
}

[[nodiscard]] std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
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
        out += c;
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> list_sources(const std::string& root) {
  std::vector<std::string> out;
  for (const std::string& dir : default_scan_dirs()) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !checked_extension(entry.path())) {
        continue;
      }
      std::string rel =
          fs::relative(entry.path(), fs::path(root)).generic_string();
      // Fixture corpus violates the rules on purpose (golden test data).
      if (rel.rfind("tests/lint/fixtures", 0) == 0) continue;
      out.push_back(std::move(rel));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TreeScan load_tree(const std::string& root) {
  TreeScan scan;
  scan.root = root;
  for (const std::string& rel : list_sources(root)) {
    scan.text.emplace(rel, read_file(fs::path(root) / rel));
  }
  return scan;
}

std::vector<Finding> check_tree(const TreeScan& scan) {
  // Raw findings from every pass: justifications are applied centrally
  // below, so the audit can see which of them actually earn their keep.
  std::vector<Finding> raw;
  for (const auto& [path, text] : scan.text) {
    std::vector<Finding> file_findings = check_source_raw(path, text);
    raw.insert(raw.end(), std::make_move_iterator(file_findings.begin()),
               std::make_move_iterator(file_findings.end()));
  }
  const IncludeGraph graph = build_include_graph(scan.text);
  for (auto&& pass :
       {check_layering(graph, default_layers()), check_include_cycles(graph),
        check_consistency(scan.root, scan.text)}) {
    raw.insert(raw.end(), pass.begin(), pass.end());
  }

  // One suppression map per scanned file (doc/golden findings point at
  // markdown and golden files, which carry no lint comments).
  std::map<std::string, std::map<std::size_t, std::vector<std::string>>>
      suppressions;
  for (const auto& [path, text] : scan.text) {
    suppressions.emplace(path, find_suppressions(text));
  }

  std::map<std::string_view, std::string_view> token_of;
  for (const RuleSpec& rule : rules()) token_of[rule.name] = rule.suppress;
  for (const PassRule& rule : pass_rules()) token_of[rule.name] = rule.suppress;

  std::vector<Finding> findings;
  for (Finding& finding : raw) {
    const auto token = token_of.find(finding.rule);
    const auto file_tokens = suppressions.find(finding.file);
    const bool justified =
        token != token_of.end() && !token->second.empty() &&
        file_tokens != suppressions.end() &&
        suppression_covers(file_tokens->second, finding.line, token->second);
    if (!justified) findings.push_back(std::move(finding));
  }

  // Stale-suppression audit: a justification earns its keep only when a
  // raw finding of its rule lands on the line it covers (its own line or
  // the one below). Unknown tokens are stale by definition.
  const std::map<std::string_view, std::set<std::string_view>> by_token =
      rules_by_token();
  for (const auto& [path, file_tokens] : suppressions) {
    for (const auto& [line, tokens] : file_tokens) {
      for (const std::string& token : tokens) {
        const auto covered = by_token.find(token);
        bool used = false;
        if (covered != by_token.end()) {
          for (const Finding& finding : raw) {
            if (finding.file == path &&
                (finding.line == line || finding.line == line + 1) &&
                covered->second.count(finding.rule) != 0) {
              used = true;
              break;
            }
          }
        }
        if (used) continue;
        findings.push_back(
            {path, line, "stale-suppression",
             covered == by_token.end()
                 ? "`// lint: " + token + "` names no known rule token"
                 : "`// lint: " + token +
                       "` justifies nothing: its rule does not fire on "
                       "this line; delete the suppression"});
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

std::vector<Finding> check_tree(const std::string& root) {
  return check_tree(load_tree(root));
}

std::string findings_json(const std::vector<Finding>& findings,
                          std::size_t files) {
  std::ostringstream out;
  out << "{\n  \"version\": \"qntn-lint-v1\",\n  \"files\": " << files
      << ",\n  \"findings\": [";
  bool first = true;
  for (const Finding& finding : findings) {
    out << (first ? "" : ",") << "\n    {\"file\": \""
        << json_escape(finding.file) << "\", \"line\": " << finding.line
        << ", \"rule\": \"" << json_escape(finding.rule)
        << "\", \"message\": \"" << json_escape(finding.message) << "\"}";
    first = false;
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace qntn::lint
