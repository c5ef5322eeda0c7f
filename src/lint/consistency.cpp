#include "lint/consistency.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <tuple>

namespace qntn::lint {

namespace {

namespace fs = std::filesystem;

/// A name extracted from an artifact, with where it was found.
struct NamedSite {
  std::string name;
  std::string file;
  std::size_t line = 0;
};

[[nodiscard]] std::size_t line_of(std::string_view text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<long>(pos),
                            '\n'));
}

/// All matches of `pattern` in `text`, taking capture group `group` as the
/// name. `text` must be the comment-stripped (strings kept) source so
/// commented-out emitters do not count.
void extract(const std::string& file, const std::string& text,
             const std::regex& pattern, std::size_t group,
             std::vector<NamedSite>& out) {
  for (auto it = std::sregex_iterator(text.begin(), text.end(), pattern);
       it != std::sregex_iterator(); ++it) {
    out.push_back({(*it)[group].str(), file,
                   line_of(text, static_cast<std::size_t>(it->position()))});
  }
}

[[nodiscard]] bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Entries of the `<!-- qntn-lint: <kind> -->` ... `<!-- qntn-lint: end -->`
/// markdown blocks: the first backticked token of each table row.
void extract_doc_block(const std::string& file, const std::string& text,
                       std::string_view kind, std::vector<NamedSite>& out) {
  const std::string open = "<!-- qntn-lint: " + std::string(kind) + " -->";
  constexpr std::string_view kClose = "<!-- qntn-lint: end -->";
  static const std::regex kRow(R"(^\|[^`|]*`([^`]+)`)");
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  bool inside = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find(open) != std::string::npos) {
      inside = true;
      continue;
    }
    if (line.find(kClose) != std::string::npos) {
      inside = false;
      continue;
    }
    if (!inside) continue;
    std::smatch match;
    if (std::regex_search(line, match, kRow)) {
      out.push_back({match[1].str(), file, line_number});
    }
  }
}

[[nodiscard]] std::set<std::string> names_of(
    const std::vector<NamedSite>& sites) {
  std::set<std::string> names;
  for (const NamedSite& site : sites) names.insert(site.name);
  return names;
}

/// One direction of a set difference as findings: every site whose name is
/// missing from `documented` becomes a `rule` finding.
void report_missing(const std::vector<NamedSite>& sites,
                    const std::set<std::string>& documented,
                    std::string_view rule, std::string_view what,
                    std::string_view where, std::vector<Finding>& findings) {
  std::set<std::pair<std::string, std::string>> reported;  // (name, file)
  for (const NamedSite& site : sites) {
    if (documented.count(site.name) != 0) continue;
    if (!reported.insert({site.name, site.file}).second) continue;
    findings.push_back({site.file, site.line, std::string(rule),
                        std::string(what) + " '" + site.name + "' " +
                            std::string(where)});
  }
}

/// Cells of a `| a | b |` markdown row without emphasis, trimmed.
[[nodiscard]] std::vector<std::string> table_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (const char c : line.substr(1)) {
    if (c == '|') {
      const std::size_t first = cell.find_first_not_of(' ');
      cells.push_back(first == std::string::npos
                          ? std::string()
                          : cell.substr(first, cell.find_last_not_of(' ') -
                                                   first + 1));
      cell.clear();
    } else if (c != '*') {
      cell += c;
    }
  }
  return cells;
}

/// Row id of a cell: lowercased, spaces turned into dashes
/// ("Space-Ground" -> "space-ground").
[[nodiscard]] std::string row_id(std::string cell) {
  for (char& c : cell) {
    c = c == ' ' ? '-'
                 : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return cell;
}

/// Measured-number tables of EXPERIMENTS.md pinned to `golden` (the
/// `key = value` lines of tests/golden/repro.golden): a table under
/// `<!-- qntn-lint: golden SPEC... -->` (closed by `<!-- qntn-lint: end
/// -->`) has one SPEC per column: `-` leaves the column unchecked, `=word`
/// checks the row only when this cell's row_id is `word`, anything else is
/// a golden key with `{id}` standing for the row_id of the row's first
/// cell. Each checked cell (a trailing `%` dropped) must print the golden
/// value at the cell's own number of decimals.
void check_golden_tables(const std::string& text, const std::string& golden,
                         std::vector<Finding>& findings) {
  static const std::regex kOpen(R"(<!-- qntn-lint: golden (.*) -->)");
  static const std::regex kNumber(R"(-?[0-9]+(\.([0-9]+))?)");
  static const std::regex kSeparator(R"(\|[ :|-]+)");
  std::map<std::string, double> values;
  std::istringstream golden_lines(golden);
  for (std::string line; std::getline(golden_lines, line);) {
    const std::size_t eq = line.find(" = ");
    if (line[0] != '#' && eq != std::string::npos) {
      values[line.substr(0, eq)] = std::stod(line.substr(eq + 3));
    }
  }
  std::istringstream in(text);
  std::vector<std::string> specs;  // empty outside a golden block
  bool header = false;
  std::size_t line_number = 0;
  for (std::string line; std::getline(in, line);) {
    ++line_number;
    std::smatch open;
    if (std::regex_search(line, open, kOpen)) {
      std::istringstream words(open[1].str());
      specs.assign(std::istream_iterator<std::string>(words), {});
      header = true;
      continue;
    }
    if (line.find("<!-- qntn-lint: end -->") != std::string::npos) {
      specs.clear();
    }
    if (specs.empty() || line.rfind('|', 0) != 0) continue;
    if (std::regex_match(line, kSeparator)) {
      header = false;  // the separator row ends the header
      continue;
    }
    std::vector<std::string> cells = table_cells(line);
    cells.resize(specs.size());  // a missing cell reads as empty
    bool guarded_out = header;
    for (std::size_t c = 0; c < specs.size(); ++c) {
      guarded_out |=
          specs[c][0] == '=' && row_id(cells[c]) != specs[c].substr(1);
    }
    for (std::size_t c = 0; c < specs.size() && !guarded_out; ++c) {
      if (specs[c] == "-" || specs[c][0] == '=') continue;
      std::string key = specs[c];
      if (const std::size_t at = key.find("{id}"); at != std::string::npos) {
        key.replace(at, 4, row_id(cells.front()));
      }
      const auto value = values.find(key);
      if (value == values.end()) {
        findings.push_back({"EXPERIMENTS.md", line_number, "golden-key-missing",
                            "table cell '" + key +
                                "' names no line of tests/golden/repro.golden"});
        continue;
      }
      std::string cell = cells[c];
      if (!cell.empty() && cell.back() == '%') cell.pop_back();
      std::smatch number;
      char printed[64] = "a plain decimal number";
      if (std::regex_match(cell, number, kNumber)) {
        std::snprintf(printed, sizeof printed, "%.*f",
                      static_cast<int>(number[2].length()), value->second);
      }
      if (cell != printed) {
        findings.push_back({"EXPERIMENTS.md", line_number,
                            "experiments-stale-golden",
                            "table cell '" + key + "' reads '" + cell +
                                "' but the golden value prints " + printed +
                                " (stale table?)"});
      }
    }
  }
}

/// Every backticked token of `text` that is exactly a `bench_*` identifier,
/// outside fenced code blocks (code spans are paired within a line).
void extract_bench_tokens(const std::string& file, const std::string& text,
                          std::vector<NamedSite>& out) {
  static const std::regex kTarget(R"(bench_[a-z0-9_]+)");
  std::istringstream in(text);
  std::size_t line_number = 0;
  bool fenced = false;
  for (std::string line; std::getline(in, line);) {
    ++line_number;
    if (line.find("```") != std::string::npos) {
      fenced = !fenced;
      continue;
    }
    if (fenced) continue;
    for (std::size_t open = line.find('`'); open != std::string::npos;) {
      const std::size_t close = line.find('`', open + 1);
      if (close == std::string::npos) break;
      const std::string token = line.substr(open + 1, close - open - 1);
      if (std::regex_match(token, kTarget)) {
        out.push_back({token, file, line_number});
      }
      open = line.find('`', close + 1);
    }
  }
}

}  // namespace

std::vector<Finding> check_consistency(
    const std::string& root,
    const std::map<std::string, std::string>& sources) {
  // --- extract from the C++ sources (src/ only: the emitting code) ---
  static const std::regex kCounter(
      R"re(\bobs::(count|observe)\s*\(\s*"([^"]+)")re");
  static const std::regex kTimer(
      R"re(\bScopedTimer\s+\w+\s*\(\s*"([^"]+)")re");
  static const std::regex kSpan(R"re(\bSpan\s+\w+\s*\(\s*"([^"]+)")re");
  static const std::regex kLiteral(R"re("((?:[^"\\\n]|\\.)+)")re");
  static const std::regex kParseKey(R"re(\{\s*"([A-Za-z0-9_]+)"\s*,)re");
  static const std::regex kSerializeKey(R"re("([A-Za-z0-9_]+) = ")re");
  constexpr std::string_view kConfigIo = "src/core/config_io.cpp";

  std::vector<NamedSite> counters;
  std::vector<NamedSite> spans;
  std::vector<NamedSite> parse_keys;
  std::vector<NamedSite> serialize_keys;
  std::set<std::string> literals;  // every string literal in src/
  for (const auto& [path, text] : sources) {
    if (path.rfind("src/", 0) != 0) continue;
    const std::string stripped = strip_source(text, /*strip_strings=*/false);
    extract(path, stripped, kCounter, 2, counters);
    extract(path, stripped, kTimer, 1, counters);
    extract(path, stripped, kSpan, 1, spans);
    for (auto it =
             std::sregex_iterator(stripped.begin(), stripped.end(), kLiteral);
         it != std::sregex_iterator(); ++it) {
      literals.insert((*it)[1].str());
    }
    if (path == kConfigIo) {
      extract(path, stripped, kParseKey, 1, parse_keys);
      extract(path, stripped, kSerializeKey, 1, serialize_keys);
    }
  }

  // --- extract from the documentation tables and golden schema ---
  std::vector<NamedSite> doc_counters;
  std::vector<NamedSite> doc_spans;
  std::vector<NamedSite> doc_keys;
  for (const std::string_view doc : {"README.md", "DESIGN.md"}) {
    std::string text;
    if (!read_file(fs::path(root) / doc, text)) continue;
    extract_doc_block(std::string(doc), text, "counters", doc_counters);
    extract_doc_block(std::string(doc), text, "spans", doc_spans);
    extract_doc_block(std::string(doc), text, "config-keys", doc_keys);
  }

  // bench/ targets named in the docs against the qntn_repro(...) lines of
  // bench/CMakeLists.txt (CMake comments dropped).
  std::vector<NamedSite> doc_bench_targets;
  for (const std::string_view doc :
       {"README.md", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md"}) {
    std::string text;
    if (read_file(fs::path(root) / doc, text)) {
      extract_bench_tokens(std::string(doc), text, doc_bench_targets);
    }
  }
  std::set<std::string> bench_targets;
  {
    static const std::regex kRepro(
        R"(qntn_repro\(\s*(bench_[a-z0-9_]+)\s*\))");
    std::string text;
    if (read_file(fs::path(root) / "bench/CMakeLists.txt", text)) {
      std::istringstream in(text);
      for (std::string line; std::getline(in, line);) {
        line = line.substr(0, line.find('#'));
        std::smatch match;
        if (std::regex_search(line, match, kRepro)) {
          bench_targets.insert(match[1].str());
        }
      }
    }
  }

  std::vector<NamedSite> golden_spans;
  {
    constexpr std::string_view kGolden = "tests/obs/profile_schema.golden";
    std::string text;
    if (read_file(fs::path(root) / std::string(kGolden), text)) {
      std::istringstream in(text);
      std::string line;
      std::size_t line_number = 0;
      while (std::getline(in, line)) {
        ++line_number;
        if (!line.empty()) {
          golden_spans.push_back({line, std::string(kGolden), line_number});
        }
      }
    }
  }

  // --- diff the artifacts ---
  std::vector<Finding> findings;
  {
    std::string experiments;
    std::string golden;
    if (read_file(fs::path(root) / "EXPERIMENTS.md", experiments) &&
        read_file(fs::path(root) / "tests/golden/repro.golden", golden)) {
      check_golden_tables(experiments, golden, findings);
    }
  }
  report_missing(counters, names_of(doc_counters), "counter-undocumented",
                 "counter",
                 "is not in a `qntn-lint: counters` doc table "
                 "(README.md/DESIGN.md)",
                 findings);
  report_missing(spans, names_of(doc_spans), "span-undocumented",
                 "profiler span",
                 "is not in a `qntn-lint: spans` doc table "
                 "(README.md/DESIGN.md)",
                 findings);
  report_missing(parse_keys, names_of(doc_keys), "config-key-undocumented",
                 "config key",
                 "is not in a `qntn-lint: config-keys` doc table "
                 "(README.md/DESIGN.md)",
                 findings);

  report_missing(doc_counters, literals, "counter-stale-doc",
                 "documented counter",
                 "matches no string literal in src/ (stale doc row?)",
                 findings);
  report_missing(doc_spans, literals, "span-stale-doc",
                 "documented profiler span",
                 "matches no string literal in src/ (stale doc row?)",
                 findings);
  report_missing(golden_spans, literals, "span-stale-golden",
                 "golden-pinned span",
                 "matches no string literal in src/ (stale golden line?)",
                 findings);
  report_missing(doc_keys, names_of(parse_keys), "config-key-stale-doc",
                 "documented config key",
                 "is not parsed by core::parse_config (stale doc row?)",
                 findings);

  report_missing(doc_bench_targets, bench_targets, "bench-target-stale-doc",
                 "bench target",
                 "is not a qntn_repro(...) target in bench/CMakeLists.txt "
                 "(stale doc reference?)",
                 findings);

  report_missing(parse_keys, names_of(serialize_keys),
                 "config-key-unserialized", "config key",
                 "is parsed but never written by core::serialize_config, so "
                 "round-trips drop it",
                 findings);
  report_missing(serialize_keys, names_of(parse_keys), "config-key-unparsed",
                 "config key",
                 "is written by core::serialize_config but rejected by "
                 "core::parse_config",
                 findings);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

}  // namespace qntn::lint
