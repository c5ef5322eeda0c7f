#pragma once

#include <map>
#include <string>
#include <vector>

#include "lint/rules.hpp"

/// \file consistency.hpp
/// Cross-artifact consistency checks for qntn_lint: the observability and
/// configuration surface lives in four artifacts at once — the C++ sources
/// that emit it, the golden schemas that pin it, and the README/DESIGN
/// tables that document it — and nothing but a static check keeps them
/// from drifting apart. The documented inventories are markdown tables
/// bracketed by `<!-- qntn-lint: counters|spans|config-keys -->` ...
/// `<!-- qntn-lint: end -->` markers (README.md and DESIGN.md are both
/// scanned; the first backticked token of each row is the name).
///
/// Checks, in both directions:
///   * every `obs::count`/`obs::observe`/`obs::ScopedTimer` literal in
///     src/ appears in the documented counter table
///     (`counter-undocumented`), and every documented counter appears as
///     a literal somewhere in src/ (`counter-stale-doc`);
///   * every `obs::Span` literal in src/ appears in the documented span
///     table (`span-undocumented`), every documented span is a literal in
///     src/ (`span-stale-doc`), and every span name pinned by
///     tests/obs/profile_schema.golden is a literal in src/
///     (`span-stale-golden`);
///   * every config key in the parse table of src/core/config_io.cpp is
///     documented (`config-key-undocumented`) and serialized
///     (`config-key-unserialized`), every serialized key is parseable
///     (`config-key-unparsed`), and every documented key is parsed
///     (`config-key-stale-doc`);
///   * every measured number in an EXPERIMENTS.md table under
///     `<!-- qntn-lint: golden SPEC... -->` (one SPEC per column: `-`
///     unchecked, `=word` a row guard, else a golden key with `{id}` for
///     the row's first cell) names a golden line (`golden-key-missing`)
///     and prints its tests/golden/repro.golden value at the cell's own
///     precision (`experiments-stale-golden`).
///
/// Findings are raw — the tree pipeline applies `// lint: <token>`
/// justifications to the code-side rules (doc- and golden-side findings
/// point into markdown/golden files, which have no lint comments).

namespace qntn::lint {

/// Run every consistency check. `root` is the repository root (the docs
/// and golden schemas are read from it); `sources` is the pre-loaded
/// path → text map of scanned C++ files (repo-relative, forward slashes).
[[nodiscard]] std::vector<Finding> check_consistency(
    const std::string& root,
    const std::map<std::string, std::string>& sources);

}  // namespace qntn::lint
