#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/qntn_config.hpp"

/// \file config_io.hpp
/// Plain-text serialization of QntnConfig (key = value lines, '#' comments)
/// so experiment configurations can be versioned, diffed, and replayed
/// exactly — the reproducibility glue for the CLI and for external sweeps.

namespace qntn::core {

/// Render the configuration as a key = value document (stable key order,
/// all keys always present).
[[nodiscard]] std::string serialize_config(const QntnConfig& config);

/// Parse a key = value document. Unknown keys, malformed lines and
/// out-of-domain values throw qntn::Error. Keys omitted from the document
/// keep their defaults.
[[nodiscard]] QntnConfig parse_config(const std::string& text);

/// How a config key's value is written: a number (an angle in degrees), a
/// non-negative integer, true/false, or one of a fixed set of names.
enum class ConfigValue { Real, Degrees, Count, Flag, Name };

/// One row of the key table that drives parse_config and serialize_config.
struct ConfigKeyInfo {
  std::string_view name;
  ConfigValue value = ConfigValue::Real;
  /// Name keys: every accepted name.
  std::vector<std::string_view> names;
  /// The single-field domain parse_config checks on a numeric value as
  /// written; nullptr when any number is accepted. Cross-field checks
  /// (horizon/step, memory T1/T2, traffic options) come on top.
  bool (*in_domain)(double value) = nullptr;
};

/// Every config key, in serialization order.
[[nodiscard]] std::vector<ConfigKeyInfo> config_keys();

/// File variants.
void save_config(const std::string& path, const QntnConfig& config);
[[nodiscard]] QntnConfig load_config(const std::string& path);

}  // namespace qntn::core
