#include <string_view>

namespace fixture::core {

struct Config {
  double alpha = 0.0;
  double gamma = 0.0;
  int mode = 0;
};

struct Key {
  std::string_view name;
  double Config::*member;
};

template <double Config::*Member>
constexpr double Config::*field() {
  return Member;
}

// Key table: alpha and gamma are keys; gamma is undocumented.
constexpr Key kKeys[] = {
    {"alpha", field<&Config::alpha>()},
    {"gamma", field<&Config::gamma>()},
};

// Name rows of an enum, in either order, are not keys.
struct Name {
  std::string_view name;
  int value;
};
constexpr Name kModes[] = {
    {"epsilon", 0},
    {"zeta", 1},
};

}  // namespace fixture::core
