#pragma once

namespace fixture {

inline int twice(int x) { return 2 * x; }

}  // namespace fixture
