#pragma once

// Traced run: the per-layer breakdown (see traced.cpp).

#include "report.hpp"

namespace perfbench {

[[nodiscard]] RunOutcome run_traced(const RunContext& ctx);

}  // namespace perfbench
