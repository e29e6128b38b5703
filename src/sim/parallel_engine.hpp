// Former name of the sharded cycle engine; new code names sim::CycleEngine
// (sim/cycle_engine.hpp), which this spelling constructs with a thread count.
#pragma once

#include "sim/cycle_engine.hpp"

namespace adam2::sim {

using ParallelEngine = CycleEngine;

}  // namespace adam2::sim
