// Former name of the single-threaded cycle engine; new code names
// sim::CycleEngine (sim/cycle_engine.hpp), which this spelling constructs
// with its thread-less constructor.
#pragma once

#include "sim/cycle_engine.hpp"

namespace adam2::sim {

using Engine = CycleEngine;

}  // namespace adam2::sim
