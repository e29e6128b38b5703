// Fixture: R6 (hot-path-container) on the Cyclon overlay: per-node views
// belong in id-indexed slabs, not behind a per-lookup hash probe.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

struct View {
  std::vector<std::uint64_t> entries;
};

struct Overlay {
  std::unordered_map<std::uint64_t, View> views;  // line 15: R6
  // A membership set (the visit-order set) is not per-node state: passes.
  std::unordered_set<std::uint64_t> order;
  std::vector<View> slab;
};

}  // namespace fixture
