// Fixture: R6 (hot-path-container) on the node table. Ids are creation
// slots, so an id -> slot map is an identity map paid for with a hash
// lookup on every is_live/at/record_traffic call.
#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace fixture {

struct NodeTable {
  std::vector<double> nodes;
  std::unordered_map<std::uint64_t, std::size_t> index;     // line 14: R6
  std::map<std::uint64_t, std::size_t> live_pos;            // line 15: R6
  std::vector<std::size_t> dense_live_pos;  // The id-indexed form passes.
};

}  // namespace fixture
