// Fixture: negative control for R6's src/host/ scope. Only the node table
// (src/host/registry.*) is on the hot path; other host files may keep
// node-based maps.
#include <cstdint>
#include <map>

namespace fixture {

struct Ledger {
  std::map<std::uint64_t, std::uint64_t> bytes_by_channel;
};

}  // namespace fixture
