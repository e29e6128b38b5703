// The narrow interface substrate components may call back into. Every
// agent-hosting substrate (cycle-driven or event-driven simulator, threaded
// cluster, UDP peer directory) implements this seam; overlays, agents and the
// evaluation layer never see anything wider.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "host/types.hpp"
#include "stats/cdf.hpp"

namespace adam2::host {

class HostView {
 public:
  /// Marks "no second participant" in a run_units participant list.
  static constexpr NodeId kNoParticipant = ~NodeId{0};

  virtual ~HostView() = default;

  [[nodiscard]] virtual bool is_live(NodeId id) const = 0;
  [[nodiscard]] virtual stats::Value attribute_of(NodeId id) const = 0;
  [[nodiscard]] virtual Round round() const = 0;
  [[nodiscard]] virtual std::span<const NodeId> live_ids() const = 0;

  /// Records one message of `bytes` bytes from `sender` to `receiver`.
  virtual void record_traffic(NodeId sender, NodeId receiver, Channel channel,
                              std::size_t bytes) = 0;

  /// Runs `unit(p)` for every p in [0, participants.size() / 2). Unit p may
  /// touch only the state of nodes participants[2p] and participants[2p+1]
  /// (kNoParticipant: none; an equal pair is one node) and draw only from
  /// streams it owns. Units sharing a node run in index order; any other
  /// interleaving is the host's choice, so the outcome equals the in-order
  /// loop's. Default: that loop. sim::CycleEngine spreads the units over
  /// its workers. Not reentrant: a unit must not call run_units.
  virtual void run_units(std::span<const NodeId> participants,
                         const std::function<void(std::size_t)>& unit) {
    for (std::size_t p = 0; p < participants.size() / 2; ++p) unit(p);
  }
};

}  // namespace adam2::host
