// Per-layer tracing from outside the program.
//
// The traced run times calls into each layer's public functions from the
// benchmark's own code, without touching src/:
//
//  * TracedAgent — a subclass of core::Adam2Agent that times every
//    host::NodeAgent callback and forwards it. A subclass, not a wrapper:
//    core::evaluate_estimates dynamic_casts agents to Adam2Agent.
//  * TracedOverlay — a decorator over the host::Overlay that
//    core::make_overlay returns.
//
// Callbacks run on worker threads under sim::ParallelEngine, so every thread
// accumulates into its own slot; drain_layers() merges and resets the slots
// between rounds, folding per-call durations into per-round sums.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/protocol.hpp"
#include "host/agent.hpp"
#include "host/overlay.hpp"

namespace perfbench {

/// Timed operations, one per layer entry point.
enum Op : std::size_t {
  // core::Adam2Agent callbacks.
  kRoundStart,
  kRequest,    // make_request
  kRespond,    // handle_request: decode, merge, encode the reply
  kMerge,      // handle_response: decode and merge the reply
  kBootstrap,  // the three join-time transfer callbacks
  kConstruct,  // agent construction through the factory
  // host::Overlay (Cyclon) calls.
  kMaintain,
  kPick,
  kBuild,
  kChurn,  // add_node + remove_node
  kKnownValues,
  kNeighbors,
  kOpCount,
};

struct LayerTotals {
  std::array<std::int64_t, kOpCount> ns{};
  std::array<std::uint64_t, kOpCount> calls{};
  /// Time in outermost traced calls only: an overlay call made from inside
  /// an agent callback is counted once, under the agent.
  std::int64_t child_ns = 0;
  std::uint64_t active_instances = 0;  ///< Summed after each round start.
  std::uint64_t requests = 0;          ///< Non-empty make_request spans.
  std::uint64_t request_bytes = 0;
  std::uint64_t responses = 0;  ///< Non-empty handle_request spans.
  std::uint64_t response_bytes = 0;

  LayerTotals& operator+=(const LayerTotals& other);
  [[nodiscard]] double seconds(Op op) const {
    return static_cast<double>(ns[op]) * 1e-9;
  }
};

/// Returns and resets what every thread accumulated since the last call.
/// Call only while no traced callback runs (between rounds or phases).
[[nodiscard]] LayerTotals drain_layers();

class TracedAgent final : public adam2::core::Adam2Agent {
 public:
  using Adam2Agent::Adam2Agent;

  void on_round_start(adam2::host::AgentContext& ctx) override;
  [[nodiscard]] std::span<const std::byte> make_request(
      adam2::host::AgentContext& ctx) override;
  [[nodiscard]] std::span<const std::byte> handle_request(
      adam2::host::AgentContext& ctx,
      std::span<const std::byte> request) override;
  void handle_response(adam2::host::AgentContext& ctx,
                       std::span<const std::byte> response) override;
  [[nodiscard]] std::vector<std::byte> make_bootstrap_request(
      adam2::host::AgentContext& ctx) override;
  [[nodiscard]] std::vector<std::byte> handle_bootstrap_request(
      adam2::host::AgentContext& ctx,
      std::span<const std::byte> request) override;
  bool handle_bootstrap_response(adam2::host::AgentContext& ctx,
                                 std::span<const std::byte> response) override;
};

/// Agent factory building TracedAgents; the construction itself is timed.
[[nodiscard]] adam2::host::AgentFactory traced_factory(
    adam2::core::Adam2Config config);

class TracedOverlay final : public adam2::host::Overlay {
 public:
  explicit TracedOverlay(std::unique_ptr<adam2::host::Overlay> inner);

  void build_initial(std::span<const adam2::host::NodeId> ids,
                     const adam2::host::HostView& host,
                     adam2::rng::Rng& rng) override;
  void add_node(adam2::host::NodeId id, const adam2::host::HostView& host,
                adam2::rng::Rng& rng) override;
  void remove_node(adam2::host::NodeId id) override;
  [[nodiscard]] std::optional<adam2::host::NodeId> pick_gossip_target(
      adam2::host::NodeId id, adam2::rng::Rng& rng) const override;
  [[nodiscard]] std::vector<adam2::host::NodeId> neighbors(
      adam2::host::NodeId id) const override;
  [[nodiscard]] std::vector<adam2::stats::Value> known_attribute_values(
      adam2::host::NodeId id,
      const adam2::host::HostView& host) const override;
  void maintain(adam2::host::HostView& host, adam2::rng::Rng& rng) override;

  [[nodiscard]] std::uint32_t snapshot_kind() const override {
    return inner_->snapshot_kind();
  }
  void save_state(adam2::wire::Writer& out) const override {
    inner_->save_state(out);
  }
  void restore_state(adam2::wire::Reader& in) override {
    inner_->restore_state(in);
  }

 private:
  std::unique_ptr<adam2::host::Overlay> inner_;
};

}  // namespace perfbench
