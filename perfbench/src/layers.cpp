#include "layers.hpp"

#include <chrono>
#include <mutex>
#include <vector>

namespace perfbench {

namespace host = adam2::host;

namespace {

struct Slot {
  LayerTotals totals;
  bool busy = false;  ///< Inside a traced call on this thread.
};

std::mutex registry_mutex;
std::vector<std::unique_ptr<Slot>> registry;

Slot& local_slot() {
  thread_local Slot* slot = nullptr;
  if (slot == nullptr) {
    const std::lock_guard<std::mutex> lock(registry_mutex);
    registry.push_back(std::make_unique<Slot>());
    slot = registry.back().get();
  }
  return *slot;
}

/// Times one call into a layer and adds it to the calling thread's slot.
class Scope {
 public:
  explicit Scope(Op op)
      : slot_(local_slot()),
        op_(op),
        outer_(!slot_.busy),
        start_(std::chrono::steady_clock::now()) {
    slot_.busy = true;
  }
  ~Scope() {
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    slot_.totals.ns[op_] += ns;
    ++slot_.totals.calls[op_];
    if (outer_) {
      slot_.totals.child_ns += ns;
      slot_.busy = false;
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] LayerTotals& totals() { return slot_.totals; }

 private:
  Slot& slot_;
  Op op_;
  bool outer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

LayerTotals& LayerTotals::operator+=(const LayerTotals& other) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    ns[i] += other.ns[i];
    calls[i] += other.calls[i];
  }
  child_ns += other.child_ns;
  active_instances += other.active_instances;
  requests += other.requests;
  request_bytes += other.request_bytes;
  responses += other.responses;
  response_bytes += other.response_bytes;
  return *this;
}

LayerTotals drain_layers() {
  const std::lock_guard<std::mutex> lock(registry_mutex);
  LayerTotals sum;
  for (const std::unique_ptr<Slot>& slot : registry) {
    sum += slot->totals;
    slot->totals = LayerTotals{};
  }
  return sum;
}

void TracedAgent::on_round_start(host::AgentContext& ctx) {
  Scope scope(kRoundStart);
  Adam2Agent::on_round_start(ctx);
  scope.totals().active_instances += active_instance_count();
}

std::span<const std::byte> TracedAgent::make_request(host::AgentContext& ctx) {
  Scope scope(kRequest);
  const std::span<const std::byte> request = Adam2Agent::make_request(ctx);
  if (!request.empty()) {
    ++scope.totals().requests;
    scope.totals().request_bytes += request.size();
  }
  return request;
}

std::span<const std::byte> TracedAgent::handle_request(
    host::AgentContext& ctx, std::span<const std::byte> request) {
  Scope scope(kRespond);
  const std::span<const std::byte> response =
      Adam2Agent::handle_request(ctx, request);
  if (!response.empty()) {
    ++scope.totals().responses;
    scope.totals().response_bytes += response.size();
  }
  return response;
}

void TracedAgent::handle_response(host::AgentContext& ctx,
                                  std::span<const std::byte> response) {
  Scope scope(kMerge);
  Adam2Agent::handle_response(ctx, response);
}

std::vector<std::byte> TracedAgent::make_bootstrap_request(
    host::AgentContext& ctx) {
  Scope scope(kBootstrap);
  return Adam2Agent::make_bootstrap_request(ctx);
}

std::vector<std::byte> TracedAgent::handle_bootstrap_request(
    host::AgentContext& ctx, std::span<const std::byte> request) {
  Scope scope(kBootstrap);
  return Adam2Agent::handle_bootstrap_request(ctx, request);
}

bool TracedAgent::handle_bootstrap_response(
    host::AgentContext& ctx, std::span<const std::byte> response) {
  Scope scope(kBootstrap);
  return Adam2Agent::handle_bootstrap_response(ctx, response);
}

host::AgentFactory traced_factory(adam2::core::Adam2Config config) {
  return [config](const host::AgentContext&) -> std::unique_ptr<host::NodeAgent> {
    Scope scope(kConstruct);
    return std::make_unique<TracedAgent>(config);
  };
}

TracedOverlay::TracedOverlay(std::unique_ptr<host::Overlay> inner)
    : inner_(std::move(inner)) {}

void TracedOverlay::build_initial(std::span<const host::NodeId> ids,
                                  const host::HostView& host,
                                  adam2::rng::Rng& rng) {
  Scope scope(kBuild);
  inner_->build_initial(ids, host, rng);
}

void TracedOverlay::add_node(host::NodeId id, const host::HostView& host,
                             adam2::rng::Rng& rng) {
  Scope scope(kChurn);
  inner_->add_node(id, host, rng);
}

void TracedOverlay::remove_node(host::NodeId id) {
  Scope scope(kChurn);
  inner_->remove_node(id);
}

std::optional<host::NodeId> TracedOverlay::pick_gossip_target(
    host::NodeId id, adam2::rng::Rng& rng) const {
  Scope scope(kPick);
  return inner_->pick_gossip_target(id, rng);
}

std::vector<host::NodeId> TracedOverlay::neighbors(host::NodeId id) const {
  Scope scope(kNeighbors);
  return inner_->neighbors(id);
}

std::vector<adam2::stats::Value> TracedOverlay::known_attribute_values(
    host::NodeId id, const host::HostView& host) const {
  Scope scope(kKnownValues);
  return inner_->known_attribute_values(id, host);
}

void TracedOverlay::maintain(host::HostView& host, adam2::rng::Rng& rng) {
  Scope scope(kMaintain);
  inner_->maintain(host, rng);
}

}  // namespace perfbench
