#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <stdexcept>

#include "sim/cycle_engine.hpp"
#include "sim/cyclon.hpp"
#include "sim/overlay.hpp"
#include "wire/buffer.hpp"

namespace adam2::sim {
namespace {

/// Minimal push-pull averaging agent used to exercise the engine's exchange
/// mediation independent of the Adam2 protocol: each node starts with its
/// attribute value and the population should converge to the global mean
/// with total mass conserved exactly.
class AveragingAgent final : public NodeAgent {
 public:
  explicit AveragingAgent(double initial) : value_(initial) {}

  [[nodiscard]] double value() const { return value_; }

  void on_round_start(AgentContext&) override {}

  std::span<const std::byte> make_request(AgentContext&) override {
    scratch_ = encode(value_);
    return scratch_;
  }

  std::span<const std::byte> handle_request(
      AgentContext&, std::span<const std::byte> req) override {
    const double theirs = decode(req);
    scratch_ = encode(value_);  // Pre-merge value (symmetric).
    value_ = (value_ + theirs) / 2.0;
    return scratch_;
  }

  void handle_response(AgentContext&, std::span<const std::byte> resp) override {
    value_ = (value_ + decode(resp)) / 2.0;
  }

 private:
  static std::vector<std::byte> encode(double v) {
    wire::Writer w;
    w.f64(v);
    return w.take();
  }
  static double decode(std::span<const std::byte> bytes) {
    wire::Reader r(bytes);
    return r.f64();
  }

  double value_;
  std::vector<std::byte> scratch_;  ///< Backs the returned spans.
};

AgentFactory averaging_factory() {
  return [](const AgentContext& ctx) {
    return std::make_unique<AveragingAgent>(static_cast<double>(ctx.attribute));
  };
}

/// Agent that never gossips; used for pure substrate tests.
class SilentAgent final : public NodeAgent {
 public:
  std::span<const std::byte> make_request(AgentContext&) override { return {}; }
  std::span<const std::byte> handle_request(AgentContext&,
                                            std::span<const std::byte>) override {
    return {};
  }
};

AgentFactory silent_factory() {
  return [](const AgentContext&) { return std::make_unique<SilentAgent>(); };
}

std::vector<stats::Value> iota_values(std::size_t n) {
  std::vector<stats::Value> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<stats::Value>(i);
  return values;
}

EngineConfig config_with_seed(std::uint64_t seed) {
  EngineConfig config;
  config.seed = seed;
  return config;
}

// ------------------------------------------------------------------ Engine

TEST(EngineTest, ConstructsRequestedPopulation) {
  CycleEngine engine(config_with_seed(1), iota_values(100),
                     std::make_unique<StaticRandomOverlay>(8), silent_factory(),
                     nullptr);
  EXPECT_EQ(engine.live_count(), 100u);
  EXPECT_EQ(engine.nodes_ever(), 100u);
  EXPECT_EQ(engine.round(), 0u);
}

TEST(EngineTest, AttributesAreAssignedInOrder) {
  CycleEngine engine(config_with_seed(2), {10, 20, 30},
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     nullptr);
  EXPECT_EQ(engine.attribute_of(0), 10);
  EXPECT_EQ(engine.attribute_of(1), 20);
  EXPECT_EQ(engine.attribute_of(2), 30);
}

TEST(EngineTest, RoundCounterAdvances) {
  CycleEngine engine(config_with_seed(3), iota_values(10),
                     std::make_unique<StaticRandomOverlay>(4), silent_factory(),
                     nullptr);
  engine.run_rounds(7);
  EXPECT_EQ(engine.round(), 7u);
}

TEST(EngineTest, AveragingConvergesToGlobalMean) {
  const std::size_t n = 256;
  CycleEngine engine(config_with_seed(4), iota_values(n),
                     std::make_unique<StaticRandomOverlay>(10),
                     averaging_factory(), nullptr);
  engine.run_rounds(60);
  const double mean = (static_cast<double>(n) - 1.0) / 2.0;
  for (NodeId id : engine.live_ids()) {
    const auto& agent = dynamic_cast<const AveragingAgent&>(engine.agent(id));
    EXPECT_NEAR(agent.value(), mean, 1e-8);
  }
}

TEST(EngineTest, AveragingConservesMassExactly) {
  const std::size_t n = 128;
  CycleEngine engine(config_with_seed(5), iota_values(n),
                     std::make_unique<StaticRandomOverlay>(8),
                     averaging_factory(), nullptr);
  auto total = [&] {
    double sum = 0.0;
    for (NodeId id : engine.live_ids()) {
      sum += dynamic_cast<const AveragingAgent&>(engine.agent(id)).value();
    }
    return sum;
  };
  const double before = total();
  engine.run_rounds(10);
  EXPECT_NEAR(total(), before, 1e-9 * before);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    CycleEngine engine(config_with_seed(seed), iota_values(64),
                       std::make_unique<StaticRandomOverlay>(6),
                       averaging_factory(), nullptr);
    engine.run_rounds(5);
    std::vector<double> values;
    for (NodeId id : engine.live_ids()) {
      values.push_back(
          dynamic_cast<const AveragingAgent&>(engine.agent(id)).value());
    }
    return values;
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78));
}

TEST(EngineTest, TrafficIsAccountedPerChannelAndGlobally) {
  CycleEngine engine(config_with_seed(6), iota_values(50),
                     std::make_unique<StaticRandomOverlay>(6),
                     averaging_factory(), nullptr);
  engine.run_rounds(3);
  const auto& total = engine.total_traffic();
  const auto& agg = total.on(Channel::kAggregation);
  // Every successful exchange = 2 messages (request + response) of 8 bytes.
  EXPECT_GT(agg.messages_sent, 0u);
  EXPECT_EQ(agg.bytes_sent, agg.messages_sent * 8);
  EXPECT_EQ(agg.messages_received, agg.messages_sent);

  // Per-node totals sum to the global ones.
  std::uint64_t per_node = 0;
  for (NodeId id : engine.live_ids()) {
    per_node += engine.node(id).traffic.on(Channel::kAggregation).bytes_sent;
  }
  EXPECT_EQ(per_node, agg.bytes_sent);
}

TEST(EngineTest, KillNodeRemovesItFromLiveSet) {
  CycleEngine engine(config_with_seed(8), iota_values(10),
                     std::make_unique<StaticRandomOverlay>(4), silent_factory(),
                     nullptr);
  engine.kill_node(3);
  EXPECT_EQ(engine.live_count(), 9u);
  EXPECT_FALSE(engine.is_live(3));
  const auto live = engine.live_ids();
  EXPECT_EQ(std::count(live.begin(), live.end(), 3u), 0);
}

TEST(EngineTest, ChurnKeepsPopulationSizeConstant) {
  EngineConfig config = config_with_seed(9);
  config.churn_rate = 0.05;
  CycleEngine engine(config, iota_values(200),
                     std::make_unique<StaticRandomOverlay>(8),
                     averaging_factory(), [](rng::Rng& rng) {
                  return static_cast<stats::Value>(rng.below(100));
                     });
  engine.run_rounds(20);
  EXPECT_EQ(engine.live_count(), 200u);
  EXPECT_GT(engine.nodes_ever(), 200u);
  // Roughly 5% of 200 = 10 replacements per round over 20 rounds.
  EXPECT_NEAR(static_cast<double>(engine.nodes_ever() - 200), 200.0, 60.0);
}

TEST(EngineTest, ChurnedInNodesGetFreshIdsAndBirthRounds) {
  EngineConfig config = config_with_seed(10);
  config.churn_rate = 0.1;
  CycleEngine engine(config, iota_values(50),
                     std::make_unique<StaticRandomOverlay>(6), silent_factory(),
                     [](rng::Rng&) { return stats::Value{7}; });
  engine.run_rounds(5);
  std::set<NodeId> seen;
  for (NodeId id : engine.live_ids()) {
    EXPECT_TRUE(seen.insert(id).second);  // No duplicates.
    const Node& node = engine.node(id);
    if (id >= 50) {
      EXPECT_GT(node.birth_round, 0u);
      EXPECT_EQ(node.attribute, 7);
    }
  }
}

TEST(EngineTest, ChurnRequiresAttributeSource) {
  EngineConfig config = config_with_seed(11);
  config.churn_rate = 0.1;
  EXPECT_THROW(CycleEngine(config, iota_values(10),
                           std::make_unique<StaticRandomOverlay>(4),
                           silent_factory(), nullptr),
               std::invalid_argument);
}

TEST(EngineTest, MessageLossDropsTraffic) {
  EngineConfig lossy = config_with_seed(12);
  lossy.message_loss = 0.5;
  CycleEngine engine(lossy, iota_values(100),
                     std::make_unique<StaticRandomOverlay>(8),
                     averaging_factory(), nullptr);
  engine.run_rounds(5);
  EXPECT_GT(engine.total_traffic().dropped_messages, 50u);
}

TEST(EngineTest, MessageLossBreaksExactMassConservation) {
  // A dropped response leaves the responder merged but not the requester —
  // the asymmetry a real deployment would see.
  EngineConfig lossy = config_with_seed(13);
  lossy.message_loss = 0.3;
  CycleEngine engine(lossy, iota_values(64),
                     std::make_unique<StaticRandomOverlay>(8),
                     averaging_factory(), nullptr);
  auto total = [&] {
    double sum = 0.0;
    for (NodeId id : engine.live_ids()) {
      sum += dynamic_cast<const AveragingAgent&>(engine.agent(id)).value();
    }
    return sum;
  };
  const double before = total();
  engine.run_rounds(10);
  EXPECT_NE(total(), before);
}

TEST(EngineTest, SetAttributeChangesGroundTruth) {
  CycleEngine engine(config_with_seed(14), iota_values(5),
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     nullptr);
  engine.set_attribute(2, 999);
  EXPECT_EQ(engine.attribute_of(2), 999);
  const auto values = engine.live_attribute_values();
  EXPECT_EQ(std::count(values.begin(), values.end(), 999), 1);
}

TEST(EngineTest, UnknownNodeThrows) {
  CycleEngine engine(config_with_seed(15), iota_values(3),
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     nullptr);
  EXPECT_THROW((void)engine.node(99), std::out_of_range);
  EXPECT_FALSE(engine.is_live(99));
}

// ----------------------------------------------------- StaticRandomOverlay

TEST(StaticOverlayTest, InitialGraphIsConnected) {
  CycleEngine engine(config_with_seed(16), iota_values(500),
                     std::make_unique<StaticRandomOverlay>(8), silent_factory(),
                     nullptr);
  // BFS over neighbour lists from node 0.
  std::set<NodeId> visited{0};
  std::queue<NodeId> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    const NodeId current = frontier.front();
    frontier.pop();
    for (NodeId next : engine.overlay().neighbors(current)) {
      if (visited.insert(next).second) frontier.push(next);
    }
  }
  EXPECT_EQ(visited.size(), 500u);
}

TEST(StaticOverlayTest, DegreesAreNearTarget) {
  CycleEngine engine(config_with_seed(17), iota_values(1000),
                     std::make_unique<StaticRandomOverlay>(10),
                     silent_factory(), nullptr);
  double total_degree = 0.0;
  for (NodeId id : engine.live_ids()) {
    total_degree += static_cast<double>(engine.overlay().neighbors(id).size());
  }
  EXPECT_NEAR(total_degree / 1000.0, 10.0, 2.5);
}

TEST(StaticOverlayTest, PickGossipTargetReturnsNeighbour) {
  CycleEngine engine(config_with_seed(18), iota_values(100),
                     std::make_unique<StaticRandomOverlay>(6), silent_factory(),
                     nullptr);
  rng::Rng rng(1);
  for (NodeId id : {NodeId{0}, NodeId{50}, NodeId{99}}) {
    const auto neighbors = engine.overlay().neighbors(id);
    for (int i = 0; i < 20; ++i) {
      const auto target = engine.overlay().pick_gossip_target(id, rng);
      ASSERT_TRUE(target.has_value());
      EXPECT_NE(std::find(neighbors.begin(), neighbors.end(), *target),
                neighbors.end());
    }
  }
}

TEST(StaticOverlayTest, RemoveNodeDropsReverseLinks) {
  StaticRandomOverlay overlay(4);
  CycleEngine engine(config_with_seed(19), iota_values(20),
                     std::make_unique<StaticRandomOverlay>(4), silent_factory(),
                     nullptr);
  const auto victims = engine.overlay().neighbors(0);
  ASSERT_FALSE(victims.empty());
  const NodeId victim = victims.front();
  engine.kill_node(victim);
  const auto after = engine.overlay().neighbors(0);
  EXPECT_EQ(std::count(after.begin(), after.end(), victim), 0);
}

TEST(StaticOverlayTest, KnownAttributeValuesComeFromLiveNeighbours) {
  CycleEngine engine(config_with_seed(20), iota_values(50),
                     std::make_unique<StaticRandomOverlay>(6), silent_factory(),
                     nullptr);
  const auto values = engine.overlay().known_attribute_values(0, engine);
  EXPECT_FALSE(values.empty());
  for (stats::Value v : values) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

// -------------------------------------------------------------- Cyclon

std::unique_ptr<CyclonOverlay> make_cyclon(std::size_t view = 8,
                                           std::size_t shuffle = 4) {
  CyclonConfig config;
  config.view_size = view;
  config.shuffle_size = shuffle;
  return std::make_unique<CyclonOverlay>(config);
}

TEST(CyclonTest, ViewsRespectCapacity) {
  CycleEngine engine(config_with_seed(21), iota_values(200), make_cyclon(),
                     silent_factory(), nullptr);
  engine.run_rounds(10);
  for (NodeId id : engine.live_ids()) {
    EXPECT_LE(engine.overlay().neighbors(id).size(), 8u);
    EXPECT_GE(engine.overlay().neighbors(id).size(), 1u);
  }
}

TEST(CyclonTest, ViewsContainNoSelfOrDuplicates) {
  CycleEngine engine(config_with_seed(22), iota_values(100), make_cyclon(),
                     silent_factory(), nullptr);
  engine.run_rounds(15);
  for (NodeId id : engine.live_ids()) {
    const auto neighbors = engine.overlay().neighbors(id);
    const std::set<NodeId> unique(neighbors.begin(), neighbors.end());
    EXPECT_EQ(unique.size(), neighbors.size());
    EXPECT_EQ(unique.count(id), 0u);
  }
}

TEST(CyclonTest, ShufflingMixesViews) {
  CycleEngine engine(config_with_seed(23), iota_values(200), make_cyclon(),
                     silent_factory(), nullptr);
  const auto before = engine.overlay().neighbors(0);
  engine.run_rounds(20);
  const auto after = engine.overlay().neighbors(0);
  // After 20 shuffles the view should have turned over substantially.
  std::size_t kept = 0;
  for (NodeId id : after) {
    kept += std::count(before.begin(), before.end(), id);
  }
  EXPECT_LT(kept, before.size());
}

TEST(CyclonTest, GraphStaysConnectedUnderChurn) {
  EngineConfig config = config_with_seed(24);
  config.churn_rate = 0.01;
  CycleEngine engine(config, iota_values(300), make_cyclon(12, 6),
                     silent_factory(), [](rng::Rng& rng) {
                  return static_cast<stats::Value>(rng.below(1000));
                     });
  engine.run_rounds(50);
  // BFS over the (directed) views, treating edges as undirected.
  std::map<NodeId, std::vector<NodeId>> undirected;
  for (NodeId id : engine.live_ids()) {
    for (NodeId peer : engine.overlay().neighbors(id)) {
      if (!engine.is_live(peer)) continue;
      undirected[id].push_back(peer);
      undirected[peer].push_back(id);
    }
  }
  const NodeId start = engine.live_ids().front();
  std::set<NodeId> visited{start};
  std::queue<NodeId> frontier;
  frontier.push(start);
  while (!frontier.empty()) {
    const NodeId current = frontier.front();
    frontier.pop();
    for (NodeId next : undirected[current]) {
      if (visited.insert(next).second) frontier.push(next);
    }
  }
  EXPECT_GT(static_cast<double>(visited.size()),
            0.99 * static_cast<double>(engine.live_count()));
}

TEST(CyclonTest, DeadEntriesAreEventuallyEvicted) {
  CycleEngine engine(config_with_seed(25), iota_values(100), make_cyclon(),
                     silent_factory(), nullptr);
  engine.run_rounds(5);
  engine.kill_node(42);
  engine.run_rounds(30);
  for (NodeId id : engine.live_ids()) {
    const auto neighbors = engine.overlay().neighbors(id);
    EXPECT_EQ(std::count(neighbors.begin(), neighbors.end(), NodeId{42}), 0)
        << "node " << id << " still references the dead node";
  }
}

TEST(CyclonTest, DescriptorsCarryAttributeValues) {
  CycleEngine engine(config_with_seed(26), iota_values(100), make_cyclon(),
                     silent_factory(), nullptr);
  engine.run_rounds(10);
  const auto values = engine.overlay().known_attribute_values(0, engine);
  EXPECT_GT(values.size(), 8u);  // View plus the shuffle value cache.
  for (stats::Value v : values) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(CyclonTest, ShuffleTrafficIsAccountedOnOverlayChannel) {
  CycleEngine engine(config_with_seed(27), iota_values(50), make_cyclon(),
                     silent_factory(), nullptr);
  engine.run_rounds(3);
  const auto& overlay_traffic = engine.total_traffic().on(Channel::kOverlay);
  EXPECT_GT(overlay_traffic.messages_sent, 0u);
  EXPECT_EQ(engine.total_traffic().on(Channel::kAggregation).messages_sent, 0u);
}


// ------------------------------------------------------ Cyclon view slabs

/// HostView over a fixed id range for driving a CyclonOverlay directly.
/// Every attribute read returns a fresh value, so each descriptor the
/// overlay builds carries a unique attribute and value-cache order errors
/// cannot hide behind repeated values.
class CountingHost final : public HostView {
 public:
  explicit CountingHost(std::size_t n) : ids_(n) {
    for (std::size_t i = 0; i < n; ++i) ids_[i] = i;
  }
  [[nodiscard]] bool is_live(NodeId id) const override {
    return id < ids_.size();
  }
  [[nodiscard]] stats::Value attribute_of(NodeId) const override {
    return next_value_++;
  }
  [[nodiscard]] Round round() const override { return 0; }
  [[nodiscard]] std::span<const NodeId> live_ids() const override {
    return ids_;
  }
  void record_traffic(NodeId, NodeId, Channel, std::size_t) override {}

 private:
  std::vector<NodeId> ids_;
  mutable stats::Value next_value_ = 1000;
};

CyclonConfig slab_config(std::size_t cache) {
  CyclonConfig config;
  config.view_size = 6;
  config.shuffle_size = 3;
  config.value_cache_size = cache;
  return config;
}

std::vector<std::byte> saved(const CyclonOverlay& overlay) {
  wire::Writer out;
  overlay.save_state(out);
  return out.take();
}

TEST(CyclonSlabTest, ValueRingMatchesDequeModelThroughWrapAround) {
  // The cache size never feeds a draw, so an overlay whose cache cannot
  // fill exposes the full stream of remembered values; the small overlay's
  // ring must hold exactly its last kCache values, oldest first — what a
  // std::deque with push_back/pop_front holds.
  constexpr std::size_t kNodes = 30;
  constexpr std::size_t kCache = 7;
  CountingHost full_host(kNodes);
  CountingHost ring_host(kNodes);
  CyclonOverlay full(slab_config(100'000));
  CyclonOverlay ring(slab_config(kCache));
  rng::Rng full_rng(31);
  rng::Rng ring_rng(31);
  full.build_initial(full_host.live_ids(), full_host, full_rng);
  ring.build_initial(ring_host.live_ids(), ring_host, ring_rng);

  std::vector<std::size_t> seen(kNodes, 0);  // Stream values fed so far.
  std::vector<std::deque<stats::Value>> model(kNodes);
  bool wrapped = false;
  for (int round = 0; round < 40; ++round) {
    full.maintain(full_host, full_rng);
    ring.maintain(ring_host, ring_rng);
    for (NodeId id = 0; id < kNodes; ++id) {
      const auto entries = full.neighbors(id).size();
      ASSERT_EQ(ring.neighbors(id), full.neighbors(id)) << "node " << id;
      const auto stream = full.known_attribute_values(id, full_host);
      for (std::size_t i = entries + seen[id]; i < stream.size(); ++i) {
        model[id].push_back(stream[i]);
        while (model[id].size() > kCache) {
          model[id].pop_front();
          wrapped = true;
        }
      }
      seen[id] = stream.size() - entries;
      std::vector<stats::Value> expected(stream.begin(),
                                         stream.begin() + entries);
      expected.insert(expected.end(), model[id].begin(), model[id].end());
      ASSERT_EQ(ring.known_attribute_values(id, ring_host), expected)
          << "node " << id << " round " << round;
    }
    if (round % 5 != 4) continue;
    // save -> restore -> save reproduces the bytes, and the restored ring
    // (re-based at position 0) reads back in the same order.
    const auto bytes = saved(ring);
    CyclonOverlay restored(slab_config(kCache));
    wire::Reader in(bytes);
    restored.restore_state(in);
    ASSERT_EQ(saved(restored), bytes) << "round " << round;
    for (NodeId id = 0; id < kNodes; ++id) {
      ASSERT_EQ(restored.known_attribute_values(id, ring_host),
                ring.known_attribute_values(id, ring_host));
    }
  }
  EXPECT_TRUE(wrapped);
}

TEST(CyclonSlabTest, ZeroSizedValueCacheKeepsOnlyTheView) {
  CountingHost host(10);
  CyclonOverlay overlay(slab_config(0));
  rng::Rng rng(5);
  overlay.build_initial(host.live_ids(), host, rng);
  for (int round = 0; round < 5; ++round) overlay.maintain(host, rng);
  for (NodeId id = 0; id < 10; ++id) {
    EXPECT_EQ(overlay.known_attribute_values(id, host).size(),
              overlay.neighbors(id).size());
  }
}

TEST(CyclonSlabTest, ChurnGrowsIdsPastTheInitialSlab) {
  EngineConfig config = config_with_seed(28);
  config.churn_rate = 0.05;
  constexpr std::size_t kInitial = 60;
  CycleEngine engine(config, iota_values(kInitial), make_cyclon(6, 3),
                     silent_factory(), [](rng::Rng& rng) {
                  return static_cast<stats::Value>(rng.below(1000));
                     });
  engine.run_rounds(40);
  const auto live = engine.live_ids();
  const NodeId newest = *std::max_element(live.begin(), live.end());
  ASSERT_GE(newest, 2 * kInitial);  // Several slab growths happened.
  std::size_t joined = 0;
  for (NodeId id : live) {
    const auto neighbors = engine.overlay().neighbors(id);
    const std::set<NodeId> unique(neighbors.begin(), neighbors.end());
    EXPECT_LE(neighbors.size(), 6u);
    EXPECT_EQ(unique.size(), neighbors.size());
    EXPECT_EQ(unique.count(id), 0u);
    if (id >= kInitial) {
      ++joined;
      EXPECT_FALSE(neighbors.empty()) << "joined node " << id;
    }
  }
  EXPECT_GT(joined, kInitial / 2);
  // Ids past the highest one ever handed out have no view.
  rng::Rng rng(1);
  EXPECT_TRUE(engine.overlay().neighbors(engine.nodes_ever()).empty());
  EXPECT_FALSE(engine.overlay()
                   .pick_gossip_target(engine.nodes_ever(), rng)
                   .has_value());
}

TEST(CyclonSlabTest, AddNodeFarBeyondTheSlabGrowsIt) {
  CountingHost host(8);
  CyclonOverlay overlay(slab_config(16));
  rng::Rng rng(9);
  overlay.build_initial(host.live_ids(), host, rng);
  overlay.add_node(5000, host, rng);
  EXPECT_FALSE(overlay.neighbors(5000).empty());
  EXPECT_TRUE(overlay.neighbors(4999).empty());
  EXPECT_TRUE(overlay.known_attribute_values(4999, host).empty());
  // Existing views survive the growth.
  for (NodeId id = 0; id < 8; ++id) EXPECT_FALSE(overlay.neighbors(id).empty());
}

TEST(CyclonSlabTest, RemovedNodeReadsAsAbsent) {
  CycleEngine engine(config_with_seed(29), iota_values(40), make_cyclon(),
                     silent_factory(), nullptr);
  engine.run_rounds(5);
  ASSERT_FALSE(engine.overlay().neighbors(7).empty());
  ASSERT_FALSE(engine.overlay().known_attribute_values(7, engine).empty());
  engine.kill_node(7);
  rng::Rng rng(2);
  EXPECT_TRUE(engine.overlay().neighbors(7).empty());
  EXPECT_FALSE(engine.overlay().pick_gossip_target(7, rng).has_value());
  EXPECT_TRUE(engine.overlay().known_attribute_values(7, engine).empty());
  // Never-seen ids read the same way.
  const NodeId unknown = std::numeric_limits<NodeId>::max();
  EXPECT_TRUE(engine.overlay().neighbors(unknown).empty());
  EXPECT_FALSE(engine.overlay().pick_gossip_target(unknown, rng).has_value());
  EXPECT_TRUE(engine.overlay().known_attribute_values(unknown, engine).empty());
  // The remaining population keeps shuffling around the hole.
  engine.run_rounds(5);
  EXPECT_TRUE(engine.overlay().neighbors(7).empty());
}

TEST(CyclonSlabTest, ViewsLargerThanSixtyFourAreRejected) {
  // 64-bit slot masks and the shuffles' stack message buffers bound views.
  CyclonConfig config;
  config.view_size = 64;
  EXPECT_NO_THROW(CyclonOverlay{config});
  config.view_size = 65;
  EXPECT_THROW(CyclonOverlay{config}, std::invalid_argument);
}

}  // namespace
}  // namespace adam2::sim
