// Golden replay: the cycle engine must produce bit-identical results for
// every seed at every thread count. The tests replay the same configuration
// single-threaded and at several thread counts and compare the full
// observable state: live membership, per-agent protocol state, attributes,
// and traffic totals — all exact equality, no tolerances.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "core/system.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/cyclon.hpp"
#include "sim/overlay.hpp"
#include "wire/buffer.hpp"

namespace adam2::sim {
namespace {

/// Push-pull averaging agent: enough state to expose any divergence in
/// exchange order, loss draws, or churn trajectories.
class AveragingAgent final : public NodeAgent {
 public:
  explicit AveragingAgent(double initial) : value_(initial) {}

  [[nodiscard]] double value() const { return value_; }

  std::span<const std::byte> make_request(AgentContext& ctx) override {
    // Consume the agent stream so stream separation is exercised too.
    jitter_ = ctx.rng.uniform(0.0, 1e-12);
    scratch_ = encode(value_ + jitter_);
    return scratch_;
  }

  std::span<const std::byte> handle_request(
      AgentContext&, std::span<const std::byte> req) override {
    const double theirs = decode(req);
    scratch_ = encode(value_);
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

  double value_ = 0.0;
  double jitter_ = 0.0;
  std::vector<std::byte> scratch_;  ///< Backs the returned spans.
};

/// Fault-hardened variant: tolerates corrupted/truncated payloads the way a
/// real protocol agent does — validate, then drop. Values merged under
/// faults stay finite, so serial/parallel comparisons remain bitwise.
class HardenedAgent final : public NodeAgent {
 public:
  explicit HardenedAgent(double initial) : value_(initial) {}

  [[nodiscard]] double value() const { return value_; }

  std::span<const std::byte> make_request(AgentContext& ctx) override {
    jitter_ = ctx.rng.uniform(0.0, 1e-12);
    scratch_ = encode(value_ + jitter_);
    return scratch_;
  }

  std::span<const std::byte> handle_request(
      AgentContext&, std::span<const std::byte> req) override {
    const auto theirs = decode(req);
    if (!theirs) return {};  // Corrupted request: no merge, no reply.
    scratch_ = encode(value_);
    value_ = (value_ + *theirs) / 2.0;
    return scratch_;
  }

  void handle_response(AgentContext&, std::span<const std::byte> resp) override {
    const auto theirs = decode(resp);
    if (!theirs) return;
    value_ = (value_ + *theirs) / 2.0;
  }

 private:
  static std::vector<std::byte> encode(double v) {
    wire::Writer w;
    w.f64(v);
    return w.take();
  }
  static std::optional<double> decode(std::span<const std::byte> bytes) {
    if (bytes.size() != sizeof(double)) return std::nullopt;  // Truncated.
    wire::Reader r(bytes);
    const double v = r.f64();
    // Byte flips can produce any bit pattern; cap at the plausible range.
    if (!std::isfinite(v) || v < 0.0 || v > 2000.0) return std::nullopt;
    return v;
  }

  double value_ = 0.0;
  double jitter_ = 0.0;
  std::vector<std::byte> scratch_;  ///< Backs the returned spans.
};

AgentFactory hardened_factory() {
  return [](const AgentContext& ctx) {
    return std::make_unique<HardenedAgent>(static_cast<double>(ctx.attribute));
  };
}

AgentFactory averaging_factory() {
  return [](const AgentContext& ctx) {
    return std::make_unique<AveragingAgent>(static_cast<double>(ctx.attribute));
  };
}

std::vector<stats::Value> iota_values(std::size_t n) {
  std::vector<stats::Value> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<stats::Value>(i);
  return values;
}

EngineConfig stress_config() {
  EngineConfig config;
  config.seed = 0xfeed;
  config.churn_rate = 0.02;
  config.message_loss = 0.05;
  return config;
}

std::unique_ptr<Overlay> cyclon(std::size_t view = 8) {
  CyclonConfig config;
  config.view_size = view;
  config.shuffle_size = view / 2;
  return std::make_unique<CyclonOverlay>(config);
}

AttributeSource churn_values() {
  return [](rng::Rng& rng) { return static_cast<stats::Value>(rng.below(1000)); };
}

template <typename AgentT = AveragingAgent>
void expect_identical(CycleEngine& a, CycleEngine& b) {
  ASSERT_EQ(a.live_count(), b.live_count());
  ASSERT_EQ(a.nodes_ever(), b.nodes_ever());
  const auto live_a = a.live_ids();
  const auto live_b = b.live_ids();
  ASSERT_TRUE(std::equal(live_a.begin(), live_a.end(), live_b.begin(),
                         live_b.end()));
  for (NodeId id : live_a) {
    EXPECT_EQ(a.attribute_of(id), b.attribute_of(id));
    const auto* agent_a = dynamic_cast<AgentT*>(&a.agent(id));
    const auto* agent_b = dynamic_cast<AgentT*>(&b.agent(id));
    ASSERT_NE(agent_a, nullptr);
    ASSERT_NE(agent_b, nullptr);
    // Bitwise, not approximate: a different exchange order would show up
    // as a ULP-level difference in the averaged value.
    EXPECT_EQ(agent_a->value(), agent_b->value()) << "node " << id;
  }
  const TrafficStats& ta = a.total_traffic();
  const TrafficStats& tb = b.total_traffic();
  for (std::size_t c = 0; c < host::kChannelCount; ++c) {
    const auto ch = static_cast<Channel>(c);
    EXPECT_EQ(ta.on(ch).messages_sent, tb.on(ch).messages_sent);
    EXPECT_EQ(ta.on(ch).bytes_sent, tb.on(ch).bytes_sent);
    EXPECT_EQ(ta.on(ch).messages_received, tb.on(ch).messages_received);
  }
  EXPECT_EQ(ta.failed_contacts, tb.failed_contacts);
  EXPECT_EQ(ta.dropped_messages, tb.dropped_messages);
  EXPECT_EQ(ta.busy_rejections, tb.busy_rejections);
  EXPECT_EQ(ta.duplicated_messages, tb.duplicated_messages);
  EXPECT_EQ(ta.corrupted_messages, tb.corrupted_messages);
  EXPECT_EQ(ta.partitioned_messages, tb.partitioned_messages);
  EXPECT_EQ(ta.crash_restarts, tb.crash_restarts);
}

TEST(ParallelEngineTest, SingleThreadMatchesSerialEngine) {
  CycleEngine serial(stress_config(), iota_values(300), cyclon(),
                     averaging_factory(), churn_values());
  CycleEngine parallel(stress_config(), 1, iota_values(300), cyclon(),
                       averaging_factory(), churn_values());
  serial.run_rounds(25);
  parallel.run_rounds(25);
  expect_identical(serial, parallel);
}

TEST(ParallelEngineTest, AnyThreadCountMatchesSerialEngine) {
  CycleEngine serial(stress_config(), iota_values(300), cyclon(),
                     averaging_factory(), churn_values());
  serial.run_rounds(20);
  for (std::size_t threads : {2u, 8u}) {
    CycleEngine parallel(stress_config(), threads, iota_values(300),
                         cyclon(), averaging_factory(), churn_values());
    parallel.run_rounds(20);
    expect_identical(serial, parallel);
  }
}

TEST(ParallelEngineTest, StaticOverlayWithoutChurnMatches) {
  EngineConfig config;
  config.seed = 77;
  CycleEngine serial(config, iota_values(200),
                     std::make_unique<StaticRandomOverlay>(6),
                     averaging_factory(), nullptr);
  CycleEngine parallel(config, 4, iota_values(200),
                       std::make_unique<StaticRandomOverlay>(6),
                       averaging_factory(), nullptr);
  serial.run_rounds(30);
  parallel.run_rounds(30);
  expect_identical(serial, parallel);
}

TEST(ParallelEngineTest, RepeatedParallelRunsAreDeterministic) {
  CycleEngine first(stress_config(), 4, iota_values(250), cyclon(),
                    averaging_factory(), churn_values());
  CycleEngine second(stress_config(), 4, iota_values(250), cyclon(),
                     averaging_factory(), churn_values());
  first.run_rounds(15);
  second.run_rounds(15);
  expect_identical(first, second);
}

TEST(ParallelEngineTest, EmptyPopulationRunsHarmlessly) {
  CycleEngine engine(EngineConfig{}, 4, {},
                     std::make_unique<StaticRandomOverlay>(4),
                     averaging_factory(), nullptr);
  engine.run_rounds(3);
  EXPECT_EQ(engine.live_count(), 0u);
}

TEST(ParallelEngineTest, MoreThreadsThanNodes) {
  EngineConfig config;
  config.seed = 3;
  CycleEngine serial(config, iota_values(3),
                     std::make_unique<StaticRandomOverlay>(2),
                     averaging_factory(), nullptr);
  CycleEngine parallel(config, 8, iota_values(3),
                       std::make_unique<StaticRandomOverlay>(2),
                       averaging_factory(), nullptr);
  serial.run_rounds(10);
  parallel.run_rounds(10);
  expect_identical(serial, parallel);
}

TEST(ParallelEngineTest, ZeroThreadsMeansSerialExecution) {
  CycleEngine engine(EngineConfig{}, 0, iota_values(10),
                     std::make_unique<StaticRandomOverlay>(3),
                     averaging_factory(), nullptr);
  EXPECT_EQ(engine.threads(), 1u);
  engine.run_rounds(2);
  EXPECT_EQ(engine.live_count(), 10u);
}

// Fault replay (ISSUE PR5 satellite): the same FaultPlan seed must produce
// the same fault schedule — and therefore bit-identical node state and
// fault counters — on the serial engine and the sharded engine at any
// thread count. Fault draws come from per-node streams consumed only inside
// the owning exchange unit, which is what makes this possible.
TEST(ParallelEngineTest, FaultScheduleReplaysBitIdenticallyAcrossEngines) {
  EngineConfig config = stress_config();
  config.faults.drop_rate = 0.1;
  config.faults.duplicate_rate = 0.08;
  config.faults.corrupt_rate = 0.08;
  config.faults.crash_rate = 0.01;
  config.faults.partition_count = 2;
  config.faults.partition_start = 5;
  config.faults.partition_heal_after = 6;
  config.faults.seed = 0x5eed;

  CycleEngine serial(config, iota_values(300), cyclon(), hardened_factory(),
                     churn_values());
  serial.run_rounds(25);
  EXPECT_GT(serial.total_traffic().corrupted_messages, 0u);
  EXPECT_GT(serial.total_traffic().crash_restarts, 0u);
  for (std::size_t threads : {2u, 8u}) {
    CycleEngine parallel(config, threads, iota_values(300), cyclon(),
                         hardened_factory(), churn_values());
    parallel.run_rounds(25);
    expect_identical<HardenedAgent>(serial, parallel);
  }
}

// Full protocol stack: the Adam2 system must report bit-identical
// population errors whichever engine hosts it.
TEST(ParallelEngineTest, Adam2SystemErrorsAreBitIdenticalAcrossEngines) {
  const auto run = [](std::size_t threads) {
    core::SystemConfig config;
    config.engine.seed = 11;
    config.engine.churn_rate = 0.002;
    config.protocol.lambda = 20;
    config.protocol.instance_ttl = 20;
    config.engine_threads = threads;
    core::Adam2System system(config, iota_values(400),
                             churn_values());
    system.run_instance();
    return system.errors();
  };
  const auto serial = run(0);
  for (std::size_t threads : {1u, 2u, 8u}) {
    const auto parallel = run(threads);
    EXPECT_EQ(serial.max_err, parallel.max_err) << threads << " threads";
    EXPECT_EQ(serial.avg_err, parallel.avg_err) << threads << " threads";
    EXPECT_EQ(serial.peers, parallel.peers) << threads << " threads";
  }
}

// -- The run_units scheduler -------------------------------------------------

constexpr NodeId kNone = HostView::kNoParticipant;

/// Random participant pairs over `nodes` node ids: about a fifth of the
/// units have no second participant and one in twenty names the same node
/// twice.
std::vector<NodeId> random_participants(std::size_t units, std::size_t nodes,
                                        rng::Rng& rng) {
  std::vector<NodeId> participants(2 * units);
  for (std::size_t p = 0; p < units; ++p) {
    participants[2 * p] = rng.below(nodes);
    const std::uint64_t kind = rng.below(20);
    participants[2 * p + 1] = kind < 4    ? kNone
                              : kind == 4 ? participants[2 * p]
                                          : rng.below(nodes);
  }
  return participants;
}

/// The units touching each node, in index order: what a correct scheduler's
/// per-node execution logs must read.
std::vector<std::vector<std::size_t>> index_order_logs(
    std::span<const NodeId> participants, std::size_t nodes) {
  std::vector<std::vector<std::size_t>> logs(nodes);
  for (std::size_t p = 0; p < participants.size() / 2; ++p) {
    const NodeId a = participants[2 * p];
    const NodeId b = participants[2 * p + 1];
    if (a != kNone) logs[a].push_back(p);
    if (b != kNone && b != a) logs[b].push_back(p);
  }
  return logs;
}

TEST(ParallelEngineSchedulerTest, UnitsSharingANodeRunInIndexOrder) {
  constexpr std::size_t kNodes = 48;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    CycleEngine engine(EngineConfig{}, threads, iota_values(kNodes),
                       std::make_unique<StaticRandomOverlay>(4),
                       averaging_factory(), nullptr);
    rng::Rng rng(0x5c4ed + threads);
    for (std::size_t units : {0u, 1u, 3u, 97u, 5000u}) {
      const auto participants = random_participants(units, kNodes, rng);
      // Plain vectors, written only by units touching the node: a unit that
      // overtook its predecessor shows up as a wrong log (and as a data race
      // under ThreadSanitizer).
      std::vector<std::vector<std::size_t>> logs(kNodes);
      engine.run_units(participants, [&](std::size_t p) {
        const NodeId a = participants[2 * p];
        const NodeId b = participants[2 * p + 1];
        if (a != kNone) logs[a].push_back(p);
        if (b != kNone && b != a) logs[b].push_back(p);
      });
      EXPECT_EQ(logs, index_order_logs(participants, kNodes))
          << threads << " threads, " << units << " units";
    }
  }
}

TEST(ParallelEngineSchedulerTest, RejectsParticipantsThatAreNotNodes) {
  CycleEngine engine(EngineConfig{}, 4, iota_values(8),
                     std::make_unique<StaticRandomOverlay>(3),
                     averaging_factory(), nullptr);
  std::size_t ran = 0;
  const std::vector<NodeId> bad = {0, 1, 2, 8};
  EXPECT_THROW(engine.run_units(bad, [&](std::size_t) { ++ran; }),
               std::out_of_range);
  EXPECT_EQ(ran, 0u);
  // The rejected call left no predecessor behind: a fresh list schedules
  // as if it were the first.
  rng::Rng rng(9);
  const auto participants = random_participants(200, 8, rng);
  std::vector<std::vector<std::size_t>> logs(8);
  engine.run_units(participants, [&](std::size_t p) {
    const NodeId a = participants[2 * p];
    const NodeId b = participants[2 * p + 1];
    logs[a].push_back(p);
    if (b != kNone && b != a) logs[b].push_back(p);
  });
  EXPECT_EQ(logs, index_order_logs(participants, 8));
}

/// HostView over ids [0, n) that runs run_units in a random valid
/// topological order of the units' per-node dependencies, and keeps the
/// traffic it is told about per (sender, receiver).
class ReorderingHost final : public HostView {
 public:
  ReorderingHost(std::size_t n, std::uint64_t seed)
      : live_(n, true), rng_(seed), shuffle_(seed != 0) {
    for (std::size_t i = 0; i < n; ++i) ids_.push_back(i);
  }

  void kill(NodeId id) {
    live_[id] = false;
    ids_.erase(std::find(ids_.begin(), ids_.end(), id));
  }

  [[nodiscard]] bool is_live(NodeId id) const override {
    return id < live_.size() && live_[id];
  }
  [[nodiscard]] stats::Value attribute_of(NodeId id) const override {
    return static_cast<stats::Value>(1000 + 7 * id);
  }
  [[nodiscard]] Round round() const override { return 0; }
  [[nodiscard]] std::span<const NodeId> live_ids() const override {
    return ids_;
  }
  void record_traffic(NodeId sender, NodeId receiver, Channel channel,
                      std::size_t bytes) override {
    traffic.push_back({sender, receiver, static_cast<NodeId>(channel),
                       static_cast<NodeId>(bytes)});
  }

  void run_units(std::span<const NodeId> participants,
                 const std::function<void(std::size_t)>& unit) override {
    const std::size_t count = participants.size() / 2;
    if (!shuffle_) {
      HostView::run_units(participants, unit);
      return;
    }
    // Successor lists and in-degrees of the per-node chains, then Kahn's
    // algorithm taking a uniformly random ready unit each step.
    std::vector<std::vector<std::size_t>> successors(count);
    std::vector<std::size_t> indegree(count, 0);
    std::vector<std::size_t> last(live_.size(), count);
    for (std::size_t p = 0; p < count; ++p) {
      for (std::size_t k = 0; k < 2; ++k) {
        const NodeId id = participants[2 * p + k];
        if (id == kNone || (k == 1 && id == participants[2 * p])) continue;
        if (last[id] != count) {
          successors[last[id]].push_back(p);
          ++indegree[p];
        }
        last[id] = p;
      }
    }
    std::vector<std::size_t> ready;
    for (std::size_t p = 0; p < count; ++p) {
      if (indegree[p] == 0) ready.push_back(p);
    }
    while (!ready.empty()) {
      const std::size_t pick = rng_.below(ready.size());
      const std::size_t p = ready[pick];
      ready[pick] = ready.back();
      ready.pop_back();
      out_of_order |= p != ran_++;
      unit(p);
      for (std::size_t next : successors[p]) {
        if (--indegree[next] == 0) ready.push_back(next);
      }
    }
    ran_ = 0;
  }

  /// (sender, receiver, channel, bytes) per recorded message, in call order.
  std::vector<std::array<NodeId, 4>> traffic;
  /// Whether some unit ran before a lower-indexed one.
  bool out_of_order = false;

 private:
  std::vector<bool> live_;
  std::vector<NodeId> ids_;
  rng::Rng rng_;
  bool shuffle_;
  std::size_t ran_ = 0;
};

/// Per-(sender, receiver) byte and message totals: the order-free content of
/// a traffic log.
std::map<std::pair<NodeId, NodeId>, std::pair<std::size_t, std::size_t>>
traffic_totals(const std::vector<std::array<NodeId, 4>>& log) {
  std::map<std::pair<NodeId, NodeId>, std::pair<std::size_t, std::size_t>> out;
  for (const auto& [sender, receiver, channel, bytes] : log) {
    EXPECT_EQ(channel, static_cast<NodeId>(Channel::kOverlay));
    auto& slot = out[{sender, receiver}];
    slot.first += bytes;
    ++slot.second;
  }
  return out;
}

TEST(ParallelEngineSchedulerTest, CyclonUnitsInAnyValidOrderMatchInOrderRun) {
  constexpr std::size_t kNodes = 120;
  CyclonConfig config;
  config.view_size = 10;
  config.shuffle_size = 4;
  config.value_cache_size = 16;
  ReorderingHost in_order(kNodes, 0);
  ReorderingHost reordered(kNodes, 0xd06);
  CyclonOverlay a(config);
  CyclonOverlay b(config);
  rng::Rng rng_a(41);
  rng::Rng rng_b(41);
  a.build_initial(in_order.live_ids(), in_order, rng_a);
  b.build_initial(reordered.live_ids(), reordered, rng_b);

  const auto saved = [](const CyclonOverlay& overlay) {
    wire::Writer out;
    overlay.save_state(out);
    return out.take();
  };
  for (int round = 0; round < 12; ++round) {
    if (round == 3) {
      // Departures leave dead entries behind: later rounds plan shuffles
      // with dead targets, whose units evict instead of exchanging.
      for (NodeId id = 0; id < kNodes; id += 9) {
        in_order.kill(id);
        reordered.kill(id);
        a.remove_node(id);
        b.remove_node(id);
      }
    }
    a.maintain(in_order, rng_a);
    b.maintain(reordered, rng_b);
    ASSERT_EQ(saved(a), saved(b)) << "round " << round;
    ASSERT_EQ(traffic_totals(in_order.traffic),
              traffic_totals(reordered.traffic))
        << "round " << round;
    for (NodeId id = 0; id < kNodes; ++id) {
      ASSERT_EQ(a.neighbors(id), b.neighbors(id));
      ASSERT_EQ(a.known_attribute_values(id, in_order),
                b.known_attribute_values(id, reordered));
    }
  }
  // The reordering host did exercise orders other than the index order.
  EXPECT_TRUE(reordered.out_of_order);
  EXPECT_FALSE(in_order.out_of_order);
}

}  // namespace
}  // namespace adam2::sim
