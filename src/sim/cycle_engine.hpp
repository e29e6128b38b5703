// Shared base of the cycle-driven engines (serial Engine, sharded
// ParallelEngine): node registry, churn, bootstrap, traffic accounting,
// observers and metrics sinks — everything except the round scheduling
// itself, which each engine defines in run_round().
//
// Random-stream discipline (the key to parallel determinism):
//
//  * the global engine stream (`rng_`) is consumed only in serial phases —
//    overlay maintenance planning (CyclonOverlay: one order shuffle and one
//    round seed; its shuffles draw from per-unit streams derived from that
//    seed), exchange-order shuffles, churn victim/attribute draws,
//    node-stream derivation;
//  * each node's agent stream (`Node::rng`) is consumed only inside that
//    node's agent callbacks;
//  * each node's control stream (`Node::pick_rng`) is consumed only for
//    engine decisions about that node — exactly one gossip-target pick per
//    live node per round (drawn before make_request, whether or not the
//    agent stays silent) followed by that initiator's message-loss draws,
//    plus bootstrap contact picks at join time.
//
// Because no stream is shared between nodes inside a round's maintenance or
// exchange units, an engine may evaluate those units in any schedule that
// preserves the per-node plan order and obtain bit-identical results
// (HostView::run_units; see ParallelEngine).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "host/exchange.hpp"
#include "host/fault.hpp"
#include "host/metrics.hpp"
#include "host/node.hpp"
#include "host/registry.hpp"
#include "obs/recorder.hpp"
#include "rng/rng.hpp"
#include "host/agent.hpp"
#include "sim/overlay.hpp"
#include "host/traffic.hpp"
#include "host/types.hpp"

namespace adam2::sim {

// The sim vocabulary: these are the host substrate's types, re-exported so
// the simulator's established spellings stay valid for engine code and
// experiment drivers written against `namespace adam2::sim`.
using host::AgentContext;
using host::AgentFactory;
using host::AttributeSource;
using host::Channel;
using host::channel_name;
using host::ChannelTraffic;
using host::kChannelCount;
using host::make_context;
using host::Node;
using host::NodeAgent;
using host::NodeId;
using host::Round;
using host::TrafficStats;

struct EngineConfig {
  /// Fraction of live nodes replaced per round (0.001 = the paper's typical
  /// churn of 0.1% per round, §VII-G).
  double churn_rate = 0.0;
  /// Probability that any single message (request or response) is lost.
  double message_loss = 0.0;
  /// Master seed; every node and subsystem derives its stream from it.
  std::uint64_t seed = 0xada2;
  /// Deterministic fault schedule (drop/duplicate/corrupt/crash/partition).
  /// The default all-zero plan draws nothing and changes nothing — runs are
  /// bit-identical to an engine without fault support.
  host::FaultPlan faults;
};

class CycleEngine : public HostView {
 public:
  ~CycleEngine() override = default;

  CycleEngine(const CycleEngine&) = delete;
  CycleEngine& operator=(const CycleEngine&) = delete;

  /// Advances the simulation by one gossip cycle.
  virtual void run_round() = 0;
  void run_rounds(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) run_round();
  }

  // -- HostView ----------------------------------------------------------
  [[nodiscard]] bool is_live(NodeId id) const override {
    return table_.is_live(id);
  }
  [[nodiscard]] stats::Value attribute_of(NodeId id) const override {
    return table_.attribute_of(id);
  }
  [[nodiscard]] Round round() const override { return round_; }
  [[nodiscard]] std::span<const NodeId> live_ids() const override {
    return table_.live_ids();
  }
  void record_traffic(NodeId sender, NodeId receiver, Channel channel,
                      std::size_t bytes) override;

  // -- Introspection / experiment control --------------------------------
  [[nodiscard]] std::size_t live_count() const { return table_.live_count(); }
  [[nodiscard]] NodeAgent& agent(NodeId id) { return *table_.at(id).agent; }
  [[nodiscard]] const Node& node(NodeId id) const { return table_.at(id); }
  [[nodiscard]] Node& mutable_node(NodeId id) { return table_.at(id); }
  [[nodiscard]] Overlay& overlay() { return *overlay_; }
  [[nodiscard]] rng::Rng& rng() { return rng_; }
  [[nodiscard]] const host::FaultInjector& fault_injector() const {
    return conduit_.faults();
  }
  [[nodiscard]] NodeId random_live_node() { return table_.random_live(rng_); }

  /// Attribute values of all live nodes (the ground truth population).
  [[nodiscard]] std::vector<stats::Value> live_attribute_values() const {
    return table_.live_attribute_values();
  }

  /// Updates a node's attribute (dynamic-attribute scenarios, §VII-F).
  void set_attribute(NodeId id, stats::Value value) {
    table_.set_attribute(id, value);
  }

  /// Global traffic totals (sums over all nodes, including departed ones).
  [[nodiscard]] const TrafficStats& total_traffic() const {
    return total_traffic_;
  }

  /// Count of all nodes ever created (live + departed).
  [[nodiscard]] std::size_t nodes_ever() const { return table_.size(); }

  /// Attaches the observability recorder (nullptr detaches). Not owned; must
  /// outlive the engine. With no recorder the engine executes the exact
  /// pre-obs instruction stream (every hook is null-checked), so detached
  /// runs stay bit-identical and allocation-free. With one attached, the
  /// engine records round begin/end, every exchange outcome in plan order,
  /// crash-restarts and churn joins/departures — identically on the serial
  /// and sharded engines (DESIGN.md §11).
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

  /// Runs `fn(*this)` after every round.
  ///
  /// Legacy hook, kept as a thin adapter for one release: new code should
  /// attach an obs::Recorder (round_end events + round gauges) instead.
  using Observer = std::function<void(CycleEngine&)>;
  void add_observer(Observer fn) { observers_.push_back(std::move(fn)); }

  /// Registers a metrics sink notified with aggregate state after every
  /// round. The sink must outlive the engine (not owned).
  ///
  /// Legacy hook, kept as a thin adapter for one release: the RoundSnapshot
  /// it delivers is the same data an obs::Recorder captures per round.
  void add_metrics_sink(host::MetricsSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  /// Builds the context for a direct agent call from experiment drivers
  /// (e.g. to start a scripted aggregation instance on a chosen node).
  [[nodiscard]] AgentContext context_for(NodeId id) {
    return make_context(*this, *overlay_, table_.at(id), round_);
  }

  /// Immediately replaces `count` random live nodes (manual churn trigger,
  /// also used by failure-injection tests).
  void churn_nodes(std::size_t count);

  /// Removes one specific node (targeted failure injection).
  void kill_node(NodeId id);

  // -- Checkpoint / resume (host::snapshot, DESIGN.md §12) -----------------

  /// Serialises the engine's complete deterministic state (config echo,
  /// round counter, global stream, traffic ledger, every node record with
  /// its three streams and agent blob, the overlay) into one versioned
  /// snapshot. Serial and sharded engines share the layout: the shards hold
  /// only per-round scratch. Throws host::snapshot::SnapshotError when an
  /// attached agent or overlay type has no snapshot support.
  [[nodiscard]] std::vector<std::byte> save_snapshot() const;

  /// Restores a snapshot produced by save_snapshot on an engine built with
  /// the same configuration. Resume + run-to-round-R is bit-identical to the
  /// uninterrupted run (golden-resume fixtures). Throws wire::DecodeError on
  /// any malformed or mismatched input, leaving the engine untouched.
  void restore_snapshot(std::span<const std::byte> bytes);

 protected:
  CycleEngine(EngineConfig config, std::vector<stats::Value> initial_attributes,
              std::unique_ptr<Overlay> overlay, AgentFactory agent_factory,
              AttributeSource attribute_source);

  /// Creates a node; `bootstrap` runs the join-time state transfer and marks
  /// the node born next round (churned-in nodes arrive at the end of the
  /// current round, so instances started this round must not count them).
  void spawn_node(stats::Value attribute, bool bootstrap);

  /// One full gossip exchange initiated by `initiator` towards the
  /// pre-picked `target` (request -> response, loss and failed-contact
  /// accounting). The control-stream draws (loss legs) come from the
  /// initiator's pick_rng, so the unit is self-contained: it touches only
  /// the two participants' state plus `totals()` (and `outcome` when the
  /// caller records traces).
  void exchange_with(Node& initiator, const std::optional<NodeId>& target,
                     obs::ExchangeOutcome* outcome = nullptr);

  /// Records the round-begin trace event (no-op without a recorder). Each
  /// engine calls this at the top of run_round.
  void record_round_begin() {
    if (recorder_ != nullptr) {
      recorder_->round_begin(round_, table_.live_count());
    }
  }

  /// Stochastic churn at config_.churn_rate (serial phase).
  void apply_churn();

  /// Fault-plan crash-restarts (serial phase, after the exchanges): each
  /// crashing node keeps its identity, attribute and overlay links but loses
  /// all agent state and rejoins next round like a churned-in newcomer. The
  /// crash draw comes from the node's own fault stream, so the schedule is
  /// identical across serial and parallel engines.
  void apply_crashes();

  /// Observers, metrics sinks, round increment.
  void finish_round();

  /// The traffic accumulator for the calling context. The parallel engine
  /// overrides this to route global counters into per-worker slots during
  /// parallel phases (merged — commutatively — at the phase barrier).
  [[nodiscard]] virtual TrafficStats& totals() { return total_traffic_; }

  EngineConfig config_;
  /// The shared exchange fabric: owns legacy loss, partitions and the whole
  /// fault-fate pipeline (host/exchange.hpp). Engines only schedule.
  host::Conduit conduit_;
  rng::Rng rng_;
  std::unique_ptr<Overlay> overlay_;
  AgentFactory agent_factory_;
  AttributeSource attribute_source_;
  host::NodeTable table_;
  Round round_ = 0;
  TrafficStats total_traffic_;
  std::vector<Observer> observers_;
  std::vector<host::MetricsSink*> sinks_;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace adam2::sim
