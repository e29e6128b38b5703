// The cycle-driven gossip engine (PeerSim-equivalent substrate): node
// registry, churn, bootstrap, traffic accounting, and the round scheduler.
//
// Execution model per round, matching §IV and PeerSim's cycle-driven mode:
//   1. round start — every live agent gets on_round_start (TTL bookkeeping,
//      instance creation); an agent only touches its own node's state;
//   2. maintenance — the overlay plans its peer-sampling shuffles from the
//      global stream (CyclonOverlay: one order shuffle and one round seed)
//      and hands them to run_units, each shuffle drawing from its own
//      per-unit stream;
//   3. plan — the initiation order is shuffled from the global stream, then
//      every initiator's gossip target is pre-drawn from its own control
//      stream;
//   4. exchange — one run_units unit per initiator: request -> response as
//      encoded byte buffers with traffic accounted; dead targets count as
//      failed contacts; message loss and the fault plan can drop, duplicate
//      or corrupt either leg;
//   5. crash-restarts and churn (serial, global stream), then the recorder's
//      round_end.
//
// Random-stream discipline (the key to parallel determinism):
//
//  * the global engine stream (`rng_`) is consumed only in serial phases —
//    overlay maintenance planning, the exchange-order shuffle, churn
//    victim/attribute draws, node-stream derivation;
//  * each node's agent stream (`Node::rng`) is consumed only inside that
//    node's agent callbacks;
//  * each node's control stream (`Node::pick_rng`) is consumed only for
//    engine decisions about that node — exactly one gossip-target pick per
//    live node per round (drawn before make_request, whether or not the
//    agent stays silent) followed by that initiator's message-loss draws,
//    plus bootstrap contact picks at join time.
//
// No stream is shared between nodes inside a round's maintenance or exchange
// units, so the units may run in any schedule that preserves the per-node
// plan order. With `threads` > 1 the engine runs phases 1 and 3 on a worker
// pool and phases 2 and 4 under run_units' dependency-ordered scheduler:
// one O(units) pass records each unit's predecessor at each of its <= 2
// participants; workers claim chunks of consecutive indices with one
// fetch_add, wait on the predecessors' done flags (acquire), run the unit
// and publish its own flag (release). The lowest unfinished unit always has
// every predecessor done and belongs to a claimed chunk whose worker is
// running it, so the schedule cannot deadlock. Global traffic counters
// accumulate into per-worker slots merged at the phase barrier. A seed thus
// produces bit-identical results at any thread count; with `threads` <= 1
// there is no pool and run_units is the in-order loop.
//
// Concurrency primitives normally live in host/ and runtime/ only
// (adam2_lint rule `confinement`); this engine is the sanctioned third
// place — its predecessor gates (atomics) are the mechanism behind the
// bit-identical-at-any-thread-count guarantee.
// adam2-lint: allow-file(confinement)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "host/agent.hpp"
#include "host/exchange.hpp"
#include "host/fault.hpp"
#include "host/node.hpp"
#include "host/pool.hpp"
#include "host/registry.hpp"
#include "host/traffic.hpp"
#include "host/types.hpp"
#include "obs/recorder.hpp"
#include "rng/rng.hpp"
#include "sim/overlay.hpp"

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

class CycleEngine final : public HostView {
 public:
  /// Creates `initial_attributes.size()` nodes with those attribute values,
  /// builds the overlay over them, and instantiates one agent per node.
  /// `attribute_source` supplies values for churned-in nodes; pass nullptr
  /// only if churn_rate == 0. `threads`: worker threads for the parallel
  /// phases (0 and 1 both mean single-threaded execution).
  CycleEngine(EngineConfig config, std::size_t threads,
              std::vector<stats::Value> initial_attributes,
              std::unique_ptr<Overlay> overlay, AgentFactory agent_factory,
              AttributeSource attribute_source);
  /// Single-threaded engine.
  CycleEngine(EngineConfig config, std::vector<stats::Value> initial_attributes,
              std::unique_ptr<Overlay> overlay, AgentFactory agent_factory,
              AttributeSource attribute_source)
      : CycleEngine(config, 1, std::move(initial_attributes),
                    std::move(overlay), std::move(agent_factory),
                    std::move(attribute_source)) {}
  ~CycleEngine() override = default;

  CycleEngine(const CycleEngine&) = delete;
  CycleEngine& operator=(const CycleEngine&) = delete;

  /// Advances the simulation by one gossip cycle.
  void run_round();
  void run_rounds(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) run_round();
  }

  [[nodiscard]] std::size_t threads() const { return threads_; }

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

  /// Dependency-ordered units on the worker pool (see the header comment);
  /// the in-order loop when single-threaded. Participants must be ids of
  /// this engine's nodes (std::out_of_range otherwise).
  void run_units(std::span<const NodeId> participants,
                 const std::function<void(std::size_t)>& unit) override;

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
  /// crash-restarts and churn joins/departures — identically at every
  /// thread count (DESIGN.md §11).
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

  /// Builds the context for a direct agent call from experiment drivers
  /// (e.g. to start a scripted aggregation instance on a chosen node).
  [[nodiscard]] AgentContext context_for(NodeId id) {
    return make_context(*this, *overlay_, table_.at(id), round_);
  }

  /// Immediately replaces `count` random live nodes (manual churn trigger,
  /// also used by failure-injection tests).
  void churn_nodes(std::size_t count);

  /// Removes one specific node (targeted failure injection). Single-threaded
  /// engines also accept it from inside an agent callback: a killed node
  /// that has not yet initiated this round initiates nothing.
  void kill_node(NodeId id);

  // -- Checkpoint / resume (host::snapshot, DESIGN.md §12) -----------------

  /// Serialises the engine's complete deterministic state (config echo,
  /// round counter, global stream, traffic ledger, every node record with
  /// its three streams and agent blob, the overlay) into one versioned
  /// snapshot. The thread count is not part of it: the scheduler holds only
  /// per-round scratch. Throws host::snapshot::SnapshotError when an
  /// attached agent or overlay type has no snapshot support.
  [[nodiscard]] std::vector<std::byte> save_snapshot() const;

  /// Restores a snapshot produced by save_snapshot on an engine built with
  /// the same configuration. Resume + run-to-round-R is bit-identical to the
  /// uninterrupted run (golden-resume fixtures). Throws wire::DecodeError on
  /// any malformed or mismatched input, leaving the engine untouched.
  void restore_snapshot(std::span<const std::byte> bytes);

 private:
  /// Creates a node; `bootstrap` runs the join-time state transfer and marks
  /// the node born next round (churned-in nodes arrive at the end of the
  /// current round, so instances started this round must not count them).
  void spawn_node(stats::Value attribute, bool bootstrap);

  /// Pre-draws every initiator's target and the exchange units'
  /// participant pairs (phase 3).
  void plan_targets();

  /// Fault-plan crash-restarts (serial phase, after the exchanges): each
  /// crashing node keeps its identity, attribute and overlay links but loses
  /// all agent state and rejoins next round like a churned-in newcomer. The
  /// crash draw comes from the node's own fault stream, so the schedule is
  /// identical at every thread count.
  void apply_crashes();

  /// Stochastic churn at config_.churn_rate (serial phase).
  void apply_churn();

  /// The traffic accumulator for the calling context: the worker's slot
  /// during parallel phases (merged — commutatively — at the phase
  /// barrier), the global totals otherwise.
  [[nodiscard]] TrafficStats& totals();

  /// Runs body(begin, end) over chunks of consecutive indices in
  /// [0, count), claimed in ascending order by the pool's workers. Worker
  /// totals slots are bound for the duration and merged afterwards.
  void for_chunks(std::size_t count, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& body);
  /// Runs fn(0..count-1) across the pool; inline when single-threaded.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);
  /// Merges per-worker traffic accumulators into the global totals
  /// (commutative integer sums — deterministic regardless of which worker
  /// counted what).
  void merge_worker_totals();

  EngineConfig config_;
  /// The shared exchange fabric: owns legacy loss, partitions and the whole
  /// fault-fate pipeline (host/exchange.hpp). The engine only schedules.
  host::Conduit conduit_;
  rng::Rng rng_;
  std::unique_ptr<Overlay> overlay_;
  AgentFactory agent_factory_;
  AttributeSource attribute_source_;
  host::NodeTable table_;
  Round round_ = 0;
  TrafficStats total_traffic_;
  obs::Recorder* recorder_ = nullptr;

  std::size_t threads_;
  std::unique_ptr<host::WorkerPool> pool_;  // Only when threads_ > 1.
  std::vector<TrafficStats> worker_totals_;

  // Per-round plan: shuffled initiation order, pre-drawn targets and the
  // exchange units' participant pairs (initiator, reachable target).
  std::vector<NodeId> order_;
  std::vector<std::optional<NodeId>> targets_;
  std::vector<NodeId> participants_;

  // Exchange-outcome slots, one per plan position, used only with a recorder
  // attached: workers fill their own unit's slot during the exchange phase
  // and the main thread drains them in plan order after the barrier — so the
  // recorded stream is byte-identical at any thread count (the pool join
  // publishes the writes).
  std::vector<obs::ExchangeOutcome> outcomes_;

  // run_units scratch, kept at its high-water mark across calls. preds_
  // holds each unit's predecessor at its two participants, last_ (indexed
  // by node id, kNoUnit between calls) the latest unit seen per node while
  // the predecessor pass runs, done_ the per-unit completion flags.
  static constexpr std::uint32_t kNoUnit = 0xffffffffU;
  std::vector<std::uint32_t> preds_;
  std::vector<std::uint32_t> last_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> done_;
  std::size_t done_capacity_ = 0;
};

}  // namespace adam2::sim
