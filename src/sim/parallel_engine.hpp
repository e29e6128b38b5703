// Sharded parallel cycle engine for paper-scale runs (N = 100,000 and up).
//
// Runs the exact round structure of the serial Engine, but executes the
// embarrassingly-parallel phases on a worker pool and the exchange phase
// under a dependency-ordered scheduler. A given seed produces bit-identical
// results at any thread count, including thread count 1 and the serial
// Engine itself (golden replay test in tests/parallel_engine_test.cpp).
//
// Round phases:
//   1. round start   — parallel: agents only touch their own node's state
//                      and read immutable-for-the-phase host/overlay state;
//   2. maintenance   — parallel: the overlay plans its shuffles from the
//                      global stream (CyclonOverlay: one order shuffle and
//                      one round seed), then hands them to run_units, each
//                      shuffle drawing from its own per-unit stream;
//   3. plan          — serial shuffle of the initiation order (global
//                      stream), then parallel: each initiator's gossip
//                      target is pre-drawn from its own control stream;
//   4. exchange      — parallel through run_units: one unit per initiator
//                      (make_request, loss draw, handle_request, loss draw,
//                      handle_response — all state it touches belongs to
//                      the two participants; every draw comes from the
//                      initiator's control/agent streams);
//   5. churn         — serial (global stream);
//   6. observers     — serial.
//
// The scheduler (run_units) serves phases 2 and 4. Units that share a node
// must run in index (plan) order to match the serial engine. One O(units)
// pass records each unit's predecessor at each of its <= 2 participants;
// workers claim chunks of consecutive indices with one fetch_add, wait on
// the predecessors' done flags (acquire), run the unit and publish its own
// flag (release). The lowest unfinished unit always has every predecessor
// done and belongs to a claimed chunk whose worker is running it, so the
// schedule cannot deadlock. The dependency DAG is fixed before any unit
// runs and global traffic counters accumulate into per-worker slots merged
// at the phase barrier, so the outcome is independent of the interleaving.
//
// Concurrency primitives normally live in host/ and runtime/ only
// (adam2_lint rule `confinement`); this engine is the sanctioned third
// place — it IS the sharded substrate, and its predecessor gates (atomics)
// are the mechanism behind the bit-identical-at-any-thread-count guarantee.
// adam2-lint: allow-file(confinement)
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "host/pool.hpp"
#include "sim/cycle_engine.hpp"

namespace adam2::sim {

class ParallelEngine final : public CycleEngine {
 public:
  /// Same contract as Engine, plus `threads`: worker threads used for the
  /// parallel phases (0 and 1 both mean single-threaded execution).
  ParallelEngine(EngineConfig config, std::size_t threads,
                 std::vector<stats::Value> initial_attributes,
                 std::unique_ptr<Overlay> overlay, AgentFactory agent_factory,
                 AttributeSource attribute_source);

  void run_round() override;

  /// Dependency-ordered units on the worker pool (see the header comment);
  /// the in-order loop when single-threaded. Participants must be ids of
  /// this engine's nodes (std::out_of_range otherwise).
  void run_units(std::span<const NodeId> participants,
                 const std::function<void(std::size_t)>& unit) override;

  [[nodiscard]] std::size_t threads() const { return threads_; }

 protected:
  [[nodiscard]] TrafficStats& totals() override;

 private:
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

  void plan_targets();

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
  // recorded stream is byte-identical to the serial engine's at any thread
  // count (the pool join publishes the writes).
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
