// Sharded substrate TU — see the exception note in parallel_engine.hpp.
// adam2-lint: allow-file(confinement)
#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace adam2::sim {

namespace {

/// Per-thread traffic accumulator binding. Workers point this at their slot
/// for the duration of a parallel phase; the main thread (and every serial
/// phase) leaves it null and accumulates into the engine's global totals.
thread_local host::TrafficStats* tls_totals = nullptr;

/// Spin-wait hint for the predecessor gates.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

ParallelEngine::ParallelEngine(EngineConfig config, std::size_t threads,
                               std::vector<stats::Value> initial_attributes,
                               std::unique_ptr<Overlay> overlay,
                               AgentFactory agent_factory,
                               AttributeSource attribute_source)
    : CycleEngine(config, std::move(initial_attributes), std::move(overlay),
                  std::move(agent_factory), std::move(attribute_source)),
      threads_(std::max<std::size_t>(threads, 1)) {
  if (threads_ > 1) {
    pool_ = std::make_unique<host::WorkerPool>(threads_);
    worker_totals_.resize(threads_);
  }
}

TrafficStats& ParallelEngine::totals() {
  return tls_totals != nullptr ? *tls_totals : total_traffic_;
}

void ParallelEngine::for_chunks(
    std::size_t count, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  pool_->run([&](std::size_t worker) {
    tls_totals = &worker_totals_[worker];
    for (;;) {
      const std::size_t begin =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) break;
      body(begin, std::min(count, begin + chunk));
    }
    tls_totals = nullptr;
  });
  merge_worker_totals();
}

void ParallelEngine::parallel_for(std::size_t count,
                                  const std::function<void(std::size_t)>& fn) {
  if (!pool_ || count == 0) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  for_chunks(count, std::max<std::size_t>(1, count / (pool_->size() * 8)),
             [&](std::size_t begin, std::size_t end) {
               for (std::size_t i = begin; i < end; ++i) fn(i);
             });
}

void ParallelEngine::merge_worker_totals() {
  for (TrafficStats& slot : worker_totals_) {
    total_traffic_ += slot;
    slot = TrafficStats{};
  }
}

void ParallelEngine::run_round() {
  record_round_begin();

  // 1. Round start for every live agent — parallel: an agent only mutates
  //    its own node's state; host and overlay reads are const this phase.
  {
    const auto live = table_.live_ids();
    parallel_for(live.size(), [&](std::size_t i) {
      Node& n = table_.at(live[i]);
      AgentContext ctx = make_context(*this, *overlay_, n, round_);
      n.agent->on_round_start(ctx);
    });
  }

  // 2. Overlay maintenance — the overlay plans serially and runs its
  //    shuffles through run_units.
  overlay_->maintain(*this, rng_);

  // 3. Plan: initiation order from the global stream (serial, identical to
  //    the serial engine's shuffle), then every initiator's target from its
  //    own control stream (parallel, order-free).
  const auto live = table_.live_ids();
  order_.assign(live.begin(), live.end());
  rng_.shuffle(order_);
  plan_targets();

  // 4. Exchange units in dependency order. With a recorder attached, every
  //    unit writes its outcome into its own plan-position slot; draining the
  //    slots serially after the phase barrier reproduces the serial engine's
  //    record order exactly.
  if (recorder_ != nullptr) outcomes_.assign(order_.size(), {});
  run_units(participants_, [&](std::size_t p) {
    exchange_with(table_.at(order_[p]), targets_[p],
                  recorder_ != nullptr ? &outcomes_[p] : nullptr);
  });
  if (recorder_ != nullptr) {
    for (const obs::ExchangeOutcome& outcome : outcomes_) {
      recorder_->exchange(round_, outcome);
    }
  }

  // 5. Fault-plan crash-restarts (serial; same table state and per-node
  //    fault streams as the serial engine at this point, so the same nodes
  //    crash).
  apply_crashes();

  // 6. Churn (serial, global stream).
  apply_churn();

  // 7. Observers, metrics sinks.
  finish_round();
}

void ParallelEngine::plan_targets() {
  targets_.resize(order_.size());
  participants_.resize(2 * order_.size());
  parallel_for(order_.size(), [&](std::size_t p) {
    const NodeId id = order_[p];
    const auto target =
        overlay_->pick_gossip_target(id, table_.at(id).pick_rng);
    targets_[p] = target;
    // The target participates when the exchange can reach it. exchange_with
    // re-checks, so a conservative mismatch could only over-serialise — but
    // liveness is frozen during the exchange phase, so the check is exact.
    participants_[2 * p] = id;
    participants_[2 * p + 1] =
        target && *target != id && table_.is_live(*target) ? *target
                                                            : kNoParticipant;
  });
}

void ParallelEngine::run_units(std::span<const NodeId> participants,
                               const std::function<void(std::size_t)>& unit) {
  if (!pool_) {
    HostView::run_units(participants, unit);
    return;
  }
  const std::size_t count = participants.size() / 2;
  if (count == 0) return;
  if (count >= kNoUnit) throw std::length_error("run_units: too many units");

  // Predecessor pass: each unit waits for the previous unit of each of its
  // participants. last_ is back to all-kNoUnit once the pass is undone; the
  // pool run publishes preds_ and the cleared done_ flags to the workers.
  if (last_.size() < table_.size()) last_.resize(table_.size(), kNoUnit);
  if (preds_.size() < 2 * count) preds_.resize(2 * count);
  if (done_capacity_ < count) {
    done_ = std::make_unique<std::atomic<std::uint32_t>[]>(count);
    done_capacity_ = count;
  }
  // Flat slot i is participant i % 2 of unit i / 2; an equal pair counts
  // its node once.
  const auto node_at = [&](std::size_t i) {
    const NodeId id = participants[i];
    return i % 2 == 1 && id == participants[i - 1] ? kNoParticipant : id;
  };
  const auto undo = [&](std::size_t slots) {
    for (std::size_t i = 0; i < slots; ++i) {
      const NodeId id = node_at(i);
      if (id != kNoParticipant) last_[id] = kNoUnit;
    }
  };
  for (std::size_t i = 0; i < 2 * count; ++i) {
    const NodeId id = node_at(i);
    const auto p = static_cast<std::uint32_t>(i / 2);
    preds_[i] = kNoUnit;
    if (id != kNoParticipant) {
      if (id >= table_.size()) {
        undo(i);
        throw std::out_of_range("run_units: participant is not a node");
      }
      preds_[i] = last_[id];
      last_[id] = p;
    }
    if (i % 2 == 0) done_[p].store(0, std::memory_order_relaxed);
  }
  undo(2 * count);

  const auto await = [this](std::uint32_t pred) {
    if (pred == kNoUnit) return;
    for (int spins = 0; done_[pred].load(std::memory_order_acquire) == 0;) {
      if (spins < 64) {
        ++spins;
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  };
  // Small chunks keep the claimed window (workers x chunk) narrow, so a
  // unit rarely finds its predecessor still in flight.
  const std::size_t chunk =
      std::clamp<std::size_t>(count / (pool_->size() * 32), 1, 64);
  for_chunks(count, chunk, [&](std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      await(preds_[2 * p]);
      await(preds_[2 * p + 1]);
      unit(p);
      done_[p].store(1, std::memory_order_release);
    }
  });
}

}  // namespace adam2::sim
