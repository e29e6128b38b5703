// Scheduler TU — see the exception note in cycle_engine.hpp.
// adam2-lint: allow-file(confinement)
#include "sim/cycle_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "host/bootstrap.hpp"
#include "host/churn.hpp"
#include "host/snapshot.hpp"

namespace adam2::sim {
namespace {

namespace snap = host::snapshot;

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

bool same_plan(const host::FaultPlan& a, const host::FaultPlan& b) {
  return a.drop_rate == b.drop_rate && a.duplicate_rate == b.duplicate_rate &&
         a.corrupt_rate == b.corrupt_rate && a.delay_rate == b.delay_rate &&
         a.max_delay == b.max_delay && a.crash_rate == b.crash_rate &&
         a.partition_count == b.partition_count &&
         a.partition_start == b.partition_start &&
         a.partition_heal_after == b.partition_heal_after &&
         a.seed == b.seed && a.warm_restart == b.warm_restart;
}

}  // namespace

CycleEngine::CycleEngine(EngineConfig config, std::size_t threads,
                         std::vector<stats::Value> initial_attributes,
                         std::unique_ptr<Overlay> overlay,
                         AgentFactory agent_factory,
                         AttributeSource attribute_source)
    : config_(config),
      conduit_(config.faults, config.message_loss),
      rng_(config.seed),
      overlay_(std::move(overlay)),
      agent_factory_(std::move(agent_factory)),
      attribute_source_(std::move(attribute_source)),
      threads_(std::max<std::size_t>(threads, 1)) {
  if (!overlay_) throw std::invalid_argument("engine requires an overlay");
  if (!agent_factory_) {
    throw std::invalid_argument("engine requires an agent factory");
  }
  if (config_.churn_rate > 0.0 && !attribute_source_) {
    throw std::invalid_argument("churn requires an attribute source");
  }

  table_.reserve(initial_attributes.size());
  for (stats::Value value : initial_attributes) {
    spawn_node(value, /*bootstrap=*/false);
  }
  overlay_->build_initial(table_.live_ids(), *this, rng_);
  if (threads_ > 1) {
    pool_ = std::make_unique<host::WorkerPool>(threads_);
    worker_totals_.resize(threads_);
  }
}

TrafficStats& CycleEngine::totals() {
  return tls_totals != nullptr ? *tls_totals : total_traffic_;
}

void CycleEngine::for_chunks(
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

void CycleEngine::parallel_for(std::size_t count,
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

void CycleEngine::merge_worker_totals() {
  for (TrafficStats& slot : worker_totals_) {
    total_traffic_ += slot;
    slot = TrafficStats{};
  }
}

void CycleEngine::run_round() {
  if (recorder_ != nullptr) {
    recorder_->round_begin(round_, table_.live_count());
  }

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

  // 3. Plan: initiation order from the global stream (serial), then every
  //    initiator's target from its own control stream (parallel,
  //    order-free).
  const auto live = table_.live_ids();
  order_.assign(live.begin(), live.end());
  rng_.shuffle(order_);
  plan_targets();

  // 4. Exchange units in dependency order. With a recorder attached, every
  //    unit writes its outcome into its own plan-position slot and the
  //    slots drain in plan order after the phase barrier. A slot whose
  //    initiator was killed before its turn (by an agent hook calling
  //    kill_node) keeps the kNoParticipant marker and records nothing.
  if (recorder_ != nullptr) {
    outcomes_.assign(order_.size(),
                     obs::ExchangeOutcome{.initiator = kNoParticipant});
  }
  run_units(participants_, [&](std::size_t p) {
    const NodeId id = order_[p];
    if (!table_.is_live(id)) return;  // Killed mid-round by an agent hook.
    conduit_.run_cycle_exchange(*this, *overlay_, table_, round_,
                                table_.at(id), targets_[p], totals(),
                                recorder_ != nullptr ? &outcomes_[p] : nullptr);
  });
  if (recorder_ != nullptr) {
    for (const obs::ExchangeOutcome& outcome : outcomes_) {
      if (outcome.initiator != kNoParticipant) {
        recorder_->exchange(round_, outcome);
      }
    }
  }

  // 5. Fault-plan crash-restarts (serial; no-op without a plan).
  apply_crashes();

  // 6. Churn (serial, global stream).
  apply_churn();

  if (recorder_ != nullptr) {
    recorder_->round_end(round_, table_.live_count(), table_.size(),
                         total_traffic_);
  }
  ++round_;
}

void CycleEngine::plan_targets() {
  targets_.resize(order_.size());
  participants_.resize(2 * order_.size());
  parallel_for(order_.size(), [&](std::size_t p) {
    const NodeId id = order_[p];
    const auto target =
        overlay_->pick_gossip_target(id, table_.at(id).pick_rng);
    targets_[p] = target;
    // The target participates when the exchange can reach it. The exchange
    // re-checks, so a conservative mismatch could only over-serialise — but
    // liveness is frozen during the exchange phase, so the check is exact.
    participants_[2 * p] = id;
    participants_[2 * p + 1] =
        target && *target != id && table_.is_live(*target) ? *target
                                                            : kNoParticipant;
  });
}

void CycleEngine::run_units(std::span<const NodeId> participants,
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

void CycleEngine::record_traffic(NodeId sender, NodeId receiver,
                                 Channel channel, std::size_t bytes) {
  table_.record_traffic(sender, receiver, channel, bytes, totals());
}

void CycleEngine::spawn_node(stats::Value attribute, bool bootstrap) {
  Node& stored =
      table_.spawn(attribute, bootstrap ? round_ + 1 : round_, rng_);
  // Stateless derivation: consumes nothing from rng_, so seeding the fault
  // stream preserves bit-identity with pre-fault engines.
  stored.fault_rng = conduit_.faults().node_stream(stored.id);
  AgentContext ctx = make_context(*this, *overlay_, stored, round_);
  stored.agent = agent_factory_(ctx);
  if (!stored.agent) throw std::runtime_error("agent factory returned null");

  if (!bootstrap) return;

  // Wire the newcomer into the overlay, then run the join-time state
  // transfer (§IV, DESIGN §1 decision 4).
  overlay_->add_node(stored.id, *this, rng_);
  host::bootstrap_joiner(stored, table_, *overlay_, *this, round_,
                         total_traffic_);
  // Initial-population spawns happen before a recorder can be attached, so
  // only churn-in joins (bootstrap) ever reach the trace — at any thread
  // count alike (churn runs in a serial phase).
  if (recorder_ != nullptr) recorder_->node_join(round_, stored.id);
}

void CycleEngine::apply_crashes() {
  if (conduit_.faults().plan().crash_rate <= 0.0) return;
  const bool warm = conduit_.faults().plan().warm_restart;
  wire::Writer warm_blob;
  for (NodeId id : table_.live_ids()) {
    Node& n = table_.at(id);
    if (!conduit_.faults().crashes(n.fault_rng)) continue;
    // Warm restart (plan.warm_restart): the agent's protocol state is
    // checkpointed through the host::snapshot hooks and handed to the
    // replacement, so the node rejoins its running instances; birth_round
    // stays put. Pure behaviour switch — no draws, so the crash schedule is
    // identical warm or cold.
    warm_blob.clear();
    const bool carry = warm && n.agent->save_state(warm_blob);
    if (!carry) {
      // Cold crash-restart with state loss: identity, attribute and overlay
      // links survive; all protocol state is gone. birth_round moves forward
      // so the restarted node ignores instances started before the crash
      // (they would otherwise absorb a partial, state-free contribution).
      n.birth_round = round_ + 1;
    }
    AgentContext ctx = make_context(*this, *overlay_, n, round_);
    n.agent = agent_factory_(ctx);
    if (!n.agent) throw std::runtime_error("agent factory returned null");
    if (carry) {
      wire::Reader in(warm_blob.view());
      if (!n.agent->restore_state(in)) {
        // The blob was produced by save_state moments ago; rejection means
        // the agent's save/restore pair is asymmetric — a bug, not bad input.
        throw std::runtime_error(
            "warm restart: agent rejected its own state blob");
      }
      in.expect_done();
    }
    ++n.traffic.crash_restarts;
    ++total_traffic_.crash_restarts;
    if (recorder_ != nullptr) recorder_->crash_restart(round_, id);
  }
}

void CycleEngine::apply_churn() {
  if (config_.churn_rate <= 0.0 || table_.live_count() == 0) return;
  const double expected =
      config_.churn_rate * static_cast<double>(table_.live_count());
  // stochastic_count rounds its fractional part up probabilistically, so
  // with churn rates >= 1.0 (or a table shrunk mid-round by kill_node) it
  // can exceed the live population; never ask for more than exists.
  churn_nodes(
      std::min(host::stochastic_count(expected, rng_), table_.live_count()));
}

void CycleEngine::churn_nodes(std::size_t count) {
  count = std::min(count, table_.live_count());
  for (std::size_t i = 0; i < count; ++i) {
    kill_node(table_.random_live(rng_));
  }
  if (!attribute_source_) return;
  for (std::size_t i = 0; i < count; ++i) {
    spawn_node(attribute_source_(rng_), /*bootstrap=*/true);
  }
}

void CycleEngine::kill_node(NodeId id) {
  if (!table_.is_live(id)) {
    (void)table_.at(id);  // Preserve the out_of_range on unknown ids.
    return;
  }
  overlay_->remove_node(id);
  table_.kill(id);
  if (recorder_ != nullptr) recorder_->node_depart(round_, id);
}

std::vector<std::byte> CycleEngine::save_snapshot() const {
  snap::SnapshotWriter writer(snap::EngineKind::kCycle);

  writer.begin_section(snap::kSectionMeta);
  writer.out().f64(config_.churn_rate);
  writer.out().f64(config_.message_loss);
  writer.out().u64(config_.seed);
  snap::write_fault_plan(writer.out(), config_.faults);
  writer.end_section();

  writer.begin_section(snap::kSectionEngine);
  writer.out().u32(round_);
  snap::write_rng(writer.out(), rng_);
  snap::write_traffic(writer.out(), total_traffic_);
  writer.end_section();

  writer.begin_section(snap::kSectionNodes);
  snap::write_node_table(writer.out(), table_);
  writer.end_section();

  writer.begin_section(snap::kSectionOverlay);
  const std::uint32_t overlay_kind = overlay_->snapshot_kind();
  if (overlay_kind == 0) {
    throw snap::SnapshotError("overlay type does not support snapshotting");
  }
  writer.out().u32(overlay_kind);
  overlay_->save_state(writer.out());
  writer.end_section();

  return writer.finish();
}

void CycleEngine::restore_snapshot(std::span<const std::byte> bytes) {
  snap::SnapshotReader reader(bytes, snap::EngineKind::kCycle);
  wire::Reader meta = reader.section(snap::kSectionMeta);
  wire::Reader engine = reader.section(snap::kSectionEngine);
  wire::Reader nodes = reader.section(snap::kSectionNodes);
  wire::Reader overlay = reader.section(snap::kSectionOverlay);
  reader.expect_end();

  // A snapshot only resumes under the exact configuration that produced it:
  // any divergence (different seed, rates, fault plan) would silently change
  // the replayed schedule, so mismatches reject instead.
  const double churn_rate = meta.f64();
  const double message_loss = meta.f64();
  const std::uint64_t seed = meta.u64();
  const host::FaultPlan plan = snap::read_fault_plan(meta);
  meta.expect_done();
  if (churn_rate != config_.churn_rate ||
      message_loss != config_.message_loss || seed != config_.seed ||
      !same_plan(plan, config_.faults)) {
    throw wire::DecodeError("snapshot engine config mismatch");
  }

  const Round round = engine.u32();
  rng::Rng global(0);
  snap::read_rng(engine, global);
  TrafficStats totals;
  snap::read_traffic(engine, totals);
  engine.expect_done();

  // Everything below parses into scratch state; the engine's own members are
  // only swapped once the whole snapshot (overlay included) validated.
  host::NodeTable scratch;
  snap::read_node_table(nodes, scratch, [&](Node& n) {
    AgentContext ctx = make_context(*this, *overlay_, n, round);
    return agent_factory_(ctx);
  });
  nodes.expect_done();

  if (overlay.u32() != overlay_->snapshot_kind()) {
    throw wire::DecodeError("snapshot overlay kind mismatch");
  }
  // Transactional (host/overlay.hpp); ids are bounded by the table.
  overlay_->restore_state_bounded(overlay, scratch.size());

  table_ = std::move(scratch);
  round_ = round;
  rng_ = global;
  total_traffic_ = totals;
  if (recorder_ != nullptr) {
    recorder_->manifest().set("resume_round",
                              static_cast<std::uint64_t>(round_));
    recorder_->manifest().set("resume_digest", snap::fnv1a(bytes));
  }
}

}  // namespace adam2::sim
