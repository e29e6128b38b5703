// NodeTable: the node registry shared by every hosting substrate.
//
// Owns the node records, the dense live-id vector (O(1) removal via
// swap-with-back) and each live node's position in it. Ids are dense:
// spawn() hands out id == creation slot, so every id lookup is a bounds
// check plus a vector index (DESIGN.md §7.6). Substrates layer their own
// scheduling (rounds, events, threads) on top; the bookkeeping that used to
// be duplicated across CycleEngine / AsyncEngine / Cluster lives here exactly
// once.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "host/node.hpp"
#include "host/traffic.hpp"
#include "host/types.hpp"
#include "rng/rng.hpp"
#include "stats/cdf.hpp"

namespace adam2::host {

class NodeTable {
 public:
  /// Creates a live node with id == size() and both per-node random streams
  /// derived from `seed_rng` (which is advanced). The agent is NOT attached —
  /// the caller builds a context and attaches one. The reference stays valid
  /// until the next spawn.
  Node& spawn(stats::Value attribute, Round birth_round, rng::Rng& seed_rng);

  /// Marks `id` dead, destroys its agent (state dies with the node — its
  /// mass is lost, §VII-G) and removes it from the live set. The caller is
  /// responsible for overlay removal and any substrate-local cleanup.
  /// No-op when the node is already dead.
  void kill(NodeId id);

  /// False for dead nodes and for ids never handed out (id >= size()).
  [[nodiscard]] bool is_live(NodeId id) const {
    return id < nodes_.size() && nodes_[id].alive;
  }
  [[nodiscard]] bool contains(NodeId id) const { return id < nodes_.size(); }

  /// Node lookup by id; throws std::out_of_range for unknown ids.
  [[nodiscard]] Node& at(NodeId id) { return nodes_[slot_of(id)]; }
  [[nodiscard]] const Node& at(NodeId id) const { return nodes_[slot_of(id)]; }

  /// Node lookup by creation slot (0 .. size()-1), including dead nodes.
  [[nodiscard]] Node& by_slot(std::size_t slot) { return nodes_[slot]; }
  [[nodiscard]] const Node& by_slot(std::size_t slot) const {
    return nodes_[slot];
  }
  /// Creation slot of `id` (which is `id` itself); throws std::out_of_range
  /// for unknown ids.
  [[nodiscard]] std::size_t slot_of(NodeId id) const {
    if (id >= nodes_.size()) throw std::out_of_range("unknown node id");
    return static_cast<std::size_t>(id);
  }

  [[nodiscard]] std::span<const NodeId> live_ids() const { return live_ids_; }
  [[nodiscard]] std::size_t live_count() const { return live_ids_.size(); }
  /// Count of all nodes ever created (live + departed).
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// A uniformly random live node id; throws std::runtime_error when empty.
  [[nodiscard]] NodeId random_live(rng::Rng& rng) const;

  [[nodiscard]] stats::Value attribute_of(NodeId id) const {
    return at(id).attribute;
  }
  void set_attribute(NodeId id, stats::Value value) { at(id).attribute = value; }

  /// Attribute values of all live nodes (the ground truth population).
  [[nodiscard]] std::vector<stats::Value> live_attribute_values() const;

  /// Records one message on the per-node counters of both endpoints (ids
  /// unknown to the table are skipped) and on `totals`.
  void record_traffic(NodeId sender, NodeId receiver, Channel channel,
                      std::size_t bytes, TrafficStats& totals);

  void reserve(std::size_t count);

  // -- Checkpoint restore primitives (host::snapshot, DESIGN.md §12) --------

  /// Drops every node record and resets the table to its freshly-constructed
  /// state (restore targets a clean table).
  void clear();

  /// Re-creates one node record during a restore, in creation order: `id`
  /// must equal size() (ids are creation slots). The node's rng streams and
  /// agent are left default — the snapshot reader installs them afterwards —
  /// and live-set membership is NOT established here; finish_restore()
  /// installs the recorded live order. Throws std::invalid_argument when
  /// `id != size()`.
  Node& restore_node(NodeId id, stats::Value attribute, Round birth_round,
                     bool alive);

  /// Installs the live-id order (history-dependent: kill() swaps with the
  /// back, so it cannot be derived from the records). Every entry must name
  /// a distinct node marked alive by restore_node, and every alive node must
  /// appear; throws std::invalid_argument otherwise.
  void finish_restore(std::span<const NodeId> live_order);

 private:
  static constexpr std::size_t kNotLive =
      std::numeric_limits<std::size_t>::max();

  std::vector<Node> nodes_;  // Indexed by id (== creation slot).
  std::vector<NodeId> live_ids_;
  std::vector<std::size_t> live_pos_;  // id -> live_ids_ slot, or kNotLive.
};

}  // namespace adam2::host
