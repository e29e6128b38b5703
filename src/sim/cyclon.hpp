// Cyclon-style gossip-based peer sampling (Voulgaris et al.; the paper's
// reference [11] family).
//
// Each node keeps a small partial view of (id, age, attribute) descriptors.
// Once per round it shuffles with its oldest view entry: it sends a random
// subset of its view plus a fresh self-descriptor, receives a subset back,
// and installs the received descriptors preferentially over the slots it
// sent away. Dead entries are discovered through failed shuffles and evicted,
// which keeps the overlay connected under churn.
//
// A round's shuffles are planned up front and then run as independent units
// through HostView::run_units (DESIGN.md §7.6). The plan reads the views
// only: every present, live id, in ascending order, takes the first of its
// oldest entries as its target; the global stream then shuffles that list
// and yields one round seed — the only draws maintenance takes from it.
// Each unit touches its initiator's and (live) target's views alone and
// draws from a stateless per-unit stream derived from the round seed and
// the initiator id, so any schedule that keeps units sharing a node in plan
// order gives the same views, value caches and traffic.
//
// Descriptors piggyback the peer's attribute value; every node additionally
// remembers the most recent `value_cache_size` values it saw, feeding the
// neighbour-based interpolation-point bootstrap (§V, §VII-B).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/overlay.hpp"
#include "wire/messages.hpp"

namespace adam2::sim {

struct CyclonConfig {
  std::size_t view_size = 20;      ///< Partial view capacity (c), at most 64.
  std::size_t shuffle_size = 8;    ///< Descriptors exchanged per shuffle (l).
  std::size_t value_cache_size = 128;  ///< Recently seen attribute values.
};

class CyclonOverlay final : public Overlay {
 public:
  explicit CyclonOverlay(CyclonConfig config);

  void build_initial(std::span<const NodeId> ids, const HostView& host,
                     rng::Rng& rng) override;
  void add_node(NodeId id, const HostView& host, rng::Rng& rng) override;
  void remove_node(NodeId id) override;
  [[nodiscard]] std::optional<NodeId> pick_gossip_target(
      NodeId id, rng::Rng& rng) const override;
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId id) const override;
  [[nodiscard]] std::vector<stats::Value> known_attribute_values(
      NodeId id, const HostView& host) const override;
  void maintain(HostView& host, rng::Rng& rng) override;

  [[nodiscard]] const CyclonConfig& config() const { return config_; }

  // host::snapshot integration (DESIGN.md §12): kind 2 = Cyclon. Views are
  // encoded densely per id slot behind a presence byte; each view's
  // descriptor entries and value cache keep their stored order (shuffles and
  // the bootstrap consume them positionally).
  [[nodiscard]] std::uint32_t snapshot_kind() const override { return 2; }
  void save_state(wire::Writer& out) const override;
  void restore_state(wire::Reader& in) override;
  /// Also rejects a blob covering more id slots than `nodes` before
  /// allocating for them.
  void restore_state_bounded(wire::Reader& in, std::size_t nodes) override;

 private:
  /// Per-id slot header. Views live in id-indexed slabs (DESIGN.md §7.6):
  /// slot `id` owns rows [id * view_size, +view_size) of rows_ and values
  /// [id * value_cache_size, +value_cache_size) of ring_.
  struct SlotHeader {
    std::uint32_t ring_head = 0;  ///< Oldest cached value's ring position.
    std::uint32_t ring_size = 0;  ///< Cached values, <= value_cache_size.
    std::uint8_t entries = 0;     ///< Descriptor rows in use, <= view_size.
    bool present = false;         ///< The id has a view (added, not removed).
  };

  /// Handle to one id's view in the slabs. Valid until the slabs grow
  /// (build_initial, add_node, restore_state); shuffles never grow them.
  struct View {
    SlotHeader* header;
    wire::NodeDescriptor* rows;
    stats::Value* ring;

    [[nodiscard]] std::size_t size() const { return header->entries; }
    [[nodiscard]] std::span<wire::NodeDescriptor> entries() const {
      return {rows, header->entries};
    }
    void push_back(const wire::NodeDescriptor& d) {
      rows[header->entries++] = d;
    }
    void erase(std::size_t slot);
  };

  /// Grows the slabs to cover `id` (never ahead of it; vector amortises).
  void grow_to(NodeId id);
  [[nodiscard]] View view_at(NodeId id);
  /// The live descriptor rows of `id`; empty for ids without a view.
  [[nodiscard]] std::span<const wire::NodeDescriptor> entries_of(
      NodeId id) const;

  /// One planned shuffle: `id` contacts `target` (kNoParticipant when its
  /// view was empty at planning time).
  struct PlannedShuffle {
    NodeId id;
    NodeId target;
  };

  /// Runs one planned shuffle as a run_units unit; `target_live` is the
  /// planned target's (phase-frozen) liveness.
  void shuffle_once(const PlannedShuffle& planned, bool target_live,
                    HostView& host, std::uint64_t round_seed);

  /// Installs `received` into `view`, replacing sent-away slots (bits set in
  /// `sent_mask`) first, then filling free capacity, never duplicating ids
  /// or storing `self`.
  void install(NodeId self, View view,
               std::span<const wire::NodeDescriptor> received,
               std::uint64_t sent_mask);

  /// Appends the descriptors' attributes to the view's value ring, dropping
  /// the oldest once value_cache_size are held.
  void remember_values(View view,
                       std::span<const wire::NodeDescriptor> descriptors);

  CyclonConfig config_;
  std::vector<SlotHeader> headers_;         // One per id slot.
  std::vector<wire::NodeDescriptor> rows_;  // view_size per id slot.
  std::vector<stats::Value> ring_;          // value_cache_size per id slot.
  // maintain() scratch, reused across rounds: the round's plan (shuffled)
  // and its run_units participant pairs.
  std::vector<PlannedShuffle> plan_;
  std::vector<NodeId> participants_;
};

}  // namespace adam2::sim
