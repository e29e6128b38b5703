#include "sim/cyclon.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace adam2::sim {
namespace {

using wire::NodeDescriptor;

bool contains(std::span<const NodeDescriptor> entries, NodeId id) {
  return std::any_of(entries.begin(), entries.end(),
                     [id](const NodeDescriptor& d) { return d.id == id; });
}

}  // namespace

void CyclonOverlay::View::erase(std::size_t slot) {
  std::copy(rows + slot + 1, rows + header->entries, rows + slot);
  --header->entries;
}

CyclonOverlay::CyclonOverlay(CyclonConfig config) : config_(config) {
  assert(config_.view_size >= 1);
  assert(config_.view_size <= 64);  // Slot masks are 64-bit.
  assert(config_.shuffle_size >= 1);
  assert(config_.shuffle_size <= config_.view_size);
  assert(config_.value_cache_size <= UINT32_MAX);
}

void CyclonOverlay::grow_to(NodeId id) {
  if (id < headers_.size()) return;
  const std::size_t slots = static_cast<std::size_t>(id) + 1;
  headers_.resize(slots);
  rows_.resize(slots * config_.view_size);
  ring_.resize(slots * config_.value_cache_size);
}

CyclonOverlay::View CyclonOverlay::view_at(NodeId id) {
  const auto slot = static_cast<std::size_t>(id);
  return {&headers_[slot], rows_.data() + slot * config_.view_size,
          ring_.data() + slot * config_.value_cache_size};
}

std::span<const NodeDescriptor> CyclonOverlay::entries_of(NodeId id) const {
  if (id >= headers_.size()) return {};
  const auto slot = static_cast<std::size_t>(id);
  return {rows_.data() + slot * config_.view_size, headers_[slot].entries};
}

void CyclonOverlay::build_initial(std::span<const NodeId> ids,
                                  const HostView& host, rng::Rng& rng) {
  headers_.clear();
  rows_.clear();
  ring_.clear();
  order_.clear();
  order_.reserve(ids.size());
  if (!ids.empty()) grow_to(*std::max_element(ids.begin(), ids.end()));
  for (NodeId id : ids) {
    headers_[id].present = true;
    order_.insert(id);
  }
  if (ids.size() < 2) return;
  for (NodeId id : ids) {
    View view = view_at(id);
    for (std::size_t attempts = 0;
         view.size() < config_.view_size && attempts < config_.view_size * 8;
         ++attempts) {
      const NodeId other = ids[rng.below(ids.size())];
      if (other == id || contains(view.entries(), other)) continue;
      view.push_back(
          {other, 0, host.is_live(other) ? host.attribute_of(other) : 0});
    }
  }
}

void CyclonOverlay::add_node(NodeId id, const HostView& host, rng::Rng& rng) {
  grow_to(id);
  // A (re)joining id starts from an empty view.
  headers_[id] = SlotHeader{};
  headers_[id].present = true;
  order_.insert(id);
  View view = view_at(id);
  const auto live = host.live_ids();
  if (live.empty()) return;
  // A joining node copies (a subset of) the view of one live contact, as in
  // Cyclon's join by random walks from an introducer.
  const NodeId contact = live[rng.below(live.size())];
  if (contact != id) {
    view.push_back({contact, 0, host.attribute_of(contact)});
    for (const NodeDescriptor& d : entries_of(contact)) {
      if (view.size() >= config_.view_size) break;
      if (d.id == id || contains(view.entries(), d.id)) continue;
      view.push_back(d);
    }
  }
  // Fill any remaining slots with random live peers.
  for (std::size_t attempts = 0;
       view.size() < config_.view_size && attempts < config_.view_size * 4;
       ++attempts) {
    const NodeId other = live[rng.below(live.size())];
    if (other == id || contains(view.entries(), other)) continue;
    view.push_back({other, 0, host.attribute_of(other)});
  }
}

void CyclonOverlay::remove_node(NodeId id) {
  order_.erase(id);
  if (id < headers_.size()) headers_[id] = SlotHeader{};
}

std::optional<NodeId> CyclonOverlay::pick_gossip_target(NodeId id,
                                                        rng::Rng& rng) const {
  const auto entries = entries_of(id);
  if (entries.empty()) return std::nullopt;
  return entries[rng.below(entries.size())].id;
}

std::vector<NodeId> CyclonOverlay::neighbors(NodeId id) const {
  std::vector<NodeId> out;
  const auto entries = entries_of(id);
  out.reserve(entries.size());
  for (const NodeDescriptor& d : entries) out.push_back(d.id);
  return out;
}

std::vector<stats::Value> CyclonOverlay::known_attribute_values(
    NodeId id, const HostView& /*host*/) const {
  std::vector<stats::Value> values;
  if (id >= headers_.size()) return values;
  const SlotHeader& header = headers_[id];
  const auto entries = entries_of(id);
  values.reserve(entries.size() + header.ring_size);
  for (const NodeDescriptor& d : entries) values.push_back(d.attribute);
  // The ring holds ring_size values oldest-first from ring_head, wrapping
  // at value_cache_size.
  const stats::Value* ring =
      ring_.data() + static_cast<std::size_t>(id) * config_.value_cache_size;
  const std::size_t first =
      std::min<std::size_t>(header.ring_size,
                            config_.value_cache_size - header.ring_head);
  values.insert(values.end(), ring + header.ring_head,
                ring + header.ring_head + first);
  values.insert(values.end(), ring, ring + (header.ring_size - first));
  return values;
}

void CyclonOverlay::maintain(HostView& host, rng::Rng& rng) {
  // Iterate over a stable id snapshot: shuffles mutate views but never join
  // or leave ids. The snapshot order feeds rng.shuffle and so determines
  // which draws each node's shuffle consumes; it is deterministic for a
  // fixed insertion history on a fixed standard library, and the golden
  // replay digests (tests/golden_replay_test.cpp) are pinned to it — sorting
  // here would change every digest. Revisit at the next digest re-capture;
  // until then this is a documented exception (DESIGN.md §10).
  std::vector<NodeId> ids;
  ids.reserve(order_.size());
  // adam2-lint: allow(unordered-iter)
  for (NodeId id : order_) ids.push_back(id);
  rng.shuffle(ids);
  for (NodeId id : ids) {
    if (host.is_live(id)) shuffle_once(id, host, rng);
  }
}

namespace {

/// Picks `want` distinct random slots out of [0, size) in addition to the
/// bits already set in `mask`. Rejection sampling on a 64-bit slot mask —
/// views are small (<= 64), so this is allocation-free and fast.
std::uint64_t pick_slots(std::uint64_t mask, std::size_t size,
                         std::size_t want, rng::Rng& rng) {
  while (want > 0) {
    const std::uint64_t bit = 1ULL << rng.below(size);
    if ((mask & bit) != 0) continue;
    mask |= bit;
    --want;
  }
  return mask;
}

}  // namespace

void CyclonOverlay::shuffle_once(NodeId id, HostView& host, rng::Rng& rng) {
  View view = view_at(id);
  if (view.size() == 0) return;

  for (NodeDescriptor& d : view.entries()) ++d.age;

  // Contact the oldest entry (Cyclon's tail-swap rule).
  const auto entries = view.entries();
  const auto oldest = std::max_element(
      entries.begin(), entries.end(),
      [](const NodeDescriptor& a, const NodeDescriptor& b) {
        return a.age < b.age;
      });
  const NodeId target = oldest->id;
  const auto oldest_slot = static_cast<std::size_t>(oldest - entries.begin());
  if (!host.is_live(target)) {
    view.erase(oldest_slot);  // Evict the dead entry; retry next round.
    return;
  }
  if (target >= headers_.size() || !headers_[target].present) {
    throw std::out_of_range("cyclon: live shuffle target has no view");
  }

  // Send the oldest entry plus shuffle_size - 1 random others, and a fresh
  // self-descriptor.
  const std::size_t extra =
      std::min(config_.shuffle_size - 1, view.size() - 1);
  const std::uint64_t sent_mask =
      pick_slots(1ULL << oldest_slot, view.size(), extra, rng);

  wire::ShuffleMessage& request = request_scratch_;
  request.type = wire::MessageType::kShuffleRequest;
  request.sender = id;
  request.descriptors.clear();
  request.descriptors.push_back({id, 0, host.attribute_of(id)});
  for (std::size_t slot = 0; slot < view.size(); ++slot) {
    if ((sent_mask >> slot) & 1) request.descriptors.push_back(view.rows[slot]);
  }
  host.record_traffic(id, target, Channel::kOverlay, request.encoded_size());

  // Responder builds its reply from a random subset of its own view.
  View peer_view = view_at(target);
  const std::size_t peer_count =
      std::min(config_.shuffle_size, peer_view.size());
  const std::uint64_t peer_mask =
      peer_view.size() == 0
          ? 0
          : pick_slots(0, peer_view.size(), peer_count, rng);
  wire::ShuffleMessage& response = response_scratch_;
  response.type = wire::MessageType::kShuffleResponse;
  response.sender = target;
  response.descriptors.clear();
  for (std::size_t slot = 0; slot < peer_view.size(); ++slot) {
    if ((peer_mask >> slot) & 1) {
      response.descriptors.push_back(peer_view.rows[slot]);
    }
  }
  host.record_traffic(target, id, Channel::kOverlay, response.encoded_size());

  remember_values(peer_view, request.descriptors);
  remember_values(view, response.descriptors);

  install(target, peer_view, request.descriptors, peer_mask);
  install(id, view, response.descriptors, sent_mask);
}

void CyclonOverlay::install(NodeId self, View view,
                            std::span<const wire::NodeDescriptor> received,
                            std::uint64_t sent_mask) {
  for (const NodeDescriptor& d : received) {
    if (d.id == self || contains(view.entries(), d.id)) continue;
    if (view.size() < config_.view_size) {
      view.push_back(d);
      continue;
    }
    if (sent_mask == 0) break;  // View full, nothing left that was sent away.
    const auto slot = static_cast<std::size_t>(std::countr_zero(sent_mask));
    sent_mask &= sent_mask - 1;
    if (slot >= view.size()) break;
    view.rows[slot] = d;
  }
}

void CyclonOverlay::remember_values(
    View view, std::span<const wire::NodeDescriptor> descriptors) {
  const std::size_t capacity = config_.value_cache_size;
  if (capacity == 0) return;
  SlotHeader& header = *view.header;
  for (const wire::NodeDescriptor& d : descriptors) {
    if (header.ring_size < capacity) {
      std::size_t tail = header.ring_head + header.ring_size;
      if (tail >= capacity) tail -= capacity;
      view.ring[tail] = d.attribute;
      ++header.ring_size;
    } else {
      // Full: overwrite the oldest value and advance past it.
      view.ring[header.ring_head] = d.attribute;
      header.ring_head =
          header.ring_head + 1 == capacity ? 0 : header.ring_head + 1;
    }
  }
}

void CyclonOverlay::save_state(wire::Writer& out) const {
  out.u64(config_.view_size);
  out.u64(config_.shuffle_size);
  out.u64(config_.value_cache_size);
  out.length(headers_.size());
  for (std::size_t slot = 0; slot < headers_.size(); ++slot) {
    const SlotHeader& header = headers_[slot];
    out.u8(header.present ? 1 : 0);
    if (!header.present) continue;
    const auto entries = entries_of(slot);
    out.length(entries.size());
    for (const wire::NodeDescriptor& d : entries) {
      out.u64(d.id);
      out.u32(d.age);
      out.i64(d.attribute);
    }
    out.length(header.ring_size);
    const stats::Value* ring = ring_.data() + slot * config_.value_cache_size;
    std::size_t at = header.ring_head;
    for (std::size_t i = 0; i < header.ring_size; ++i) {
      out.i64(ring[at]);
      if (++at == config_.value_cache_size) at = 0;
    }
  }
}

void CyclonOverlay::restore_state(wire::Reader& in) {
  if (in.u64() != config_.view_size || in.u64() != config_.shuffle_size ||
      in.u64() != config_.value_cache_size) {
    throw wire::DecodeError("cyclon overlay config mismatch");
  }
  // The slot count is bounded by the input (one presence byte per slot), so
  // an untrusted count can never size the slabs past the bytes it came in.
  const std::size_t slots = in.length(1);
  std::vector<SlotHeader> headers(slots);
  std::vector<wire::NodeDescriptor> rows(slots * config_.view_size);
  std::vector<stats::Value> ring(slots * config_.value_cache_size);
  std::vector<NodeId> present;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const std::uint8_t flag = in.u8();
    if (flag > 1) {
      throw wire::DecodeError("non-canonical cyclon presence byte");
    }
    if (flag == 0) continue;
    SlotHeader& header = headers[slot];
    header.present = true;
    present.push_back(slot);
    const std::size_t entries = in.length(20);
    if (entries > config_.view_size) {
      throw wire::DecodeError("cyclon view exceeds configured capacity");
    }
    header.entries = static_cast<std::uint8_t>(entries);
    for (std::size_t j = 0; j < entries; ++j) {
      wire::NodeDescriptor& d = rows[slot * config_.view_size + j];
      d.id = in.u64();
      d.age = in.u32();
      d.attribute = in.i64();
    }
    const std::size_t cached = in.length(8);
    if (cached > config_.value_cache_size) {
      throw wire::DecodeError("cyclon value cache exceeds configured size");
    }
    header.ring_size = static_cast<std::uint32_t>(cached);
    for (std::size_t j = 0; j < cached; ++j) {
      ring[slot * config_.value_cache_size + j] = in.i64();
    }
  }
  // Transactional commit: nothing is mutated until the whole payload parsed
  // (trailing bytes included), so a rejected blob leaves the overlay intact.
  in.expect_done();
  // Visit order: the former map was rebuilt by reserve(count) plus inserts in
  // ascending id order, then move-assigned; the golden resume digests pin
  // the bucket order that history produces.
  std::unordered_set<NodeId> order;
  order.reserve(present.size());
  for (NodeId id : present) order.insert(id);
  headers_ = std::move(headers);
  rows_ = std::move(rows);
  ring_ = std::move(ring);
  order_ = std::move(order);
}

}  // namespace adam2::sim
