#include "sim/cyclon.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
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
  // Slot masks are 64-bit, and shuffles build their messages in stack
  // buffers of view_size + 1 descriptors.
  if (config_.view_size > 64) {
    throw std::invalid_argument("cyclon: view_size exceeds 64");
  }
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
  if (!ids.empty()) grow_to(*std::max_element(ids.begin(), ids.end()));
  for (NodeId id : ids) headers_[id].present = true;
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
  // Plan, read-only and in one ascending pass over the slab: each present,
  // live id contacts the first of its oldest entries (aging every entry by
  // one, as the unit does first, does not change which that is).
  plan_.clear();
  for (NodeId id = 0; id < headers_.size(); ++id) {
    if (!headers_[id].present || !host.is_live(id)) continue;
    const auto entries = entries_of(id);
    NodeId target = HostView::kNoParticipant;
    if (!entries.empty()) {
      target = std::max_element(entries.begin(), entries.end(),
                                [](const NodeDescriptor& a,
                                   const NodeDescriptor& b) {
                                  return a.age < b.age;
                                })
                   ->id;
      if (host.is_live(target) &&
          (target >= headers_.size() || !headers_[target].present)) {
        throw std::out_of_range("cyclon: live shuffle target has no view");
      }
    }
    plan_.push_back({id, target});
  }
  // The global stream: the shuffle order, then one seed for the units'
  // streams.
  rng.shuffle(plan_);
  const std::uint64_t round_seed = rng();

  participants_.resize(2 * plan_.size());
  for (std::size_t p = 0; p < plan_.size(); ++p) {
    const NodeId target = plan_[p].target;
    participants_[2 * p] = plan_[p].id;
    participants_[2 * p + 1] =
        target != HostView::kNoParticipant && host.is_live(target)
            ? target
            : HostView::kNoParticipant;
  }
  host.run_units(participants_, [&](std::size_t p) {
    shuffle_once(plan_[p],
                 participants_[2 * p + 1] != HostView::kNoParticipant, host,
                 round_seed);
  });
}

namespace {

/// Descriptors one shuffle message can carry: a full view plus the sender's
/// self-descriptor.
constexpr std::size_t kMaxShuffleDescriptors = 64 + 1;

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

void CyclonOverlay::shuffle_once(const PlannedShuffle& planned,
                                 bool target_live, HostView& host,
                                 std::uint64_t round_seed) {
  // A view empty at planning time sits the round out, even if an earlier
  // unit has since filled it.
  if (planned.target == HostView::kNoParticipant) return;
  const NodeId id = planned.id;
  const NodeId target = planned.target;
  View view = view_at(id);
  for (NodeDescriptor& d : view.entries()) ++d.age;

  // The planned target's entry, unless an earlier unit replaced it.
  std::size_t target_slot = 0;
  while (target_slot < view.size() && view.rows[target_slot].id != target) {
    ++target_slot;
  }
  const bool kept = target_slot < view.size();
  if (!target_live) {
    if (kept) view.erase(target_slot);  // Evict the dead entry.
    return;
  }

  // The unit's own stream: stateless, keyed by round seed and initiator.
  std::uint64_t material = round_seed ^ (id * 0x9e3779b97f4a7c15ULL);
  rng::Rng rng(rng::split_mix64(material));

  // Send a fresh self-descriptor, the target's entry while it is still
  // held, and random others up to shuffle_size entries.
  const std::size_t sent = std::min(config_.shuffle_size, view.size());
  const std::uint64_t sent_mask =
      pick_slots(kept ? 1ULL << target_slot : 0, view.size(),
                 sent - (kept ? 1 : 0), rng);
  std::array<NodeDescriptor, kMaxShuffleDescriptors> request;
  std::size_t request_size = 0;
  request[request_size++] = {id, 0, host.attribute_of(id)};
  for (std::size_t slot = 0; slot < view.size(); ++slot) {
    if ((sent_mask >> slot) & 1) {
      request[request_size++] = view.rows[slot];
    }
  }
  host.record_traffic(id, target, Channel::kOverlay,
                      wire::ShuffleMessage::encoded_size(request_size));

  // Responder builds its reply from a random subset of its own view.
  View peer_view = view_at(target);
  const std::size_t peer_count =
      std::min(config_.shuffle_size, peer_view.size());
  const std::uint64_t peer_mask =
      peer_view.size() == 0
          ? 0
          : pick_slots(0, peer_view.size(), peer_count, rng);
  std::array<NodeDescriptor, kMaxShuffleDescriptors> response;
  std::size_t response_size = 0;
  for (std::size_t slot = 0; slot < peer_view.size(); ++slot) {
    if ((peer_mask >> slot) & 1) {
      response[response_size++] = peer_view.rows[slot];
    }
  }
  host.record_traffic(target, id, Channel::kOverlay,
                      wire::ShuffleMessage::encoded_size(response_size));

  const std::span<const NodeDescriptor> request_span(request.data(),
                                                     request_size);
  const std::span<const NodeDescriptor> response_span(response.data(),
                                                      response_size);
  remember_values(peer_view, request_span);
  remember_values(view, response_span);

  install(target, peer_view, request_span, peer_mask);
  install(id, view, response_span, sent_mask);
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
  restore_state_bounded(in, std::numeric_limits<std::size_t>::max());
}

void CyclonOverlay::restore_state_bounded(wire::Reader& in,
                                          std::size_t nodes) {
  if (in.u64() != config_.view_size || in.u64() != config_.shuffle_size ||
      in.u64() != config_.value_cache_size) {
    throw wire::DecodeError("cyclon overlay config mismatch");
  }
  // The slot count is bounded by the input (one presence byte per slot) and
  // by the node table: slots are node ids, so no blob covers more of them
  // than the table restored alongside holds.
  const std::size_t slots = in.length(1);
  if (slots > nodes) {
    throw wire::DecodeError("cyclon overlay covers more ids than nodes");
  }
  std::vector<SlotHeader> headers(slots);
  std::vector<wire::NodeDescriptor> rows(slots * config_.view_size);
  std::vector<stats::Value> ring(slots * config_.value_cache_size);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const std::uint8_t flag = in.u8();
    if (flag > 1) {
      throw wire::DecodeError("non-canonical cyclon presence byte");
    }
    if (flag == 0) continue;
    SlotHeader& header = headers[slot];
    header.present = true;
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
  headers_ = std::move(headers);
  rows_ = std::move(rows);
  ring_ = std::move(ring);
}

}  // namespace adam2::sim
