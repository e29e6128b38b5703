// Owning reference forms of the Adam2 instance state and gossip message, for
// tests and benches only.
//
// The library holds one per-instance state (core::InstanceSlot, arena-backed)
// with two wire forms: wire::InstancePayloadRef, encoded by
// wire::Adam2MessageBuilder, and wire::InstancePayloadView, read in place off
// a parsed buffer. This header keeps the plain owning model those optimised
// forms are checked against:
//
//  * Message::encode/decode — an independent field-by-field codec. wire_test
//    holds Adam2MessageView::parse to decode (same accept/reject, same
//    content on every fuzz and corpus mutant) and the builder to encode.
//  * Instance — vector-backed instance state with the §IV start, join and
//    merge rules: the map-of-vectors model that InstanceStoreFuzz and
//    micro_core's map baseline drive in lockstep with core::InstanceStore.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/instance_store.hpp"
#include "stats/cdf.hpp"
#include "wire/buffer.hpp"
#include "wire/messages.hpp"

namespace adam2::reference {

using Points = std::vector<stats::CdfPoint>;

/// One instance's state as it travels between two peers (§IV): identity,
/// start round, TTL, flags, weight, extremes, H and V.
struct Payload {
  wire::InstanceId id;
  std::uint32_t start_round = 0;
  std::uint16_t ttl = 0;
  std::uint8_t flags = 0;
  double weight = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;
  Points points;        ///< H: interpolation points.
  Points verification;  ///< V: verification points.

  /// The builder's encoding view of this payload (spans over the vectors).
  [[nodiscard]] wire::InstancePayloadRef ref() const {
    return {id,        start_round, ttl,    flags,       weight,
            min_value, max_value,   points, verification};
  }

  friend bool operator==(const Payload&, const Payload&) = default;
};

/// An Adam2 gossip message (request or response) with the owning codec.
struct Message {
  wire::MessageType type = wire::MessageType::kAdam2Request;
  std::uint64_t sender = 0;
  std::vector<Payload> instances;

  [[nodiscard]] std::vector<std::byte> encode() const {
    wire::Writer w;
    w.reserve(encoded_size());
    w.u8(static_cast<std::uint8_t>(type));
    w.u64(sender);
    w.length(instances.size());
    for (const Payload& p : instances) {
      w.u64(p.id.initiator);
      w.u32(p.id.seq);
      w.u32(p.start_round);
      w.u16(p.ttl);
      w.u8(p.flags);
      w.f64(p.weight);
      w.f64(p.min_value);
      w.f64(p.max_value);
      for (const Points* series : {&p.points, &p.verification}) {
        w.length(series->size());
        for (const stats::CdfPoint& point : *series) {
          w.f64(point.t);
          w.f64(point.f);
        }
      }
    }
    return w.take();
  }

  /// Throws wire::DecodeError on a wrong type tag, a truncated buffer, a
  /// length prefix past the bytes left, or trailing bytes.
  [[nodiscard]] static Message decode(std::span<const std::byte> buffer) {
    wire::Reader r(buffer);
    Message m;
    m.type = static_cast<wire::MessageType>(r.u8());
    if (m.type != wire::MessageType::kAdam2Request &&
        m.type != wire::MessageType::kAdam2Response) {
      throw wire::DecodeError("bad type tag for reference::Message");
    }
    m.sender = r.u64();
    const std::size_t n = r.length(wire::kInstancePayloadFixedSize);
    for (std::size_t i = 0; i < n; ++i) {
      Payload& p = m.instances.emplace_back();
      p.id.initiator = r.u64();
      p.id.seq = r.u32();
      p.start_round = r.u32();
      p.ttl = r.u16();
      p.flags = r.u8();
      p.weight = r.f64();
      p.min_value = r.f64();
      p.max_value = r.f64();
      for (Points* series : {&p.points, &p.verification}) {
        const std::size_t count = r.length(16);
        for (std::size_t k = 0; k < count; ++k) {
          const double t = r.f64();
          series->push_back({t, r.f64()});
        }
      }
    }
    r.expect_done();
    return m;
  }

  /// Exact size encode() produces, without allocating.
  [[nodiscard]] std::size_t encoded_size() const {
    std::size_t size = 1 + 8 + 4;  // type + sender + count
    for (const Payload& p : instances) {
      size += wire::kInstancePayloadFixedSize +
              16 * (p.points.size() + p.verification.size());
    }
    return size;
  }

  friend bool operator==(const Message&, const Message&) = default;
};

/// Owning copy of a zero-copy point sequence.
[[nodiscard]] inline Points to_points(const wire::PointsView& view) {
  Points points;
  for (const stats::CdfPoint p : view) points.push_back(p);
  return points;
}

/// Owning copy of a parsed message, payload by payload.
[[nodiscard]] inline Message to_message(const wire::Adam2MessageView& view) {
  Message m{view.type(), view.sender(), {}};
  for (const wire::InstancePayloadView& p : view) {
    m.instances.push_back({p.id, p.start_round, p.ttl, p.flags, p.weight,
                           p.min_value, p.max_value, to_points(p.points),
                           to_points(p.verification)});
  }
  return m;
}

/// Vector-backed instance state: a payload plus the agent's scratch epoch
/// (core::InstanceSlot::touched_epoch), merged by the §IV rules.
struct Instance : Payload {
  std::uint64_t touched_epoch = 0;

  /// Initiator side: weight 1, own contributions at `thresholds` and
  /// `verification`, own extremes.
  [[nodiscard]] static Instance start(
      wire::InstanceId id, std::uint32_t start_round, std::uint16_t ttl,
      std::span<const double> thresholds, std::span<const double> verification,
      const core::ContributionFn& contribution, double local_min,
      double local_max) {
    Instance s;
    s.id = id;
    s.start_round = start_round;
    s.ttl = ttl;
    s.weight = 1.0;
    s.min_value = local_min;
    s.max_value = local_max;
    s.points.reserve(thresholds.size());
    s.verification.reserve(verification.size());
    for (double t : thresholds) s.points.push_back({t, contribution(t)});
    for (double t : verification) {
      s.verification.push_back({t, contribution(t)});
    }
    return s;
  }

  /// Joiner side: weight 0, own contributions at the payload's thresholds,
  /// own extremes.
  [[nodiscard]] static Instance join(const wire::InstancePayloadView& payload,
                                     const core::ContributionFn& contribution,
                                     double local_min, double local_max) {
    Instance s;
    s.id = payload.id;
    s.start_round = payload.start_round;
    s.ttl = payload.ttl;
    s.min_value = local_min;
    s.max_value = local_max;
    s.points.reserve(payload.points.size());
    s.verification.reserve(payload.verification.size());
    for (const stats::CdfPoint p : payload.points) {
      s.points.push_back({p.t, contribution(p.t)});
    }
    for (const stats::CdfPoint p : payload.verification) {
      s.verification.push_back({p.t, contribution(p.t)});
    }
    return s;
  }

  /// Same id, same point counts, bitwise-equal thresholds.
  [[nodiscard]] bool mergeable_with(
      const wire::InstancePayloadView& other) const {
    const auto same = [](const Points& mine, const wire::PointsView& theirs) {
      if (mine.size() != theirs.size()) return false;
      std::size_t i = 0;
      for (const stats::CdfPoint p : theirs) {
        if (mine[i++].t != p.t) return false;
      }
      return true;
    };
    return other.id == id && same(points, other.points) &&
           same(verification, other.verification);
  }

  /// Element-wise mean of every f and the weight, min/max of the extremes.
  /// Precondition: mergeable_with(other).
  void average_with(const wire::InstancePayloadView& other) {
    assert(other.id == id);
    const auto average = [](Points& mine, const wire::PointsView& theirs) {
      std::size_t i = 0;
      for (const stats::CdfPoint p : theirs) {
        mine[i].f = (mine[i].f + p.f) / 2.0;
        ++i;
      }
    };
    average(points, other.points);
    average(verification, other.verification);
    weight = (weight + other.weight) / 2.0;
    min_value = std::min(min_value, other.min_value);
    max_value = std::max(max_value, other.max_value);
  }
};

}  // namespace adam2::reference
