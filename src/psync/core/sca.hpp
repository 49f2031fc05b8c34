// The PSCAN waveguide engine: simulates Synchronous Coalesced Accesses
// (SCA, gather) and their inverse (SCA^-1, scatter) at bit-slot timing
// resolution (paper Section III, Fig. 4).
//
// Physics modeled:
//  * every node takes its transmit/latch timing from the open-loop photonic
//    clock, so node i perceives global slot s at  launch + s*T + x_i/v (+ a
//    common detect latency);
//  * energy modulated on perceived slot s at ANY position reaches a
//    downstream point y at  launch + s*T + y/v (+ const): slot order at the
//    terminus is position-independent, which is what lets spatially separate
//    drivers splice a gap-free burst in flight;
//  * a collision is two modulators imprinting overlapping (wavelength, time)
//    intervals at the same waveguide point — detected exactly as interval
//    overlap in the terminus frame, including partial overlaps caused by
//    injected per-node timing faults;
//  * optionally, the optical link budget for the farthest node is verified
//    (Eq. 1-3) before any transaction is admitted.
//
// Stream order: node i's timing fault splits into whole slot periods w_i
// and a remainder f_i in [0, T), so its slot s reaches the terminus f_i
// after slot s + w_i would. The engine places each word directly from
// that: the bucket s + w_i is its arrival period, and inside one bucket a
// fixed per-node rank (f_i, then the larger w_i, i.e. the smaller
// slot, then the lower node) gives the rest of the (arrival, slot, node)
// order. A dense gather makes one owner-map pass: each drive burst writes
// its node into the buckets it lands in. A bucket written twice can only
// hold a collision, so such a gather, and one whose faults spread it over
// far more periods than it has words, sorts (bucket, rank) keys instead;
// memory follows the word count, never the skew. Words of one node share
// its remainder, so the stream is scanned in runs of consecutive buckets
// driven by one node: only a run's first word can overlap its predecessor
// or open a gap, and the run's words move in one copy. A scatter checks
// each listen entry's slot range at once against the listeners per burst
// slot. Records that tie on (arrival_ps, slot) can only come from a
// double-driven slot, which is a collision, and the lower node's comes
// first. gather_words() and scatter_words() run the same placement without
// building per-slot records; the PsyncMachine calls those.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "psync/common/units.hpp"
#include "psync/core/cp_compile.hpp"
#include "psync/photonic/clock.hpp"
#include "psync/photonic/link_budget.hpp"

namespace psync::core {

using Word = std::uint64_t;

struct PscanTopology {
  photonic::ClockParams clock;
  /// Tap position of each node along the waveguide, micrometres, strictly
  /// increasing downstream. (Use SerpentineLayout::tap_positions_um or any
  /// custom placement.)
  std::vector<double> node_pos_um;
  /// Receiver (gather terminus / DRAM interface) position; must be at or
  /// beyond the last node.
  double terminus_um = 0.0;
  /// Scatter source (head node / memory) position; must be at or before the
  /// first node.
  double head_um = 0.0;
  /// Optional per-node timing error (ps) for fault injection; empty = none.
  std::vector<TimePs> skew_error_ps;
  /// Optional link budget checked against the farthest node.
  std::optional<photonic::LinkBudgetParams> budget;

  std::size_t nodes() const { return node_pos_um.size(); }
  void validate() const;  // throws SimulationError on inconsistency
};

/// One slot observed at the gather terminus.
struct SlotRecord {
  Slot slot = 0;
  Word word = 0;
  std::int32_t source = -1;     // driving node
  TimePs arrival_ps = 0;        // leading edge at the terminus
  TimePs modulated_ps = 0;      // when the driver imprinted it
};

struct Collision {
  std::int32_t node_a = -1;
  std::int32_t node_b = -1;
  Slot slot_a = 0;
  Slot slot_b = 0;
  TimePs overlap_ps = 0;
};

/// What every gather reports besides its payload.
struct GatherSummary {
  std::vector<Collision> collisions;
  /// Arrivals are contiguous: consecutive leading edges exactly one slot
  /// period apart.
  bool gap_free = false;
  /// slots carried / slots spanned between first and last arrival.
  double utilization = 0.0;
  /// End-to-end transaction latency: first modulation to last arrival.
  TimePs span_ps = 0;
  /// Time the receiver saw its first bit.
  TimePs first_arrival_ps = 0;
};

struct GatherResult : GatherSummary {
  /// Terminus stream in (arrival_ps, slot) order; on a double-driven slot
  /// the lower node's record comes first.
  std::vector<SlotRecord> stream;

  /// Payload words in slot order (convenience view of `stream`).
  std::vector<Word> words() const;
};

/// One word delivered to a node during a scatter.
struct DeliveryRecord {
  Slot slot = 0;
  Word word = 0;
  std::int32_t node = -1;      // receiving node
  std::int64_t element = 0;    // index within the node's local buffer
  TimePs arrival_ps = 0;       // when the node's detector latched it
};

/// What every scatter reports besides the words it delivered.
struct ScatterSummary {
  /// Burst slots no node listened to (lost words).
  std::vector<Slot> unclaimed_slots;
  TimePs span_ps = 0;
};

struct ScatterResult : ScatterSummary {
  /// received[i] = words latched by node i, in element order.
  std::vector<std::vector<Word>> received;
  /// Every delivery, ordered by slot.
  std::vector<DeliveryRecord> deliveries;
};

/// Per-node word arrays in one buffer: node i's words are
/// words[offset[i], offset[i + 1]). Reusing one object reuses its capacity
/// whatever the node count.
struct NodeWords {
  std::vector<Word> words;
  std::vector<std::size_t> offset{0};  // nodes() + 1 entries

  std::size_t nodes() const { return offset.size() - 1; }
  std::span<Word> node(std::size_t i) {
    return {words.data() + offset[i], offset[i + 1] - offset[i]};
  }
  std::span<const Word> node(std::size_t i) const {
    return {words.data() + offset[i], offset[i + 1] - offset[i]};
  }
  /// `nodes` nodes of `per_node` words each; the words are unspecified.
  void resize_equal(std::size_t nodes, std::size_t per_node);
};

/// Storage of the record-free collectives. Handing the same object to
/// successive calls reuses its capacity; its contents mean nothing between
/// calls.
struct ScaWork {
  /// Node i's clock: its fault is `whole` slot periods plus `frac` in
  /// [0, T), so its slot s arrives in period bucket s + whole.
  struct NodeClock {
    Slot whole;
    TimePs frac;
    TimePs edge0;        // perceives slot s at edge0 + s*T
    TimePs to_terminus;  // imprinted energy continues downstream
    TimePs arrival0;     // arrival of its slot -whole (bucket 0)
    const Word* next;    // gather: its next word in element (= slot) order
  };
  /// A sorted gather's word: its arrival period, its node's in-bucket
  /// rank, its node.
  struct Key {
    Slot period;
    std::uint32_t rank, node;
  };

  std::vector<NodeClock> clock;       // per node
  std::vector<std::uint32_t> counts;  // gather: node driving each bucket;
                                      // scatter: listeners per burst slot
  std::vector<std::uint32_t> order;   // sorted gather: nodes in rank order
  std::vector<Key> keys;              // sorted gather: one per word
  std::vector<CpEntry> entries;       // scatter: listen entries, node-major
  std::vector<std::size_t> entry_at;  // scatter: node i's entries are
                                      // [entry_at[i], entry_at[i + 1])
  std::vector<TimePs> latch_ps;       // scatter: one per entry
};

/// A scatter without per-slot records; the received words go to caller
/// storage.
struct ScatterWords : ScatterSummary {
  /// When its node latched the first slot of each listen entry, node-major
  /// in CommProgram::entries() order; the entry's slot k latches k slot
  /// periods later. Both spans view the ScaWork the scatter ran on and
  /// last until its next use.
  std::span<const TimePs> latch_ps;
  /// Node i's entries are [entry_at[i], entry_at[i + 1]).
  std::span<const std::size_t> entry_at;

  /// Node i's latch times: latch(i)[e] is its e-th listen entry's.
  std::span<const TimePs> latch(std::size_t i) const {
    return latch_ps.subspan(entry_at[i], entry_at[i + 1] - entry_at[i]);
  }
};

class ScaEngine {
 public:
  explicit ScaEngine(PscanTopology topology);

  const PscanTopology& topology() const { return topo_; }
  const photonic::PhotonicClock& clock() const { return clock_; }

  /// Run an SCA gather: node i drives its local `node_data[i]` words in the
  /// slots its CP claims (element j -> j-th claimed slot). With `strict`,
  /// throws SimulationError on any collision or CP/data size mismatch.
  GatherResult gather(const CpSchedule& schedule,
                      const std::vector<std::vector<Word>>& node_data,
                      bool strict = true) const;

  /// The same gather without per-slot records, driving
  /// `node_data.node(i)` from node i: identical collisions, summary and
  /// errors; the payload words, in stream order, replace the contents of
  /// `*words` (its capacity is reused). `*work` holds the placement.
  GatherSummary gather_words(const CpSchedule& schedule,
                             const NodeWords& node_data,
                             std::vector<Word>* words, ScaWork* work,
                             bool strict = true) const;

  /// Run an SCA^-1 scatter: the head node drives `burst` (word for slot s at
  /// index s); node i latches the slots its CP listens on.
  ScatterResult scatter(const CpSchedule& schedule,
                        const std::vector<Word>& burst,
                        bool strict = true) const;

  /// The same scatter without per-slot records: identical unclaimed slots,
  /// span and errors, plus one latch time per listen entry (kept in
  /// `*work`). The received words replace the contents of `*received`
  /// (node i's are received->node(i); capacity reused).
  ScatterWords scatter_words(const CpSchedule& schedule,
                             const std::vector<Word>& burst,
                             NodeWords* received, ScaWork* work,
                             bool strict = true) const;

 private:
  void check_budget() const;

  PscanTopology topo_;
  photonic::PhotonicClock clock_;
};

/// Convenience: evenly spaced topology for `nodes` taps on a straight bus of
/// `length_cm`, terminus at the end, head at 0.
PscanTopology straight_bus_topology(std::size_t nodes, double length_cm,
                                    photonic::ClockParams clock = {});

}  // namespace psync::core
