// Cycle-level wormhole-routed 2D mesh NoC.
//
// Microarchitecture (paper Section V-C-2):
//   * square mesh, single channel between neighbors, 64-bit flits, one flit
//     crosses a link per cycle;
//   * input-buffered routers with `buffer_depth`-flit FIFOs (paper: 2);
//   * t_r-cycle routing delay for every header flit in every router;
//   * wormhole switching: an output port is held by a packet from its head
//     grant until its tail traverses;
//   * credit-based flow control with one-cycle credit return;
//   * routing: deterministic XY, or minimal-adaptive west-first (deadlock-
//     free turn model) that picks the less congested minimal direction.
//
// Datapath layout: this class is the structure-of-arrays rewrite of the
// original array-of-structs model, which lives beside the tests as
// oracle::ReferenceMesh (tests/oracle/reference_mesh.hpp). Packet fields
// (src/dst/flit count/payload base/payload words) live in flat parallel
// arrays indexed by packet id, captured at inject() time; a ring slot then
// holds a single packed word — packet id, sequence number, tail bit —
// because every other flit field is a pure function of (packet, seq). A
// link traversal is one 64-bit copy, and the full Flit is reconstructed
// only at the sink boundary. Per-VC routing and allocation state are byte
// arrays contiguous per router, so the hot scans (update_routing /
// serve_outputs / keep-awake) test a whole router's five input VCs with one
// unaligned 64-bit load and SWAR byte masks instead of chasing 40-byte
// Flit copies. Payload words move into an arena at inject() time, so
// nothing vector-sized rides through the release queue.
// Both are byte-identical by construction and by test (test_mesh_soa).
// Occupancy and credits are byte-wide, so the constructor rejects a
// buffer_depth above 255.
//
// Scheduling: a router is visited only on cycles it can act, and the
// routers of a cycle are visited in ascending node id. Visit order shows
// only in the order ejections are recorded (latencies(), the Welford
// stats, sink logs), never in cycle timing, so a fixed order keeps both
// datapaths comparable with an oracle that visits every router. A router
// is scheduled for the next cycle when it made progress, has a t_r
// countdown running, or has an injection with room; on V == 1 the wakes
// from outside are exact: an arrival wakes it only when it lands in an
// empty lane (and not in a streaming worm that has no credit), a credit
// return only when the credit goes 0 -> 1. A router whose sink refused a
// flit sleeps until the sink's next_ready() cycle. When no router is
// scheduled, fast_forward() jumps to the next timed wake or release.
//
// Ejection at a node goes to a Sink; memory interfaces (memory_interface.hpp)
// and simple consumers implement this interface.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "psync/common/calendar_queue.hpp"
#include "psync/common/stats.hpp"
#include "psync/mesh/flit.hpp"
#include "psync/mesh/mesh_types.hpp"

namespace psync::mesh {

class Mesh {
 public:
  explicit Mesh(MeshParams params);

  const MeshParams& params() const { return params_; }
  std::uint32_t nodes() const { return params_.width * params_.height; }
  std::int64_t cycle() const { return cycle_; }

  NodeId node_at(std::uint32_t x, std::uint32_t y) const;
  std::uint32_t x_of(NodeId n) const { return n % params_.width; }
  std::uint32_t y_of(NodeId n) const { return n / params_.width; }

  /// Attach a sink to a node's ejection port (replaces the default
  /// ConsumeSink). The mesh keeps a non-owning pointer.
  void set_sink(NodeId node, Sink* sink);

  /// Queue a packet for injection at its source node.
  void inject(const PacketDesc& desc);

  /// Advance one cycle.
  void step();

  /// Run until all injected packets are fully ejected or `max_cycles`
  /// elapse. Returns true when drained.
  bool run_until_drained(std::int64_t max_cycles);

  /// Event fast-forward: when no router is scheduled for the coming cycle,
  /// move cycle() to the earliest timed wake or release (at most `limit`)
  /// and return true. Returns false, leaving the cycle alone, when a router
  /// is scheduled or nothing is pending. Every skipped cycle is one on
  /// which step() would change nothing but the cycle count; stepped sinks
  /// see the gap (see Sink). A caller that wants every cycle visited calls
  /// step() alone.
  bool fast_forward(std::int64_t limit);

  /// True when no flit is buffered anywhere and no injection is pending.
  bool drained() const;

  const MeshActivity& activity() const { return activity_; }
  /// Packet latency (inject of head to eject of tail), in cycles.
  const RunningStats& packet_latency() const { return packet_latency_; }
  /// Opt-in per-packet latency recording (for histograms); off by default
  /// to keep the big runs lean.
  void record_latencies(bool on) { record_latencies_ = on; }
  const std::vector<double>& latencies() const { return latencies_; }
  /// Flits currently buffered in the network.
  std::uint64_t in_flight_flits() const { return in_flight_flits_; }
  /// Packets injected but whose tail has not yet ejected.
  std::uint64_t in_flight_packets() const { return in_flight_packets_; }

 private:
  // Port order: N, E, S, W, LOCAL-in (injection); outputs: N, E, S, W, EJECT.
  static constexpr int kPortN = 0;
  static constexpr int kPortE = 1;
  static constexpr int kPortS = 2;
  static constexpr int kPortW = 3;
  static constexpr int kPortLocal = 4;
  static constexpr int kPorts = 5;
  // Byte-wide sentinels: -1 as 0xFF so SWAR byte masks can test them.
  static constexpr std::int8_t kNoPort8 = -1;
  static constexpr std::int8_t kNoVc8 = -1;
  static constexpr std::int8_t kFree8 = -1;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;  // packet-list end
  static constexpr std::uint8_t kNoHint8 = 0xFF;      // serve_hint_ empty
  static constexpr std::uint32_t kNoWords = 0xFFFFFFFFu;
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();  // no release / wake pending

  /// Release-queue entry: just the packet id. Every other field of the
  /// original PacketDesc (including its payload vector) was captured into
  /// the pr_* / words_ arenas at inject() time, so releases are POD and the
  /// calendar queue never copies a heap allocation.
  struct Release {
    PacketId id;
  };

  /// A flit crossing a link this cycle. The fields were already written
  /// into the destination ring slot by hop_flit() — they stay invisible
  /// until the count increment commits at end of cycle (head + count is
  /// invariant under pops, so the slot index cannot shift) — leaving only
  /// the destination VC and its router to wake.
  struct Staged {
    std::uint32_t g;  // destination global input-VC index
    NodeId node;
  };

  std::uint32_t vcs() const { return params_.virtual_channels; }
  /// Global input-VC index: router n, port p, VC c. In packed mode the
  /// per-router lane stride is padded to 8 so the scans load one aligned
  /// word per router and lane updates can rewrite the containing word
  /// (keeping store-to-load forwarding size-matched; see lane helpers).
  std::uint32_t gvc(NodeId n, std::uint32_t p, std::uint32_t c) const {
    return n * stride_ + p * vcs() + c;
  }

  // Lane-update helpers for the scanned per-VC byte arrays. Packed mode
  // rewrites the whole (aligned, padded) router word so the next cycle's
  // word load forwards cleanly from the store buffer; a plain byte store
  // followed by a wider load stalls for ~a dozen cycles on current cores.
  static void lane_word_set(std::uint8_t* a, std::uint32_t g, std::uint8_t v);
  void cnt_add(std::uint32_t g, std::uint64_t delta);
  void rt_set(std::uint32_t g, std::uint8_t v);
  void ov_set(std::uint32_t g, std::uint8_t v);
  std::size_t slot_base(std::uint32_t g) const {
    return static_cast<std::size_t>(g) << fifo_shift_;
  }

  // Ring-slot word: packet id in the low half, sequence number in bits
  // [62:32], tail flag in bit 63 (inject() bounds payload_flits to 2^31-1).
  static std::uint64_t slot_word(PacketId packet, std::uint32_t seq,
                                 bool tail) {
    return static_cast<std::uint64_t>(packet) |
           (static_cast<std::uint64_t>(seq) << 32) |
           (static_cast<std::uint64_t>(tail) << 63);
  }
  Flit make_flit(std::uint64_t word) const;

  void arena_push(std::uint32_t g, std::uint64_t word);

  int neighbor(NodeId node, int out_port, NodeId* out_node) const;
  int compute_route(NodeId at, NodeId dst) const;
  // Returns the number of flits ejected this visit (0 or 1); step()
  // batches the per-eject activity counters from the sum.
  std::uint32_t step_router_packed(NodeId n);
  void step_router_generic(NodeId n);
  void update_routing_generic(NodeId n);
  bool serve_outputs_generic(NodeId n, bool* eject_refused);
  bool eject_flit(NodeId n, std::uint32_t i);
  void hop_flit(NodeId n, std::uint32_t i, int o);
  // V == 1 specializations used by step_router_packed(): out-VC is always
  // 0, lane index == input port, and the downstream slot index comes from
  // vc_dest_ instead of the geometry tables.
  bool eject_flit_packed(NodeId n, std::uint32_t i, std::uint64_t w);
  void hop_flit_packed(NodeId n, std::uint32_t i, std::uint32_t o,
                       std::uint64_t word);
  bool serve_injection(NodeId n);
  void activate(NodeId n) {
    next_active_[n >> 6] |= std::uint64_t{1} << (n & 63u);
  }
  // A router whose sink refused a flit sleeps until the sink can take one.
  void sleep_until_ready(NodeId n);
  void wake_due();
  void enqueue_packet(PacketId id);

  MeshParams params_;

  std::uint32_t vc_total_ = 0;  // kPorts * virtual_channels
  std::uint32_t stride_ = 0;    // lane stride per router (8 when packed)
  std::uint32_t fifo_cap_ = 0;  // bit_ceil(buffer_depth)
  std::uint32_t fifo_mask_ = 0;
  std::uint32_t fifo_shift_ = 0;  // log2(fifo_cap_)
  bool packed_ = false;  // V == 1 SWAR fast path (little-endian only)

  // Flit arena: ring slot s = slot_base(g) + pos holds one packed
  // (packet, seq, tail) word; see slot_word() / make_flit().
  std::vector<std::uint64_t> a_slot_;

  // Per input VC, indexed by gvc(); byte arrays are padded by 8 so the SWAR
  // loads at the last router stay in bounds.
  std::vector<std::uint8_t> vc_head_;
  std::vector<std::uint8_t> vc_count_;
  std::vector<std::int8_t> vc_route_;    // kNoPort8 or output port
  std::vector<std::int8_t> vc_outvc_;    // kNoVc8 or downstream VC
  std::vector<std::uint8_t> vc_routing_; // t_r countdown in progress
  std::vector<std::uint32_t> vc_wait_;   // remaining t_r cycles

  // Per output VC (same indexing as input VCs).
  std::vector<std::int8_t> out_owner_;   // holding input-VC index or kFree8
  std::vector<std::uint8_t> credits_;    // toward the downstream buffer

  // Geometry tables, per (router, output port): downstream node and its
  // receiving port (-1 at a mesh edge). x_/y_ cache the coordinate split so
  // the hot paths never divide by the mesh width. cr_upcred_, per (router,
  // input port), resolves a credit return at push time: the upstream
  // credits_ index (for VC 0) in the high half, the upstream node id in the
  // low half.
  std::vector<NodeId> nbr_node_;
  std::vector<std::int8_t> nbr_in_;
  std::vector<std::uint32_t> x_;
  std::vector<std::uint32_t> y_;
  std::vector<std::uint64_t> cr_upcred_;
  // Packed mode: downstream global input-VC index per lane, resolved once
  // at out-VC allocation so the per-flit hop path never touches the
  // geometry tables. Valid only while the lane holds an allocated out-VC.
  std::vector<std::uint32_t> vc_dest_;
  // Packed mode, per node: `lane | out_port << 3` while the router is in
  // the streaming-worm state (exactly one occupied lane, routed and
  // allocated, empty inject queue), else kNoHint8. A hinted visit serves
  // that worm directly and skips the route/allocate/inject scan entirely;
  // the hint is dropped on a tail, a cross-lane arrival (end-of-cycle
  // commit), or a packet entering the node's inject queue.
  std::vector<std::uint8_t> serve_hint_;

  // Round-robin pointers, per (router, output port); generic path only —
  // with one VC per port every output has at most one allocated candidate,
  // so the packed path never consults them.
  std::vector<std::uint8_t> rr_next_;
  std::vector<std::uint8_t> vc_rr_;
  std::vector<std::uint8_t> inject_vc_rr_;  // per node

  // Packet records, indexed by PacketId: everything inject() captured from
  // the PacketDesc. pr_word_ points into words_ (kNoWords = synthesize
  // payload_base + i); pr_qnext_ is the intrusive inject-queue link.
  std::vector<NodeId> pr_src_;
  std::vector<NodeId> pr_dst_;
  std::vector<std::uint32_t> pr_flits_;  // payload flits (0 = head-tail)
  std::vector<std::uint64_t> pr_base_;
  std::vector<std::uint32_t> pr_word_;
  std::vector<std::uint32_t> pr_qnext_;
  std::vector<std::uint64_t> words_;  // payload word arena

  // Inject queues: one intrusive packet FIFO per (node, local VC), plus the
  // next flit seq to synthesize for the head packet.
  std::vector<std::uint32_t> q_head_;
  std::vector<std::uint32_t> q_tail_;
  std::vector<std::uint32_t> q_cursor_;
  std::uint64_t queued_flits_ = 0;

  CalendarQueue<Release> releases_;
  std::vector<Release> release_buf_;  // scratch for pop_due, reused
  // Smallest key in releases_ (kNever when empty), so the per-cycle path
  // touches the calendar queue only on cycles with a due release.
  std::int64_t next_release_due_ = kNever;
  std::vector<Staged> staged_;
  // Credit returns, resolved at push: cr_upcred_ entry + (vc << 32).
  std::vector<std::uint64_t> credit_returns_;

  // Activity-gated simulation: only routers whose bit is set are stepped,
  // in ascending node id. Routers activated during a cycle land in
  // next_active_; step() swaps it into cur_active_ and clears each word as
  // it is consumed, so the pair never needs a clear loop.
  std::vector<std::uint64_t> cur_active_;
  std::vector<std::uint64_t> next_active_;

  // Timed wakes: each sink-refused router with the cycle it sleeps until,
  // and the earliest of those cycles (kNever when none).
  struct Wake {
    std::int64_t cycle;
    NodeId node;
  };
  std::vector<Wake> waking_;
  std::int64_t next_wake_due_ = kNever;

  // Packet bookkeeping for latency stats: inject cycle by packet id.
  std::vector<std::int64_t> packet_inject_cycle_;
  RunningStats packet_latency_;
  bool record_latencies_ = false;
  std::vector<double> latencies_;

  std::vector<Sink*> sinks_;
  // Cached Sink::as_consume() downcast per node; non-null lets the ejection
  // path take ConsumeSink::accept_fast() when the sink is not logging.
  std::vector<ConsumeSink*> consume_sink_;
  std::vector<NodeId> stepped_sinks_;  // explicitly attached, need step()
  std::vector<std::unique_ptr<ConsumeSink>> default_sinks_;

  std::int64_t cycle_ = 0;
  std::uint64_t in_flight_flits_ = 0;
  std::uint64_t in_flight_packets_ = 0;
  MeshActivity activity_;
};

}  // namespace psync::mesh
