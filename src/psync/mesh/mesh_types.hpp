// Shared types for the wormhole-routed 2D mesh NoC: parameters, sinks, and
// activity counters. The production datapath (mesh.hpp) and the test oracle
// (tests/oracle/reference_mesh.hpp) both build on these, so they live in
// their own header to keep the include graph acyclic.
#pragma once

#include <cstdint>
#include <vector>

#include "psync/mesh/flit.hpp"

namespace psync::mesh {

enum class RouteAlgo : std::uint8_t {
  kXY = 0,
  kWestFirstAdaptive = 1,
};

struct MeshParams {
  std::uint32_t width = 4;
  std::uint32_t height = 4;
  std::uint32_t buffer_depth = 2;   // flits per input VC FIFO (paper: 2)
  std::uint32_t route_delay = 1;    // t_r, cycles per header per router
  RouteAlgo algo = RouteAlgo::kXY;
  /// Virtual channels per physical port (paper's mesh: 1). Each VC has its
  /// own buffer_depth-flit FIFO; one flit still crosses a link per cycle.
  std::uint32_t virtual_channels = 1;
};

class ConsumeSink;

/// Consumer of ejected flits at a node.
///
/// Contract with the mesh's event scheduling: a refused flit is not offered
/// again before next_ready(cycle), and the mesh may skip every cycle on
/// which no router can act, so step() sees gaps in the cycle count. A sink
/// must therefore decide acceptance from the cycle it is given, not from
/// how many step() calls it has seen, and a refusing accept() must leave no
/// trace.
class Sink {
 public:
  virtual ~Sink() = default;
  /// Offer a flit this cycle; return false to exert backpressure.
  virtual bool accept(const Flit& flit, std::int64_t cycle) = 0;
  /// After accept() refused a flit at `cycle`: the earliest later cycle at
  /// which it may accept one. The refused router sleeps until then.
  virtual std::int64_t next_ready(std::int64_t cycle) const {
    return cycle + 1;
  }
  /// Advance internal state to `cycle` (called at the start of every mesh
  /// cycle that is stepped, in increasing order, possibly with gaps).
  virtual void step(std::int64_t cycle) { (void)cycle; }
  /// Return false when step() is a no-op; the mesh then skips the per-cycle
  /// call entirely (a measurable saving with one sink on every node).
  virtual bool needs_step() const { return true; }
  /// Non-null when this sink is a plain ConsumeSink; the mesh caches the
  /// downcast at set_sink() time so the ejection hot path can skip both the
  /// virtual dispatch and the Flit reconstruction when the sink is not
  /// logging (accept() only needs the tail flag then).
  virtual ConsumeSink* as_consume() { return nullptr; }
};

/// Unbounded sink consuming up to `rate` flits per cycle; records stats.
/// Self-clocked from the cycle passed to accept(), so it needs no step().
class ConsumeSink final : public Sink {
 public:
  explicit ConsumeSink(std::uint32_t rate = 1) : rate_(rate) {}
  bool accept(const Flit& flit, std::int64_t cycle) override;
  bool needs_step() const override { return false; }
  ConsumeSink* as_consume() override { return this; }

  bool logging() const { return keep_log_; }
  /// Devirtualized accept() for the non-logging case: identical rate and
  /// counter behavior, but the caller passes just the tail flag so the hot
  /// ejection path never materializes a Flit nobody stores.
  bool accept_fast(bool tail, std::int64_t cycle) {
    if (cycle != last_cycle_) {
      last_cycle_ = cycle;
      used_this_cycle_ = 0;
    }
    if (used_this_cycle_ >= rate_) return false;
    ++used_this_cycle_;
    ++flits_;
    if (tail) ++packets_;
    return true;
  }

  std::uint64_t flits() const { return flits_; }
  std::uint64_t packets() const { return packets_; }
  const std::vector<Flit>& log() const { return log_; }
  /// Arrival cycle of log()[i] (kept alongside the flit log).
  const std::vector<std::int64_t>& log_cycles() const { return log_cycles_; }
  /// Enable flit logging; `expected_flits` pre-reserves both log vectors so
  /// long traffic runs never reallocate mid-measurement.
  void keep_log(bool on, std::size_t expected_flits = 0) {
    keep_log_ = on;
    if (on && expected_flits > 0) {
      log_.reserve(expected_flits);
      log_cycles_.reserve(expected_flits);
    }
  }
  /// Drop logged flits (capacity is kept) so a sink can be reused across
  /// measurement windows without accumulating unbounded history.
  void clear_log() {
    log_.clear();
    log_cycles_.clear();
  }

 private:
  std::uint32_t rate_;
  std::uint32_t used_this_cycle_ = 0;
  std::int64_t last_cycle_ = -1;
  std::uint64_t flits_ = 0;
  std::uint64_t packets_ = 0;
  bool keep_log_ = false;
  std::vector<Flit> log_;
  std::vector<std::int64_t> log_cycles_;
};

/// Per-simulation activity counters feeding the ORION-style energy model.
struct MeshActivity {
  std::uint64_t buffer_writes = 0;    // flit enqueued into an input FIFO
  std::uint64_t buffer_reads = 0;     // flit dequeued
  std::uint64_t crossbar_traversals = 0;
  std::uint64_t link_traversals = 0;  // inter-router hops (not local)
  std::uint64_t arbitrations = 0;     // output allocations performed
  std::uint64_t injected_flits = 0;
  std::uint64_t ejected_flits = 0;
  std::uint64_t injected_packets = 0;
  std::uint64_t ejected_packets = 0;
};

}  // namespace psync::mesh
