// Differential equivalence of the SoA mesh datapath (mesh::Mesh) against
// the AoS test oracle (oracle::ReferenceMesh, tests/oracle/): identical
// traffic is run through both implementations and every observable — the
// per-flit ejection trace with its cycle stamps, the final activity
// counters, the Welford latency moments bit for bit, and the per-packet
// latency log — must match exactly.
// Patterns cover uniform random, transpose permutation, and hotspot traffic
// on 8x8 and 16x16 meshes, across seeds, both routing algorithms, and both
// the packed (V=1) and generic (V=2) VC layouts. The oracle visits every
// router on every cycle, so these runs also check the production mesh's
// wake rules; the memory-interface runs check its sleep on a busy sink and
// the stall fast-forward the same way.
#include "psync/mesh/mesh.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <ostream>
#include <type_traits>
#include <vector>

#include "oracle/reference_mesh.hpp"
#include "psync/common/rng.hpp"
#include "psync/mesh/memory_interface.hpp"

namespace psync::mesh {
namespace {

enum class Pattern { kUniform, kTranspose, kHotspot };

std::vector<PacketDesc> make_traffic(Pattern pattern, std::uint32_t dim,
                                     std::uint64_t seed, int packets) {
  const std::uint32_t nodes = dim * dim;
  std::vector<PacketDesc> out;
  out.reserve(static_cast<std::size_t>(packets));
  Rng rng(seed);
  for (int i = 0; i < packets; ++i) {
    PacketDesc d;
    d.src = static_cast<NodeId>(rng.next_u64() % nodes);
    switch (pattern) {
      case Pattern::kUniform:
        d.dst = static_cast<NodeId>(rng.next_u64() % nodes);
        break;
      case Pattern::kTranspose: {
        // dst = transpose of src's coordinates.
        const std::uint32_t x = d.src % dim;
        const std::uint32_t y = d.src / dim;
        d.dst = x * dim + y;
        break;
      }
      case Pattern::kHotspot:
        d.dst = (i & 1) != 0
                    ? (dim / 2) * dim + dim / 2
                    : static_cast<NodeId>(rng.next_u64() % nodes);
        break;
    }
    d.payload_flits = 1 + static_cast<std::uint32_t>(rng.next_u64() % 12);
    d.payload_base = rng.next_u64();
    d.release_cycle = static_cast<std::int64_t>(rng.next_u64() % 4000);
    out.push_back(d);
  }
  return out;
}

struct RunResult {
  std::int64_t final_cycle = 0;
  MeshActivity activity;
  // Welford moments, bit-cast so "identical" means identical float bits.
  std::uint64_t lat_count = 0;
  std::uint64_t lat_mean_bits = 0;
  std::uint64_t lat_m2_bits = 0;
  std::uint64_t lat_min_bits = 0;
  std::uint64_t lat_max_bits = 0;
  std::vector<double> latencies;
  // Ejection trace: every flit at every node, with its arrival cycle.
  std::vector<Flit> flits;
  std::vector<std::int64_t> flit_cycles;
};

// Net is mesh::Mesh or oracle::ReferenceMesh; both expose the same
// public surface.
template <class Net>
void capture_net(const Net& net, RunResult* r) {
  r->final_cycle = net.cycle();
  r->activity = net.activity();
  const auto& stats = net.packet_latency();
  r->lat_count = stats.count();
  r->lat_mean_bits = std::bit_cast<std::uint64_t>(stats.mean());
  r->lat_m2_bits = std::bit_cast<std::uint64_t>(stats.variance());
  r->lat_min_bits = std::bit_cast<std::uint64_t>(stats.min());
  r->lat_max_bits = std::bit_cast<std::uint64_t>(stats.max());
  r->latencies = net.latencies();
}

template <class Net>
RunResult run_one(Pattern pattern, std::uint32_t dim, std::uint64_t seed,
                  MeshParams mp) {
  mp.width = dim;
  mp.height = dim;
  Net net(mp);

  std::vector<ConsumeSink> sinks(net.nodes());
  for (NodeId n = 0; n < net.nodes(); ++n) {
    sinks[n].keep_log(true);
    net.set_sink(n, &sinks[n]);
  }
  net.record_latencies(true);

  const int packets = dim == 8 ? 600 : 1200;
  for (const auto& d : make_traffic(pattern, dim, seed, packets)) {
    net.inject(d);
  }
  EXPECT_TRUE(net.run_until_drained(10'000'000));
  EXPECT_EQ(net.in_flight_flits(), 0u);
  EXPECT_EQ(net.in_flight_packets(), 0u);

  RunResult r;
  capture_net(net, &r);
  for (const auto& s : sinks) {
    r.flits.insert(r.flits.end(), s.log().begin(), s.log().end());
    r.flit_cycles.insert(r.flit_cycles.end(), s.log_cycles().begin(),
                         s.log_cycles().end());
  }
  return r;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.final_cycle, b.final_cycle);

  EXPECT_EQ(a.activity.buffer_writes, b.activity.buffer_writes);
  EXPECT_EQ(a.activity.buffer_reads, b.activity.buffer_reads);
  EXPECT_EQ(a.activity.crossbar_traversals, b.activity.crossbar_traversals);
  EXPECT_EQ(a.activity.link_traversals, b.activity.link_traversals);
  EXPECT_EQ(a.activity.arbitrations, b.activity.arbitrations);
  EXPECT_EQ(a.activity.injected_flits, b.activity.injected_flits);
  EXPECT_EQ(a.activity.ejected_flits, b.activity.ejected_flits);
  EXPECT_EQ(a.activity.injected_packets, b.activity.injected_packets);
  EXPECT_EQ(a.activity.ejected_packets, b.activity.ejected_packets);

  EXPECT_EQ(a.lat_count, b.lat_count);
  EXPECT_EQ(a.lat_mean_bits, b.lat_mean_bits);
  EXPECT_EQ(a.lat_m2_bits, b.lat_m2_bits);
  EXPECT_EQ(a.lat_min_bits, b.lat_min_bits);
  EXPECT_EQ(a.lat_max_bits, b.lat_max_bits);

  ASSERT_EQ(a.latencies.size(), b.latencies.size());
  for (std::size_t i = 0; i < a.latencies.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.latencies[i]),
              std::bit_cast<std::uint64_t>(b.latencies[i]))
        << "latency " << i;
  }

  ASSERT_EQ(a.flits.size(), b.flits.size());
  ASSERT_EQ(a.flit_cycles.size(), b.flit_cycles.size());
  for (std::size_t i = 0; i < a.flits.size(); ++i) {
    const Flit& fa = a.flits[i];
    const Flit& fb = b.flits[i];
    ASSERT_EQ(fa.packet, fb.packet) << "flit " << i;
    ASSERT_EQ(fa.src, fb.src) << "flit " << i;
    ASSERT_EQ(fa.dst, fb.dst) << "flit " << i;
    ASSERT_EQ(fa.seq, fb.seq) << "flit " << i;
    ASSERT_EQ(fa.kind, fb.kind) << "flit " << i;
    ASSERT_EQ(fa.payload, fb.payload) << "flit " << i;
    ASSERT_EQ(a.flit_cycles[i], b.flit_cycles[i]) << "flit " << i;
  }
}

struct Config {
  Pattern pattern;
  std::uint32_t dim;
  MeshParams mp;
  const char* name;
};

// gtest prints a parameter into the test's listed name; printing only the
// name keeps ctest's names free of the pointer's load-address bytes.
void PrintTo(const Config& cfg, std::ostream* os) { *os << cfg.name; }

class MeshSoaIdentity : public ::testing::TestWithParam<Config> {};

TEST_P(MeshSoaIdentity, MatchesReferenceAcrossSeeds) {
  const Config& cfg = GetParam();
  for (std::uint64_t seed : {11ull, 212ull, 3333ull}) {
    const RunResult ref =
        run_one<oracle::ReferenceMesh>(cfg.pattern, cfg.dim, seed, cfg.mp);
    const RunResult soa = run_one<Mesh>(cfg.pattern, cfg.dim, seed, cfg.mp);
    expect_identical(ref, soa);
  }
}

MeshParams base_params() { return MeshParams{}; }

MeshParams with(RouteAlgo algo, std::uint32_t vcs) {
  MeshParams p;
  p.algo = algo;
  p.virtual_channels = vcs;
  return p;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, MeshSoaIdentity,
    ::testing::Values(
        Config{Pattern::kUniform, 8, base_params(), "uniform_8"},
        Config{Pattern::kTranspose, 8, base_params(), "transpose_8"},
        Config{Pattern::kHotspot, 8, base_params(), "hotspot_8"},
        Config{Pattern::kUniform, 16, base_params(), "uniform_16"},
        Config{Pattern::kTranspose, 16, base_params(), "transpose_16"},
        Config{Pattern::kHotspot, 16, base_params(), "hotspot_16"},
        Config{Pattern::kUniform, 8, with(RouteAlgo::kWestFirstAdaptive, 1),
               "uniform_8_westfirst"},
        Config{Pattern::kHotspot, 8, with(RouteAlgo::kWestFirstAdaptive, 1),
               "hotspot_8_westfirst"},
        Config{Pattern::kUniform, 8, with(RouteAlgo::kXY, 2), "uniform_8_v2"},
        Config{Pattern::kTranspose, 8, with(RouteAlgo::kWestFirstAdaptive, 2),
               "transpose_8_wf_v2"}),
    [](const ::testing::TestParamInfo<Config>& param_info) {
      return param_info.param.name;
    });

// Drains `net` within `cap` cycles. With `idle_skip`, through
// run_until_drained(), which may jump idle cycles; without, Mesh is
// stepped every cycle and the oracle runs with its own skip turned off.
template <class Net>
bool drain(Net& net, bool idle_skip, std::int64_t cap) {
  if constexpr (std::is_same_v<Net, oracle::ReferenceMesh>) {
    net.set_idle_skip(idle_skip);
  } else if (!idle_skip) {
    const std::int64_t limit = net.cycle() + cap;
    while (!net.drained() && net.cycle() < limit) net.step();
    return net.drained();
  }
  return net.run_until_drained(cap);
}

// Sparse traffic with the idle-skip fast-forward forced on or off.
template <class Net>
RunResult run_sparse(bool idle_skip) {
  MeshParams mp;
  mp.width = 8;
  mp.height = 8;
  Net net(mp);
  std::vector<ConsumeSink> sinks(net.nodes());
  for (NodeId n = 0; n < net.nodes(); ++n) {
    sinks[n].keep_log(true);
    net.set_sink(n, &sinks[n]);
  }
  net.record_latencies(true);
  Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    PacketDesc d;
    d.src = static_cast<NodeId>(rng.next_u64() % 64);
    d.dst = static_cast<NodeId>(rng.next_u64() % 64);
    d.payload_flits = 3;
    d.release_cycle = static_cast<std::int64_t>(i) * 4096;
    net.inject(d);
  }
  EXPECT_TRUE(drain(net, idle_skip, 10'000'000));
  RunResult r;
  capture_net(net, &r);
  for (const auto& s : sinks) {
    r.flits.insert(r.flits.end(), s.log().begin(), s.log().end());
    r.flit_cycles.insert(r.flit_cycles.end(), s.log_cycles().begin(),
                         s.log_cycles().end());
  }
  return r;
}

// The idle-skip fast-forward must be observationally invisible on both
// datapaths: sparse traffic with it forced off equals the skipped run.
TEST(MeshSoaIdentity, IdleSkipIsObservationallyIdentical) {
  const RunResult soa_naive = run_sparse<Mesh>(false);
  expect_identical(soa_naive, run_sparse<Mesh>(true));
  expect_identical(run_sparse<oracle::ReferenceMesh>(false),
                   run_sparse<oracle::ReferenceMesh>(true));
  expect_identical(soa_naive, run_sparse<oracle::ReferenceMesh>(true));
}

// --- memory-interface sinks ---------------------------------------------

MemoryInterfaceParams mi_params(std::uint32_t t_p, bool overlap) {
  MemoryInterfaceParams p;
  p.reorder_cycles_per_element = t_p;
  p.overlap_stages = overlap;
  return p;
}

struct MiRun {
  RunResult net;  // flits stay empty: the interfaces log their commits
  std::vector<std::int64_t> completion;
  std::vector<std::uint64_t> dram_write_cycles;
  std::vector<std::uint64_t> reorder_stall_cycles;
  // Every committed element, per interface in commit order: (source,
  // element index, payload word, mesh cycle).
  std::vector<std::array<std::uint64_t, 4>> commits;
};

void expect_identical(const MiRun& a, const MiRun& b) {
  expect_identical(a.net, b.net);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.dram_write_cycles, b.dram_write_cycles);
  EXPECT_EQ(a.reorder_stall_cycles, b.reorder_stall_cycles);
  EXPECT_EQ(a.commits, b.commits);
}

// The Table III transpose on an 8x8 mesh: every node streams 64 elements
// in 8-element packets to memory interfaces at one or four corner nodes
// (column-partitioned across ports, as the multiport machine does), and the
// loop runs until every interface has written its last row. With
// `fast_forward` the production mesh jumps over the cycles on which no
// router can act; the oracle always steps every cycle.
template <class Net>
MiRun run_memory_ports(std::uint32_t t_p, bool overlap, std::uint32_t ports,
                       bool fast_forward, std::uint32_t vcs = 1) {
  MeshParams mp;
  mp.width = 8;
  mp.height = 8;
  mp.virtual_channels = vcs;
  Net net(mp);
  net.record_latencies(true);
  constexpr std::uint32_t kPerNode = 64;
  constexpr std::uint32_t kPerPacket = 8;
  const NodeId corner[4] = {net.node_at(0, 0), net.node_at(7, 7),
                            net.node_at(7, 0), net.node_at(0, 7)};
  MiRun r;
  std::vector<std::unique_ptr<MemoryInterface>> mis;
  for (std::uint32_t p = 0; p < ports; ++p) {
    mis.push_back(std::make_unique<MemoryInterface>(
        mi_params(t_p, overlap),
        std::uint64_t{net.nodes()} * kPerNode / ports));
    mis.back()->set_collector(
        [&r, &net](NodeId src, std::uint64_t idx, std::uint64_t word) {
          r.commits.push_back({src, idx, word,
                               static_cast<std::uint64_t>(net.cycle())});
        });
    net.set_sink(corner[p], mis.back().get());
  }
  const std::uint32_t per_port = kPerNode / ports;
  for (NodeId n = 0; n < net.nodes(); ++n) {
    for (std::uint32_t p = 0; p < ports; ++p) {
      for (std::uint32_t e = 0; e < per_port; e += kPerPacket) {
        PacketDesc d;
        d.src = n;
        d.dst = corner[p];
        d.payload_flits = kPerPacket;
        d.payload_base = std::uint64_t{n} * kPerNode + p * per_port + e;
        net.inject(d);
      }
    }
  }
  const auto all_done = [&] {
    for (const auto& mi : mis) {
      if (!mi->done()) return false;
    }
    return true;
  };
  while (!all_done() && net.cycle() < 10'000'000) {
    if constexpr (std::is_same_v<Net, Mesh>) {
      if (fast_forward) net.fast_forward(10'000'000);
    }
    net.step();
  }
  EXPECT_TRUE(all_done());
  capture_net(net, &r.net);
  for (const auto& mi : mis) {
    r.completion.push_back(mi->completion_cycle());
    r.dram_write_cycles.push_back(mi->dram_write_cycles());
    r.reorder_stall_cycles.push_back(mi->reorder_stall_cycles());
  }
  return r;
}

TEST(MeshSoaIdentity, MemoryInterfacePortsMatchReference) {
  for (std::uint32_t t_p : {1u, 4u}) {
    for (bool overlap : {false, true}) {
      for (std::uint32_t ports : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "t_p " << t_p << " overlap "
                                        << overlap << " ports " << ports);
        expect_identical(
            run_memory_ports<oracle::ReferenceMesh>(t_p, overlap, ports, false),
            run_memory_ports<Mesh>(t_p, overlap, ports, true));
      }
    }
  }
  // The generic (V = 2) router path sleeps on a refused ejection too.
  for (std::uint32_t ports : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "V 2, ports " << ports);
    expect_identical(
        run_memory_ports<oracle::ReferenceMesh>(4, false, ports, false, 2),
        run_memory_ports<Mesh>(4, false, ports, true, 2));
  }
}

// The stall fast-forward is invisible: the fast-forwarded transpose ends on
// the same cycle, with the same activity, latency bits and commits, as the
// same run stepped one cycle at a time.
TEST(MeshSoaIdentity, FastForwardedTransposeEqualsSteppedEveryCycle) {
  for (std::uint32_t t_p : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "t_p " << t_p);
    const MiRun stepped = run_memory_ports<Mesh>(t_p, false, 1, false);
    const MiRun skipped = run_memory_ports<Mesh>(t_p, false, 1, true);
    expect_identical(stepped, skipped);
    EXPECT_GT(stepped.net.final_cycle, 0);
  }
}

// Sparse releases into one memory interface: bursts of packets from random
// sources arrive while it is still reordering and writing the previous
// ones, and quiet gaps separate the bursts. run_until_drained() (stalls
// and gaps jumped) and stepping every cycle must agree with each other and
// with the oracle.
template <class Net>
MiRun run_sparse_into_interface(bool idle_skip) {
  MeshParams mp;
  mp.width = 8;
  mp.height = 8;
  Net net(mp);
  net.record_latencies(true);
  constexpr int kPackets = 96;
  MiRun r;
  MemoryInterface mi(mi_params(4, false), std::uint64_t{kPackets} * 6);
  mi.set_collector([&r, &net](NodeId src, std::uint64_t idx,
                              std::uint64_t word) {
    r.commits.push_back(
        {src, idx, word, static_cast<std::uint64_t>(net.cycle())});
  });
  net.set_sink(net.node_at(3, 4), &mi);
  Rng rng(2024);
  for (int i = 0; i < kPackets; ++i) {
    PacketDesc d;
    d.src = static_cast<NodeId>(rng.next_u64() % net.nodes());
    d.dst = net.node_at(3, 4);
    d.payload_flits = 6;
    d.payload_base = static_cast<std::uint64_t>(i) * 6;
    // Bursts of eight every 1500 cycles, jittered inside the burst.
    d.release_cycle = static_cast<std::int64_t>(i / 8) * 1500 +
                      static_cast<std::int64_t>(rng.next_u64() % 40);
    net.inject(d);
  }
  EXPECT_TRUE(drain(net, idle_skip, 10'000'000));
  capture_net(net, &r.net);
  r.completion.push_back(mi.completion_cycle());
  r.dram_write_cycles.push_back(mi.dram_write_cycles());
  r.reorder_stall_cycles.push_back(mi.reorder_stall_cycles());
  return r;
}

TEST(MeshSoaIdentity, SparseReleasesIntoABusyInterfaceAreSkipInvariant) {
  const MiRun naive = run_sparse_into_interface<Mesh>(false);
  expect_identical(naive, run_sparse_into_interface<Mesh>(true));
  expect_identical(naive, run_sparse_into_interface<oracle::ReferenceMesh>(false));
  expect_identical(naive, run_sparse_into_interface<oracle::ReferenceMesh>(true));
  EXPECT_EQ(naive.commits.size(), 96u * 6);
}

}  // namespace
}  // namespace psync::mesh
