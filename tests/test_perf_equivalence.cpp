// Equivalence tests for the perf fast paths: every optimization in the
// mesh, FFT, and reliability layers must be observationally identical to
// the reference implementation it replaced. These tests run both sides on
// the same inputs and require bit-identical outputs, stats, and reports —
// the fast paths buy wall-clock time, never different answers.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "oracle/codec.hpp"
#include "oracle/fft_stages.hpp"
#include "psync/common/rng.hpp"
#include "psync/fft/fft.hpp"
#include "psync/mesh/mesh.hpp"
#include "psync/reliability/crc32.hpp"
#include "psync/reliability/fault_model.hpp"
#include "psync/reliability/framing.hpp"
#include "psync/reliability/secded.hpp"

namespace psync {
namespace {

// --- mesh: idle-cycle skip --------------------------------------------

struct MeshOutcome {
  std::int64_t final_cycle = 0;
  mesh::MeshActivity activity;
  std::uint64_t latency_count = 0;
  double latency_sum = 0.0;
  double latency_min = 0.0;
  double latency_max = 0.0;
  std::vector<std::uint64_t> payloads;   // every ejected flit, all sinks
  std::vector<std::int64_t> eject_cycles;

  bool operator==(const MeshOutcome& o) const {
    return final_cycle == o.final_cycle &&
           std::memcmp(&activity, &o.activity, sizeof(activity)) == 0 &&
           latency_count == o.latency_count && latency_sum == o.latency_sum &&
           latency_min == o.latency_min && latency_max == o.latency_max &&
           payloads == o.payloads && eject_cycles == o.eject_cycles;
  }
};

MeshOutcome run_mesh(const mesh::MeshParams& mp,
                     const std::vector<mesh::PacketDesc>& packets,
                     bool idle_skip) {
  mesh::Mesh net(mp);
  std::vector<mesh::ConsumeSink> sinks(net.nodes());
  for (mesh::NodeId n = 0; n < net.nodes(); ++n) {
    sinks[n].keep_log(true);
    net.set_sink(n, &sinks[n]);
  }
  for (const auto& d : packets) net.inject(d);
  if (idle_skip) {
    EXPECT_TRUE(net.run_until_drained(20'000'000));
  } else {
    // The naive side: every cycle stepped, none fast-forwarded.
    while (!net.drained() && net.cycle() < 20'000'000) net.step();
    EXPECT_TRUE(net.drained());
  }

  MeshOutcome out;
  out.final_cycle = net.cycle();
  out.activity = net.activity();
  out.latency_count = net.packet_latency().count();
  out.latency_sum = net.packet_latency().sum();
  out.latency_min = net.packet_latency().min();
  out.latency_max = net.packet_latency().max();
  for (mesh::NodeId n = 0; n < net.nodes(); ++n) {
    for (const auto& f : sinks[n].log()) out.payloads.push_back(f.payload);
    for (std::int64_t c : sinks[n].log_cycles()) out.eject_cycles.push_back(c);
  }
  return out;
}

void expect_skip_equivalent(const mesh::MeshParams& mp,
                            const std::vector<mesh::PacketDesc>& packets) {
  const MeshOutcome fast = run_mesh(mp, packets, true);
  const MeshOutcome naive = run_mesh(mp, packets, false);
  EXPECT_TRUE(fast == naive)
      << "idle-skip changed observable behavior: cycle " << fast.final_cycle
      << " vs " << naive.final_cycle << ", ejected " << fast.payloads.size()
      << " vs " << naive.payloads.size();
}

std::vector<mesh::PacketDesc> sparse_random_traffic(std::uint32_t nodes,
                                                    std::uint64_t seed) {
  // Releases spread tens of thousands of cycles apart: the drain is almost
  // entirely idle, so every skipped cycle gets exercised.
  Rng rng(seed);
  std::vector<mesh::PacketDesc> packets;
  for (int i = 0; i < 50; ++i) {
    mesh::PacketDesc d;
    d.src = static_cast<mesh::NodeId>(rng.next_u64() % nodes);
    d.dst = static_cast<mesh::NodeId>(rng.next_u64() % nodes);
    d.payload_flits = 1 + static_cast<std::uint32_t>(rng.next_u64() % 12);
    d.payload_base = static_cast<std::uint64_t>(i) << 20;
    d.release_cycle = static_cast<std::int64_t>(rng.next_u64() % 2'000'000);
    packets.push_back(d);
  }
  return packets;
}

TEST(MeshIdleSkip, SparseRandomTrafficIdentical) {
  mesh::MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  expect_skip_equivalent(mp, sparse_random_traffic(16, 1));
}

TEST(MeshIdleSkip, BurstyClustersIdentical) {
  // Bursts of overlapping packets separated by long idle gaps: the skip
  // must engage between bursts but never inside one.
  mesh::MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  std::vector<mesh::PacketDesc> packets;
  Rng rng(7);
  for (int burst = 0; burst < 6; ++burst) {
    const std::int64_t t0 = burst * 500'000;
    for (int i = 0; i < 12; ++i) {
      mesh::PacketDesc d;
      d.src = static_cast<mesh::NodeId>(rng.next_u64() % 16);
      d.dst = static_cast<mesh::NodeId>(rng.next_u64() % 16);
      d.payload_flits = 4;
      d.release_cycle = t0 + static_cast<std::int64_t>(rng.next_u64() % 40);
      packets.push_back(d);
    }
  }
  expect_skip_equivalent(mp, packets);
}

TEST(MeshIdleSkip, ScatterFromCornerIdentical) {
  // Multicast-like delivery: the corner node streams one packet to every
  // node in rounds, widely spaced.
  mesh::MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  std::vector<mesh::PacketDesc> packets;
  for (int round = 0; round < 3; ++round) {
    for (mesh::NodeId n = 0; n < 16; ++n) {
      mesh::PacketDesc d;
      d.src = 0;
      d.dst = n;
      d.payload_flits = 8;
      d.payload_base = static_cast<std::uint64_t>(round) * 100;
      d.release_cycle = round * 300'000 + n * 7;
      packets.push_back(d);
    }
  }
  expect_skip_equivalent(mp, packets);
}

TEST(MeshIdleSkip, GatherToCornerIdentical) {
  mesh::MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  std::vector<mesh::PacketDesc> packets;
  for (int round = 0; round < 3; ++round) {
    for (mesh::NodeId n = 0; n < 16; ++n) {
      mesh::PacketDesc d;
      d.src = n;
      d.dst = 0;
      d.payload_flits = 6;
      d.release_cycle = round * 250'000 + n * 3;
      packets.push_back(d);
    }
  }
  expect_skip_equivalent(mp, packets);
}

TEST(MeshIdleSkip, VirtualChannelsAndWestFirstIdentical) {
  mesh::MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  mp.virtual_channels = 2;
  mp.buffer_depth = 3;  // non-power-of-two: exercises the masked FIFO
  mp.algo = mesh::RouteAlgo::kWestFirstAdaptive;
  expect_skip_equivalent(mp, sparse_random_traffic(16, 2));
}

TEST(MeshIdleSkip, ReleaseAtOrBeforeCurrentCycleIdentical) {
  // Packets whose release cycle is already due when injected (release 0)
  // alongside far-future ones.
  mesh::MeshParams mp;
  mp.width = 2;
  mp.height = 2;
  std::vector<mesh::PacketDesc> packets;
  for (int i = 0; i < 4; ++i) {
    mesh::PacketDesc d;
    d.src = static_cast<mesh::NodeId>(i);
    d.dst = static_cast<mesh::NodeId>(3 - i);
    d.payload_flits = 2;
    d.release_cycle = 0;
    packets.push_back(d);
    d.release_cycle = 1'000'000 + i;
    packets.push_back(d);
  }
  expect_skip_equivalent(mp, packets);
}

// --- fft: fused kernel vs the strided radix-2 oracle ---------------------
//
// These compare whatever run_stages dispatches to in this process (AVX2 or
// NEON bodies when the CPU has them, the scalar loops under
// PSYNC_FORCE_SCALAR=1) with oracle::StridedFft; ctest runs them once each
// way.

std::vector<fft::Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<fft::Complex> x(n);
  for (auto& v : x) v = {rng.next_double() - 0.5, rng.next_double() - 0.5};
  return x;
}

bool bit_identical(const std::vector<fft::Complex>& a,
                   const std::vector<fft::Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(fft::Complex)) == 0;
}

TEST(FftFastKernel, ForwardBitIdenticalToReferenceAcrossSizes) {
  for (std::size_t n = 2; n <= 4096; n *= 2) {
    const auto input = random_signal(n, 1000 + n);
    fft::FftPlan plan(n);

    auto fast = input;
    const auto fast_ops = plan.forward(fast);

    auto ref = input;
    const auto ref_ops = oracle::StridedFft(n).forward(ref);

    EXPECT_TRUE(bit_identical(fast, ref)) << "n=" << n;
    EXPECT_EQ(fast_ops.butterflies, ref_ops.butterflies) << "n=" << n;
    EXPECT_EQ(fast_ops.real_mults, ref_ops.real_mults) << "n=" << n;
    EXPECT_EQ(fast_ops.real_adds, ref_ops.real_adds) << "n=" << n;
  }
}

TEST(FftFastKernel, BlockedForwardBitIdenticalToReference) {
  const std::size_t n = 1024;
  const auto input = random_signal(n, 31);
  fft::FftPlan plan(n);
  const oracle::StridedFft strided(n);
  for (std::size_t k : {1u, 4u, 16u}) {
    auto fast = input;
    plan.forward_blocked(fast, k);

    auto ref = input;
    strided.forward_blocked(ref, k);

    EXPECT_TRUE(bit_identical(fast, ref)) << "k=" << k;
  }
}

// Every stage window the machines can run: for each (first, last) pair,
// once over the whole row and once per power-of-two block size that holds
// the window's widest butterfly, with every block of the row in turn at
// offsets j * block_size — the calls PsyncMachine's Model II issues through
// Processor::fft_row_stages. Data and op counts must match bit for bit.
TEST(FftFastKernel, RunStagesMatchesOracleOnEveryStageWindow) {
  const auto same_ops = [](const fft::OpCount& a, const fft::OpCount& b) {
    return a.butterflies == b.butterflies && a.real_mults == b.real_mults &&
           a.real_adds == b.real_adds;
  };
  for (std::size_t n = 1; n <= 4096; n *= 2) {
    const fft::FftPlan plan(n);
    const oracle::StridedFft strided(n);
    const std::size_t log2n = plan.log2n();
    const auto input = random_signal(n, 5000 + n);
    for (std::size_t last = 0; last <= log2n; ++last) {
      for (std::size_t first = 0; first <= last; ++first) {
        const std::string window = "n=" + std::to_string(n) + " stages [" +
                                   std::to_string(first) + ", " +
                                   std::to_string(last) + ")";
        auto fast = input;
        auto ref = input;
        EXPECT_TRUE(same_ops(plan.run_stages(fast, first, last),
                             oracle::run_stages(ref, first, last)))
            << window;
        ASSERT_TRUE(bit_identical(fast, ref)) << window;

        for (std::size_t bs = std::size_t{1} << last; bs <= n; bs *= 2) {
          fast = input;
          ref = input;
          for (std::size_t off = 0; off < n; off += bs) {
            ASSERT_TRUE(same_ops(plan.run_stages(fast, first, last, off, bs),
                                 strided.run_stages(ref, first, last, off, bs)))
                << window << " block " << bs << " @" << off;
          }
          ASSERT_TRUE(bit_identical(fast, ref)) << window << " block " << bs;
        }
      }
    }
  }
}

// --- reliability: batched codec vs per-word reference ------------------

TEST(ReliabilityBatch, Crc32SliceBy8MatchesBytewise) {
  Rng rng(5);
  std::vector<std::uint8_t> buf(4096);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  // All lengths 0..257 plus odd offsets: every tail/alignment path.
  for (std::size_t len = 0; len <= 257; ++len) {
    for (std::size_t off : {0u, 1u, 3u, 7u}) {
      const std::uint32_t fast =
          reliability::crc32_update(reliability::kCrc32Init, buf.data() + off,
                                    len);
      const std::uint32_t ref = oracle::crc32_update(
          reliability::kCrc32Init, buf.data() + off, len);
      ASSERT_EQ(fast, ref) << "len=" << len << " off=" << off;
    }
  }
  // Chained updates must agree too (CRC is stateful across blocks).
  std::uint32_t fast = reliability::kCrc32Init;
  std::uint32_t ref = reliability::kCrc32Init;
  for (std::size_t off = 0; off < 4096; off += 123) {
    const std::size_t len = std::min<std::size_t>(123, 4096 - off);
    fast = reliability::crc32_update(fast, buf.data() + off, len);
    ref = oracle::crc32_update(ref, buf.data() + off, len);
  }
  EXPECT_EQ(reliability::crc32_finalize(fast),
            reliability::crc32_finalize(ref));
}

TEST(ReliabilityBatch, SecdedWordBatchMatchesPerWord) {
  Rng rng(6);
  const std::size_t kCount = 512;
  std::vector<std::uint64_t> data(kCount);
  for (auto& w : data) w = rng.next_u64();

  std::vector<std::uint8_t> batch_checks(kCount);
  reliability::secded_encode_words(data.data(), kCount, batch_checks.data());
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(batch_checks[i], reliability::secded_encode(data[i])) << i;
  }

  // Corrupt a mix: clean words, single data-bit flips, check-bit flips,
  // and double errors.
  std::vector<std::uint64_t> rx = data;
  std::vector<std::uint8_t> rx_checks = batch_checks;
  for (std::size_t i = 0; i < kCount; ++i) {
    switch (i % 5) {
      case 1: rx[i] ^= std::uint64_t{1} << (i % 64); break;
      case 2: rx_checks[i] ^= static_cast<std::uint8_t>(1U << (i % 8)); break;
      case 3:
        rx[i] ^= (std::uint64_t{1} << (i % 64)) |
                 (std::uint64_t{1} << ((i + 17) % 64));
        break;
      default: break;  // clean
    }
  }

  for (bool correct : {true, false}) {
    std::vector<std::uint64_t> batch_out(kCount);
    reliability::SecdedWordStats stats;
    reliability::secded_decode_words(rx.data(), rx_checks.data(), kCount,
                                     correct, batch_out.data(), &stats);
    std::vector<std::uint64_t> ref_out(kCount);
    reliability::SecdedWordStats ref_stats;
    oracle::secded_decode_words(rx.data(), rx_checks.data(), kCount, correct,
                                ref_out.data(), &ref_stats);
    ASSERT_EQ(batch_out, ref_out);
    EXPECT_EQ(stats.flagged_words, ref_stats.flagged_words);
    EXPECT_EQ(stats.double_errors, ref_stats.double_errors);
    EXPECT_EQ(stats.corrected_bits, ref_stats.corrected_bits);
  }
}

TEST(ReliabilityBatch, FramingMatchesReferenceCleanAndCorrupted) {
  Rng rng(8);
  for (std::size_t n : {1u, 7u, 8u, 9u, 64u}) {
    std::vector<std::uint64_t> payload(n);
    for (auto& w : payload) w = rng.next_u64();

    std::vector<std::uint64_t> wire, wire_ref;
    reliability::encode_block(payload.data(), n, &wire);
    oracle::encode_block(payload.data(), n, &wire_ref);
    ASSERT_EQ(wire, wire_ref) << "n=" << n;

    // Clean decode.
    auto check_decode = [&](const std::vector<std::uint64_t>& rx) {
      for (bool correct : {true, false}) {
        reliability::BlockDecode fast;
        reliability::decode_block_into(rx.data(), n, correct, &fast);
        const auto ref =
            oracle::decode_block(rx.data(), n, correct);
        ASSERT_EQ(fast.payload, ref.payload);
        ASSERT_EQ(fast.corrected_bits, ref.corrected_bits);
        ASSERT_EQ(fast.double_errors, ref.double_errors);
        ASSERT_EQ(fast.flagged_words, ref.flagged_words);
        ASSERT_EQ(fast.crc_ok, ref.crc_ok);
        // decode_block_into with a dirty, reused output buffer.
        reliability::BlockDecode into;
        into.payload.assign(99, 0xdeadbeef);
        into.corrected_bits = 123;
        reliability::decode_block_into(rx.data(), n, correct, &into);
        ASSERT_EQ(into.payload, ref.payload);
        ASSERT_EQ(into.corrected_bits, ref.corrected_bits);
        ASSERT_EQ(into.double_errors, ref.double_errors);
        ASSERT_EQ(into.flagged_words, ref.flagged_words);
        ASSERT_EQ(into.crc_ok, ref.crc_ok);
      }
    };
    check_decode(wire);

    // Single-bit, double-bit, and CRC-slot corruption.
    auto rx = wire;
    rx[0] ^= 1;
    check_decode(rx);
    rx = wire;
    rx[n / 2] ^= 0b101;
    check_decode(rx);
    rx = wire;
    rx[n] ^= std::uint64_t{1} << 40;  // CRC word
    check_decode(rx);
    rx = wire;
    rx.back() ^= std::uint64_t{1} << 63;  // packed check slot
    check_decode(rx);
  }
}

TEST(ReliabilityBatch, CorruptWordsMatchesPerWordStream) {
  for (double ber : {0.0, 1e-6, 1e-3, 0.05}) {
    for (bool dead_lane : {false, true}) {
      reliability::FaultModel model;
      model.random_ber = ber;
      model.seed = 42;
      if (dead_lane) model.dead_wavelengths = {5, 40};

      Rng rng(9);
      std::vector<std::uint64_t> in(2048);
      for (auto& w : in) w = rng.next_u64();

      reliability::FaultStream batch_stream(model);
      reliability::FaultStream word_stream(model);
      std::vector<std::uint64_t> batch_out(in.size());
      std::vector<std::uint64_t> word_out(in.size());
      reliability::FaultReport batch_rep, word_rep;

      // Mixed call sizes so batching straddles bulk-copy boundaries.
      std::size_t off = 0;
      const std::size_t sizes[] = {1, 3, 64, 500, 1000, 480};
      for (std::size_t s : sizes) {
        batch_stream.corrupt_words(in.data() + off, batch_out.data() + off, s,
                                   &batch_rep);
        off += s;
      }
      ASSERT_EQ(off, in.size());
      for (std::size_t i = 0; i < in.size(); ++i) {
        word_out[i] = word_stream.corrupt(in[i], &word_rep);
      }

      ASSERT_EQ(batch_out, word_out) << "ber=" << ber;
      EXPECT_EQ(batch_rep.words_total, word_rep.words_total);
      EXPECT_EQ(batch_rep.words_corrupted, word_rep.words_corrupted);
      EXPECT_EQ(batch_rep.bits_flipped, word_rep.bits_flipped);
      EXPECT_EQ(batch_rep.bits_silenced, word_rep.bits_silenced);

      // In-place corruption (out == in) must give the same answer.
      reliability::FaultStream inplace_stream(model);
      std::vector<std::uint64_t> inplace = in;
      inplace_stream.corrupt_words(inplace.data(), inplace.data(),
                                   inplace.size(), nullptr);
      EXPECT_EQ(inplace, word_out) << "ber=" << ber;
    }
  }
}

}  // namespace
}  // namespace psync
