#include "psync/core/comm_program.hpp"

#include <gtest/gtest.h>

#include "psync/common/check.hpp"

namespace psync::core {
namespace {

TEST(CpStride, ExpandsToEntries) {
  CpStride s{/*first=*/3, /*burst=*/2, /*stride=*/10, /*count=*/3,
             CpAction::kDrive};
  CommProgram cp;
  cp.add(s);
  const auto e = cp.entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].begin, 3);
  EXPECT_EQ(e[1].begin, 13);
  EXPECT_EQ(e[2].begin, 23);
  for (const auto& x : e) EXPECT_EQ(x.length, 2);
  EXPECT_EQ(s.slots(), 6);
  EXPECT_EQ(s.end(), 25);
}

TEST(CommProgram, EntriesSortedAcrossStrides) {
  CommProgram cp;
  cp.add(CpStride{100, 1, 1, 1, CpAction::kDrive});
  cp.add(CpStride{0, 1, 10, 5, CpAction::kListen});
  const auto e = cp.entries();
  ASSERT_EQ(e.size(), 6u);
  for (std::size_t i = 1; i < e.size(); ++i) {
    EXPECT_GT(e[i].begin, e[i - 1].begin);
  }
}

TEST(CommProgram, OverlapWithinProgramThrows) {
  CommProgram cp;
  cp.add(CpStride{0, 4, 4, 1, CpAction::kDrive});
  cp.add(CpStride{2, 4, 4, 1, CpAction::kDrive});
  EXPECT_THROW((void)cp.entries(), SimulationError);
}

TEST(CommProgram, SelfOverlappingStrideRejected) {
  CommProgram cp;
  EXPECT_THROW(cp.add(CpStride{0, 4, 2, 3, CpAction::kDrive}),
               SimulationError);
}

TEST(CommProgram, SlotCountsByAction) {
  CommProgram cp;
  cp.add(CpStride{0, 2, 8, 4, CpAction::kDrive});
  cp.add(CpStride{4, 1, 8, 4, CpAction::kListen});
  EXPECT_EQ(cp.slot_count(CpAction::kDrive), 8);
  EXPECT_EQ(cp.slot_count(CpAction::kListen), 4);
  EXPECT_EQ(cp.slot_count(CpAction::kPass), 0);
}

TEST(CommProgram, EncodeDecodeRoundTrips) {
  CommProgram cp;
  cp.add(CpStride{5, 3, 17, 9, CpAction::kDrive});
  cp.add(CpStride{1000000, 2, 4096, 100, CpAction::kListen});
  const auto bytes = cp.encode();
  const CommProgram back = CommProgram::decode(bytes);
  ASSERT_EQ(back.strides().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.strides()[i].first, cp.strides()[i].first);
    EXPECT_EQ(back.strides()[i].burst, cp.strides()[i].burst);
    EXPECT_EQ(back.strides()[i].stride, cp.strides()[i].stride);
    EXPECT_EQ(back.strides()[i].count, cp.strides()[i].count);
    EXPECT_EQ(back.strides()[i].action, cp.strides()[i].action);
  }
}

TEST(CommProgram, FftTransposeCpFitsIn96Bits) {
  // The paper: "CPs can be quite small, with the program for FFT being
  // approximately 96-bits." Node r of a 1024-processor transpose drives
  // slot r, then every 1024th slot, 1024 times: ONE stride record.
  CommProgram cp;
  cp.add(CpStride{711, 1, 1024, 1024, CpAction::kDrive});
  EXPECT_EQ(cp.encoded_bits(), kCpBitsPerStride);
  EXPECT_LE(cp.encoded_bits(), 96u);
}

TEST(CommProgram, EncodeRejectsOverflowingFields) {
  CommProgram cp;
  cp.add(CpStride{kCpMaxFirst + 1, 1, 1, 1, CpAction::kDrive});
  EXPECT_THROW((void)cp.encode(), SimulationError);
}

TEST(CommProgram, DecodeRejectsTruncatedStream) {
  CommProgram cp;
  cp.add(CpStride{1, 1, 1, 1, CpAction::kDrive});
  auto bytes = cp.encode();
  bytes.resize(bytes.size() - 2);
  EXPECT_THROW((void)CommProgram::decode(bytes), SimulationError);
}

TEST(CommProgram, InvalidFieldsRejectedOnAdd) {
  CommProgram cp;
  EXPECT_THROW(cp.add(CpStride{-1, 1, 1, 1, CpAction::kDrive}),
               SimulationError);
  EXPECT_THROW(cp.add(CpStride{0, 0, 1, 1, CpAction::kDrive}),
               SimulationError);
  EXPECT_THROW(cp.add(CpStride{0, 1, 1, 0, CpAction::kDrive}),
               SimulationError);
}

TEST(CommProgram, NonPositiveBurstOrCountRejectedOnAdd) {
  // add() is the only way a stride enters a program, so entries() never
  // meets one that would fail its internal checks.
  CommProgram cp;
  EXPECT_THROW(cp.add(CpStride{0, -3, 4, 2, CpAction::kDrive}),
               SimulationError);
  EXPECT_THROW(cp.add(CpStride{0, 1, 4, -2, CpAction::kListen}),
               SimulationError);
  EXPECT_TRUE(cp.empty());
}

TEST(CommProgram, DecodeRejectsInvalidStrides) {
  // Zero the 22-bit burst or count field of an encoded stride record
  // (after the 16-bit record count: 2b action, 24b first, 22b burst, 24b
  // stride, 22b count), or shrink the stride below the burst.
  CommProgram cp;
  cp.add(CpStride{5, 3, 17, 9, CpAction::kDrive});
  constexpr std::size_t kBurstBit = 16 + 2 + 24;
  constexpr std::size_t kStrideBit = kBurstBit + 22;
  constexpr std::size_t kCountBit = kStrideBit + 24;
  const auto clear_field = [&](std::size_t lo, std::size_t width) {
    auto bytes = cp.encode();
    for (std::size_t b = lo; b < lo + width; ++b) {
      bytes[b / 8] &= static_cast<std::uint8_t>(~(1U << (b % 8)));
    }
    return bytes;
  };
  EXPECT_THROW((void)CommProgram::decode(clear_field(kBurstBit, 22)),
               SimulationError);  // burst = 0
  EXPECT_THROW((void)CommProgram::decode(clear_field(kCountBit, 22)),
               SimulationError);  // count = 0
  EXPECT_THROW((void)CommProgram::decode(clear_field(kStrideBit, 24)),
               SimulationError);  // stride = 0 < burst, count 9
  EXPECT_NO_THROW((void)CommProgram::decode(cp.encode()));
}

TEST(CommProgram, ToStringNamesActions) {
  CommProgram cp;
  cp.add(CpStride{0, 1, 2, 2, CpAction::kDrive});
  cp.add(CpStride{1, 1, 2, 2, CpAction::kListen});
  const auto s = cp.to_string();
  EXPECT_NE(s.find("drive"), std::string::npos);
  EXPECT_NE(s.find("listen"), std::string::npos);
}

}  // namespace
}  // namespace psync::core
