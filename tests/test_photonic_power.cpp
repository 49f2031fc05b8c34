#include "psync/photonic/power.hpp"

#include <gtest/gtest.h>

namespace psync::photonic {
namespace {

TEST(PowerDbm, AttenuationChainsLinearlyInDb) {
  PowerDbm p(3.0);
  const PowerDbm q = p.attenuated(DecibelsDb{1.5}).attenuated(DecibelsDb{2.5});
  EXPECT_DOUBLE_EQ(q.dbm(), -1.0);
  EXPECT_DOUBLE_EQ(q.amplified(DecibelsDb{4.0}).dbm(), 3.0);
}

TEST(PowerDbm, HalfPowerIs3Db) {
  PowerDbm p(0.0);  // 1 mW
  EXPECT_NEAR(p.attenuated(DecibelsDb{3.0103}).mw(), 0.5, 1e-4);
}

TEST(PowerDbm, Detectability) {
  PowerDbm p(-19.9);
  EXPECT_TRUE(p.detectable_by(DbmPower{-20.0}));
  EXPECT_FALSE(p.attenuated(DecibelsDb{0.2}).detectable_by(DbmPower{-20.0}));
  // Boundary counts as detectable (Eq. 1 uses >=).
  EXPECT_TRUE(PowerDbm(-20.0).detectable_by(DbmPower{-20.0}));
}

}  // namespace
}  // namespace psync::photonic
