#include <gtest/gtest.h>

#include "hw/debug_registers.h"

namespace kivati {
namespace {

TEST(DebugRegistersTest, DefaultsMatchX86) {
  DebugRegisterFile regs;
  EXPECT_EQ(regs.count(), 4u);
  for (unsigned i = 0; i < regs.count(); ++i) {
    EXPECT_FALSE(regs.Get(i).enabled);
  }
}

TEST(DebugRegistersTest, MatchRequiresEnabledAndType) {
  DebugRegisterFile regs;
  regs.Set(1, 0x1000, 8, WatchType::kWrite);
  EXPECT_FALSE(regs.Match(0x1000, 8, AccessType::kRead).has_value());
  ASSERT_TRUE(regs.Match(0x1000, 8, AccessType::kWrite).has_value());
  EXPECT_EQ(regs.Match(0x1000, 8, AccessType::kWrite).value(), 1u);
  regs.Clear(1);
  EXPECT_FALSE(regs.Match(0x1000, 8, AccessType::kWrite).has_value());
}

TEST(DebugRegistersTest, OverlapSemantics) {
  DebugRegisterFile regs;
  regs.Set(0, 0x1000, 4, WatchType::kReadWrite);
  // Access overlapping the low half.
  EXPECT_TRUE(regs.Match(0x0FFE, 4, AccessType::kRead).has_value());
  // Access overlapping the high byte.
  EXPECT_TRUE(regs.Match(0x1003, 1, AccessType::kWrite).has_value());
  // Adjacent but disjoint accesses.
  EXPECT_FALSE(regs.Match(0x1004, 4, AccessType::kRead).has_value());
  EXPECT_FALSE(regs.Match(0x0FFC, 4, AccessType::kRead).has_value());
}

TEST(DebugRegistersTest, LowestSlotWins) {
  DebugRegisterFile regs;
  regs.Set(2, 0x1000, 8, WatchType::kReadWrite);
  regs.Set(0, 0x1000, 8, WatchType::kReadWrite);
  EXPECT_EQ(regs.Match(0x1000, 8, AccessType::kRead).value(), 0u);
}

TEST(DebugRegistersTest, ConfigurableCountForTable9Sweep) {
  for (unsigned count = 2; count <= 12; ++count) {
    DebugRegisterFile regs(count);
    EXPECT_EQ(regs.count(), count);
    regs.Set(count - 1, 0x2000, 8, WatchType::kRead);
    EXPECT_TRUE(regs.Match(0x2000, 8, AccessType::kRead).has_value());
  }
}

TEST(DebugRegistersTest, GenerationAdvancesOnMutation) {
  DebugRegisterFile regs;
  const std::uint64_t g0 = regs.generation();
  regs.Set(0, 0x1000, 8, WatchType::kRead);
  const std::uint64_t g1 = regs.generation();
  EXPECT_GT(g1, g0);
  regs.Clear(0);
  EXPECT_GT(regs.generation(), g1);
}

TEST(DebugRegistersTest, ArmedSummaryTracksSetAndClear) {
  DebugRegisterFile regs;
  EXPECT_FALSE(regs.any_armed());
  EXPECT_FALSE(regs.MayMatch(0x1000, 8));

  regs.Set(0, 0x1000, 8, WatchType::kWrite);
  regs.Set(1, 0x2000, 4, WatchType::kRead);
  EXPECT_TRUE(regs.any_armed());
  EXPECT_TRUE(regs.MayMatch(0x1000, 8));
  EXPECT_TRUE(regs.MayMatch(0x2000, 4));
  // Inside the [min, max-end) hull but between the two regions: MayMatch is
  // a range-hull filter, so it conservatively says yes.
  EXPECT_TRUE(regs.MayMatch(0x1800, 8));
  // Entirely outside the hull on both sides.
  EXPECT_FALSE(regs.MayMatch(0x0, 8));
  EXPECT_FALSE(regs.MayMatch(0xF00, 0x100));  // ends exactly at min
  EXPECT_FALSE(regs.MayMatch(0x2004, 8));     // starts exactly at max end

  regs.Clear(1);
  EXPECT_TRUE(regs.any_armed());
  EXPECT_FALSE(regs.MayMatch(0x2000, 4));  // hull shrank back to slot 0

  regs.ClearAll();
  EXPECT_FALSE(regs.any_armed());
  EXPECT_FALSE(regs.MayMatch(0x1000, 8));
}

// MayMatch must never reject an access Match would trap on: both engines
// uses it to skip old-value capture, which is only sound for accesses that
// cannot trap.
TEST(DebugRegistersTest, MayMatchIsSupersetOfMatch) {
  DebugRegisterFile regs;
  regs.Set(0, 0x100, 4, WatchType::kWrite);
  regs.Set(2, 0x140, 8, WatchType::kReadWrite);
  regs.Set(3, 0x240, 1, WatchType::kRead);
  for (Addr addr = 0xE0; addr < 0x260; ++addr) {
    for (const unsigned size : {1u, 2u, 4u, 8u}) {
      for (const AccessType type : {AccessType::kRead, AccessType::kWrite}) {
        if (regs.Match(addr, size, type).has_value()) {
          EXPECT_TRUE(regs.MayMatch(addr, size)) << "addr=" << addr << " size=" << size;
        }
      }
    }
  }
}

TEST(DebugRegistersTest, CopyFromReplicatesArmedSummary) {
  DebugRegisterFile canonical;
  canonical.Set(1, 0x5000, 8, WatchType::kReadWrite);
  DebugRegisterFile core;
  core.CopyFrom(canonical);
  EXPECT_TRUE(core.any_armed());
  EXPECT_TRUE(core.MayMatch(0x5000, 8));
  EXPECT_FALSE(core.MayMatch(0x6000, 8));
  canonical.ClearAll();
  DebugRegisterFile cleared;
  cleared.Set(0, 0x1, 1, WatchType::kRead);
  cleared.CopyFrom(canonical);
  EXPECT_FALSE(cleared.any_armed());
  EXPECT_FALSE(cleared.MayMatch(0x1, 1));
}

TEST(DebugRegistersTest, CopyFromReplicatesImageAndGeneration) {
  DebugRegisterFile canonical;
  canonical.Set(3, 0xBEEF, 4, WatchType::kWrite);
  DebugRegisterFile core;
  core.CopyFrom(canonical);
  EXPECT_EQ(core.generation(), canonical.generation());
  ASSERT_TRUE(core.Match(0xBEEF, 4, AccessType::kWrite).has_value());
  EXPECT_EQ(core.Match(0xBEEF, 4, AccessType::kWrite).value(), 3u);
}

}  // namespace
}  // namespace kivati
