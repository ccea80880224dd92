#include "kernels/address_stream.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/sim_error.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

KernelProfile test_profile() {
  KernelProfile p;
  p.name = "test";
  p.abbr = "TT";
  p.mem_fraction = 0.5;
  p.txns_per_mem_instr = 2;
  p.seq_locality = 0.8;
  p.working_set_bytes = 64ull << 20;
  p.warps_per_block = 8;
  return p;
}

TEST(AddressStreamTest, DeterministicForSameSeeds) {
  const KernelProfile p = test_profile();
  BlockStream b1 = AddressStream::make_block_stream(p, 42, 3);
  BlockStream b2 = AddressStream::make_block_stream(p, 42, 3);
  EXPECT_EQ(b1.base_line, b2.base_line);
  AddressStream s1(&p, 0, 42, 3, 1, &b1);
  AddressStream s2(&p, 0, 42, 3, 1, &b2);
  std::vector<u64> a1, a2;
  for (int i = 0; i < 200; ++i) {
    a1.clear();
    a2.clear();
    s1.next_mem_instr(a1);
    s2.next_mem_instr(a2);
    ASSERT_EQ(a1, a2);
    ASSERT_EQ(s1.next_compute_run(), s2.next_compute_run());
  }
}

TEST(AddressStreamTest, AddressesStayInsideAppCarveOut) {
  const KernelProfile p = test_profile();
  for (AppId app : {0, 1, 3}) {
    BlockStream b = AddressStream::make_block_stream(p, 7, 0);
    AddressStream s(&p, app, 7, 0, 0, &b);
    std::vector<u64> addrs;
    for (int i = 0; i < 500; ++i) s.next_mem_instr(addrs);
    const u64 lo = app_address_base(app);
    const u64 hi = lo + p.working_set_bytes;
    for (u64 a : addrs) {
      ASSERT_GE(a, lo);
      ASSERT_LT(a, hi);
      ASSERT_EQ(a % AddressStream::kLineBytes, 0u) << "line aligned";
    }
  }
}

TEST(AddressStreamTest, EmitsExactlyTxnsPerInstruction) {
  KernelProfile p = test_profile();
  p.txns_per_mem_instr = 4;
  BlockStream b = AddressStream::make_block_stream(p, 5, 0);
  AddressStream s(&p, 0, 5, 0, 0, &b);
  std::vector<u64> addrs;
  s.next_mem_instr(addrs);
  EXPECT_EQ(addrs.size(), 4u);
  s.next_mem_instr(addrs);
  EXPECT_EQ(addrs.size(), 8u);
}

TEST(AddressStreamTest, SharedCursorAdvancesAcrossWarps) {
  KernelProfile p = test_profile();
  p.seq_locality = 1.0;  // always coherent
  BlockStream block = AddressStream::make_block_stream(p, 11, 0);
  AddressStream w0(&p, 0, 11, 0, 0, &block);
  AddressStream w1(&p, 0, 11, 0, 1, &block);
  std::vector<u64> a0, a1;
  w0.next_mem_instr(a0);
  w1.next_mem_instr(a1);
  // Warp 1 continues exactly where warp 0 stopped.
  EXPECT_EQ(a1.front(), a0.back() + AddressStream::kLineBytes);
  EXPECT_EQ(block.cursor, 4u);  // 2 txns consumed by each warp
}

TEST(AddressStreamTest, FullySequentialStreamIsConsecutive) {
  KernelProfile p = test_profile();
  p.seq_locality = 1.0;
  p.hot_fraction = 0.0;
  BlockStream block = AddressStream::make_block_stream(p, 13, 2);
  AddressStream s(&p, 0, 13, 2, 0, &block);
  std::vector<u64> addrs;
  for (int i = 0; i < 100; ++i) s.next_mem_instr(addrs);
  for (std::size_t i = 1; i < addrs.size(); ++i) {
    ASSERT_EQ(addrs[i], addrs[i - 1] + AddressStream::kLineBytes);
  }
}

TEST(AddressStreamTest, HotFractionRoughlyHonoured) {
  KernelProfile p = test_profile();
  p.hot_fraction = 0.4;
  p.hot_set_bytes = 256 << 10;
  BlockStream b = AddressStream::make_block_stream(p, 3, 0);
  AddressStream s(&p, 0, 3, 0, 0, &b);
  const u64 hot_end =
      app_address_base(0) + p.hot_set_bytes;
  int hot = 0;
  constexpr int kInstrs = 20000;
  std::vector<u64> addrs;
  for (int i = 0; i < kInstrs; ++i) {
    addrs.clear();
    s.next_mem_instr(addrs);
    if (addrs.front() < hot_end) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot) / kInstrs, 0.4, 0.03);
}

TEST(AddressStreamTest, ScatterBalancesAcrossPartitions) {
  // Regression test: row-span-aligned scatter bases are multiples of the
  // partition count, so without the in-row offset every scattered access
  // would land on partition 0.
  KernelProfile p = test_profile();
  p.seq_locality = 0.0;  // all scatter
  p.txns_per_mem_instr = 1;
  BlockStream b = AddressStream::make_block_stream(p, 17, 0);
  AddressStream s(&p, 0, 17, 0, 0, &b);
  std::map<int, int> partition_counts;
  std::vector<u64> addrs;
  constexpr int kInstrs = 12000;
  for (int i = 0; i < kInstrs; ++i) {
    addrs.clear();
    s.next_mem_instr(addrs);
    ++partition_counts[static_cast<int>((addrs[0] / 128) % 6)];
  }
  for (int part = 0; part < 6; ++part) {
    EXPECT_NEAR(partition_counts[part], kInstrs / 6.0, kInstrs / 6.0 * 0.15)
        << "partition " << part;
  }
}

TEST(AddressStreamTest, ComputeRunLengthNearMean) {
  KernelProfile p = test_profile();
  p.mem_fraction = 0.1;  // mean run = 9
  BlockStream b = AddressStream::make_block_stream(p, 23, 0);
  AddressStream s(&p, 0, 23, 0, 0, &b);
  double total = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const u64 run = s.next_compute_run();
    EXPECT_GE(run, 4u);   // >= 0.5 * mean (rounded)
    EXPECT_LE(run, 14u);  // <= 1.5 * mean (rounded)
    total += static_cast<double>(run);
  }
  EXPECT_NEAR(total / kDraws, 9.0, 0.25);
}

TEST(AddressStreamTest, RejectsHotSetFillingTheWorkingSet) {
  KernelProfile p = test_profile();
  p.working_set_bytes = 1 << 20;
  p.hot_set_bytes = 1 << 20;  // no streaming lines left
  BlockStream b;
  try {
    AddressStream s(&p, 0, 42, 0, 0, &b);
    FAIL() << "built a stream with an empty streaming region";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
  }
}

TEST(AddressStreamTest, RejectsMissingBlockStream) {
  const KernelProfile p = test_profile();
  try {
    AddressStream s(&p, 0, 42, 0, 0, nullptr);
    FAIL() << "built a warp stream without its block's shared cursor";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kInvariant) << e.what();
  }
}

class AllAppsStreamTest : public ::testing::TestWithParam<int> {};

TEST_P(AllAppsStreamTest, RegistryProfileGeneratesValidStream) {
  const KernelProfile& p = app_registry()[GetParam()];
  BlockStream b = AddressStream::make_block_stream(p, 42, 0);
  AddressStream s(&p, 2, 42, 0, 0, &b);
  std::vector<u64> addrs;
  for (int i = 0; i < 1000; ++i) s.next_mem_instr(addrs);
  EXPECT_EQ(addrs.size(), 1000u * p.txns_per_mem_instr);
  const u64 lo = app_address_base(2);
  for (u64 a : addrs) {
    ASSERT_GE(a, lo);
    ASSERT_LT(a, lo + p.working_set_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, AllAppsStreamTest, ::testing::Range(0, 15),
                         [](const auto& info) {
                           return app_registry()[info.param].abbr;
                         });

}  // namespace
}  // namespace gpusim
