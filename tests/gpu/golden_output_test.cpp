// Golden-output pins: fixed short co-runs whose final state hash, snapshot
// bytes and per-app instruction totals are recorded constants.  The warp
// scheduler, the address streams and the memory pipeline all feed these
// numbers, so any change to which warp issues on which cycle — even one
// that keeps every aggregate statistic plausible — fails here.  A change
// that alters simulated behaviour on purpose must re-record the constants
// and say why.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/simstate.hpp"
#include "gpu/simulator.hpp"
#include "harness/runner.hpp"
#include "kernels/app_registry.hpp"
#include "sched/policies.hpp"

namespace gpusim {
namespace {

constexpr Cycle kCycles = 30'000;

struct Golden {
  u64 state_hash;
  u64 snapshot_digest;
  u64 snapshot_bytes;
  u64 instructions_app0;
  u64 instructions_app1;
};

void expect_golden(const Simulation& sim, const Golden& want) {
  StateWriter w;
  sim.save(w);
  Hasher h;
  for (u8 b : w.bytes()) h.put_u8(b);
  EXPECT_EQ(sim.state_hash(), want.state_hash);
  EXPECT_EQ(h.digest(), want.snapshot_digest);
  EXPECT_EQ(w.bytes().size(), want.snapshot_bytes);
  EXPECT_EQ(sim.gpu().instructions().total(0), want.instructions_app0);
  EXPECT_EQ(sim.gpu().instructions().total(1), want.instructions_app1);
}

std::unique_ptr<Simulation> make_pair(const GpuConfig& cfg,
                                      const KernelProfile& a,
                                      const KernelProfile& b, bool engine_on) {
  auto sim = std::make_unique<Simulation>(
      cfg, std::vector<AppLaunch>{AppLaunch{a, 2001}, AppLaunch{b, 2002}});
  sim->set_activity_sched(engine_on);
  sim->set_fast_forward(engine_on);
  sim->gpu().set_partition(even_partition(sim->gpu().num_sms(), 2));
  return sim;
}

// The contended SD+SA co-run of the throughput bench.  Both cycle paths
// must land on the same pinned state.
constexpr Golden kSdSa{7214955592663291594u, 14748529290264916542u, 304357,
                       6330, 29595};

TEST(GoldenOutput, ContendedPairEngineOn) {
  auto sim = make_pair(GpuConfig{}, *find_app("SD"), *find_app("SA"), true);
  sim->run(kCycles);
  expect_golden(*sim, kSdSa);
}

TEST(GoldenOutput, ContendedPairEngineOff) {
  auto sim = make_pair(GpuConfig{}, *find_app("SD"), *find_app("SA"), false);
  sim->run(kCycles);
  expect_golden(*sim, kSdSa);
}

// MISE and ASM attach the priority-epoch CycleHook, whose priority flips
// are timed events between engine chunks.
TEST(GoldenOutput, EpochHookedPair) {
  RunConfig rc;
  Workload w;
  w.apps.push_back(*find_app("NN"));
  w.apps.push_back(*find_app("BS"));
  const ModelSet models{.dase = true, .mise = true, .asm_model = true};
  CoRunAssembly a = assemble_corun(rc, w, models, PolicyKind::kEven);
  a.sim->run(kCycles);
  expect_golden(*a.sim, Golden{10011073988206970197u, 8794152374467795266u,
                               345890, 13957, 16271});
}

// DASE-Fair on NN+SD (the Fig. 9 pair): the policy asks for two more SMs
// for SD at cycle 100K, and both NN SMs finish draining and are handed
// over before 170K.  Recorded from the per-cycle walk, which every
// migration used to pin; the engine must hand over on the same cycles.
constexpr Cycle kDrainCycles = 180'000;
constexpr Golden kNnSdDaseFair{12942111033887376433u, 4770337915622735859u,
                                419487, 104837, 32036};

void run_drained_repartition(bool engine_on) {
  RunConfig rc;
  Workload w;
  w.apps.push_back(*find_app("NN"));
  w.apps.push_back(*find_app("SD"));
  CoRunAssembly a =
      assemble_corun(rc, w, ModelSet{.dase = true}, PolicyKind::kDaseFair);
  a.sim->set_activity_sched(engine_on);
  a.sim->set_fast_forward(engine_on);
  a.sim->run(kDrainCycles);
  EXPECT_FALSE(a.sim->gpu().migration_in_progress());
  EXPECT_EQ(a.sim->gpu().sms_assigned(1), 10) << "the drain did not finish";
  expect_golden(*a.sim, kNnSdDaseFair);
}

TEST(GoldenOutput, DrainedRepartitionEngineOn) {
  run_drained_repartition(true);
}

TEST(GoldenOutput, DrainedRepartitionEngineOff) {
  run_drained_repartition(false);
}

// 96 warp contexts, filled by eight 12-warp blocks of a memory-bound
// kernel: warps past index 63 issue whenever the lower ones all wait on
// memory, so any per-word bookkeeping in the SM is exercised.
TEST(GoldenOutput, NinetySixWarpConfig) {
  GpuConfig cfg;
  cfg.max_warps_per_sm = 96;
  KernelProfile wide = *find_app("VA");
  wide.max_concurrent_blocks = 8;
  auto sim = make_pair(cfg, wide, *find_app("CS"), false);
  sim->run(kCycles);
  expect_golden(*sim, Golden{12467081164531592570u, 14033927887869089817u,
                             382016, 11958, 240000});
}

// Non-default memory-side geometry: two crossbar accepts per port per cycle
// (so the round-robin pointer's within-cycle skip-ahead after an accept is
// exercised) and 32 DRAM banks per controller (every bit of the 32-bit bank
// masks in use).  Recorded from the full-scan crossbar arbitration and the
// all-banks DRAM scans; both cycle paths must agree.
GpuConfig wide_memory_config() {
  GpuConfig cfg;
  cfg.noc_accepts_per_cycle = 2;
  cfg.banks_per_mc = 32;
  return cfg;
}

constexpr Golden kSdSaWideMemory{7109552184697405861u, 2246642024157226801u,
                                 314996, 6268, 31810};

TEST(GoldenOutput, WideMemoryGeometryEngineOn) {
  auto sim = make_pair(wide_memory_config(), *find_app("SD"),
                       *find_app("SA"), true);
  sim->run(kCycles);
  expect_golden(*sim, kSdSaWideMemory);
}

TEST(GoldenOutput, WideMemoryGeometryEngineOff) {
  auto sim = make_pair(wide_memory_config(), *find_app("SD"),
                       *find_app("SA"), false);
  sim->run(kCycles);
  expect_golden(*sim, kSdSaWideMemory);
}

// Starved miss path: four L1 and eight L2 MSHRs force rejects and merges at
// both levels, a reissue timeout below the unloaded miss latency races
// retries against originals (so duplicate responses are absorbed), and a 96 KB L2 slice gives 96 sets, a
// set count that is not a power of two.  Recorded from the hash-map MSHR and
// the two-scan tag lookups; both cycle paths must agree.
GpuConfig starved_miss_path_config() {
  GpuConfig cfg;
  cfg.l1_mshr_entries = 4;
  cfg.l2_mshr_entries = 8;
  cfg.mshr_retry_enabled = true;
  cfg.mshr_retry_timeout = 200;
  cfg.l2_partition_bytes = 96 * 1024;
  return cfg;
}

constexpr Golden kSdSaStarvedMissPath{2026942722070046022u,
                                      10732567575474625959u, 275017, 4699,
                                      10003};

TEST(GoldenOutput, StarvedMissPathEngineOn) {
  auto sim = make_pair(starved_miss_path_config(), *find_app("SD"),
                       *find_app("SA"), true);
  sim->run(kCycles);
  expect_golden(*sim, kSdSaStarvedMissPath);
}

TEST(GoldenOutput, StarvedMissPathEngineOff) {
  auto sim = make_pair(starved_miss_path_config(), *find_app("SD"),
                       *find_app("SA"), false);
  sim->run(kCycles);
  expect_golden(*sim, kSdSaStarvedMissPath);
}

// Restored mid-run while many requests are stalled on full MSHRs: the
// remembered stalled misses are not snapshot state, so a restore must drop
// the ones the simulation built up after the snapshot, and both a fresh and
// a reused simulation must land on the pinned state.
TEST(GoldenOutput, StarvedMissPathResumedFromSnapshot) {
  auto sim = make_pair(starved_miss_path_config(), *find_app("SD"),
                       *find_app("SA"), true);
  sim->run(kCycles / 2);
  const std::vector<u8> bytes = sim->snapshot();
  sim->run(kCycles / 4);
  sim->restore(bytes);
  sim->run(kCycles - kCycles / 2);
  expect_golden(*sim, kSdSaStarvedMissPath);

  auto fresh = make_pair(starved_miss_path_config(), *find_app("SD"),
                         *find_app("SA"), true);
  fresh->restore(bytes);
  fresh->run(kCycles - kCycles / 2);
  expect_golden(*fresh, kSdSaStarvedMissPath);
}

}  // namespace
}  // namespace gpusim
