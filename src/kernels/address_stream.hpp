// Per-warp address-stream generator.
//
// Determinism: every random decision is drawn from a per-warp RNG seeded
// from (app seed, block index, warp index), so workload behaviour is
// reproducible run-to-run for a given seed.
//
// Access-pattern model.  The warps of one thread block consume a *shared
// sequential cursor* — the way a coalesced GPGPU kernel's block walks its
// arrays as one front.  Each memory instruction either
//   * (hot_fraction) touches a random line of a small reused "hot set"
//     (lookup tables / stencil halos) that fits the shared L2 — the lines
//     whose eviction by a co-runner the ATD detects as contention misses;
//   * (seq_locality) takes the next txns_per_mem_instr lines from the
//     block's shared cursor — consecutive lines, so each memory partition
//     sees a run of consecutive locations that fill one DRAM row before
//     moving to the next, letting FR-FCFS chain row-buffer hits;
//   * (otherwise) scatters to a random location — irregular kernels pay an
//     activate/precharge on nearly every such access.
//
// The shared cursor means the exact address interleaving depends on warp
// scheduling (it differs between a co-run and an alone-run), but its
// statistics do not; the paper's methodology only requires replaying the
// same amount of work (instruction counts), which is preserved exactly.
#pragma once

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_error.hpp"
#include "common/types.hpp"
#include "kernels/kernel_profile.hpp"

namespace gpusim {

/// Byte address-space carve-out per application so concurrent kernels never
/// alias each other's data (they still contend for cache sets and DRAM rows,
/// as on real hardware with distinct allocations).
inline constexpr u64 kAppAddressStride = 1ull << 40;

inline u64 app_address_base(AppId app) {
  return (static_cast<u64>(app) + 1) * kAppAddressStride;
}

/// Stream state shared by all warps of one resident thread block.
struct BlockStream {
  u64 base_line = 0;  ///< start, relative to the streaming region
  u64 cursor = 0;     ///< lines consumed so far
};

class AddressStream {
 public:
  static constexpr u64 kLineBytes = 128;
  /// With the Table II geometry (6 partitions, 2KB rows of 16 lines, 16
  /// banks) one bank-row covers 96 consecutive cache lines and a full
  /// rotation over all banks covers 96*16 = 1536 lines.  Thread blocks
  /// start their streams at distinct bank slots inside a rotation — the
  /// effect a contiguous grid-to-array tiling has on real hardware — so
  /// concurrent regular streams do not thrash each other's rows.  Scattered
  /// (irregular) accesses pick random slots and do collide.
  static constexpr u64 kRowSpanLines = 96;
  static constexpr u64 kBankRotationLines = 96 * 16;

  AddressStream(const KernelProfile* profile, AppId app, u64 app_seed,
                u64 block_index, int warp_in_block, BlockStream* block)
      : profile_(profile),
        rng_(warp_seed(app_seed, block_index, warp_in_block)),
        base_(app_address_base(app)),
        lines_in_ws_(profile->working_set_bytes / kLineBytes),
        hot_lines_(profile->hot_set_bytes / kLineBytes),
        block_(block) {
    // stream_lines() is a modulus: the hot set must leave streaming lines.
    SIM_CHECK(lines_in_ws_ > hot_lines_,
              SimError(SimErrorKind::kConfig, "kernels.address_stream",
                       "kernel hot set leaves no streaming lines in the "
                       "working set")
                  .app(app)
                  .detail("kernel", profile->abbr)
                  .detail("working_set_bytes", profile->working_set_bytes)
                  .detail("hot_set_bytes", profile->hot_set_bytes));
    SIM_INVARIANT(block_ != nullptr, "kernels.address_stream",
                  "warp address stream without a block stream");
  }

  /// Initialises the shared stream of a newly launched thread block.
  static BlockStream make_block_stream(const KernelProfile& profile,
                                       u64 app_seed, u64 block_index) {
    const u64 hot_lines = profile.hot_set_bytes / kLineBytes;
    const u64 stream_lines =
        profile.working_set_bytes / kLineBytes - hot_lines;
    Rng block_rng(app_seed * 0x2545F4914F6CDD1DULL + block_index + 1);
    BlockStream s;
    s.base_line = aligned_base(block_rng, block_index, stream_lines);
    return s;
  }

  /// Generates the line addresses touched by one memory instruction:
  /// profile->txns_per_mem_instr line-aligned byte addresses.
  void next_mem_instr(std::vector<u64>& out) {
    const int txns = profile_->txns_per_mem_instr;
    if (hot_lines_ > 0 && rng_.next_bool(profile_->hot_fraction)) {
      const u64 start = rng_.next_below(hot_lines_);
      for (int t = 0; t < txns; ++t) {
        out.push_back(base_ + ((start + t) % hot_lines_) * kLineBytes);
      }
      return;
    }
    u64 start_line;
    if (rng_.next_bool(profile_->seq_locality)) {
      // Coherent block front: consume the next txns lines of the shared
      // cursor.
      start_line = block_->base_line + block_->cursor;
      block_->cursor += static_cast<u64>(txns);
    } else {
      // Irregular scatter: one-off random location, random bank slot, plus
      // a random offset inside the row span — row-span alignment is a
      // multiple of the partition count, so without the offset every
      // scatter would land on partition 0.
      start_line = aligned_base(rng_, rng_.next_u64(), stream_lines()) +
                   rng_.next_below(kRowSpanLines - txns);
    }
    for (int t = 0; t < txns; ++t) {
      const u64 line = hot_lines_ + (start_line + t) % stream_lines();
      out.push_back(base_ + line * kLineBytes);
    }
  }

  // SimState: the RNG is the only run-time-evolving member — every other
  // field is a pure function of (profile, app, app_seed) or the block_
  // wiring pointer, all re-supplied at reconstruction.  A restored stream is
  // rebuilt via the constructor (any warp_in_block; it only perturbs the
  // seed) and then overwritten with the saved engine state.
  template <typename Sink>
  void write_state(Sink& s) const {
    rng_.write_state(s);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) { rng_.load(r); }

  /// Draws the compute-run length preceding the next memory instruction:
  /// uniform in [0.5*mean, 1.5*mean] around the profile's mean run.
  u64 next_compute_run() {
    const double mean = profile_->mean_compute_run();
    if (mean <= 0.0) return 0;
    const double lo = 0.5 * mean;
    const double len = lo + rng_.next_double() * mean;
    return static_cast<u64>(len + 0.5);
  }

 private:
  static u64 warp_seed(u64 app_seed, u64 block_index, int warp_in_block) {
    return app_seed * 0x9E3779B97F4A7C15ULL +
           block_index * 0xC2B2AE3D27D4EB4FULL +
           static_cast<u64>(warp_in_block) * 0x165667B19E3779F9ULL + 1;
  }

  u64 stream_lines() const { return lines_in_ws_ - hot_lines_; }

  /// Random base line relative to the streaming region: a random bank
  /// rotation, entered at the row span selected by `slot`.
  static u64 aligned_base(Rng& rng, u64 slot, u64 stream_lines) {
    const u64 rotations = std::max<u64>(1, stream_lines / kBankRotationLines);
    const u64 slots_per_rotation = kBankRotationLines / kRowSpanLines;  // 16
    return rng.next_below(rotations) * kBankRotationLines +
           (slot % slots_per_rotation) * kRowSpanLines;
  }

  const KernelProfile* profile_;
  Rng rng_;
  u64 base_;
  u64 lines_in_ws_;
  u64 hot_lines_;
  BlockStream* block_;
};

}  // namespace gpusim
