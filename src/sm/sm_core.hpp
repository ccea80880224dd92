// Streaming Multiprocessor model.
//
// Each SM runs thread blocks of exactly one application (spatial
// multitasking partitions whole SMs).  Per cycle it issues at most one warp
// instruction, selected greedy-then-oldest; memory instructions generate
// coalesced line transactions that probe the private L1 and, on miss,
// travel through the crossbar to a shared memory partition.  Warps block
// until all their transactions respond — surviving warps supply the
// thread-level parallelism that hides memory latency, and the cycles where
// no warp can issue while at least one waits on memory form the stall
// fraction α the DASE model consumes (paper Eq. 15).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/audit.hpp"
#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/flight_recorder.hpp"
#include "common/sim_error.hpp"
#include "common/stats.hpp"
#include "kernels/address_stream.hpp"
#include "mem/address_map.hpp"
#include "mem/dram.hpp"  // SnapCounter
#include "mem/request.hpp"
#include "sm/block_source.hpp"

namespace gpusim {

struct SmCounters {
  SnapCounter instructions;      ///< warp instructions issued
  SnapCounter mem_stall_cycles;  ///< no issue while ≥1 warp waits on memory
  SnapCounter issue_cycles;      ///< cycles with an instruction issued
  SnapCounter idle_cycles;       ///< no resident live warps
  SnapCounter mem_instructions;  ///< memory instructions issued
  SnapCounter l1_accesses;
  SnapCounter l1_hits;

  template <typename Sink>
  void write_state(Sink& s) const {
    instructions.write_state(s);
    mem_stall_cycles.write_state(s);
    issue_cycles.write_state(s);
    idle_cycles.write_state(s);
    mem_instructions.write_state(s);
    l1_accesses.write_state(s);
    l1_hits.write_state(s);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    instructions.load(r);
    mem_stall_cycles.load(r);
    issue_cycles.load(r);
    idle_cycles.load(r);
    mem_instructions.load(r);
    l1_accesses.load(r);
    l1_hits.load(r);
  }

  void snapshot_all() {
    instructions.snapshot();
    mem_stall_cycles.snapshot();
    issue_cycles.snapshot();
    idle_cycles.snapshot();
    mem_instructions.snapshot();
    l1_accesses.snapshot();
    l1_hits.snapshot();
  }
};

/// Bit set over an SM's warp contexts, ceil(bits/64) words wide so any
/// max_warps_per_sm fits.  Bits at or past `bits` are always zero.
class WarpMask {
 public:
  explicit WarpMask(int bits)
      : bits_(bits), words_(static_cast<std::size_t>((bits + 63) / 64), 0) {}

  void set(int i) { words_[word(i)] |= bit(i); }
  void reset(int i) { words_[word(i)] &= ~bit(i); }
  bool test(int i) const { return (words_[word(i)] & bit(i)) != 0; }
  void clear() { std::fill(words_.begin(), words_.end(), u64{0}); }

  bool any() const {
    for (u64 w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  int count() const {
    int n = 0;
    for (u64 w : words_) n += std::popcount(w);
    return n;
  }
  /// Lowest set bit, or -1 when empty.
  int first() const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] != 0) {
        return static_cast<int>(i * 64) + std::countr_zero(words_[i]);
      }
    }
    return -1;
  }
  /// Lowest index below `bits` that is clear here and in `other`, or -1.
  int first_clear_in_both(const WarpMask& other) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const u64 clear = ~(words_[i] | other.words_[i]);
      if (clear != 0) {
        const int idx = static_cast<int>(i * 64) + std::countr_zero(clear);
        return idx < bits_ ? idx : -1;
      }
    }
    return -1;
  }

  bool operator==(const WarpMask&) const = default;

 private:
  static std::size_t word(int i) { return static_cast<std::size_t>(i) >> 6; }
  static u64 bit(int i) { return u64{1} << (i & 63); }

  int bits_;
  std::vector<u64> words_;
};

class SmCore {
 public:
  SmCore(const GpuConfig& cfg, SmId id, const AddressMap& address_map);

  /// Assigns this SM to an application.  The SM must be unassigned or
  /// fully drained.  `now` stamps the initial block-dispatch events
  /// (construction-time assignment happens at cycle 0).
  void assign(BlockSource* source, Cycle now = 0);

  /// Stops fetching new thread blocks; resident work runs to completion
  /// (the paper's "SM draining" migration primitive).
  void start_drain() { draining_ = true; }
  /// Cancels a drain whose repartition request was superseded.
  void cancel_drain() { draining_ = false; }
  bool draining() const { return draining_; }

  /// True when no resident warps, no in-flight memory traffic, and no
  /// queued outbound packets remain.
  bool drained() const;

  /// Detaches from the current application (requires drained()), clearing
  /// the L1 as a real kernel switch would.
  void release();

  /// One core cycle: matures L1 hits, dispatches pending transactions,
  /// issues at most one warp instruction, and refills free block slots.
  void cycle(Cycle now);

  /// Delivers a memory response from the interconnect.
  void receive(const MemResponsePacket& resp);

  BoundedQueue<MemRequestPacket>& out_queue() { return out_queue_; }
  const BoundedQueue<MemRequestPacket>& out_queue() const {
    return out_queue_;
  }

  /// Optional per-application instruction counter (owned by the GPU) that
  /// issue() also increments, so per-app IPC survives SM reassignment.
  void set_instr_sink(PerAppCounter* sink) { instr_sink_ = sink; }

  /// Optional SimGuard conservation taps (owned by the GPU): every packet
  /// pushed into the out queue is counted as a sent request.
  void set_taps(ConservationTaps* taps) { taps_ = taps; }

  /// Optional black-box flight recorder (owned by the GPU): block
  /// dispatches and MSHR retry/exhaustion events are recorded into it.
  void set_flight_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  /// Warps currently blocked on outstanding memory transactions.
  int waiting_warps() const { return waiting_.count(); }

  // --- Idle-cycle fast-forward support -----------------------------------

  /// True when cycle(now) would change nothing but the stall/idle counters:
  /// no L1 hit matures, no transaction dispatches, no warp can issue, and
  /// no outbound packet waits.  (refill_blocks() is a stable no-op in this
  /// state: it ran to saturation at the end of the previous cycle and no
  /// SM-visible input changed since.)  The ready mask makes this O(1).
  bool quiet_at(Cycle now) const {
    return !ready_.any() && pending_txns_.empty() &&
           out_queue_.empty() && next_retry_deadline_ > now &&
           (local_hits_.empty() || local_hits_.front().first > now);
  }

  /// Earliest future cycle at which this core acts on its own (an L1 hit
  /// maturing or an MSHR retry deadline expiring); responses arriving via
  /// the interconnect are the caller's events.  kNeverCycle when nothing is
  /// scheduled.
  Cycle next_local_event() const {
    const Cycle hit =
        local_hits_.empty() ? kNeverCycle : local_hits_.front().first;
    return hit < next_retry_deadline_ ? hit : next_retry_deadline_;
  }

  /// Earliest cycle a quiet core must be processed again, given its
  /// response delivery queue: the next local event or the head response's
  /// maturity, whichever comes first.  Only meaningful right after a
  /// cycle() that left the core quiet_at() — the activity engine's sleep
  /// bound (later crossbar deliveries wake the core explicitly).
  Cycle wake_after(const BoundedQueue<MemResponsePacket>& resp_in) const {
    Cycle next = next_local_event();
    if (!resp_in.empty() && resp_in.front().ready < next) {
      next = resp_in.front().ready;
    }
    return next;
  }

  /// Applies `n` quiet cycles' worth of the issue-stage stall/idle
  /// accounting in one lump.  Valid only while quiet_at() holds throughout.
  void skip_cycles(Cycle n) {
    if (waiting_.any()) {
      counters_.mem_stall_cycles.add(n);
    } else if (!ready_.any()) {
      counters_.idle_cycles.add(n);
    }
  }

  AppId app() const { return source_ != nullptr ? source_->app() : kInvalidApp; }
  bool assigned() const { return source_ != nullptr; }
  SmId id() const { return id_; }
  SmCounters& counters() { return counters_; }
  const SmCounters& counters() const { return counters_; }
  const SetAssocCache& l1() const { return l1_; }

  /// Resident thread blocks currently executing (TB_shared of Eq. 24).
  int active_blocks() const { return active_blocks_; }
  int live_warps() const { return ready_.count() + waiting_.count(); }

  /// Re-derives the warp masks and the active-block count from the warp
  /// and block states; returns a description of the first disagreement,
  /// or an empty string when the maintained bookkeeping is consistent.
  std::string audit_bookkeeping() const;

  // --- Modeled recovery (GpuConfig::mshr_retry_enabled) ------------------

  /// Adds, per app, the reissues whose original/duplicate fate is still
  /// unresolved: pending retry attempts plus expected-but-unseen duplicate
  /// responses.  The conservation auditor tolerates this much imbalance.
  void count_recovery_outstanding(std::array<u64, kMaxApps>& out) const {
    for (const auto& [line, rs] : retries_) {
      if (rs.pkt.app >= 0 && rs.pkt.app < kMaxApps) {
        out[static_cast<std::size_t>(rs.pkt.app)] +=
            static_cast<u64>(rs.attempts);
      }
    }
    for (const auto& [line, d] : dup_expect_) {
      if (d.app >= 0 && d.app < kMaxApps) {
        out[static_cast<std::size_t>(d.app)] += static_cast<u64>(d.count);
      }
    }
  }
  u64 retries_pending() const { return retries_.size(); }

  // --- SimState ----------------------------------------------------------
  // The caller (Gpu) serializes which application this SM is assigned to
  // and passes the resolved BlockSource back into load(); everything else —
  // warps, blocks, pipeline queues, L1, MSHR, counters — round-trips here.
  // Warp AddressStreams are reconstructed from (profile, app, seed, block)
  // and then overwritten with their saved RNG state; blocks_ must therefore
  // be restored before warps_ (each stream points at its block's shared
  // cursor).  addr_scratch_ is per-instruction scratch, dead between cycles.
  // The warp masks and the active-block count are derived from the warp and
  // block states; only the ready-warp count is written, as a cross-check.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("SMCR");
    s.put_bool(draining_);
    s.put_i32(last_issued_);
    s.put_i32(ready_.count());
    for (const BlockSlot& b : blocks_) {
      s.put_bool(b.active);
      s.put_u64(b.block_index);
      s.put_i32(b.warps_remaining);
      s.put_u64(b.stream.base_line);
      s.put_u64(b.stream.cursor);
    }
    for (const WarpCtx& w : warps_) {
      s.put_u8(static_cast<u8>(w.state));
      s.put_u64(w.instrs_done);
      s.put_u64(w.budget);
      s.put_u64(w.compute_remaining);
      s.put_i32(w.outstanding);
      s.put_i32(w.block_slot);
      s.put_bool(w.stream.has_value());
      if (w.stream.has_value()) w.stream->write_state(s);
    }
    s.put_u64(pending_txns_.size());
    for (const PendingTxn& t : pending_txns_) {
      s.put_i32(t.warp);
      s.put_u64(t.addr);
    }
    s.put_u64(local_hits_.size());
    for (const auto& [ready, warp] : local_hits_) {
      s.put_u64(ready);
      s.put_i32(warp);
    }
    l1_.write_state(s);
    l1_mshr_.write_state(s);
    out_queue_.write_state(s);
    counters_.write_state(s);
    // Recovery bookkeeping (std::map keeps both walks line-ordered, so the
    // byte stream and the state hash are deterministic).
    s.put_u64(retries_.size());
    for (const auto& [line, rs] : retries_) {
      s.put_u64(line);
      write_item(s, rs.pkt);
      s.put_u64(rs.deadline);
      s.put_i32(rs.attempts);
    }
    s.put_u64(dup_expect_.size());
    for (const auto& [line, d] : dup_expect_) {
      s.put_u64(line);
      s.put_i32(d.count);
      s.put_i32(d.app);
    }
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r, BlockSource* source);

 private:
  struct WarpCtx {
    enum class State : u8 { kUnused, kReady, kWaitingMem, kDone };
    State state = State::kUnused;
    u64 instrs_done = 0;
    u64 budget = 0;
    u64 compute_remaining = 0;
    int outstanding = 0;
    int block_slot = -1;
    std::optional<AddressStream> stream;
  };

  struct BlockSlot {
    bool active = false;
    u64 block_index = 0;
    int warps_remaining = 0;
    BlockStream stream;  ///< sequential front shared by the block's warps
  };

  struct PendingTxn {
    WarpId warp;
    u64 addr;
  };

  /// One pending L1-MSHR miss being tracked for timeout/reissue.
  struct RetryState {
    MemRequestPacket pkt;  ///< the original request, reissued verbatim
    Cycle deadline = 0;    ///< cycle at which the next reissue fires
    int attempts = 0;      ///< reissues already made (backoff exponent)
  };
  /// Responses still owed for a line whose MSHR entry already completed
  /// (the losers of an original-vs-retry race); absorbed silently.
  struct DupExpect {
    int count = 0;
    AppId app = kInvalidApp;
  };

  void refill_blocks(Cycle now);
  void dispatch_pending(Cycle now);
  void issue(Cycle now);
  void complete_txn(WarpId warp);
  void retire_warp(WarpId warp);
  void derive_bookkeeping(WarpMask& ready, WarpMask& waiting,
                          int& active_blocks) const;
  void check_retries(Cycle now);
  void recompute_next_retry_deadline();
  int max_concurrent_blocks() const;

  const GpuConfig& cfg_;
  SmId id_;
  const AddressMap& address_map_;
  BlockSource* source_ = nullptr;
  bool draining_ = false;

  std::vector<WarpCtx> warps_;
  std::vector<BlockSlot> blocks_;
  std::deque<PendingTxn> pending_txns_;
  std::deque<std::pair<Cycle, WarpId>> local_hits_;  // (ready, warp), FIFO

  SetAssocCache l1_;
  Mshr l1_mshr_;
  BoundedQueue<MemRequestPacket> out_queue_;
  /// Line of the pending-transaction head that missed both l1_mshr_ and l1_
  /// and stalled for an MSHR entry or an out-queue slot.  It stays a miss
  /// while it waits: only dispatch_pending inserts into l1_mshr_, and a fill
  /// only installs a line that had an entry.  Derived state, not saved:
  /// load() and release() drop it, and re-probing gives the same answer.
  std::optional<u64> blocked_miss_;

  WarpId last_issued_ = -1;
  // Warp-state bitmasks, updated at every state transition so the issue
  // stage and the stall/idle accounting never scan warps_.  A context in
  // neither mask is free (kUnused or kDone).
  WarpMask ready_;    ///< State::kReady
  WarpMask waiting_;  ///< State::kWaitingMem
  int active_blocks_ = 0;  ///< BlockSlots with active set
  std::vector<u64> addr_scratch_;
  SmCounters counters_;
  PerAppCounter* instr_sink_ = nullptr;
  ConservationTaps* taps_ = nullptr;
  FlightRecorder* recorder_ = nullptr;

  // Modeled recovery state (empty unless cfg_.mshr_retry_enabled).
  std::map<u64, RetryState> retries_;    // keyed by line address
  std::map<u64, DupExpect> dup_expect_;  // keyed by line address
  /// Cached min deadline over retries_, kNeverCycle when none: keeps
  /// quiet_at()/next_local_event() O(1) for the fast-forward path.
  Cycle next_retry_deadline_ = kNeverCycle;
};

}  // namespace gpusim
