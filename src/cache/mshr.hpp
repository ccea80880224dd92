// Miss Status Holding Registers.
//
// Merges outstanding misses to the same cache line so only one request per
// line is in flight, and fans the response back out to every waiter.  Used
// at both cache levels: the L1 MSHR tracks waiting warps of one SM, the L2
// MSHR tracks waiting (SM, warp) pairs across SMs.
//
// Layout: a fixed array of `max_entries` entries, a power-of-two
// open-addressed index over them (linear probing, backward-shift deletion,
// load factor at most 1/2), and one shared pool of waiter nodes with a free
// list.  Each entry keeps the head, tail and count of its waiter list, so
// waiters keep their recorded order.  Everything is sized at construction;
// the pool only grows when more waiters are merged at once than it has ever
// held, so steady-state miss, merge and release do no heap traffic.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <utility>
#include <vector>

#include "common/sim_error.hpp"
#include "common/simstate.hpp"
#include "common/types.hpp"

namespace gpusim {

struct MshrWaiter {
  SmId sm = kInvalidSm;
  WarpId warp = -1;
  AppId app = kInvalidApp;
};

class Mshr {
 public:
  explicit Mshr(int max_entries) : max_entries_(max_entries) {
    SIM_CHECK(max_entries_ > 0,
              SimError(SimErrorKind::kConfig, "cache.mshr",
                       "MSHR entry count must be positive"));
    const std::size_t slots =
        std::bit_ceil(2 * static_cast<std::size_t>(max_entries_));
    index_.resize(slots);
    mask_ = static_cast<u32>(slots - 1);
    shift_ = 64 - std::countr_zero(slots);
    entries_.resize(static_cast<std::size_t>(max_entries_));
    free_entries_.reserve(static_cast<std::size_t>(max_entries_));
    nodes_.resize(static_cast<std::size_t>(max_entries_));
    clear();
  }

  enum class AllocResult {
    kNewMiss,   ///< First miss for this line; caller must forward a request.
    kMerged,    ///< Line already in flight; waiter recorded, no new request.
    kRejected,  ///< Structure full; caller must stall and retry.
  };

  /// Outcome of one index probe.  Valid until the next call that changes
  /// this MSHR.
  struct Probe {
    u32 pos = 0;        ///< Slot holding the line, or the empty slot ending
                        ///< its probe chain (where insert() will put it).
    int entry = kNone;  ///< Entry id when the line is in flight.
    bool in_flight() const { return entry != kNone; }
  };

  Probe probe(u64 line_addr) const {
    for (u32 pos = home(line_addr);; pos = (pos + 1) & mask_) {
      const Slot& s = index_[pos];
      if (s.entry == kNone || s.line == line_addr) return {pos, s.entry};
    }
  }

  /// Records `waiter` on the in-flight line `p` was probed for.
  void merge(const Probe& p, MshrWaiter waiter) { append(p.entry, waiter); }

  /// Opens an entry for `line_addr`, which `p` found not in flight, with
  /// `waiter` as its first waiter.  The caller has checked !full().
  void insert(const Probe& p, u64 line_addr, MshrWaiter waiter) {
    append(open_entry(p, line_addr), waiter);
  }

  /// Merge, new miss or reject in one probe.
  AllocResult allocate(u64 line_addr, MshrWaiter waiter) {
    const Probe p = probe(line_addr);
    if (p.in_flight()) {
      merge(p, waiter);
      return AllocResult::kMerged;
    }
    if (full()) return AllocResult::kRejected;
    insert(p, line_addr, waiter);
    return AllocResult::kNewMiss;
  }

  /// Retires the entry for `line_addr`: calls `fan_out(MshrWaiter)` for
  /// every recorded waiter in recorded order, then frees the entry.
  /// `fan_out` must not change this MSHR.  The entry must exist; a response
  /// for a line with none is a double completion.
  template <typename FanOut>
  void release(u64 line_addr, FanOut&& fan_out) {
    const Probe p = probe(line_addr);
    SIM_CHECK(p.in_flight(),
              SimError(SimErrorKind::kInvariant, "cache.mshr",
                       "response for a line with no MSHR entry "
                       "(double completion?)")
                  .detail("line_addr", line_addr)
                  .detail("entries_in_flight", in_flight_));
    // Unlinked before the fan-out, so a fan-out that throws leaves the
    // same visible state as a completed release.
    erase_slot(p.pos);
    --in_flight_;
    const Entry& e = entries_[p.entry];
    for (int n = e.head; n != kNone;) {
      const Node node = nodes_[n];
      fan_out(node.waiter);
      n = node.next;
    }
    if (e.head != kNone) {
      nodes_[e.tail].next = free_node_;
      free_node_ = e.head;
    }
    free_entries_.push_back(p.entry);
  }

  bool contains(u64 line_addr) const { return probe(line_addr).in_flight(); }
  int in_flight() const { return in_flight_; }
  bool full() const { return in_flight_ >= max_entries_; }

  void clear() {
    for (Slot& s : index_) s.entry = kNone;
    free_entries_.clear();
    for (int e = max_entries_ - 1; e >= 0; --e) free_entries_.push_back(e);
    const int pool = static_cast<int>(nodes_.size());
    for (int n = 0; n < pool; ++n) nodes_[n].next = n + 1 < pool ? n + 1 : kNone;
    free_node_ = 0;
    in_flight_ = 0;
  }

  // SimState: entries are serialized in sorted line-address order so save and
  // hash are independent of slot and entry placement.  The simulator only
  // ever looks entries up by line, so the rebuilt table's layout cannot
  // influence behaviour; waiter order *within* a line is preserved because
  // release() fans responses out in recorded order.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("MSHR");
    std::vector<std::pair<u64, int>> live;
    live.reserve(static_cast<std::size_t>(in_flight_));
    for (const Slot& slot : index_) {
      if (slot.entry != kNone) live.emplace_back(slot.line, slot.entry);
    }
    std::sort(live.begin(), live.end());
    s.put_u64(live.size());
    for (const auto& [line, entry] : live) {
      const Entry& e = entries_[entry];
      s.put_u64(line);
      s.put_u64(static_cast<u64>(e.count));
      for (int n = e.head; n != kNone; n = nodes_[n].next) {
        const MshrWaiter& w = nodes_[n].waiter;
        s.put_i32(w.sm);
        s.put_i32(w.warp);
        s.put_i32(w.app);
      }
    }
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    r.expect_tag("MSHR");
    clear();
    const u64 n = r.get_count(static_cast<u64>(max_entries_), "mshr entries");
    for (u64 i = 0; i < n; ++i) {
      const u64 line = r.get_u64();
      const Probe p = probe(line);
      SIM_CHECK(!p.in_flight(),
                SimError(SimErrorKind::kSnapshot, "cache.mshr",
                         "duplicate line in MSHR snapshot")
                    .detail("line_addr", line));
      const int entry = open_entry(p, line);
      const u64 waiter_count = r.get_count(1u << 20, "mshr waiters");
      for (u64 k = 0; k < waiter_count; ++k) {
        MshrWaiter w;
        w.sm = r.get_i32();
        w.warp = r.get_i32();
        w.app = r.get_i32();
        append(entry, w);
      }
    }
  }

  /// Adds the number of recorded waiters of each application to `out`
  /// (conservation audit: each waiter owes exactly one response packet).
  void count_waiters_by_app(std::array<u64, kMaxApps>& out) const {
    for (const Slot& slot : index_) {
      if (slot.entry == kNone) continue;
      for (int n = entries_[slot.entry].head; n != kNone; n = nodes_[n].next) {
        const AppId app = nodes_[n].waiter.app;
        if (app >= 0 && app < kMaxApps) ++out[app];
      }
    }
  }

 private:
  static constexpr int kNone = -1;

  struct Slot {
    u64 line = 0;
    int entry = kNone;  ///< kNone marks an empty slot; `line` is then stale.
  };
  struct Entry {
    int head = kNone;
    int tail = kNone;
    int count = 0;
  };
  struct Node {
    MshrWaiter waiter;
    int next = kNone;
  };

  /// Fibonacci hashing: the top bits of the product mix every bit of the
  /// line address, so lines sharing their low bits still spread out.
  u32 home(u64 line_addr) const {
    return static_cast<u32>((line_addr * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  int open_entry(const Probe& p, u64 line_addr) {
    const int entry = free_entries_.back();
    free_entries_.pop_back();
    entries_[entry] = Entry{};
    index_[p.pos] = Slot{line_addr, entry};
    ++in_flight_;
    return entry;
  }

  void append(int entry, MshrWaiter waiter) {
    if (free_node_ == kNone) grow_pool();
    const int n = free_node_;
    free_node_ = nodes_[n].next;
    nodes_[n] = Node{waiter, kNone};
    Entry& e = entries_[entry];
    if (e.tail == kNone) {
      e.head = n;
    } else {
      nodes_[e.tail].next = n;
    }
    e.tail = n;
    ++e.count;
  }

  /// Doubles the waiter pool; called only when every node is in use.
  void grow_pool() {
    const int old_size = static_cast<int>(nodes_.size());
    nodes_.resize(2 * nodes_.size());
    const int new_size = static_cast<int>(nodes_.size());
    for (int n = old_size; n < new_size; ++n) {
      nodes_[n].next = n + 1 < new_size ? n + 1 : kNone;
    }
    free_node_ = old_size;
  }

  /// Backward-shift deletion: empties `hole`, then walks the rest of its
  /// probe run and moves back every slot whose home lies at or before the
  /// hole, so no chain is left broken and no tombstone is needed.
  void erase_slot(u32 hole) {
    for (u32 pos = (hole + 1) & mask_; index_[pos].entry != kNone;
         pos = (pos + 1) & mask_) {
      const u32 displacement = (pos - home(index_[pos].line)) & mask_;
      if (displacement >= ((pos - hole) & mask_)) {
        index_[hole] = index_[pos];
        hole = pos;
      }
    }
    index_[hole].entry = kNone;
  }

  int max_entries_;
  u32 mask_ = 0;
  int shift_ = 0;
  int in_flight_ = 0;
  int free_node_ = kNone;
  std::vector<Slot> index_;
  std::vector<Entry> entries_;
  std::vector<int> free_entries_;  // stack of unused entry ids
  std::vector<Node> nodes_;
};

}  // namespace gpusim
