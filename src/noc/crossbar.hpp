// Crossbar interconnect channel (paper Table II: one crossbar per
// direction, Local-RR arbitration).
//
// One CrossbarChannel models one direction: N source ports (FIFOs owned by
// the producers) feeding M destination ports (FIFOs owned by the channel).
// Each cycle every destination port independently round-robins over the
// sources, accepting up to `accepts_per_cycle` head-of-queue packets routed
// to it; each source may inject at most one packet per cycle (its output
// port is a single link).  Accepted packets become visible at the
// destination after `latency` cycles.  Head-of-line blocking at the source
// FIFOs and finite destination buffering are modelled deliberately — both
// are interference channels between concurrent applications.
//
// Hot-path shape: the Router is a template parameter so concrete routers
// (plain field reads in this simulator) inline into the arbitration loop —
// the std::function default exists only for tests and ad-hoc wiring.  When
// the channel has at most 64 ports each way, transfer() makes one pass over
// the source fronts that folds every ready head packet into a
// per-destination candidate mask; each destination with candidates then
// finds its round-robin winner with a rotate and a count-trailing-zeros
// instead of a dests × sources probe scan.  An idle interconnect costs the
// one pass and nothing else.
#pragma once

#include <bit>
#include <functional>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/sim_error.hpp"
#include "common/types.hpp"

namespace gpusim {

template <typename Packet, typename Router = std::function<int(const Packet&)>>
class CrossbarChannel {
 public:
  using RouteFn = Router;

  CrossbarChannel(int num_sources, int num_dests, Cycle latency,
                  int accepts_per_cycle, int dest_queue_depth,
                  Router route)
      : latency_(latency),
        accepts_per_cycle_(accepts_per_cycle),
        route_(std::move(route)),
        rr_(num_dests, 0),
        source_sent_(num_sources, 0),
        cand_(num_dests, 0) {
    SIM_CHECK(num_sources > 0 && num_dests > 0 && accepts_per_cycle > 0,
              SimError(SimErrorKind::kConfig, "noc.crossbar",
                       "crossbar dimensions must be positive")
                  .detail("num_sources", num_sources)
                  .detail("num_dests", num_dests)
                  .detail("accepts_per_cycle", accepts_per_cycle));
    dest_queues_.reserve(num_dests);
    for (int d = 0; d < num_dests; ++d) {
      dest_queues_.emplace_back(dest_queue_depth);
    }
  }

  /// Moves packets from source FIFOs to destination FIFOs for one cycle.
  /// `sources[s]` is the output FIFO of source port s.
  ///
  /// Returns a bitmask of destination ports (bits d < 64 only) that
  /// accepted at least one packet this cycle — the activity engine uses it
  /// to schedule wake-ups at the packets' delivery cycle.  Arbitration
  /// order, round-robin pointer updates and all queue mutations are
  /// identical to transfer_scan(), which stays the path for channels wider
  /// than 64 ports and the reference the masked path is tested against.
  ///
  /// When `blocked_out` is non-null it receives a bitmask of source ports
  /// (bits s < 64 only) whose head packet was ready this cycle but was not
  /// accepted — head-of-line blocking or destination back-pressure.  On the
  /// masked path this is the leftover `ready` mask and costs nothing extra.
  u64 transfer(Cycle now, std::vector<BoundedQueue<Packet>*>& sources,
               u64* blocked_out = nullptr) {
    const int num_sources = static_cast<int>(sources.size());
    const int num_dests = static_cast<int>(dest_queues_.size());
    SIM_INVARIANT(num_sources == static_cast<int>(source_sent_.size()),
                  "noc.crossbar", "source port count changed after wiring");
    if (num_sources > 64 || num_dests > 64) {
      return transfer_scan(now, sources, blocked_out);
    }

    // One pass over the source fronts.  A set bit in `ready` means "head
    // packet is ready and this source has not injected yet"; clearing it on
    // accept enforces one packet per source per cycle.  Each head routes
    // to exactly one destination, so the per-destination candidate masks
    // are disjoint and no destination's accepts can change another's
    // candidates.  A head routed outside the channel (a corrupt restored
    // packet) is never accepted and stays in `ready` (blocked), as in the
    // scan, instead of indexing past cand_.
    u64 ready = 0;
    u64 dests_with_cands = 0;
    for (int s = 0; s < num_sources; ++s) {
      const BoundedQueue<Packet>& sq = *sources[s];
      if (sq.empty() || sq.front().ready > now) continue;
      const u64 bit = u64{1} << s;
      ready |= bit;
      const int d = route_(sq.front());
      if (static_cast<unsigned>(d) >= static_cast<unsigned>(num_dests)) {
        continue;
      }
      const u64 dbit = u64{1} << d;
      // First touch this cycle assigns, so no per-cycle clearing pass.
      cand_[d] = (dests_with_cands & dbit) != 0 ? cand_[d] | bit : bit;
      dests_with_cands |= dbit;
    }

    u64 accepted_dests = 0;
    const u64 port_mask =
        num_sources == 64 ? ~u64{0} : (u64{1} << num_sources) - 1;
    for (u64 dm = dests_with_cands; dm != 0; dm &= dm - 1) {
      const int d = std::countr_zero(dm);
      BoundedQueue<Packet>& dq = dest_queues_[d];
      u64 cand = cand_[d];
      // Round-robin pointer semantics, reproduced from the scan: probe k
      // (k = 0, 1, … < num_sources) looks at source (rr_[d] + k) mod n,
      // and an accept moves rr_[d] to one past the winner *without*
      // resetting k.  With accepts_per_cycle > 1 the probe after an accept
      // at offset k therefore resumes at offset k + 1 from the *updated*
      // pointer — it skips k + 1 sources beyond the winner — and the whole
      // search still ends after num_sources probes.  In rotated terms: the
      // next winner is the lowest candidate at rotated offset >= k.
      int k = 0;
      int accepted = 0;
      while (accepted < accepts_per_cycle_ && k < num_sources) {
        const int r = rr_[d];
        u64 rot = r == 0 ? cand
                         : ((cand >> r) | (cand << (num_sources - r))) &
                               port_mask;
        rot &= port_mask << k;  // probes k.. only (k < num_sources <= 64)
        if (rot == 0) break;
        // A full destination cannot accept; the scan broke out of the
        // source loop at the first candidate without mutating any state.
        if (dq.full()) break;
        const int j = std::countr_zero(rot);
        const int s = r + j < num_sources ? r + j : r + j - num_sources;
        Packet p = sources[s]->pop();
        p.ready = now + latency_;
        const bool ok = dq.try_push(std::move(p));
        SIM_CHECK(ok, SimError(SimErrorKind::kQueueOverflow, "noc.crossbar",
                               "destination queue overflow after full() check")
                          .cycle(now)
                          .detail("dest_port", d)
                          .detail("occupancy", dq.size())
                          .detail("capacity", dq.capacity()));
        const u64 bit = u64{1} << s;
        cand &= ~bit;
        ready &= ~bit;
        ++accepted;
        rr_[d] = s + 1 < num_sources ? s + 1 : 0;
        k = j + 1;
        accepted_dests |= u64{1} << d;
      }
    }
    // Bits still set in `ready` are exactly the sources whose head packet
    // was injectable this cycle but went unaccepted.
    if (blocked_out != nullptr) *blocked_out = ready;
    return accepted_dests;
  }

  /// The historical full round-robin scan: for each destination, probe the
  /// sources one by one starting at the round-robin pointer.  It is the
  /// path for channels wider than 64 ports and the reference that
  /// transfer() must match bit for bit (tests drive both on cloned
  /// channels); same contract and return values as transfer().
  u64 transfer_scan(Cycle now, std::vector<BoundedQueue<Packet>*>& sources,
                    u64* blocked_out = nullptr) {
    const int num_sources = static_cast<int>(sources.size());
    std::fill(source_sent_.begin(), source_sent_.end(), 0);
    u64 accepted_dests = 0;
    for (int d = 0; d < static_cast<int>(dest_queues_.size()); ++d) {
      BoundedQueue<Packet>& dq = dest_queues_[d];
      int accepted = 0;
      for (int k = 0; k < num_sources && accepted < accepts_per_cycle_; ++k) {
        const int s = (rr_[d] + k) % num_sources;
        if (source_sent_[s]) continue;
        BoundedQueue<Packet>& sq = *sources[s];
        if (sq.empty()) continue;
        if (sq.front().ready > now) continue;  // not yet injected (fill delay)
        if (route_(sq.front()) != d) continue;
        if (dq.full()) break;  // destination buffer back-pressure
        Packet p = sq.pop();
        p.ready = now + latency_;
        const bool ok = dq.try_push(std::move(p));
        SIM_CHECK(ok, SimError(SimErrorKind::kQueueOverflow, "noc.crossbar",
                               "destination queue overflow after full() check")
                          .cycle(now)
                          .detail("dest_port", d)
                          .detail("occupancy", dq.size())
                          .detail("capacity", dq.capacity()));
        source_sent_[s] = 1;
        ++accepted;
        rr_[d] = (s + 1) % num_sources;
        if (d < 64) accepted_dests |= u64{1} << d;
      }
    }
    if (blocked_out != nullptr) {
      // One extra pass (this path is already the slow one): ready-but-unsent
      // sources, capped to the mask's 64 bits.
      u64 blocked = 0;
      for (int s = 0; s < num_sources && s < 64; ++s) {
        if (source_sent_[s]) continue;
        const BoundedQueue<Packet>& sq = *sources[s];
        if (!sq.empty() && sq.front().ready <= now) blocked |= u64{1} << s;
      }
      *blocked_out = blocked;
    }
    return accepted_dests;
  }

  BoundedQueue<Packet>& dest_queue(int d) { return dest_queues_[d]; }
  const BoundedQueue<Packet>& dest_queue(int d) const {
    return dest_queues_[d];
  }
  int num_dests() const { return static_cast<int>(dest_queues_.size()); }
  /// Round-robin pointer of destination port `d`: the source its next
  /// arbitration probes first.
  int rr_pointer(int d) const { return rr_[d]; }

  bool all_empty() const {
    for (const auto& q : dest_queues_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  // SimState: destination FIFOs and round-robin pointers.  source_sent_ and
  // cand_ are scratch that each transfer refills before reading, so they
  // are dead at any between-cycles snapshot boundary and deliberately
  // excluded.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("XBAR");
    for (const auto& q : dest_queues_) q.write_state(s);
    for (int v : rr_) s.put_i32(v);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    r.expect_tag("XBAR");
    for (auto& q : dest_queues_) q.load(r);
    const int num_sources = static_cast<int>(source_sent_.size());
    for (int& v : rr_) {
      v = r.get_i32();
      // transfer() rotates candidate masks by the pointer; an out-of-range
      // value would be an undefined shift, not just a wrong winner.
      SIM_CHECK(v >= 0 && v < num_sources,
                SimError(SimErrorKind::kSnapshot, "noc.crossbar",
                         "corrupt round-robin pointer in snapshot")
                    .detail("rr", v)
                    .detail("num_sources", num_sources));
    }
  }

 private:
  Cycle latency_;
  int accepts_per_cycle_;
  Router route_;
  std::vector<BoundedQueue<Packet>> dest_queues_;
  std::vector<int> rr_;
  std::vector<u8> source_sent_;  ///< transfer_scan() scratch
  std::vector<u64> cand_;        ///< transfer() scratch, one word per dest
};

}  // namespace gpusim
