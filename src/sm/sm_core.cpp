#include "sm/sm_core.hpp"

namespace gpusim {

namespace {
constexpr int kTxnDispatchPerCycle = 2;  // L1/LSU transaction bandwidth
constexpr int kOutQueueDepth = 16;
}  // namespace

SmCore::SmCore(const GpuConfig& cfg, SmId id, const AddressMap& address_map)
    : cfg_(cfg),
      id_(id),
      address_map_(address_map),
      l1_(cfg.l1_num_sets(), cfg.l1_assoc, cfg.line_bytes),
      l1_mshr_(cfg.l1_mshr_entries),
      out_queue_(kOutQueueDepth),
      ready_(cfg.max_warps_per_sm),
      waiting_(cfg.max_warps_per_sm) {
  warps_.resize(cfg.max_warps_per_sm);
  blocks_.resize(cfg.max_blocks_per_sm);
}

void SmCore::assign(BlockSource* source, Cycle now) {
  SIM_INVARIANT(source != nullptr, "sm.core", "assign() with null source");
  SIM_CHECK(source_ == nullptr,
            SimError(SimErrorKind::kInvariant, "sm.core",
                     "assign() on an SM that was not released")
                .app(app())
                .detail("sm", id_));
  source_ = source;
  draining_ = false;
  refill_blocks(now);
}

bool SmCore::drained() const {
  // dup_expect_ means a response for this SM is (or was) still in the
  // network; releasing the core before it lands would deliver it to a
  // reassigned SM.  retries_ is implied by l1_mshr_.in_flight().
  if (!pending_txns_.empty() || !local_hits_.empty() || !out_queue_.empty() ||
      l1_mshr_.in_flight() != 0 || !dup_expect_.empty()) {
    return false;
  }
  return !ready_.any() && !waiting_.any();
}

void SmCore::release() {
  SIM_CHECK(drained(),
            SimError(SimErrorKind::kInvariant, "sm.core",
                     "release() of an SM still holding work")
                .app(app())
                .detail("sm", id_)
                .detail("live_warps", live_warps())
                .detail("out_queue", out_queue_.size())
                .detail("l1_mshr_in_flight", l1_mshr_.in_flight()));
  source_ = nullptr;
  draining_ = false;
  last_issued_ = -1;
  for (WarpCtx& w : warps_) w = WarpCtx{};
  for (BlockSlot& b : blocks_) b = BlockSlot{};
  ready_.clear();
  waiting_.clear();
  active_blocks_ = 0;
  l1_.clear();
  l1_mshr_.clear();
  blocked_miss_.reset();
  retries_.clear();
  dup_expect_.clear();
  next_retry_deadline_ = kNeverCycle;
}

int SmCore::max_concurrent_blocks() const {
  if (source_ == nullptr) return 0;
  const KernelProfile& profile = source_->profile();
  const int by_warps = cfg_.max_warps_per_sm / profile.warps_per_block;
  int limit = std::min(cfg_.max_blocks_per_sm, std::max(1, by_warps));
  if (profile.max_concurrent_blocks > 0) {
    limit = std::min(limit, profile.max_concurrent_blocks);
  }
  return limit;
}

void SmCore::refill_blocks(Cycle now) {
  if (source_ == nullptr || draining_) return;
  const int limit = max_concurrent_blocks();
  if (active_blocks_ >= limit) return;
  const KernelProfile& profile = source_->profile();

  for (int slot = 0; slot < static_cast<int>(blocks_.size()); ++slot) {
    if (blocks_[slot].active) continue;
    if (active_blocks_ >= limit) break;
    const int free_ctxs = static_cast<int>(warps_.size()) - live_warps();
    if (free_ctxs < profile.warps_per_block) break;
    const std::optional<u64> block = source_->try_alloc_block();
    if (!block.has_value()) break;

    ++active_blocks_;
    blocks_[slot].active = true;
    blocks_[slot].block_index = *block;
    blocks_[slot].warps_remaining = profile.warps_per_block;
    if (recorder_ != nullptr) {
      recorder_->record(now, FrEvent::kBlockDispatch, id_, source_->app(),
                        *block, 0);
    }
    blocks_[slot].stream = AddressStream::make_block_stream(
        profile, source_->app_seed(), *block);
    // Warp i of the block takes the i-th lowest free context.
    for (int i = 0; i < profile.warps_per_block; ++i) {
      const int ctx = ready_.first_clear_in_both(waiting_);
      WarpCtx& w = warps_[ctx];
      w = WarpCtx{};
      w.state = WarpCtx::State::kReady;
      ready_.set(ctx);
      w.budget = profile.instrs_per_warp;
      w.block_slot = slot;
      w.stream.emplace(&profile, source_->app(), source_->app_seed(), *block,
                       i, &blocks_[slot].stream);
      w.compute_remaining = w.stream->next_compute_run();
    }
  }
}

void SmCore::cycle(Cycle now) {
  // 0. Reissue timed-out misses (no-op unless mshr_retry_enabled).
  check_retries(now);

  // 1. Mature L1 hits.
  while (!local_hits_.empty() && local_hits_.front().first <= now) {
    complete_txn(local_hits_.front().second);
    local_hits_.pop_front();
  }

  // 2. Dispatch pending memory transactions through the L1.
  dispatch_pending(now);

  // 3. Issue stage.
  issue(now);

  // 4. Keep block slots occupied.
  refill_blocks(now);
}

void SmCore::dispatch_pending(Cycle now) {
  for (int n = 0; n < kTxnDispatchPerCycle && !pending_txns_.empty(); ++n) {
    const PendingTxn txn = pending_txns_.front();
    const u64 line = txn.addr;

    // A head that stalled on a miss is still a miss (see blocked_miss_), so
    // while it waits only the resources it needs are re-checked.
    const bool known_miss = blocked_miss_ == line;
    Mshr::Probe in_flight;
    if (!known_miss) {
      in_flight = l1_mshr_.probe(line);
      if (in_flight.in_flight()) {
        counters_.l1_accesses.add();
        l1_mshr_.merge(in_flight, {id_, txn.warp, app()});
        pending_txns_.pop_front();
        continue;
      }
      const int way = l1_.find_way(line);
      if (way != SetAssocCache::kNoWay) {
        counters_.l1_accesses.add();
        l1_.touch(way, app());
        counters_.l1_hits.add();
        local_hits_.emplace_back(now + cfg_.l1_hit_latency, txn.warp);
        pending_txns_.pop_front();
        continue;
      }
    }
    if (l1_mshr_.full() || out_queue_.full()) {
      blocked_miss_ = line;
      break;  // retry next cycle
    }
    blocked_miss_.reset();
    // Releases while the head waited may have moved index slots.
    if (known_miss) in_flight = l1_mshr_.probe(line);
    counters_.l1_accesses.add();
    l1_.touch(SetAssocCache::kNoWay, app());  // records the L1 miss
    l1_mshr_.insert(in_flight, line, {id_, txn.warp, app()});
    MemRequestPacket pkt;
    pkt.line_addr = line;
    pkt.app = app();
    pkt.sm = id_;
    pkt.warp = txn.warp;
    pkt.dest = address_map_.partition_of(line);
    pkt.ready = now;
    const bool pushed = out_queue_.try_push(pkt);
    SIM_CHECK(pushed, SimError(SimErrorKind::kQueueOverflow, "sm.core",
                               "out queue overflow after full() check")
                          .cycle(now)
                          .app(app())
                          .detail("sm", id_)
                          .detail("occupancy", out_queue_.size()));
    if (taps_ != nullptr) taps_->requests_sent.add(app());
    if (cfg_.mshr_retry_enabled) {
      RetryState rs;
      rs.pkt = pkt;
      rs.deadline = now + cfg_.mshr_retry_timeout;
      retries_[line] = rs;
      if (rs.deadline < next_retry_deadline_) next_retry_deadline_ = rs.deadline;
    }
    pending_txns_.pop_front();
  }
}

void SmCore::recompute_next_retry_deadline() {
  next_retry_deadline_ = kNeverCycle;
  for (const auto& [line, rs] : retries_) {
    if (rs.deadline < next_retry_deadline_) next_retry_deadline_ = rs.deadline;
  }
}

void SmCore::check_retries(Cycle now) {
  if (!cfg_.mshr_retry_enabled || next_retry_deadline_ > now) return;
  for (auto& [line, rs] : retries_) {
    if (rs.deadline > now) continue;
    if (rs.attempts >= cfg_.mshr_retry_max && recorder_ != nullptr) {
      // Recorded before the throw so the crash bundle's timeline ends with
      // the event that killed the run.
      recorder_->record(now, FrEvent::kMshrExhausted, id_, app(), line,
                        static_cast<u64>(rs.attempts));
    }
    SIM_CHECK(rs.attempts < cfg_.mshr_retry_max,
              SimError(SimErrorKind::kRecoveryExhausted, "sm.core",
                       "miss response never arrived: reissue budget spent")
                  .cycle(now)
                  .app(app())
                  .detail("sm", id_)
                  .detail("line", line)
                  .detail("reissues", rs.attempts)
                  .detail("mshr_retry_max", cfg_.mshr_retry_max));
    if (out_queue_.full()) {
      rs.deadline = now + 1;  // retry the reissue as soon as a slot frees
      continue;
    }
    MemRequestPacket pkt = rs.pkt;
    pkt.ready = now;
    const bool pushed = out_queue_.try_push(pkt);
    SIM_CHECK(pushed, SimError(SimErrorKind::kQueueOverflow, "sm.core",
                               "out queue overflow on retry reissue")
                          .cycle(now)
                          .app(app())
                          .detail("sm", id_));
    if (taps_ != nullptr) {
      taps_->requests_sent.add(pkt.app);
      taps_->retries_issued.add(pkt.app);
    }
    ++rs.attempts;
    // Exponential backoff: timeout doubles with each reissue.
    rs.deadline = now + (cfg_.mshr_retry_timeout << rs.attempts);
    if (recorder_ != nullptr) {
      recorder_->record(now, FrEvent::kMshrRetry, id_, pkt.app, line,
                        static_cast<u64>(rs.attempts));
    }
  }
  recompute_next_retry_deadline();
}

void SmCore::issue(Cycle now) {
  (void)now;
  // Greedy-then-oldest: stick with the last issued warp while it stays
  // ready, otherwise take the lowest-indexed ready warp.
  const WarpId pick = last_issued_ >= 0 && ready_.test(last_issued_)
                           ? last_issued_
                           : ready_.first();

  if (pick < 0) {
    // No warp is ready, so any live warp is waiting on memory.
    if (waiting_.any()) {
      counters_.mem_stall_cycles.add();
    } else {
      counters_.idle_cycles.add();
    }
    return;
  }

  WarpCtx& warp = warps_[pick];
  last_issued_ = pick;
  counters_.instructions.add();
  counters_.issue_cycles.add();
  if (instr_sink_ != nullptr) instr_sink_->add(app());
  ++warp.instrs_done;

  if (warp.compute_remaining > 0) {
    --warp.compute_remaining;
    if (warp.instrs_done >= warp.budget) retire_warp(pick);
    return;
  }

  // Memory instruction: generate coalesced transactions.
  counters_.mem_instructions.add();
  addr_scratch_.clear();
  warp.stream->next_mem_instr(addr_scratch_);
  warp.compute_remaining = warp.stream->next_compute_run();
  warp.outstanding = static_cast<int>(addr_scratch_.size());
  warp.state = WarpCtx::State::kWaitingMem;
  ready_.reset(pick);
  waiting_.set(pick);
  for (u64 addr : addr_scratch_) {
    pending_txns_.push_back({pick, addr});
  }
}

void SmCore::complete_txn(WarpId warp_id) {
  WarpCtx& warp = warps_[warp_id];
  SIM_CHECK(warp.state == WarpCtx::State::kWaitingMem && warp.outstanding > 0,
            SimError(SimErrorKind::kInvariant, "sm.core",
                     "memory completion for a warp that is not waiting "
                     "(duplicated response?)")
                .app(app())
                .detail("sm", id_)
                .detail("warp", warp_id)
                .detail("state", static_cast<int>(warp.state))
                .detail("outstanding", warp.outstanding));
  if (--warp.outstanding == 0) {
    if (warp.instrs_done >= warp.budget) {
      retire_warp(warp_id);
    } else {
      warp.state = WarpCtx::State::kReady;
      waiting_.reset(warp_id);
      ready_.set(warp_id);
    }
  }
}

void SmCore::retire_warp(WarpId warp_id) {
  WarpCtx& warp = warps_[warp_id];
  warp.state = WarpCtx::State::kDone;
  ready_.reset(warp_id);
  waiting_.reset(warp_id);
  BlockSlot& block = blocks_[warp.block_slot];
  SIM_CHECK(block.active && block.warps_remaining > 0,
            SimError(SimErrorKind::kInvariant, "sm.core",
                     "warp retired into an inactive or exhausted block slot")
                .app(app())
                .detail("sm", id_)
                .detail("block_slot", warp.block_slot)
                .detail("warps_remaining", block.warps_remaining));
  if (--block.warps_remaining == 0) {
    block.active = false;
    --active_blocks_;
    source_->on_block_complete(block.block_index);
    // Free every context of this block for reuse.
    for (WarpCtx& w : warps_) {
      if (w.block_slot == warp.block_slot &&
          w.state == WarpCtx::State::kDone) {
        w = WarpCtx{};
      }
    }
  }
}

void SmCore::derive_bookkeeping(WarpMask& ready, WarpMask& waiting,
                                int& active_blocks) const {
  ready.clear();
  waiting.clear();
  for (int i = 0; i < static_cast<int>(warps_.size()); ++i) {
    if (warps_[i].state == WarpCtx::State::kReady) ready.set(i);
    if (warps_[i].state == WarpCtx::State::kWaitingMem) waiting.set(i);
  }
  active_blocks = static_cast<int>(
      std::count_if(blocks_.begin(), blocks_.end(),
                    [](const BlockSlot& b) { return b.active; }));
}

std::string SmCore::audit_bookkeeping() const {
  WarpMask ready(static_cast<int>(warps_.size()));
  WarpMask waiting(static_cast<int>(warps_.size()));
  int active = 0;
  derive_bookkeeping(ready, waiting, active);
  if (!(ready == ready_)) return "ready mask disagrees with warp states";
  if (!(waiting == waiting_)) return "waiting mask disagrees with warp states";
  if (active != active_blocks_) {
    return "active-block count " + std::to_string(active_blocks_) +
           " disagrees with " + std::to_string(active) + " active slots";
  }
  return "";
}

void SmCore::load(StateReader& r, BlockSource* source) {
  source_ = source;
  r.expect_tag("SMCR");
  draining_ = r.get_bool();
  last_issued_ = r.get_i32();
  SIM_CHECK(last_issued_ >= -1 &&
                last_issued_ < static_cast<int>(warps_.size()),
            SimError(SimErrorKind::kSnapshot, "sm.core",
                     "corrupt last-issued warp index in snapshot")
                .detail("sm", id_)
                .detail("last_issued", last_issued_)
                .detail("warp_contexts", warps_.size()));
  const int saved_ready = r.get_i32();
  for (BlockSlot& b : blocks_) {
    b.active = r.get_bool();
    b.block_index = r.get_u64();
    b.warps_remaining = r.get_i32();
    b.stream.base_line = r.get_u64();
    b.stream.cursor = r.get_u64();
  }
  for (WarpCtx& w : warps_) {
    w.stream.reset();
    const u8 state = r.get_u8();
    SIM_CHECK(state <= static_cast<u8>(WarpCtx::State::kDone),
              SimError(SimErrorKind::kSnapshot, "sm.core",
                       "corrupt warp state in snapshot")
                  .detail("sm", id_)
                  .detail("state", static_cast<int>(state)));
    w.state = static_cast<WarpCtx::State>(state);
    w.instrs_done = r.get_u64();
    w.budget = r.get_u64();
    w.compute_remaining = r.get_u64();
    w.outstanding = r.get_i32();
    w.block_slot = r.get_i32();
    // A live or retiring warp's block slot is dereferenced on the next
    // retire; a corrupt index must die here as a typed error, not as an
    // out-of-bounds store later.
    SIM_CHECK(w.state == WarpCtx::State::kUnused ||
                  (w.block_slot >= -1 &&
                   w.block_slot < static_cast<int>(blocks_.size())),
              SimError(SimErrorKind::kSnapshot, "sm.core",
                       "corrupt warp block-slot index in snapshot")
                  .detail("sm", id_)
                  .detail("block_slot", w.block_slot)
                  .detail("block_slots", blocks_.size()));
    if (r.get_bool()) {
      // Reconstruct the stream against the freshly restored block cursor,
      // then overwrite its RNG with the saved engine state (warp_in_block
      // only perturbs the constructor seed, so 0 is fine here).
      SIM_CHECK(source_ != nullptr && w.block_slot >= 0 &&
                    w.block_slot < static_cast<int>(blocks_.size()),
                SimError(SimErrorKind::kSnapshot, "sm.core",
                         "warp stream without a resolvable block source")
                    .detail("sm", id_)
                    .detail("block_slot", w.block_slot));
      BlockSlot& b = blocks_[w.block_slot];
      w.stream.emplace(&source_->profile(), source_->app(),
                       source_->app_seed(), b.block_index, 0, &b.stream);
      w.stream->load(r);
    }
  }
  derive_bookkeeping(ready_, waiting_, active_blocks_);
  // The count is redundant with the warp states; a disagreement means the
  // snapshot is corrupt, and trusting either side would let quiet_at()
  // put a core with issuable warps to sleep.
  SIM_CHECK(saved_ready == ready_.count(),
            SimError(SimErrorKind::kSnapshot, "sm.core",
                     "ready-warp count in snapshot disagrees with warp states")
                .detail("sm", id_)
                .detail("ready_warps", saved_ready)
                .detail("ready_states", ready_.count()));
  const auto check_warp_index = [this](WarpId warp, const char* what) {
    SIM_CHECK(warp >= 0 && warp < static_cast<WarpId>(warps_.size()),
              SimError(SimErrorKind::kSnapshot, "sm.core",
                       "corrupt warp index in snapshot")
                  .detail("sm", id_)
                  .detail("what", what)
                  .detail("warp", warp)
                  .detail("warp_contexts", warps_.size()));
  };
  pending_txns_.clear();
  blocked_miss_.reset();
  const u64 txns = r.get_count(1u << 20, "sm pending txns");
  for (u64 i = 0; i < txns; ++i) {
    PendingTxn t{};
    t.warp = r.get_i32();
    check_warp_index(t.warp, "pending txn");
    t.addr = r.get_u64();
    pending_txns_.push_back(t);
  }
  local_hits_.clear();
  const u64 hits = r.get_count(1u << 20, "sm local hits");
  for (u64 i = 0; i < hits; ++i) {
    const Cycle ready = r.get_u64();
    const WarpId warp = r.get_i32();
    check_warp_index(warp, "local hit");
    local_hits_.emplace_back(ready, warp);
  }
  l1_.load(r);
  l1_mshr_.load(r);
  out_queue_.load(r);
  counters_.load(r);
  retries_.clear();
  const u64 n_retries = r.get_count(1u << 20, "sm retry entries");
  for (u64 i = 0; i < n_retries; ++i) {
    const u64 line = r.get_u64();
    RetryState rs;
    read_item(r, rs.pkt);
    rs.deadline = r.get_u64();
    rs.attempts = r.get_i32();
    // attempts is a left-shift exponent in check_retries(); a corrupt value
    // would be undefined behaviour, not just a wrong backoff.
    SIM_CHECK(rs.attempts >= 0 && rs.attempts <= 62,
              SimError(SimErrorKind::kSnapshot, "sm.core",
                       "corrupt retry attempt count in snapshot")
                  .detail("sm", id_)
                  .detail("attempts", rs.attempts));
    retries_[line] = rs;
  }
  dup_expect_.clear();
  const u64 n_dups = r.get_count(1u << 20, "sm expected duplicates");
  for (u64 i = 0; i < n_dups; ++i) {
    const u64 line = r.get_u64();
    DupExpect d;
    d.count = r.get_i32();
    d.app = r.get_i32();
    dup_expect_[line] = d;
  }
  recompute_next_retry_deadline();
}

void SmCore::receive(const MemResponsePacket& resp) {
  if (cfg_.mshr_retry_enabled && !l1_mshr_.contains(resp.line_addr)) {
    // A line with no MSHR entry is either an expected duplicate (the slower
    // copy of an original-vs-retry race — absorb it) or a genuine rogue
    // double completion (fall through so Mshr::release raises the same
    // invariant it would without recovery).
    const auto it = dup_expect_.find(resp.line_addr);
    if (it != dup_expect_.end()) {
      if (--it->second.count == 0) dup_expect_.erase(it);
      if (taps_ != nullptr) taps_->duplicates_absorbed.add(resp.app);
      return;
    }
  }
  l1_.fill(resp.line_addr, resp.app);
  l1_mshr_.release(resp.line_addr,
                   [&](const MshrWaiter& w) { complete_txn(w.warp); });
  if (cfg_.mshr_retry_enabled) {
    const auto it = retries_.find(resp.line_addr);
    if (it != retries_.end()) {
      // Every reissue beyond the copy just consumed is still in the system
      // (or was dropped); expect and absorb that many more responses.
      if (it->second.attempts > 0) {
        DupExpect& d = dup_expect_[resp.line_addr];
        d.count += it->second.attempts;
        d.app = it->second.pkt.app;
      }
      retries_.erase(it);
      recompute_next_retry_deadline();
    }
  }
}

}  // namespace gpusim
