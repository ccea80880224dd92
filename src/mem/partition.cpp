#include "mem/partition.hpp"

namespace gpusim {

namespace {
constexpr int kL2PortsPerCycle = 2;  // request-consumption bandwidth
/// Hard ceiling on the deferred DRAM-fill responses a partition may hold
/// while its response queue is saturated.  Reaching it means the response
/// path has been wedged for thousands of cycles — a real bug, not
/// transient backpressure — so SimGuard turns it into a diagnosis.
constexpr std::size_t kDeferredRespHardCap = 1 << 16;
}  // namespace

MemoryPartition::MemoryPartition(const GpuConfig& cfg, int num_apps,
                                 PartitionId id)
    : cfg_(cfg),
      id_(id),
      address_map_(cfg),
      l2_(cfg.l2_num_sets(), cfg.l2_assoc, cfg.line_bytes),
      mshr_(cfg.l2_mshr_entries),
      mc_(cfg, num_apps),
      resp_queue_(cfg.partition_resp_queue_depth) {
  atds_.reserve(num_apps);
  for (int a = 0; a < num_apps; ++a) {
    atds_.push_back(std::make_unique<SampledAtd>(
        cfg.l2_num_sets(), cfg.l2_assoc, cfg.line_bytes,
        cfg.atd_sampled_sets));
  }
}

void MemoryPartition::push_response(MemResponsePacket resp, Cycle now) {
  if (taps_ != nullptr) taps_->responses_enqueued.add(resp.app);
  if (resp_queue_.try_push(resp)) {
    if (recorder_ != nullptr) {
      recorder_->note_resp_occupancy(now, id_, resp_queue_.size(),
                                     resp_queue_.capacity());
    }
    return;
  }
  // Response queue saturated: defer instead of dropping.  The deferred
  // FIFO drains into the response queue ahead of new traffic, preserving
  // order among fills; a hard cap bounds pathological wedges.
  SIM_CHECK(deferred_resps_.size() < kDeferredRespHardCap,
            SimError(SimErrorKind::kQueueOverflow, "mem.partition",
                     "response path wedged: deferred-response overflow")
                .cycle(now)
                .app(resp.app)
                .detail("partition", id_)
                .detail("resp_queue_capacity", resp_queue_.capacity())
                .detail("deferred", deferred_resps_.size()));
  deferred_resps_.push_back(resp);
  if (recorder_ != nullptr) {
    recorder_->note_deferred_backlog(now, id_, deferred_resps_.size());
  }
}

void MemoryPartition::cycle(Cycle now,
                            BoundedQueue<MemRequestPacket>& in_queue) {
  // 0. Drain previously deferred responses ahead of new traffic.
  while (!deferred_resps_.empty() &&
         resp_queue_.try_push(deferred_resps_.front())) {
    deferred_resps_.pop_front();
  }

  // 1. DRAM progress; retire completed lines into the L2 and fan responses
  //    out to every MSHR waiter.
  completed_scratch_.clear();
  mc_.cycle(now, completed_scratch_);
  for (const DramCmd& done : completed_scratch_) {
    // Injected fault: a bit-flip corrupts the fill address between DRAM and
    // the L2/MSHR.  The flipped line almost never matches an MSHR entry, so
    // Mshr::release raises its double-completion invariant — the guard the
    // chaos classifier expects to catch this corruption.
    const u64 fill_line = injector_ != nullptr
                              ? injector_->corrupt_fill_line(done.line_addr)
                              : done.line_addr;
    if (recorder_ != nullptr && fill_line != done.line_addr) {
      recorder_->record(now, FrEvent::kFaultCorrupt, id_, done.app,
                        done.line_addr, fill_line);
    }
    l2_.fill(fill_line, done.app);
    mshr_.release(fill_line, [&](const MshrWaiter& w) {
      MemResponsePacket resp;
      resp.line_addr = fill_line;
      resp.app = w.app;
      resp.sm = w.sm;
      resp.warp = w.warp;
      resp.ready = now + cfg_.l2_miss_extra_latency;
      push_response(resp, now);
    });
  }

  // 2. Matured L2 hits become responses; a full response queue
  //    back-pressures them (they retry next cycle, order preserved).
  while (!pending_hits_.empty() && pending_hits_.front().ready <= now) {
    if (resp_queue_.full()) break;
    if (taps_ != nullptr) taps_->responses_enqueued.add(pending_hits_.front().app);
    const bool pushed = resp_queue_.try_push(pending_hits_.front());
    SIM_CHECK(pushed, SimError(SimErrorKind::kQueueOverflow, "mem.partition",
                               "response queue overflow after full() check")
                          .cycle(now)
                          .detail("partition", id_));
    if (recorder_ != nullptr) {
      recorder_->note_resp_occupancy(now, id_, resp_queue_.size(),
                                     resp_queue_.capacity());
    }
    pending_hits_.pop_front();
  }

  // 3. L2 demand stage: consume the crossbar input queue.
  auto note_access = [&](AppId app) {
    counters_.l2_accesses.add(app);
    if (mc_.priority_app() == app) {
      counters_.l2_accesses_priority.add(app);
    } else if (mc_.priority_app() == kInvalidApp) {
      counters_.l2_accesses_nonpriority.add(app);
    }
  };
  for (int port = 0; port < kL2PortsPerCycle; ++port) {
    if (in_queue.empty() || in_queue.front().ready > now) break;
    if (injector_ != nullptr && injector_->should_drop_request()) {
      // Injected fault: the packet vanishes without being processed, as a
      // real routing bug would make it.  The conservation taps are *not*
      // told — the auditor must discover the leak on its own.  The flight
      // recorder *is*: it records what actually happened, exactly the
      // information a postmortem needs to explain the auditor's imbalance.
      if (recorder_ != nullptr) {
        recorder_->record(now, FrEvent::kFaultDropReq, id_,
                          in_queue.front().app, in_queue.front().line_addr, 0);
      }
      in_queue.pop();
      continue;
    }
    const MemRequestPacket& req = in_queue.front();
    const u64 line = req.line_addr;

    // A head that stalled on a miss is still a miss (see blocked_miss_), so
    // while it waits only the resources it needs are re-checked.
    const bool known_miss = blocked_miss_ == line;
    Mshr::Probe in_flight;
    int way = SetAssocCache::kNoWay;
    if (!known_miss) {
      in_flight = mshr_.probe(line);
      if (in_flight.in_flight()) {
        // Merge into the in-flight miss; no new DRAM request, no ATD change
        // (the primary miss already updated the alone-model).
        note_access(req.app);
        if (taps_ != nullptr) taps_->requests_consumed.add(req.app);
        mshr_.merge(in_flight, {req.sm, req.warp, req.app});
        in_queue.pop();
        continue;
      }
      way = l2_.find_way(line);
    }

    if (way == SetAssocCache::kNoWay) {
      // Need both an MSHR slot and a bank-queue slot before consuming.
      if (mshr_.full() || mc_.queue_full()) {
        blocked_miss_ = line;
        break;
      }
      blocked_miss_.reset();
      // Fills while the head waited may have moved index slots.
      if (known_miss) in_flight = mshr_.probe(line);
      const DramCoordinates coords = address_map_.decode(line);

      note_access(req.app);
      if (taps_ != nullptr) taps_->requests_consumed.add(req.app);
      l2_.touch(way, req.app);  // records the miss
      // DASE Eq. 13 contention-miss detection: an L2 miss that hits in the
      // application's private (alone-model) tag directory means the line
      // was evicted by a co-runner.
      SampledAtd& atd = *atds_[req.app];
      if (atd.is_sampled(line)) {
        if (atd.access(line)) {
          atd.record_extra_miss();
          counters_.atd_extra_miss_samples.add(req.app);
        }
      }
      mshr_.insert(in_flight, line, {req.sm, req.warp, req.app});
      DramCmd cmd;
      cmd.line_addr = line;
      cmd.app = req.app;
      cmd.bank = coords.bank;
      cmd.row = coords.row;
      cmd.enqueued = now;
      const bool queued = mc_.try_enqueue(cmd);
      SIM_CHECK(queued,
                SimError(SimErrorKind::kQueueOverflow, "mem.partition",
                         "MC queue full after capacity check")
                    .cycle(now)
                    .app(req.app)
                    .detail("partition", id_)
                    .detail("mc_queue_size", mc_.queue_size()));
      in_queue.pop();
      continue;
    }

    // L2 hit.
    note_access(req.app);
    if (taps_ != nullptr) taps_->requests_consumed.add(req.app);
    counters_.l2_hits.add(req.app);
    l2_.touch(way, req.app);
    SampledAtd& atd = *atds_[req.app];
    if (atd.is_sampled(line)) atd.access(line);

    MemResponsePacket resp;
    resp.line_addr = line;
    resp.app = req.app;
    resp.sm = req.sm;
    resp.warp = req.warp;
    resp.ready = now + cfg_.l2_hit_latency;
    pending_hits_.push_back(resp);
    in_queue.pop();
  }
}

void MemoryPartition::count_in_flight(std::array<u64, kMaxApps>& out) const {
  mshr_.count_waiters_by_app(out);
  for (const MemResponsePacket& r : pending_hits_) {
    if (r.app >= 0 && r.app < kMaxApps) ++out[r.app];
  }
  for (const MemResponsePacket& r : deferred_resps_) {
    if (r.app >= 0 && r.app < kMaxApps) ++out[r.app];
  }
  for (const MemResponsePacket& r : resp_queue_) {
    if (r.app >= 0 && r.app < kMaxApps) ++out[r.app];
  }
}

}  // namespace gpusim
