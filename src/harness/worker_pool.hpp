// Shared index-claiming worker pool.
//
// SweepRunner, the chaos campaign engine and the JobManager all fan
// independent jobs across threads with the same scheme: workers claim
// pending indices from one atomic cursor and write results into disjoint,
// index-addressed slots, so the assembled output is identical for every
// worker count.
// This header is that scheme, extracted once — any determinism argument
// about "who ran what when" reduces to this single primitive.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpusim {

/// Worker threads for `n` indices: `jobs`, where 0 means one per hardware
/// thread, but never more than n.
inline int worker_count(int jobs, std::size_t n) {
  if (jobs == 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  return static_cast<int>(std::min<std::size_t>(std::max(jobs, 1), n));
}

/// Runs body(worker, index) once for every index in [0, n), distributed
/// over worker_count(jobs, n) threads.  One worker runs everything inline
/// on the calling thread, with no thread spawned.  When `abort` is non-null, no new index is claimed once
/// it turns true; bodies already in flight complete normally.  A body that
/// throws stops new claims the same way, and once every worker has finished
/// the exception of the lowest throwing index is rethrown, so the error a
/// caller sees never depends on thread timing.
inline void run_indexed(std::size_t n, int jobs,
                        const std::function<void(int, std::size_t)>& body,
                        const std::atomic<bool>* abort = nullptr) {
  jobs = worker_count(jobs, n);
  std::atomic<bool> failed{false};
  std::mutex failure_mu;
  std::size_t failed_index = n;
  std::exception_ptr failure;
  std::atomic<std::size_t> cursor{0};
  auto worker = [&](int w) {
    while (!failed.load(std::memory_order_relaxed) &&
           (abort == nullptr || !abort->load(std::memory_order_relaxed))) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        body(w, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(failure_mu);
        if (i < failed_index) {
          failed_index = i;
          failure = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  if (jobs <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) threads.emplace_back(worker, w);
    for (std::thread& t : threads) t.join();
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace gpusim
