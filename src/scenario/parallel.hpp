// Deterministic parallel replicate engine: a fixed-size thread pool that
// fans (config, seed) replicates out across workers and lets callers merge
// results in seed order, so parallel sweeps are bit-identical to serial
// ones regardless of WSN_JOBS.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wsn::scenario {

/// Fixed-size worker pool. Each `run_indexed` call dispatches indices
/// [0, count) to the workers; which worker runs which index is racy by
/// design — determinism comes from writing into index-addressed slots and
/// merging in index order, never from scheduling.
///
/// Thread-safety contract for tasks: a task may touch only its own slot
/// plus state that is thread-safe process-wide (the WSN_AUDIT counters,
/// the flight-recorder registry). Everything a `run_experiment` call uses
/// is otherwise local to the call, so replicates parallelise without locks
/// in the hot path.
class ThreadPool {
 public:
  /// Spawns `workers` (>= 1) threads that idle until work arrives.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn(i) for every i in [0, count) across the workers and blocks
  /// until all complete. Rethrows the first task exception (remaining tasks
  /// still run to completion first). Not reentrant: one batch at a time.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* fn_ = nullptr;  // guarded by mu_
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  std::size_t done_ = 0;
  std::uint64_t batch_ = 0;  // bumped per run_indexed so idle workers wake
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Worker count for parallel sweeps: the WSN_JOBS env var, validated like
/// the other knobs (whole string, range [1, 4096]; invalid values warn on
/// stderr and are ignored); default is the hardware concurrency. Read once
/// and cached for the life of the process — the shared pool is sized from
/// it, so later env changes are ignored by design.
int jobs_from_env();

/// Process-wide pool sized by jobs_from_env(), created on first use.
/// Benches reuse it across every sweep point instead of respawning threads.
ThreadPool& shared_pool();

/// Dispatches fn(i) for i in [0, count): serially in index order when the
/// effective job count (`jobs`, or WSN_JOBS when jobs <= 0) is 1, otherwise
/// on a pool of min(jobs, count) workers. This is the single entry point
/// the replicate engine and the bench harnesses parallelise through.
void for_each_index(std::size_t count,
                    const std::function<void(std::size_t)>& fn, int jobs = 0);

}  // namespace wsn::scenario
