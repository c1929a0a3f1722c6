// Deterministic parallel replicate engine: fans (config, seed) replicates
// out across threads started per call and lets callers merge results in
// seed order, so parallel sweeps are bit-identical to serial ones
// regardless of WSN_JOBS.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace wsn::scenario {

/// Worker count for parallel sweeps: the WSN_JOBS env var, validated like
/// the other knobs (whole string, range [1, 4096]; invalid values warn on
/// stderr and are ignored); default is the hardware concurrency. Read once
/// and cached for the life of the process, so every sweep of one run uses
/// the same job count and later env changes are ignored by design.
int jobs_from_env();

/// Runs fn(i) for every i in [0, count). With one effective job (`jobs`,
/// or WSN_JOBS when jobs <= 0) or one index, runs them in index order on
/// the calling thread. Otherwise starts min(jobs, count) threads that
/// claim indices from one counter; which thread runs which index is racy
/// by design — determinism comes from writing into index-addressed slots
/// and merging in index order, never from scheduling. The join publishes
/// every slot to the caller. If tasks throw, every index still runs and
/// the lowest-index exception is rethrown.
///
/// Thread-safety contract for tasks: a task may touch only its own slot
/// plus state that is thread-safe process-wide (the WSN_AUDIT counters,
/// the flight-recorder registry). Everything a `run_experiment` call uses
/// is otherwise local to the call, so replicates parallelise without locks
/// in the hot path. A task may itself call for_each_index.
template <class Fn>
void for_each_index(std::size_t count, Fn&& fn, int jobs = 0) {
  const auto effective =
      static_cast<std::size_t>(jobs > 0 ? jobs : jobs_from_env());
  if (effective <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(count);
  {
    const std::size_t workers = std::min(effective, count);
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next++; i < count; i = next++) {
          try {
            fn(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
  }  // the jthreads join here
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace wsn::scenario
