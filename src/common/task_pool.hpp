// task_pool.hpp - the shared worker pool every parallel layer runs on.
//
// Evaluation and training sweeps (sim/runner.hpp), the federated merge
// (rl/federated.hpp) and the fleet server's round tail (codec, ring
// snapshot) all fan independent index ranges out through this one pool, so
// thread handling, exception order and the "workers <= 1 is serial"
// contract are decided once. sim/runner.hpp re-exports both functions as
// sim::run_indexed_tasks / sim::resolve_workers.
#pragma once

#include <cstddef>
#include <functional>

namespace nextgov {

/// Resolves a RunnerOptions-style worker request against a task count:
/// 0 = one worker per hardware thread, and never more workers than tasks.
[[nodiscard]] std::size_t resolve_workers(std::size_t requested, std::size_t tasks) noexcept;

/// Executes task(0) .. task(n-1) across `workers` threads with dynamic
/// work stealing off a shared counter (cells vary wildly in length, so
/// static striping would leave workers idle behind the longest stripe).
/// workers <= 1 runs serially in the calling thread. Exceptions are
/// collected per index and the first one in *index order* is rethrown
/// after all workers have drained.
void run_indexed_tasks(std::size_t n, std::size_t workers,
                       const std::function<void(std::size_t)>& task);

}  // namespace nextgov
