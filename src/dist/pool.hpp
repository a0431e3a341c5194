#ifndef PUMI_DIST_POOL_HPP
#define PUMI_DIST_POOL_HPP

/// \file pool.hpp
/// \brief The process-wide worker pool that runs per-part loops (the
/// paper's hybrid mode, Sec. II-D: "part manipulations take place in
/// parallel threads").
///
/// One pool serves the whole process. Its threads start on first use and
/// live until exit; between loops they spin briefly, then sleep. One loop
/// runs on the pool at a time: a caller that finds it busy (another
/// service tenant, or a loop nested in a pool task) runs its loop inline on
/// its own thread. Either way every task runs, under the caller's fault
/// domain (pcu::faults::DomainScope) and trace tenant, and the error of the
/// lowest failing index is rethrown once every task has finished.
///
/// Callers own determinism: a task may write only state that belongs to
/// its index (dist::Network::forEachPart stages each part's sends
/// separately and merges them in part order).

#include <cstddef>
#include <functional>

namespace dist::pool {

/// Threads a loop can use, the caller included: hardware_concurrency(),
/// at least 1.
[[nodiscard]] int size();

/// Run task(i) for every i in [0, n) on up to `width` threads (the caller
/// included; capped by size() and n) and return once all have finished.
/// Rethrows the exception of the lowest i that threw.
void run(std::size_t n, int width,
         const std::function<void(std::size_t)>& task);

}  // namespace dist::pool

#endif  // PUMI_DIST_POOL_HPP
