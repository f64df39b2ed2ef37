// One-shot parallel loop for the embarrassingly-parallel sweeps in the
// figure benches and the chaos and replication campaign suites.
//
// Usage contract for determinism: executors claim loop indices from an
// atomic cursor and write results ONLY into caller-owned, per-index
// slots. Rendering (tables, JSON) happens after parallel_for_index
// returns, in index order, so output is byte-identical for any thread
// count.
#pragma once

#include <cstddef>
#include <functional>

namespace selfheal::util {

/// Runs body(i) for every i in [0, count) across min(threads, count)
/// executors: the caller plus that many minus one threads, all joined
/// before returning. threads == 0 means std::thread::hardware_concurrency()
/// (1 if unknown); threads <= 1 or count <= 1 runs inline, in index
/// order. The first exception thrown by any body is rethrown after the
/// join, and the indices nobody had claimed yet are abandoned.
void parallel_for_index(std::size_t threads, std::size_t count,
                        const std::function<void(std::size_t)>& body);

}  // namespace selfheal::util
