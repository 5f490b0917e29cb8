#ifndef SILKMOTH_UTIL_PARALLEL_H_
#define SILKMOTH_UTIL_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

namespace silkmoth {

/// Part `i` of `parts` (>= 1) contiguous pieces of [0, n), as a half-open
/// [begin, end) pair. Every piece holds ceil(n / parts) indices except at
/// the tail, where pieces may be short or empty; the pieces cover [0, n)
/// exactly once, in order, and depend only on (n, parts).
inline std::pair<size_t, size_t> Chunk(size_t n, size_t parts, size_t i) {
  const size_t per = (n + parts - 1) / parts;
  const size_t begin = std::min(n, i * per);
  return {begin, std::min(n, begin + per)};
}

/// Runs fn(w) for every w in [0, workers), each on its own thread, and
/// returns once all have finished. A single worker runs inline on the
/// calling thread, so its thread-local state persists across calls. `fn`
/// must make its workers touch disjoint state.
template <typename Fn>
void RunWorkers(size_t workers, const Fn& fn) {
  if (workers == 1) {
    fn(size_t{0});
    return;
  }
  // jthread joins on destruction, so the workers already started are
  // joined even when starting a later one throws.
  std::vector<std::jthread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&fn, w] { fn(w); });
  }
}

}  // namespace silkmoth

#endif  // SILKMOTH_UTIL_PARALLEL_H_
