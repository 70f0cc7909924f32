/**
 * @file
 * Live-heap accounting for peak_heap_mb.
 *
 * heap.cpp replaces the global operator new/delete (every form, the
 * aligned ones that common::AlignedVector uses included) with thin
 * wrappers over malloc that count the usable bytes of each block.  The
 * peak is what the program held at once, whatever the allocator keeps
 * resident around it: glibc's per-thread arenas retain freed blocks, so
 * the process's peak RSS swings by tens of MB between runs of the same
 * requests while the bytes in use do not.
 */

#ifndef PERFBENCH_HEAP_HPP
#define PERFBENCH_HEAP_HPP

#include <atomic>
#include <cstdint>

namespace perfbench {

/** Bytes held through operator new right now. */
std::int64_t heapLiveBytes();

/** Most bytes held at once since start (or since trackPeakIn). */
std::int64_t heapPeakBytes();

/**
 * Count from zero and keep the peak in @p slot from now on: a forked
 * shard calls this with a slot of memory it shares with its parent, so
 * the parent can read the shard's peak while the shard runs.
 */
void trackPeakIn(std::atomic<std::int64_t> *slot);

} // namespace perfbench

#endif // PERFBENCH_HEAP_HPP
