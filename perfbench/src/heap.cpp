#include "heap.hpp"

#include <algorithm>
#include <cstdlib>
#include <malloc.h>
#include <new>

namespace perfbench {

namespace {

std::atomic<std::int64_t> live{0};
std::atomic<std::int64_t> ownPeak{0};
std::atomic<std::atomic<std::int64_t> *> peak{&ownPeak};

// Each thread batches its changes and folds them into the shared
// counter once they pass kFlushBytes, so threads that allocate often do
// not contend on one cache line: a shared counter updated on every
// call cost readout-both ~35% of its throughput.  The peak is low by at
// most kFlushBytes per running thread.
constexpr std::int64_t kFlushBytes = 16 * 1024;
thread_local std::int64_t pending = 0;

void
note(std::int64_t bytes) noexcept
{
    pending += bytes;
    if (pending < kFlushBytes && pending > -kFlushBytes)
        return;
    const std::int64_t now =
        live.fetch_add(pending, std::memory_order_relaxed) + pending;
    pending = 0;
    std::atomic<std::int64_t> &top = *peak.load(std::memory_order_relaxed);
    std::int64_t seen = top.load(std::memory_order_relaxed);
    while (now > seen &&
           !top.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
}

void
noteAlloc(void *p) noexcept
{
    note(static_cast<std::int64_t>(::malloc_usable_size(p)));
}

void *
allocate(std::size_t n) noexcept
{
    void *p = std::malloc(n != 0 ? n : 1);
    if (p != nullptr)
        noteAlloc(p);
    return p;
}

void *
allocate(std::size_t n, std::align_val_t align) noexcept
{
    void *p = nullptr;
    const std::size_t a =
        std::max(static_cast<std::size_t>(align), sizeof(void *));
    if (::posix_memalign(&p, a, n != 0 ? n : 1) != 0)
        return nullptr;
    noteAlloc(p);
    return p;
}

void
release(void *p) noexcept
{
    if (p == nullptr)
        return;
    note(-static_cast<std::int64_t>(::malloc_usable_size(p)));
    std::free(p);
}

void *
orThrow(void *p)
{
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

std::int64_t
heapLiveBytes()
{
    return live.load(std::memory_order_relaxed);
}

std::int64_t
heapPeakBytes()
{
    return peak.load(std::memory_order_relaxed)
        ->load(std::memory_order_relaxed);
}

void
trackPeakIn(std::atomic<std::int64_t> *slot)
{
    pending = 0;
    live.store(0, std::memory_order_relaxed);
    slot->store(0, std::memory_order_relaxed);
    peak.store(slot, std::memory_order_relaxed);
}

} // namespace perfbench

// The replaceable global allocation functions.
using perfbench::allocate;
using perfbench::orThrow;
using perfbench::release;

void *operator new(std::size_t n) { return orThrow(allocate(n)); }
void *operator new[](std::size_t n) { return orThrow(allocate(n)); }
void *operator new(std::size_t n, std::align_val_t a)
{
    return orThrow(allocate(n, a));
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return orThrow(allocate(n, a));
}
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}
void *operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t &) noexcept
{
    return allocate(n, a);
}
void *operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t &) noexcept
{
    return allocate(n, a);
}

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, std::align_val_t) noexcept { release(p); }
void operator delete[](void *p, std::align_val_t) noexcept { release(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept { release(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    release(p);
}
void operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    release(p);
}
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{
    release(p);
}
