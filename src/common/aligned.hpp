/**
 * @file
 * Over-aligned heap allocation for SIMD-friendly containers.
 *
 * The SoA statevector planes want 64-byte (cache-line / AVX-512-safe)
 * alignment so every kernel tier can issue aligned or unaligned loads
 * at full speed.  std::vector's default allocator only guarantees
 * alignof(std::max_align_t); this allocator routes through the
 * aligned operator new.
 */

#ifndef HAMMER_COMMON_ALIGNED_HPP
#define HAMMER_COMMON_ALIGNED_HPP

#include <cstddef>
#include <new>
#include <vector>

namespace hammer::common {

/** Minimal std::allocator replacement with fixed over-alignment. */
template <typename T, std::size_t Alignment>
struct AlignedAllocator
{
    static_assert((Alignment & (Alignment - 1)) == 0,
                  "alignment must be a power of two");
    static_assert(Alignment >= alignof(T),
                  "alignment below the type's natural alignment");

    using value_type = T;

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Alignment> &) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Alignment>;
    };

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{Alignment}));
    }

    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{Alignment});
    }

    template <typename U>
    bool operator==(const AlignedAllocator<U, Alignment> &) const noexcept
    {
        return true;
    }
    template <typename U>
    bool operator!=(const AlignedAllocator<U, Alignment> &) const noexcept
    {
        return false;
    }
};

/** 64-byte-aligned vector (the SoA amplitude-plane container). */
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

} // namespace hammer::common

#endif // HAMMER_COMMON_ALIGNED_HPP
