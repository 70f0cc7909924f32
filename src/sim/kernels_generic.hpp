/**
 * @file
 * Templated SoA gate kernels, shared by every ISA tier.
 *
 * Each kernel is written once against a tiny vector abstraction V
 * (width / load / store / set1 / add / sub / mul / neg) and
 * instantiated per tier, so all tiers execute exactly the same
 * per-lane IEEE-754 operations in the same order — the bit-identity
 * contract between tiers holds by construction, not by testing luck
 * (the tests pin it anyway).  The per-lane formulas are the exact
 * textbook complex arithmetic the historical interleaved kernels
 * performed; see statevector.hpp for the kernel taxonomy.
 *
 * Iteration shapes:
 *
 *  - 1q kernels walk the |0> half in half-space blocks
 *    (base += mask<<1, i in [base, base+mask)); the inner run is
 *    contiguous, so it vectorises when mask >= V::width and falls
 *    back to the identical scalar formulas below that (bit-identical:
 *    same operations, same order).
 *  - 2q kernels enumerate the quarter space with both qubit bits
 *    clear via a hi/mid/lo triple loop whose innermost run is
 *    contiguous with length min(mask_a, mask_b) — same ascending
 *    index order as the historical bit-insertion enumeration, without
 *    the per-index shifts.
 *
 * NOT included here: norm accumulation and CDF sampling.  Those are
 * ordered reductions; they stay scalar-sequential in StateVector so
 * results remain bit-identical to the historical engine.
 */

#ifndef HAMMER_SIM_KERNELS_GENERIC_HPP
#define HAMMER_SIM_KERNELS_GENERIC_HPP

#include <cstddef>

#include "sim/kernels.hpp"

#define HAMMER_RESTRICT __restrict

namespace hammer::sim::detail {

/** Width-1 "vector": the scalar tier and every small-mask fallback. */
struct VScalar
{
    using Reg = double;
    static constexpr std::size_t width = 1;
    static Reg load(const double *p) { return *p; }
    static void store(double *p, Reg v) { *p = v; }
    static Reg set1(double x) { return x; }
    static Reg add(Reg a, Reg b) { return a + b; }
    static Reg sub(Reg a, Reg b) { return a - b; }
    static Reg mul(Reg a, Reg b) { return a * b; }
    static Reg neg(Reg a) { return -a; }
};

template <typename V>
inline void
apply1qT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
         std::size_t dim, std::size_t mask,
         const double *HAMMER_RESTRICT m)
{
    const double m0r = m[0], m0i = m[1], m1r = m[2], m1i = m[3];
    const double m2r = m[4], m2i = m[5], m3r = m[6], m3i = m[7];
    if (mask >= V::width) {
        const auto vm0r = V::set1(m0r), vm0i = V::set1(m0i);
        const auto vm1r = V::set1(m1r), vm1i = V::set1(m1i);
        const auto vm2r = V::set1(m2r), vm2i = V::set1(m2i);
        const auto vm3r = V::set1(m3r), vm3i = V::set1(m3i);
        for (std::size_t base = 0; base < dim; base += mask << 1) {
            for (std::size_t i = base; i < base + mask;
                 i += V::width) {
                const std::size_t j = i | mask;
                const auto a0r = V::load(re + i);
                const auto a0i = V::load(im + i);
                const auto a1r = V::load(re + j);
                const auto a1i = V::load(im + j);
                V::store(re + i,
                         V::add(V::sub(V::mul(vm0r, a0r),
                                       V::mul(vm0i, a0i)),
                                V::sub(V::mul(vm1r, a1r),
                                       V::mul(vm1i, a1i))));
                V::store(im + i,
                         V::add(V::add(V::mul(vm0r, a0i),
                                       V::mul(vm0i, a0r)),
                                V::add(V::mul(vm1r, a1i),
                                       V::mul(vm1i, a1r))));
                V::store(re + j,
                         V::add(V::sub(V::mul(vm2r, a0r),
                                       V::mul(vm2i, a0i)),
                                V::sub(V::mul(vm3r, a1r),
                                       V::mul(vm3i, a1i))));
                V::store(im + j,
                         V::add(V::add(V::mul(vm2r, a0i),
                                       V::mul(vm2i, a0r)),
                                V::add(V::mul(vm3r, a1i),
                                       V::mul(vm3i, a1r))));
            }
        }
        return;
    }
    // mask < vector width: the pair partner sits inside one register;
    // run the identical formulas one lane at a time instead.
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t i = base; i < base + mask; ++i) {
            const std::size_t j = i | mask;
            const double a0r = re[i], a0i = im[i];
            const double a1r = re[j], a1i = im[j];
            re[i] = (m0r * a0r - m0i * a0i) + (m1r * a1r - m1i * a1i);
            im[i] = (m0r * a0i + m0i * a0r) + (m1r * a1i + m1i * a1r);
            re[j] = (m2r * a0r - m2i * a0i) + (m3r * a1r - m3i * a1i);
            im[j] = (m2r * a0i + m2i * a0r) + (m3r * a1i + m3i * a1r);
        }
    }
}

template <typename V>
inline void
applyDiagT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
           std::size_t dim, std::size_t mask,
           const double *HAMMER_RESTRICT d)
{
    const double d0r = d[0], d0i = d[1], d1r = d[2], d1i = d[3];
    if (mask >= V::width) {
        const auto v0r = V::set1(d0r), v0i = V::set1(d0i);
        const auto v1r = V::set1(d1r), v1i = V::set1(d1i);
        for (std::size_t base = 0; base < dim; base += mask << 1) {
            for (std::size_t i = base; i < base + mask;
                 i += V::width) {
                const std::size_t j = i | mask;
                const auto a0r = V::load(re + i);
                const auto a0i = V::load(im + i);
                const auto a1r = V::load(re + j);
                const auto a1i = V::load(im + j);
                V::store(re + i, V::sub(V::mul(v0r, a0r),
                                        V::mul(v0i, a0i)));
                V::store(im + i, V::add(V::mul(v0r, a0i),
                                        V::mul(v0i, a0r)));
                V::store(re + j, V::sub(V::mul(v1r, a1r),
                                        V::mul(v1i, a1i)));
                V::store(im + j, V::add(V::mul(v1r, a1i),
                                        V::mul(v1i, a1r)));
            }
        }
        return;
    }
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t i = base; i < base + mask; ++i) {
            const std::size_t j = i | mask;
            const double a0r = re[i], a0i = im[i];
            const double a1r = re[j], a1i = im[j];
            re[i] = d0r * a0r - d0i * a0i;
            im[i] = d0r * a0i + d0i * a0r;
            re[j] = d1r * a1r - d1i * a1i;
            im[j] = d1r * a1i + d1i * a1r;
        }
    }
}

template <typename V>
inline void
applyPhaseT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
            std::size_t dim, std::size_t mask, double pr, double pi)
{
    // Only the |1> half carries the phase; the |0> half is untouched.
    if (mask >= V::width) {
        const auto vpr = V::set1(pr), vpi = V::set1(pi);
        for (std::size_t base = mask; base < dim; base += mask << 1) {
            for (std::size_t j = base; j < base + mask;
                 j += V::width) {
                const auto ar = V::load(re + j);
                const auto ai = V::load(im + j);
                V::store(re + j, V::sub(V::mul(vpr, ar),
                                        V::mul(vpi, ai)));
                V::store(im + j, V::add(V::mul(vpr, ai),
                                        V::mul(vpi, ar)));
            }
        }
        return;
    }
    for (std::size_t base = mask; base < dim; base += mask << 1) {
        for (std::size_t j = base; j < base + mask; ++j) {
            const double ar = re[j], ai = im[j];
            re[j] = pr * ar - pi * ai;
            im[j] = pr * ai + pi * ar;
        }
    }
}

template <typename V>
inline void
applyXT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
        std::size_t dim, std::size_t mask)
{
    if (mask >= V::width) {
        for (std::size_t base = 0; base < dim; base += mask << 1) {
            for (std::size_t i = base; i < base + mask;
                 i += V::width) {
                const std::size_t j = i | mask;
                const auto a0r = V::load(re + i);
                const auto a0i = V::load(im + i);
                V::store(re + i, V::load(re + j));
                V::store(im + i, V::load(im + j));
                V::store(re + j, a0r);
                V::store(im + j, a0i);
            }
        }
        return;
    }
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t i = base; i < base + mask; ++i) {
            const std::size_t j = i | mask;
            const double tr = re[i], ti = im[i];
            re[i] = re[j];
            im[i] = im[j];
            re[j] = tr;
            im[j] = ti;
        }
    }
}

template <typename V>
inline void
applyYT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
        std::size_t dim, std::size_t mask)
{
    // Y = [[0, -i], [i, 0]]: a0' = -i*a1, a1' = i*a0 — component
    // shuffles and sign flips, no multiplies.
    if (mask >= V::width) {
        for (std::size_t base = 0; base < dim; base += mask << 1) {
            for (std::size_t i = base; i < base + mask;
                 i += V::width) {
                const std::size_t j = i | mask;
                const auto a0r = V::load(re + i);
                const auto a0i = V::load(im + i);
                const auto a1r = V::load(re + j);
                const auto a1i = V::load(im + j);
                V::store(re + i, a1i);
                V::store(im + i, V::neg(a1r));
                V::store(re + j, V::neg(a0i));
                V::store(im + j, a0r);
            }
        }
        return;
    }
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t i = base; i < base + mask; ++i) {
            const std::size_t j = i | mask;
            const double a0r = re[i], a0i = im[i];
            const double a1r = re[j], a1i = im[j];
            re[i] = a1i;
            im[i] = -a1r;
            re[j] = -a0i;
            im[j] = a0r;
        }
    }
}

/**
 * Quarter-space enumeration for the 2q kernels: BODY(i0) runs for
 * every index with both qubit bits clear, ascending, with contiguous
 * innermost runs of length lo = min(mask_a, mask_b).
 */
#define HAMMER_FOR_QUARTER(lo, hi, dim, step, ...)                     \
    for (std::size_t bh_ = 0; bh_ < (dim); bh_ += (hi) << 1)           \
        for (std::size_t bm_ = bh_; bm_ < bh_ + (hi);                  \
             bm_ += (lo) << 1)                                         \
            for (std::size_t i0 = bm_; i0 < bm_ + (lo); i0 += (step)) {\
                __VA_ARGS__                                            \
            }

template <typename V>
inline void
applyCXT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
         std::size_t dim, std::size_t cmask, std::size_t tmask)
{
    const std::size_t lo = cmask < tmask ? cmask : tmask;
    const std::size_t hi = cmask < tmask ? tmask : cmask;
    if (lo >= V::width) {
        HAMMER_FOR_QUARTER(lo, hi, dim, V::width, {
            const std::size_t i = i0 | cmask;
            const std::size_t j = i | tmask;
            const auto ar = V::load(re + i);
            const auto ai = V::load(im + i);
            V::store(re + i, V::load(re + j));
            V::store(im + i, V::load(im + j));
            V::store(re + j, ar);
            V::store(im + j, ai);
        })
        return;
    }
    HAMMER_FOR_QUARTER(lo, hi, dim, 1, {
        const std::size_t i = i0 | cmask;
        const std::size_t j = i | tmask;
        const double tr = re[i], ti = im[i];
        re[i] = re[j];
        im[i] = im[j];
        re[j] = tr;
        im[j] = ti;
    })
}

template <typename V>
inline void
applyCZT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
         std::size_t dim, std::size_t amask, std::size_t bmask)
{
    const std::size_t lo = amask < bmask ? amask : bmask;
    const std::size_t hi = amask < bmask ? bmask : amask;
    const std::size_t both = amask | bmask;
    if (lo >= V::width) {
        HAMMER_FOR_QUARTER(lo, hi, dim, V::width, {
            const std::size_t k = i0 | both;
            V::store(re + k, V::neg(V::load(re + k)));
            V::store(im + k, V::neg(V::load(im + k)));
        })
        return;
    }
    HAMMER_FOR_QUARTER(lo, hi, dim, 1, {
        const std::size_t k = i0 | both;
        re[k] = -re[k];
        im[k] = -im[k];
    })
}

template <typename V>
inline void
applySwapT(double *HAMMER_RESTRICT re, double *HAMMER_RESTRICT im,
           std::size_t dim, std::size_t amask, std::size_t bmask)
{
    const std::size_t lo = amask < bmask ? amask : bmask;
    const std::size_t hi = amask < bmask ? bmask : amask;
    if (lo >= V::width) {
        HAMMER_FOR_QUARTER(lo, hi, dim, V::width, {
            const std::size_t i = i0 | amask;
            const std::size_t j = i0 | bmask;
            const auto ar = V::load(re + i);
            const auto ai = V::load(im + i);
            V::store(re + i, V::load(re + j));
            V::store(im + i, V::load(im + j));
            V::store(re + j, ar);
            V::store(im + j, ai);
        })
        return;
    }
    HAMMER_FOR_QUARTER(lo, hi, dim, 1, {
        const std::size_t i = i0 | amask;
        const std::size_t j = i0 | bmask;
        const double tr = re[i], ti = im[i];
        re[i] = re[j];
        im[i] = im[j];
        re[j] = tr;
        im[j] = ti;
    })
}

#undef HAMMER_FOR_QUARTER

/** Fill a tier's KernelTable from the template instantiations. */
template <typename V>
constexpr KernelTable
makeKernelTable(KernelTier tier)
{
    return KernelTable{
        tier,
        static_cast<int>(V::width),
        &apply1qT<V>,
        &applyDiagT<V>,
        &applyPhaseT<V>,
        &applyXT<V>,
        &applyYT<V>,
        &applyCXT<V>,
        &applyCZT<V>,
        &applySwapT<V>,
    };
}

} // namespace hammer::sim::detail

#endif // HAMMER_SIM_KERNELS_GENERIC_HPP
