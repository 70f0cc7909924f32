/**
 * @file
 * common::require: a passing check builds no message (hot paths such
 * as Rng::discrete run one per weight), a failing one throws
 * std::invalid_argument carrying the message.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "common/logging.hpp"

namespace {

/** Global operator new calls made on this thread. */
thread_local std::size_t tAllocations = 0;

} // namespace

// Counting replacements of the global allocation functions for this
// test binary; the array and nothrow forms route through these.
// noinline: once one is inlined into a caller, GCC pairs malloc or
// free with the other operator there and warns
// (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    ++tAllocations;
    if (void *block = std::malloc(size == 0 ? 1 : size))
        return block;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *block) noexcept
{
    std::free(block);
}

[[gnu::noinline]] void
operator delete(void *block, std::size_t) noexcept
{
    std::free(block);
}

namespace {

using hammer::common::require;

TEST(Logging, PassingRequireAllocatesNothing)
{
    // The counter must see a real allocation, or the zero below
    // would prove nothing.
    const std::size_t beforeProbe = tAllocations;
    ::operator delete(::operator new(32));
    ASSERT_EQ(tAllocations, beforeProbe + 1);

    // volatile: the condition is unknown at compile time, so the
    // message argument is really materialised for the call.  The
    // literal is longer than any small-string buffer.
    volatile bool pass = true;
    const std::size_t before = tAllocations;
    require(pass, "Rng::discrete: negative weight in the draw table");
    EXPECT_EQ(tAllocations, before);
}

TEST(Logging, FailingRequireThrowsItsMessage)
{
    volatile bool pass = false;
    try {
        require(pass, "Rng::discrete: negative weight in the draw table");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        EXPECT_STREQ(error.what(),
                     "Rng::discrete: negative weight in the draw table");
    }
}

} // namespace
