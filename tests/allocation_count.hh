/**
 * @file
 * A global operator new that counts its calls, for the allocation
 * pins. It replaces the program's operator new and delete, so include
 * it from one source file of a test binary only.
 */

#ifndef HPIM_TESTS_ALLOCATION_COUNT_HH
#define HPIM_TESTS_ALLOCATION_COUNT_HH

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

/** Global operator new calls so far. */
inline std::atomic<std::size_t> g_allocations{0};

// GCC cannot tell that these replace the pair it matches free() to.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

#endif // HPIM_TESTS_ALLOCATION_COUNT_HH
