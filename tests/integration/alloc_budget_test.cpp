// Allocation budget of the datapath: the heap allocations Machine::run()
// makes are a deterministic work count, gated here like the wheel counters.
// Component queues are rings that only allocate when they grow past their
// peak (sim/fifo.hpp), and a local-store access, a memory READ and a packet
// carry their bytes inline (sim/payload.hpp), so a run allocates a few
// thousand times at most — mostly DMA line payloads, each allocated once at
// memory.  A queue or payload that falls back to per-message allocation
// shows up here as a budget overrun long before it shows up as host time.
//
// This binary replaces the global operator new/delete with a counting
// malloc/free pair; the count is armed only around Machine::run().
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/machine.hpp"
#include "workloads/bitcnt.hpp"
#include "workloads/mmul.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
    if (g_counting) {
        ++g_allocs;
    }
    void* p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
    if (g_counting) {
        ++g_allocs;
    }
    const auto a = static_cast<std::size_t>(al);
    void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
    return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
    return counted_alloc_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace dta::core {
namespace {

constexpr std::uint16_t kSpes = 8;

/// Heap allocations made inside Machine::run() for one workload variant;
/// the run must also produce correct results.
template <typename Workload>
std::uint64_t run_allocations(const Workload& w, bool prefetch) {
    Machine machine(Workload::machine_config(kSpes),
                    prefetch ? w.prefetch_program() : w.program());
    w.init_memory(machine.memory());
    machine.launch(w.entry_args());
    g_allocs = 0;
    g_counting = true;
    const RunResult res = machine.run();
    g_counting = false;
    std::string why;
    EXPECT_TRUE(w.check(machine.memory(), &why)) << why;
    EXPECT_GT(res.cycles, 0u);
    return g_allocs;
}

workloads::BitCount bitcnt1024() {
    workloads::BitCount::Params p;
    p.iterations = 1024;
    return workloads::BitCount(p);
}

workloads::MatMul mmul32() {
    workloads::MatMul::Params p;
    p.n = 32;
    p.threads = workloads::MatMul::threads_for(kSpes);
    return workloads::MatMul(p);
}

// Each bound is twice the count measured when the budget was set (first
// factor); the comment beside it is the count with std::deque queues and
// std::vector<std::uint8_t> payloads.  The prefetch variants allocate about
// once more per DMA line of more than 8 bytes.

TEST(AllocBudget, BitcntOrig) {
    const std::uint64_t n = run_allocations(bitcnt1024(), false);
    RecordProperty("allocations", std::to_string(n));
    EXPECT_LE(n, 2u * 2'136u);  // was 123,371
}

TEST(AllocBudget, BitcntPf) {
    const std::uint64_t n = run_allocations(bitcnt1024(), true);
    RecordProperty("allocations", std::to_string(n));
    EXPECT_LE(n, 2u * 3'321u);  // was 115,931
}

TEST(AllocBudget, MmulOrig) {
    const std::uint64_t n = run_allocations(mmul32(), false);
    RecordProperty("allocations", std::to_string(n));
    EXPECT_LE(n, 2u * 2'097u);  // was 160,069
}

TEST(AllocBudget, MmulPf) {
    const std::uint64_t n = run_allocations(mmul32(), true);
    RecordProperty("allocations", std::to_string(n));
    EXPECT_LE(n, 2u * 3'228u);  // was 101,869
}

}  // namespace
}  // namespace dta::core
