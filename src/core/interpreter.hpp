/// \file interpreter.hpp
/// \brief Functional (untimed) reference executor for DTA programs.
///
/// Executes the same architectural semantics as the cycle-level Machine —
/// ALU via the shared isa/alu.hpp, dataflow thread synchronisation, DMA
/// staging with snapshot semantics — but with no timing model at all.  Its
/// purpose is differential testing: for any deterministic program, memory
/// after Interpreter::run() must equal memory after Machine::run().
///
/// Prefetch semantics are faithful: DMAGET snapshots the source bytes at
/// command time, and LSLOAD reads the snapshot (not live memory), so a
/// program that raced its own WRITEs against a prefetch would diverge from
/// a non-prefetching run in both engines alike.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "isa/program.hpp"
#include "mem/main_memory.hpp"
#include "sim/fifo.hpp"
#include "sim/types.hpp"

namespace dta::core {

/// Summary statistics of a functional run.
struct InterpStats {
    std::uint64_t instructions = 0;
    std::uint64_t threads = 0;
    std::uint64_t dma_commands = 0;
    std::uint64_t frame_stores = 0;
};

/// The reference executor.
class Interpreter {
public:
    /// \p prog is validated and copied.
    explicit Interpreter(isa::Program prog,
                         const mem::MainMemoryConfig& mem_cfg = {});

    [[nodiscard]] mem::MainMemory& memory() { return mem_; }
    [[nodiscard]] const mem::MainMemory& memory() const { return mem_; }

    /// Seeds the entry thread with \p args (frame words 0..n-1).
    void launch(std::span<const std::uint64_t> args);

    /// Runs every thread to completion.  Throws sim::SimError on illegal
    /// programs (over-stores, unfilled regions, runaway execution) or when
    /// threads remain blocked forever (dataflow deadlock).
    InterpStats run(std::uint64_t max_instructions = 500'000'000ull);

private:
    struct Region {
        bool valid = false;
        std::uint64_t mem_base = 0;
        std::uint32_t stride = 0;
        std::uint32_t elem_bytes = 0;
        std::uint32_t bytes = 0;
        std::vector<std::uint8_t> snapshot;
    };

    struct Thread {
        sim::ThreadCodeId code = 0;
        std::uint32_t sc = 0;
        std::vector<std::uint64_t> frame;
        bool started = false;
    };

    /// Runs one ready thread from PF through STOP.
    void exec_thread(std::uint64_t handle, InterpStats& stats,
                     std::uint64_t max_instructions);
    std::uint64_t create_thread(sim::ThreadCodeId code, std::uint32_t sc);
    void store_to(std::uint64_t handle, std::uint32_t word,
                  std::uint64_t value);

    isa::Program prog_;
    mem::MainMemory mem_;
    std::unordered_map<std::uint64_t, Thread> threads_;
    sim::Fifo<std::uint64_t> ready_;
    std::uint64_t next_handle_ = 1;
    bool launched_ = false;
};

}  // namespace dta::core
