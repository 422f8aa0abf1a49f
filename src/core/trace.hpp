/// \file trace.hpp
/// \brief Execution-trace records: which thread ran where, when — the raw
///        material for per-code profiles and Chrome-trace timelines.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "dma/mfc.hpp"
#include "sim/prof.hpp"
#include "sim/telemetry.hpp"
#include "sim/types.hpp"

namespace dta::core {

/// One contiguous occupancy of an SPU by a thread (bind to unbind).
struct ThreadSpan {
    sim::GlobalPeId pe = 0;
    sim::Cycle begin = 0;
    sim::Cycle end = 0;           ///< exclusive
    sim::ThreadCodeId code = 0;
    std::uint32_t slot = 0;
    bool resumed = false;         ///< continuation after Wait-for-DMA
};

/// One dataflow arrow for the Chrome-trace export: from a producer's frame
/// STORE (inside its PS-phase slice) to the consumer thread's dispatch (the
/// start of its first slice).  Produced by the critical-path analyzer
/// (stats/critpath); core only knows how to render them.
struct TraceFlow {
    sim::GlobalPeId src_pe = 0;
    sim::Cycle src_cycle = 0;
    sim::GlobalPeId dst_pe = 0;
    sim::Cycle dst_cycle = 0;
    bool on_critical_path = false;
};

/// Aggregate per-thread-code profile over a run.
struct CodeProfile {
    std::string name;
    std::uint64_t threads_started = 0;   ///< fresh binds (not resumes)
    std::uint64_t dispatches = 0;        ///< binds incl. resumes
    std::uint64_t pipeline_cycles = 0;   ///< cycles an SPU was bound to it
    std::uint64_t instructions = 0;
};

/// What a Chrome-trace export draws.  Every member is optional: empty
/// sequences and null pointers add nothing.
struct TraceInput {
    /// Thread slices (pid 0, "SPUs"): one row per SPU, one slice per
    /// occupancy, named after \ref code_names.
    std::span<const ThreadSpan> spans{};
    std::span<const std::string> code_names{};
    /// One async slice per completed DMA command (pid 2, "DMA",
    /// "ph":"b"/"e"; overlapping transfers render stacked).
    std::span<const dma::DmaSpan> dma_spans{};
    /// Dataflow arrows between thread slices ("ph":"s"/"f"); critical-path
    /// edges are named so the UI can filter them.
    std::span<const TraceFlow> flows{};
    /// Host profile (pid 3, "host"): one counter track per (row group,
    /// phase) with the host nanoseconds that phase consumed per telemetry
    /// interval, plotted against simulated time.  Drawn when enabled.
    const sim::HostProfile* host = nullptr;
    /// Live-telemetry timeline (pid 5, "telemetry"): SPU occupancy, ready /
    /// wait-DMA thread counts, live frames, MFC queue depth, in-flight DMA
    /// bytes, memory queue depth, NoC backlog, and the per-interval
    /// retired-instruction rate.  Only simulated fields are drawn here.
    const sim::TelemetryResult* telemetry = nullptr;
    /// The run used the timing wheel: also draw the frames' host-side tail
    /// as the scheduler tracks (pid 4, "wheel": armed components plus
    /// per-interval pop and insert rates).  Off keeps traces of wheel and
    /// dense runs comparable byte for byte.
    bool wheel = false;
};

/// Renders \p in as a Chrome-trace ("chrome://tracing" /
/// Perfetto-compatible) JSON document.  Timestamps are simulated cycles
/// (reported as us).
[[nodiscard]] std::string chrome_trace_json(const TraceInput& in);

}  // namespace dta::core
