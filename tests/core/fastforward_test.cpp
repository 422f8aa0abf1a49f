// The timing wheel is the one idle-skipping mechanism, and it must be exact:
// every paper workload, in the original and the prefetch-pass variant, on a
// single node and on a 4-node ring, gives the same results under the wheel
// as under the dense oracle that ticks every component on every cycle —
// same cycle count, same spans and DMA spans, and byte-identical JSON run
// reports, DTAEV1 event logs, critical-path reports and Chrome traces —
// while the wheel actually jumps over idle cycles on the blocking variants.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/machine.hpp"
#include "core/trace.hpp"
#include "sim/events.hpp"
#include "stats/critpath.hpp"
#include "stats/json_report.hpp"
#include "workloads/bitcnt.hpp"
#include "workloads/fir.hpp"
#include "workloads/harness.hpp"
#include "workloads/mmul.hpp"
#include "workloads/zoom.hpp"

namespace dta::core {
namespace {

struct Captured {
    RunResult res;
    sim::Cycle skipped = 0;  ///< cycles the run loop jumped over
    std::string json;
    std::string events;    ///< DTAEV1 text of the event log
    std::string critpath;  ///< dta_analyze JSON over that log
    std::string chrome;    ///< Chrome-trace export (flows and telemetry)
};

template <typename Workload>
Captured run_with(const Workload& w, MachineConfig cfg, bool prefetch,
                  bool use_wheel) {
    cfg.use_wheel = use_wheel;
    cfg.capture_spans = true;
    cfg.collect_metrics = true;
    cfg.collect_events = true;
    // Frames every 256 cycles exercise the wheel's sample replay over the
    // spans it jumps; the report and the trace carry them.
    cfg.telemetry.enabled = true;
    cfg.telemetry.interval = 256;
    const workloads::RunOutcome out = workloads::run_workload(w, cfg, prefetch);
    EXPECT_TRUE(out.correct) << (use_wheel ? "wheel: " : "dense: ")
                             << out.detail;
    std::ostringstream ev;
    sim::write_events(ev, out.result.events, out.result.cycles,
                      cfg.total_pes(), out.result.code_names);
    sim::EventFile file;
    file.cycles = out.result.cycles;
    file.pes = cfg.total_pes();
    file.code_names = out.result.code_names;
    file.events = out.result.events.flatten();
    const auto analysis = stats::analyze(file);
    const std::string crit = stats::critpath_json(analysis, "det");
    // No `wheel` flag: the frames' host-side tail differs between loops.
    const std::string chrome =
        chrome_trace_json({.spans = out.result.spans,
                           .code_names = out.result.code_names,
                           .dma_spans = out.result.dma_spans,
                           .flows = analysis.flows,
                           .telemetry = &out.result.telemetry});
    EXPECT_TRUE(stats::validate_json(chrome))
        << "chrome trace is not well-formed JSON";
    return {out.result, out.cycles_fast_forwarded,
            stats::run_report_json(out.result, "det"), ev.str(), crit,
            chrome};
}

void expect_identical(const Captured& ref, const Captured& got) {
    EXPECT_EQ(ref.res.cycles, got.res.cycles);
    EXPECT_EQ(ref.json, got.json) << "JSON run report differs";
    EXPECT_EQ(ref.events, got.events) << "event log differs";
    EXPECT_EQ(ref.critpath, got.critpath) << "critical-path report differs";
    EXPECT_EQ(ref.chrome, got.chrome) << "chrome trace differs";

    ASSERT_EQ(ref.res.spans.size(), got.res.spans.size());
    for (std::size_t i = 0; i < ref.res.spans.size(); ++i) {
        const ThreadSpan& a = ref.res.spans[i];
        const ThreadSpan& b = got.res.spans[i];
        EXPECT_TRUE(a.pe == b.pe && a.begin == b.begin && a.end == b.end &&
                    a.code == b.code && a.slot == b.slot &&
                    a.resumed == b.resumed)
            << "span " << i;
    }
    ASSERT_EQ(ref.res.dma_spans.size(), got.res.dma_spans.size());
    for (std::size_t i = 0; i < ref.res.dma_spans.size(); ++i) {
        const dma::DmaSpan& a = ref.res.dma_spans[i];
        const dma::DmaSpan& b = got.res.dma_spans[i];
        EXPECT_TRUE(a.pe == b.pe && a.tag == b.tag && a.op == b.op &&
                    a.bytes == b.bytes && a.begin == b.begin && a.end == b.end)
            << "dma span " << i;
    }
}

/// Runs both program variants on \p nodes nodes (the PEs of \p cfg spread
/// evenly over them), each under the dense oracle and the wheel, and
/// requires the two to match.  The blocking (original) variants must also
/// show the wheel jumping idle cycles; the oracle never does.
template <typename Workload>
void expect_wheel_exact(const Workload& w, MachineConfig cfg,
                        std::uint16_t nodes) {
    if (nodes > 1) {
        cfg.spes_per_node = static_cast<std::uint16_t>(cfg.total_pes() / nodes);
        cfg.nodes = nodes;
    }
    for (const bool prefetch : {false, true}) {
        SCOPED_TRACE("nodes=" + std::to_string(nodes) +
                     (prefetch ? " prefetch" : " original"));
        const Captured dense = run_with(w, cfg, prefetch, false);
        const Captured wheel = run_with(w, cfg, prefetch, true);
        EXPECT_EQ(dense.skipped, 0u);
        if (!prefetch) {
            EXPECT_GT(wheel.skipped, 0u);
        }
        expect_identical(dense, wheel);
    }
}

workloads::BitCount bitcnt_workload() {
    workloads::BitCount::Params p;
    p.iterations = 320;
    return workloads::BitCount(p);
}

workloads::Fir fir_workload() {
    workloads::Fir::Params p;
    p.samples = 512;
    p.taps = 8;
    p.threads = 16;
    return workloads::Fir(p);
}

workloads::MatMul mmul_workload() {
    workloads::MatMul::Params p;
    p.n = 16;
    p.threads = 16;
    return workloads::MatMul(p);
}

workloads::Zoom zoom_workload() {
    workloads::Zoom::Params p;
    p.n = 16;
    p.factor = 4;
    p.threads = 16;
    return workloads::Zoom(p);
}

TEST(FastForward, BitcntExactBothVariants) {
    expect_wheel_exact(bitcnt_workload(),
                       workloads::BitCount::machine_config(8), 1);
}

TEST(FastForward, FirExactBothVariants) {
    expect_wheel_exact(fir_workload(), workloads::Fir::machine_config(8), 1);
}

TEST(FastForward, MmulExactBothVariants) {
    expect_wheel_exact(mmul_workload(), workloads::MatMul::machine_config(8),
                       1);
}

TEST(FastForward, ZoomExactBothVariants) {
    expect_wheel_exact(zoom_workload(), workloads::Zoom::machine_config(8), 1);
}

// The same workloads on a 4-node ring, 2 PEs per node, where remote frame
// stores and forwarded work cross the inter-node links.
TEST(FastForward, BitcntExactFourNodes) {
    expect_wheel_exact(bitcnt_workload(),
                       workloads::BitCount::machine_config(8), 4);
}

TEST(FastForward, FirExactFourNodes) {
    expect_wheel_exact(fir_workload(), workloads::Fir::machine_config(8), 4);
}

TEST(FastForward, MmulExactFourNodes) {
    expect_wheel_exact(mmul_workload(), workloads::MatMul::machine_config(8),
                       4);
}

TEST(FastForward, ZoomExactFourNodes) {
    expect_wheel_exact(zoom_workload(), workloads::Zoom::machine_config(8), 4);
}

// Two nodes, one bus and one injection slot per endpoint: producers are
// refused often (the memory interface counts stalls, PEs and DSEs wait for
// room) and link arrivals retry at the bridge, so every injection retry
// path must be as exact under the wheel as the unblocked traffic.
TEST(FastForward, BitcntExactTwoNodesUnderInjectionBackPressure) {
    MachineConfig cfg = workloads::BitCount::machine_config(8);
    cfg.noc.num_buses = 1;
    cfg.noc.inject_queue_depth = 1;
    expect_wheel_exact(bitcnt_workload(), cfg, 2);
}

// 8 nodes x 8 SPEs: 8 fabrics + 8 DSEs + the memory interface + 64 PEs + 8
// routers = 89 scheduler entries, so the wheel's visit sets span two 64-bit
// words and same-cycle wakes cross the word boundary.
TEST(FastForward, BitcntExactEightNodesOfEight) {
    workloads::BitCount::Params p;
    p.iterations = 320;
    MachineConfig cfg = workloads::BitCount::machine_config(64);
    cfg.nodes = 8;
    cfg.spes_per_node = 8;
    const std::uint32_t components = 3u * cfg.nodes + 1u + cfg.total_pes();
    ASSERT_EQ(components, 89u);
    for (const bool prefetch : {false, true}) {
        SCOPED_TRACE(prefetch ? "prefetch" : "original");
        const workloads::BitCount w(p);
        const Captured dense = run_with(w, cfg, prefetch, false);
        const Captured wheel = run_with(w, cfg, prefetch, true);
        expect_identical(dense, wheel);
        // start() arms every entry at once.
        EXPECT_EQ(wheel.res.wheel.peak_occupancy, components);
    }
}

TEST(FastForward, SingleSpeBlockingRunSkipsMostCycles) {
    // One SPE, blocking READs at 150-cycle latency: the machine is globally
    // idle for most of every round trip, so the overwhelming majority of
    // cycles must be jumped, not ticked.
    workloads::MatMul::Params p;
    p.n = 8;
    p.threads = 8;
    const workloads::MatMul wl(p);
    const workloads::RunOutcome out = workloads::run_workload(
        wl, workloads::MatMul::machine_config(1), false);
    ASSERT_TRUE(out.correct) << out.detail;
    EXPECT_GT(out.cycles_fast_forwarded, out.result.cycles / 2);
}

/// Invariant audits are pure observers: with audits sweeping every cycle
/// the run must stay byte-identical to the unaudited reference under both
/// run loops.
TEST(FastForward, AuditsOnChangesNothing) {
    workloads::Fir::Params p;
    p.samples = 256;
    p.taps = 4;
    p.threads = 16;
    const workloads::Fir w(p);
    MachineConfig cfg = workloads::Fir::machine_config(8);
    cfg.nodes = 4;
    cfg.spes_per_node = 2;
    const Captured plain = run_with(w, cfg, true, true);
    cfg.audit.enabled = true;
    cfg.audit.interval = 1;
    for (const bool use_wheel : {true, false}) {
        SCOPED_TRACE(use_wheel ? "wheel" : "dense");
        expect_identical(plain, run_with(w, cfg, true, use_wheel));
    }
}

}  // namespace
}  // namespace dta::core
