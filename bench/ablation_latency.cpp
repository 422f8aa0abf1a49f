/// \file ablation_latency.cpp
/// \brief Memory-latency sweep 1..600: where the prefetch benefit crosses
///        over.  Interpolates between the paper's two operating points
///        (latency 150 = Figs. 6-8, latency 1 = the Section 4.3 text
///        experiment).
///
/// Usage: ablation_latency [--iterations N]

#include <cstdio>

#include "bench_util.hpp"

using namespace dta;
using namespace dta::bench;

int bench_main(int argc, char** argv) {
    const std::uint32_t iters =
        parse_args(argc, argv, kIterations, 2000).iterations;
    banner("ABL-LAT", "main-memory latency sweep, prefetch speedup");
    std::printf("%-10s%-12s%-12s%-12s\n", "latency", "mmul", "zoom", "bitcnt");
    for (const std::uint32_t lat : {1u, 25u, 75u, 150u, 300u, 600u}) {
        const auto tune = [&](core::MachineConfig cfg) {
            cfg.memory.latency = lat;
            return cfg;
        };
        const workloads::MatMul mm(mmul_params(8));
        const workloads::Zoom zm(zoom_params(8));
        const workloads::BitCount bc(bitcnt_params(iters));
        const auto speedup = [&](const auto& wl,
                                 const core::MachineConfig& cfg) {
            const auto orig = try_run(wl, cfg, false);
            const auto pf = try_run(wl, cfg, true);
            return stats::speedup_str(orig.cycles(), pf.cycles());
        };
        std::printf(
            "%-10u%-12s%-12s%-12s\n", lat,
            speedup(mm, tune(workloads::MatMul::machine_config(8))).c_str(),
            speedup(zm, tune(workloads::Zoom::machine_config(8))).c_str(),
            speedup(bc, tune(workloads::BitCount::machine_config(8)))
                .c_str());
    }
    std::puts(
        "\nexpected shape: speedups grow monotonically with memory latency;\n"
        "mmul/zoom cross 10x near the paper's 150-cycle point while bitcnt\n"
        "stays below ~2x (only ~60% of its READs are decoupled).");
    return 0;
}

int main(int argc, char** argv) {
    return guarded_main([&] { return bench_main(argc, argv); }, argv[0]);
}
