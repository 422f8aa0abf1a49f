/// \file ablation_blocking.cpp
/// \brief Ablation of the paper's core mechanism: non-blocking execution.
///        "Wait for DMA" as a scheduler state (thread suspends, pipeline
///        freed) versus the degenerate design where the thread spins on the
///        pipeline until its tags complete.  The gap is the value of the
///        paper's contribution beyond mere bulk transfer.
///
/// Usage: ablation_blocking [--iterations N]

#include <cstdio>

#include "bench_util.hpp"

using namespace dta;
using namespace dta::bench;

int bench_main(int argc, char** argv) {
    const std::uint32_t iters =
        parse_args(argc, argv, kIterations, 2000).iterations;
    banner("ABL-BLOCK", "non-blocking (Fig. 4) vs blocking DMA wait");
    std::printf("%-10s%-16s%-16s%-14s\n", "bench", "non-blocking",
                "blocking", "penalty");
    const auto go = [&](const auto& wl, core::MachineConfig cfg,
                        const char* name) {
        cfg.spu.non_blocking_dma = true;
        const auto nb = try_run(wl, cfg, true);
        cfg.spu.non_blocking_dma = false;
        const auto bl = try_run(wl, cfg, true);
        std::printf("%-10s%-16llu%-16llu%-14s\n", name,
                    static_cast<unsigned long long>(nb.cycles()),
                    static_cast<unsigned long long>(bl.cycles()),
                    stats::speedup_str(bl.cycles(), nb.cycles()).c_str());
    };
    go(workloads::MatMul(mmul_params(8)),
       workloads::MatMul::machine_config(8), "mmul");
    go(workloads::Zoom(zoom_params(8)), workloads::Zoom::machine_config(8),
       "zoom");
    go(workloads::BitCount(bitcnt_params(iters)),
       workloads::BitCount::machine_config(8), "bitcnt");
    std::puts(
        "\nexpected shape: suspending in Wait-for-DMA beats spinning\n"
        "whenever several threads share an SPU (mmul: 4+ threads per SPU).");
    return 0;
}

int main(int argc, char** argv) {
    return guarded_main([&] { return bench_main(argc, argv); }, argv[0]);
}
