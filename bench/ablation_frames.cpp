/// \file ablation_frames.cpp
/// \brief Ablation of the frame supply on the fork-heavy bitcnt benchmark:
///        fewer frames per PE means more FALLOCs parked at the DSE (the
///        paper's "LSE can't keep up" effect), and — because blocking
///        FALLOCs hold the pipeline — eventually deadlock, which is exactly
///        the problem the paper's cited virtual-frame-pointers would solve.
///
/// Usage: ablation_frames [--iterations N]

#include <cstdio>

#include "bench_util.hpp"

using namespace dta;
using namespace dta::bench;

int bench_main(int argc, char** argv) {
    const std::uint32_t iters =
        parse_args(argc, argv, kIterations, 2000).iterations;
    banner("ABL-FRM", "frames-per-PE sweep on bitcnt (default: 192)");
    for (const bool vfp : {false, true}) {
        std::printf("\n%s frame pointers:\n",
                    vfp ? "WITH virtual" : "without virtual");
        std::printf("%-10s%-14s%-12s%-16s%-18s\n", "frames", "cycles", "LSE%",
                    "parked FALLOCs", "note");
        for (const std::uint32_t frames : {8u, 24u, 48u, 96u, 192u}) {
            const workloads::BitCount wl(bitcnt_params(iters));
            auto cfg = workloads::BitCount::machine_config(8);
            cfg.lse = sched::LseConfig::with(frames, 512);
            cfg.lse.virtual_frames = vfp;
            cfg.no_progress_limit = 300'000;
            const auto run = try_run(wl, cfg, false);
            if (run.ok()) {
                const auto& r = run.outcome->result;
                std::printf("%-10u%-14llu%-12s%-16llu%-18s\n", frames,
                            static_cast<unsigned long long>(r.cycles),
                            stats::pct(r.total_breakdown().fraction(
                                           core::CycleBucket::kLseStall))
                                .c_str(),
                            static_cast<unsigned long long>(r.dse_queued),
                            "");
            } else {
                std::printf("%-10u%-14s%-12s%-16s%-18s\n", frames, "-", "-",
                            "-", "DEADLOCK");
            }
        }
    }
    std::puts(
        "\nexpected shape: without virtual frame pointers, LSE stalls and\n"
        "parked FALLOCs grow as frames shrink and below the live-thread\n"
        "peak the machine deadlocks; with them (the DTA-C feature the paper\n"
        "cites but leaves out of CellDTA) FALLOC never blocks and even 8\n"
        "frames per PE complete.");
    return 0;
}

int main(int argc, char** argv) {
    return guarded_main([&] { return bench_main(argc, argv); }, argv[0]);
}
