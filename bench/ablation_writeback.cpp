/// \file ablation_writeback.cpp
/// \brief Extension experiment: DMA write-back post-store (REGSET + LSSTORE
///        staging + one DMAPUT per worker) versus per-pixel posted WRITEs,
///        on the zoom benchmark.  This is the symmetric completion of the
///        paper's mechanism — prefetch decouples the reads, write-back
///        decouples the writes — in the spirit of its "other advanced
///        mechanisms" future work.
///
/// Usage: ablation_writeback

#include <cstdio>

#include "bench_util.hpp"

using namespace dta;
using namespace dta::bench;

int bench_main() {
    banner("ABL-WB", "DMA write-back post-store vs per-pixel WRITEs (zoom)");
    std::printf("%-8s%-14s%-14s%-14s%-16s%-16s\n", "SPEs", "orig", "prefetch",
                "pf+writeback", "mem writes(pf)", "mem writes(wb)");
    for (std::uint16_t spes : {2, 4, 8}) {
        workloads::Zoom::Params p = zoom_params(spes);
        // Write-back needs bands that fit the staging window.
        p.threads = 64;
        const workloads::Zoom wl(p);
        const auto cfg = workloads::Zoom::machine_config(spes);
        const auto orig = try_run(wl, cfg, false);
        const auto pf = try_run(wl, cfg, true);
        core::Machine m(cfg, wl.writeback_program());
        wl.init_memory(m.memory());
        m.launch({});
        const auto wb = m.run();
        std::string why;
        if (!wl.check(m.memory(), &why)) {
            std::fprintf(stderr, "writeback INCORRECT: %s\n", why.c_str());
        }
        std::printf("%-8u%-14llu%-14llu%-14llu%-16llu%-16llu\n", spes,
                    static_cast<unsigned long long>(orig.cycles()),
                    static_cast<unsigned long long>(pf.cycles()),
                    static_cast<unsigned long long>(wb.cycles),
                    static_cast<unsigned long long>(
                        pf.ok() ? pf.outcome->result.mem_writes : 0),
                    static_cast<unsigned long long>(wb.mem_writes));
    }
    std::puts(
        "\nexpected shape: write-back replaces 16384 4-byte memory writes\n"
        "with one line-granular DMA stream per worker; the memory controller\n"
        "sees ~64x fewer write requests, and cycles improve when the posted-\n"
        "write path (not compute) is the bottleneck.");
    return 0;
}

int main(int argc, char** argv) {
    (void)parse_args(argc, argv, 0);
    return guarded_main([] { return bench_main(); }, argv[0]);
}
