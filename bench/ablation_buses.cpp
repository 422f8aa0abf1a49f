/// \file ablation_buses.cpp
/// \brief Ablation of the Table-4 interconnect: bus count 1..8 and the
///        prefetch speedup of the bandwidth-hungry kernels.  Motivates the
///        paper's observation that prefetching is what actually exploits
///        the fabric ("when prefetching is used, the DMA unit can fully
///        utilize the bandwidth").
///
/// Usage: ablation_buses

#include <cstdio>

#include "bench_util.hpp"

using namespace dta;
using namespace dta::bench;

int bench_main() {
    banner("ABL-BUS", "bus-count sweep (Table 4 default: 4 buses x 8 B/cycle)");
    std::printf("%-8s%-14s%-14s%-10s%-16s\n", "buses", "mmul(orig)",
                "mmul(pf)", "speedup", "noc bytes (pf)");
    for (const std::uint32_t buses : {1u, 2u, 4u, 8u}) {
        const workloads::MatMul wl(mmul_params(8));
        auto cfg = workloads::MatMul::machine_config(8);
        cfg.noc.num_buses = buses;
        const auto orig = try_run(wl, cfg, false);
        const auto pf = try_run(wl, cfg, true);
        std::printf("%-8u%-14llu%-14llu%-10s%-16llu\n", buses,
                    static_cast<unsigned long long>(orig.cycles()),
                    static_cast<unsigned long long>(pf.cycles()),
                    stats::speedup_str(orig.cycles(), pf.cycles()).c_str(),
                    static_cast<unsigned long long>(
                        pf.ok() ? pf.outcome->result.noc.bytes_transferred
                                : 0));
    }
    std::puts("\nzoom(32), same sweep:");
    std::printf("%-8s%-14s%-14s%-10s\n", "buses", "zoom(orig)", "zoom(pf)",
                "speedup");
    for (const std::uint32_t buses : {1u, 2u, 4u, 8u}) {
        const workloads::Zoom wl(zoom_params(8));
        auto cfg = workloads::Zoom::machine_config(8);
        cfg.noc.num_buses = buses;
        const auto orig = try_run(wl, cfg, false);
        const auto pf = try_run(wl, cfg, true);
        std::printf("%-8u%-14llu%-14llu%-10s\n", buses,
                    static_cast<unsigned long long>(orig.cycles()),
                    static_cast<unsigned long long>(pf.cycles()),
                    stats::speedup_str(orig.cycles(), pf.cycles()).c_str());
    }
    return 0;
}

int main(int argc, char** argv) {
    (void)parse_args(argc, argv, 0);
    return guarded_main([] { return bench_main(); }, argv[0]);
}
