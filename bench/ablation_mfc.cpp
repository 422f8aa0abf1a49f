/// \file ablation_mfc.cpp
/// \brief Ablation of the Table-4 MFC parameters: command-queue depth and
///        command latency, measured on the DMA-heavy prefetch variants.
///
/// Usage: ablation_mfc [--iterations N]

#include <cstdio>

#include "bench_util.hpp"

using namespace dta;
using namespace dta::bench;

int bench_main(int argc, char** argv) {
    const std::uint32_t iters =
        parse_args(argc, argv, kIterations, 2000).iterations;
    banner("ABL-MFC", "MFC command queue & latency sweep (defaults: 16, 30)");

    std::puts("command latency sweep (queue depth 16):");
    std::printf("%-10s%-14s%-14s%-14s\n", "latency", "mmul(pf)", "zoom(pf)",
                "bitcnt(pf)");
    for (const std::uint32_t lat : {1u, 10u, 30u, 100u, 300u}) {
        auto mc = workloads::MatMul::machine_config(8);
        mc.mfc.command_latency = lat;
        auto zc = workloads::Zoom::machine_config(8);
        zc.mfc.command_latency = lat;
        auto bc = workloads::BitCount::machine_config(8);
        bc.mfc.command_latency = lat;
        const auto m = try_run(workloads::MatMul(mmul_params(8)), mc, true);
        const auto z = try_run(workloads::Zoom(zoom_params(8)), zc, true);
        const auto b =
            try_run(workloads::BitCount(bitcnt_params(iters)), bc, true);
        std::printf("%-10u%-14llu%-14llu%-14llu\n", lat,
                    static_cast<unsigned long long>(m.cycles()),
                    static_cast<unsigned long long>(z.cycles()),
                    static_cast<unsigned long long>(b.cycles()));
    }

    std::puts("\nqueue depth sweep (command latency 30):");
    std::printf("%-10s%-14s%-14s\n", "depth", "mmul(pf)", "zoom(pf)");
    for (const std::uint32_t depth : {1u, 2u, 4u, 16u}) {
        auto mc = workloads::MatMul::machine_config(8);
        mc.mfc.queue_depth = depth;
        auto zc = workloads::Zoom::machine_config(8);
        zc.mfc.queue_depth = depth;
        const auto m = try_run(workloads::MatMul(mmul_params(8)), mc, true);
        const auto z = try_run(workloads::Zoom(zoom_params(8)), zc, true);
        std::printf("%-10u%-14llu%-14llu\n", depth,
                    static_cast<unsigned long long>(m.cycles()),
                    static_cast<unsigned long long>(z.cycles()));
    }

    std::puts("\noutstanding-line sweep (how deep the MFC pipelines memory):");
    std::printf("%-10s%-14s%-14s\n", "lines", "mmul(pf)", "zoom(pf)");
    for (const std::uint32_t lines : {1u, 2u, 8u, 32u}) {
        auto mc = workloads::MatMul::machine_config(8);
        mc.mfc.max_outstanding_lines = lines;
        auto zc = workloads::Zoom::machine_config(8);
        zc.mfc.max_outstanding_lines = lines;
        const auto m = try_run(workloads::MatMul(mmul_params(8)), mc, true);
        const auto z = try_run(workloads::Zoom(zoom_params(8)), zc, true);
        std::printf("%-10u%-14llu%-14llu\n", lines,
                    static_cast<unsigned long long>(m.cycles()),
                    static_cast<unsigned long long>(z.cycles()));
    }
    return 0;
}

int main(int argc, char** argv) {
    return guarded_main([&] { return bench_main(argc, argv); }, argv[0]);
}
