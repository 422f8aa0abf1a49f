// Producers inject into their node's fabric themselves, at the end of
// their own tick, through the node router's injection: a PE or the DSE
// waits for a free injection slot without counting a stall, the memory
// interface is refused and counts one stall per blocked cycle, and the
// router's own tick is left with the ring bridge.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/machine.hpp"
#include "core/mem_interface.hpp"
#include "core/node_router.hpp"
#include "core/pe.hpp"
#include "mem/main_memory.hpp"
#include "noc/interconnect.hpp"
#include "sched/dse.hpp"
#include "sim/log.hpp"
#include "test_util.hpp"
#include "workloads/bitcnt.hpp"
#include "workloads/harness.hpp"

namespace dta::core {
namespace {

/// One node of two SPEs whose fabric has a single injection slot per
/// endpoint, and its router.  The fabric only ticks when a test says so.
struct Node {
    Node() : fabric(one_slot(), layout.endpoint_count()),
             router(0, 1, layout, fabric, nullptr) {}
    static noc::InterconnectConfig one_slot() {
        noc::InterconnectConfig cfg;
        cfg.inject_queue_depth = 1;
        return cfg;
    }
    FabricLayout layout{2, false};
    noc::Interconnect fabric;
    NodeRouter router;
};

TEST(ProducerInjection, DseWaitsForRoomWithoutCountingStalls) {
    Node node;
    sched::Dse dse(sched::Topology{1, 2}, 0, /*frames_per_pe=*/4);
    dse.set_outlet(&node.router);
    // Two FALLOC requests at once: two grants for one injection slot.
    for (std::uint16_t pe = 0; pe < 2; ++pe) {
        noc::Packet req;
        req.kind = static_cast<std::uint16_t>(sched::MsgKind::kFallocReq);
        req.c = sched::FallocCtx{0, pe, 1, 0}.pack();
        dse.rx_port().push(std::move(req));
    }
    EXPECT_EQ(dse.tick(0), 1u);  // the second grant retries next cycle
    EXPECT_EQ(node.fabric.stats().packets_injected, 1u);
    EXPECT_FALSE(dse.quiescent());
    EXPECT_EQ(dse.tick(1), 2u);  // still no room: nothing sent, nothing counted
    EXPECT_EQ(node.fabric.stats().packets_injected, 1u);
    EXPECT_EQ(node.fabric.stats().inject_stall_events, 0u);

    node.fabric.tick(2);  // a bus takes the first grant, freeing the slot
    EXPECT_EQ(dse.tick(2), sim::kIdleForever);
    EXPECT_EQ(node.fabric.stats().packets_injected, 2u);
    EXPECT_EQ(node.fabric.stats().inject_stall_events, 0u);
    EXPECT_TRUE(dse.quiescent());

    // The grants reach PE 0 and PE 1 in grant order.
    noc::Packet out;
    std::uint32_t delivered = 0;
    for (sim::Cycle now = 3; now < 30; ++now) {
        node.fabric.tick(now);
        for (std::uint16_t pe = 0; pe < 2; ++pe) {
            while (node.fabric.pop_delivered(node.layout.spe_ep(pe), out)) {
                EXPECT_EQ(out.kind, static_cast<std::uint16_t>(
                                        sched::MsgKind::kFallocFwd));
                EXPECT_EQ(out.src, node.layout.dse_ep());
                ++delivered;
            }
        }
    }
    EXPECT_EQ(delivered, 2u);
}

TEST(ProducerInjection, PeKeepsRefusedPacketsQueuedWithoutCountingStalls) {
    Node node;
    const MachineConfig cfg = test::tiny_config(2);
    // One thread that WRITEs four registers to memory: four packets, one
    // injection slot, and a fabric that never ticks.
    const isa::Program prog = test::single_thread(
        [](isa::CodeBuilder&) {}, /*n_outputs=*/4, /*out_base=*/0x1000);
    const sim::Logger log;
    Pe pe(cfg, sched::Topology{1, 2}, 0, prog, log);
    pe.attach_router(&node.router);
    (void)pe.lse().bootstrap_frame(prog.entry, 0);

    sim::Cycle now = 0;
    for (; now < 200 && node.fabric.stats().packets_injected == 0; ++now) {
        (void)pe.tick(now);
    }
    ASSERT_EQ(node.fabric.stats().packets_injected, 1u);
    for (const sim::Cycle stop = now + 50; now < stop; ++now) {
        EXPECT_EQ(pe.tick(now), now + 1) << "a queued packet retries";
    }
    EXPECT_EQ(node.fabric.stats().packets_injected, 1u);
    EXPECT_EQ(node.fabric.stats().inject_stall_events, 0u);
    EXPECT_FALSE(pe.quiescent());

    node.fabric.tick(now);  // frees the slot
    (void)pe.tick(now);
    EXPECT_EQ(node.fabric.stats().packets_injected, 2u);
    EXPECT_EQ(node.fabric.stats().inject_stall_events, 0u);
}

TEST(ProducerInjection, MemInterfaceCountsOneStallPerBlockedCycle) {
    Node node;
    mem::MainMemory memory(MachineConfig::cell_dta(2).memory);
    MemInterface memif(memory);
    memif.attach_router(&node.router, node.layout.mem_ep());
    // Occupy the memory endpoint's only slot; the fabric never takes it
    // until the test ticks it.
    noc::Packet filler;
    filler.dst_final = node.layout.spe_ep(0);
    ASSERT_TRUE(node.router.inject(node.layout.mem_ep(), filler, 0));

    noc::Packet req;
    req.kind = static_cast<std::uint16_t>(sched::MsgKind::kMemReadReq);
    req.a = 0x40;
    req.b = sched::GlobalEndpoint{0, node.layout.spe_ep(1)}.pack();
    req.c = 7;
    memif.rx_port().push(std::move(req));

    // Until the response exists nothing is refused; from then on every
    // tick is refused exactly once.
    sim::Cycle now = 0;
    for (; now < 1000 && node.fabric.stats().inject_stall_events == 0;
         ++now) {
        (void)memif.tick(now);
    }
    ASSERT_EQ(node.fabric.stats().inject_stall_events, 1u);
    for (std::uint64_t blocked = 2; blocked <= 20; ++blocked, ++now) {
        EXPECT_EQ(memif.tick(now), now + 1);
        EXPECT_EQ(node.fabric.stats().inject_stall_events, blocked);
    }
    EXPECT_FALSE(memif.quiescent());

    node.fabric.tick(now);  // the filler goes out; the slot frees
    (void)memif.tick(now);
    EXPECT_EQ(node.fabric.stats().inject_stall_events, 20u);
    EXPECT_EQ(node.fabric.stats().packets_injected, 2u);
    EXPECT_TRUE(memif.quiescent());
}

/// bitcnt(256) with one injection slot per endpoint, on one node and on
/// two, with four buses and with one.  The counts are those the
/// router-driven injection gave; moving injection into the producers must
/// not change them.
TEST(ProducerInjection, BitcntStallsAndPacketsPinnedAtOneSlot) {
    workloads::BitCount::Params p;
    p.iterations = 256;
    const workloads::BitCount wl(p);
    struct Case {
        std::uint16_t nodes;
        std::uint32_t buses;
        bool prefetch;
        std::uint64_t stalls;
        std::uint64_t packets;
    };
    const Case cases[] = {
        {1, 4, false, 0, 20521}, {1, 4, true, 0, 14833},
        {1, 1, false, 41, 20443}, {1, 1, true, 121, 14833},
        {2, 1, false, 1, 19642},  {2, 1, true, 12, 14025},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE("nodes=" + std::to_string(c.nodes) + " buses=" +
                     std::to_string(c.buses) +
                     (c.prefetch ? " prefetch" : " original"));
        MachineConfig cfg = workloads::BitCount::machine_config(8);
        cfg.nodes = c.nodes;
        cfg.spes_per_node = static_cast<std::uint16_t>(8 / c.nodes);
        cfg.noc.num_buses = c.buses;
        cfg.noc.inject_queue_depth = 1;
        const workloads::RunOutcome out =
            workloads::run_workload(wl, cfg, c.prefetch);
        ASSERT_TRUE(out.correct) << out.detail;
        EXPECT_EQ(out.result.noc.inject_stall_events, c.stalls);
        EXPECT_EQ(out.result.noc.packets_injected, c.packets);
    }
}

TEST(ProducerInjection, SingleNodeRouterTicksAtMostOnce) {
    workloads::BitCount::Params p;
    p.iterations = 256;
    const workloads::BitCount wl(p);
    MachineConfig cfg = workloads::BitCount::machine_config(8);
    cfg.profile = true;
    const workloads::RunOutcome out = workloads::run_workload(wl, cfg, false);
    ASSERT_TRUE(out.correct) << out.detail;
    std::uint64_t router_ticks = 0;
    std::uint64_t pe_ticks = 0;
    for (const sim::HostProfileEntry& e : out.result.host_profile.entries) {
        if (e.phase != sim::ProfPhase::kTick) {
            continue;
        }
        if (e.component == "router0") {
            router_ticks += e.calls;
        } else if (e.component == "pe0") {
            pe_ticks += e.calls;
        }
    }
    // No ring, so the router has nothing to do after the start-up visit;
    // the producers' own ticks carry every injection.
    EXPECT_LE(router_ticks, 1u);
    EXPECT_GT(pe_ticks, 1000u);
}

}  // namespace
}  // namespace dta::core
