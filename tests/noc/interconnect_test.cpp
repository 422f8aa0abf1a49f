// Unit tests for the 4-bus fabric: bandwidth accounting, arbitration
// fairness, back pressure, delivery latency.
#include "noc/interconnect.hpp"

#include <gtest/gtest.h>

namespace dta::noc {
namespace {

InterconnectConfig table4() { return InterconnectConfig{}; }

Packet mk(EndpointId dst, std::uint32_t size = 16) {
    Packet p;
    p.dst = dst;
    p.dst_final = dst;
    p.size_bytes = size;
    return p;
}

/// try_inject on a packet the caller does not keep.
bool inject(Interconnect& noc, EndpointId src, Packet pkt, sim::Cycle now) {
    return noc.try_inject(src, pkt, now);
}

TEST(Interconnect, DeliversAfterTransferPlusHop) {
    Interconnect noc(table4(), 4);
    ASSERT_TRUE(inject(noc, 0, mk(2, /*size=*/16), 0));
    // 16 bytes at 8 B/cycle = 2 cycles occupancy + 5 hop latency.
    Packet out;
    sim::Cycle got = 0;
    for (sim::Cycle now = 0; now < 20; ++now) {
        noc.tick(now);
        if (noc.pop_delivered(2, out)) {
            got = now;
            break;
        }
    }
    EXPECT_EQ(got, 7u);
    EXPECT_EQ(out.src, 0u);
    EXPECT_TRUE(noc.quiescent());
}

TEST(Interconnect, FourBusesCarryFourPacketsConcurrently) {
    Interconnect noc(table4(), 8);
    for (EndpointId src = 0; src < 4; ++src) {
        ASSERT_TRUE(inject(noc, src, mk(7, 16), 0));
    }
    std::vector<sim::Cycle> deliveries;
    Packet out;
    for (sim::Cycle now = 0; now < 20; ++now) {
        noc.tick(now);
        while (noc.pop_delivered(7, out)) {
            deliveries.push_back(now);
        }
    }
    ASSERT_EQ(deliveries.size(), 4u);
    // All four go out in parallel on separate buses: same delivery cycle.
    EXPECT_EQ(deliveries[0], deliveries[3]);
}

TEST(Interconnect, FifthPacketWaitsForAFreeBus) {
    Interconnect noc(table4(), 8);
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(inject(noc, 0, mk(7, 16), 0));
    }
    std::vector<sim::Cycle> deliveries;
    Packet out;
    for (sim::Cycle now = 0; now < 30; ++now) {
        noc.tick(now);
        while (noc.pop_delivered(7, out)) {
            deliveries.push_back(now);
        }
    }
    ASSERT_EQ(deliveries.size(), 5u);
    EXPECT_GT(deliveries[4], deliveries[0]);
}

TEST(Interconnect, InjectionQueueBackPressure) {
    InterconnectConfig cfg = table4();
    cfg.inject_queue_depth = 2;
    Interconnect noc(cfg, 2);
    EXPECT_TRUE(inject(noc, 0, mk(1), 0));
    EXPECT_TRUE(inject(noc, 0, mk(1), 0));
    EXPECT_FALSE(noc.can_inject(0));
    EXPECT_FALSE(inject(noc, 0, mk(1), 0));
    EXPECT_EQ(noc.stats().inject_stall_events, 1u);
}

TEST(Interconnect, RefusedInjectionLeavesPacketUntouched) {
    InterconnectConfig cfg = table4();
    cfg.inject_queue_depth = 1;
    Interconnect noc(cfg, 2);
    EXPECT_TRUE(inject(noc, 0, mk(1), 0));
    Packet pkt = mk(1, 136);
    pkt.a = 42;
    pkt.data.assign(128, 0x5a);
    const Packet before = pkt;
    EXPECT_FALSE(noc.try_inject(0, pkt, 3));
    EXPECT_FALSE(noc.try_inject(0, pkt, 4));
    EXPECT_EQ(noc.stats().inject_stall_events, 2u);
    EXPECT_EQ(pkt.data, before.data);
    EXPECT_EQ(pkt.a, 42u);
    EXPECT_EQ(pkt.src, before.src);
    EXPECT_EQ(pkt.enq_at, before.enq_at);

    // Once a bus takes the queued packet the same packet goes in, payload
    // and all.
    noc.tick(4);
    ASSERT_TRUE(noc.try_inject(0, pkt, 5));
    Packet out;
    std::vector<std::uint64_t> got;
    for (sim::Cycle now = 5; now < 60; ++now) {
        noc.tick(now);
        while (noc.pop_delivered(1, out)) {
            got.push_back(out.a);
            if (out.a == 42) {
                EXPECT_EQ(out.enq_at, 5u);
                EXPECT_EQ(out.data, before.data);
            }
        }
    }
    EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 42}));
}

TEST(Interconnect, RoundRobinAcrossEndpoints) {
    InterconnectConfig cfg = table4();
    cfg.num_buses = 1;  // serialise everything through one bus
    Interconnect noc(cfg, 4);
    // Endpoints 0 and 1 each queue two packets; service must alternate.
    ASSERT_TRUE(inject(noc, 0, mk(3, 8), 0));
    ASSERT_TRUE(inject(noc, 0, mk(3, 8), 0));
    ASSERT_TRUE(inject(noc, 1, mk(3, 8), 0));
    ASSERT_TRUE(inject(noc, 1, mk(3, 8), 0));
    std::vector<EndpointId> srcs;
    Packet out;
    for (sim::Cycle now = 0; now < 30; ++now) {
        noc.tick(now);
        while (noc.pop_delivered(3, out)) {
            srcs.push_back(out.src);
        }
    }
    ASSERT_EQ(srcs.size(), 4u);
    EXPECT_EQ(srcs[0], 0u);
    EXPECT_EQ(srcs[1], 1u);
    EXPECT_EQ(srcs[2], 0u);
    EXPECT_EQ(srcs[3], 1u);
}

TEST(Interconnect, BandwidthAccountingMatchesBytes) {
    Interconnect noc(table4(), 2);
    ASSERT_TRUE(inject(noc, 0, mk(1, 128), 0));
    Packet out;
    for (sim::Cycle now = 0; now < 40; ++now) {
        noc.tick(now);
        (void)noc.pop_delivered(1, out);
    }
    EXPECT_EQ(noc.stats().bytes_transferred, 128u);
    // 128 B / 8 B-per-cycle = 16 busy cycles.
    EXPECT_EQ(noc.stats().bus_busy_cycles, 16u);
    EXPECT_EQ(noc.stats().packets_injected, 1u);
    EXPECT_EQ(noc.stats().packets_delivered, 1u);
}

TEST(Interconnect, ConservationUnderLoad) {
    Interconnect noc(table4(), 6);
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    Packet out;
    for (sim::Cycle now = 0; now < 300; ++now) {
        if (now < 100) {
            for (EndpointId src = 0; src < 6; ++src) {
                if (inject(noc, src, mk((src + 1) % 6, 8), now)) {
                    ++injected;
                }
            }
        }
        noc.tick(now);
        for (EndpointId ep = 0; ep < 6; ++ep) {
            while (noc.pop_delivered(ep, out)) {
                ++delivered;
            }
        }
    }
    EXPECT_EQ(injected, delivered);
    EXPECT_TRUE(noc.quiescent());
}

TEST(Interconnect, ZeroSizePacketStillMoves) {
    Interconnect noc(table4(), 2);
    ASSERT_TRUE(inject(noc, 0, mk(1, 0), 0));
    Packet out;
    bool got = false;
    for (sim::Cycle now = 0; now < 20 && !got; ++now) {
        noc.tick(now);
        got = noc.pop_delivered(1, out);
    }
    EXPECT_TRUE(got);
}

}  // namespace
}  // namespace dta::noc
