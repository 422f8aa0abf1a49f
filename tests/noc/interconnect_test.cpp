// Unit tests for the 4-bus fabric: bandwidth accounting, arbitration
// fairness, back pressure, delivery latency.
#include "noc/interconnect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

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

/// One packet of an interleaved stream: endpoint `src` injects `size` bytes
/// at cycle `at`.
struct Shot {
    sim::Cycle at = 0;
    EndpointId src = 0;
    std::uint32_t size = 0;
};

/// Where a packet should come out: at `deliver_at`, after every packet
/// with a smaller (deliver_at, seq).
struct Expected {
    sim::Cycle deliver_at = 0;
    std::uint64_t seq = 0;
    std::uint64_t id = 0;  ///< index into the shot list
    std::uint32_t size = 0;
};

/// Replays the fabric's arbitration (bus grants in bus order, round-robin
/// over endpoints, oldest first within one) over plain queues and sorts
/// every grant by (deliver_at, seq): the order one priority queue over all
/// on-bus packets would deliver in.
std::vector<Expected> reference_order(const InterconnectConfig& cfg,
                                      std::uint32_t endpoints,
                                      const std::vector<Shot>& shots,
                                      sim::Cycle horizon) {
    std::vector<std::deque<std::uint64_t>> queues(endpoints);
    std::vector<sim::Cycle> bus_free(cfg.num_buses, 0);
    std::size_t rr = 0;
    std::uint64_t seq = 0;
    std::vector<Expected> out;
    for (sim::Cycle now = 0; now < horizon; ++now) {
        for (std::uint32_t bus = 0; bus < cfg.num_buses; ++bus) {
            if (bus_free[bus] > now) {
                continue;
            }
            std::size_t ep = rr;
            bool granted = false;
            for (std::size_t probe = 0; probe < endpoints && !granted;
                 ++probe, ep = (ep + 1) % endpoints) {
                if (queues[ep].empty()) {
                    continue;
                }
                const std::uint64_t id = queues[ep].front();
                queues[ep].pop_front();
                const std::uint32_t occ =
                    (shots[id].size + cfg.bytes_per_cycle - 1) /
                    cfg.bytes_per_cycle;
                bus_free[bus] = now + occ;
                out.push_back({now + occ + cfg.hop_latency, seq++, id,
                               shots[id].size});
                rr = (ep + 1) % endpoints;
                granted = true;
            }
            if (!granted) {
                break;
            }
        }
        for (std::uint64_t id = 0; id < shots.size(); ++id) {
            if (shots[id].at == now) {
                queues[shots[id].src].push_back(id);
            }
        }
    }
    std::sort(out.begin(), out.end(),
              [](const Expected& x, const Expected& y) {
                  return x.deliver_at != y.deliver_at
                             ? x.deliver_at < y.deliver_at
                             : x.seq < y.seq;
              });
    return out;
}

/// 8 B, 16 B and 144 B packets (1, 2 and 18 bus cycles) from five
/// endpoints, each endpoint cycling through the sizes from a different
/// start, injected over the first dozen cycles.  \p rotation shifts every
/// endpoint's cycle, which changes the size granted first and so the
/// order in which the fabric meets the three transfer times.
std::vector<Shot> interleaved_shots(std::uint32_t rotation = 0) {
    const std::uint32_t sizes[] = {144, 8, 16};
    std::vector<Shot> shots;
    for (sim::Cycle at = 0; at < 12; ++at) {
        for (EndpointId src = 0; src < 5; ++src) {
            if ((at + src) % 3 == 2) {
                continue;  // leave gaps so the queues drain and refill
            }
            shots.push_back({at, src, sizes[(at + 2 * src + rotation) % 3]});
        }
    }
    return shots;
}

/// A fabric of 7 endpoints whose sinks 5 and 6 both deliver into \p sink,
/// so the sink sees the fabric's global delivery order.
struct LaneRig {
    explicit LaneRig(const InterconnectConfig& cfg) : noc(cfg, 7) {
        noc.bind_endpoint(5, &sink);
        noc.bind_endpoint(6, &sink);
    }
    /// Fabric tick, then the cycle's injections, as in the machine (the
    /// fabric runs first, producers inject at the end of their ticks).
    void step(sim::Cycle now, const std::vector<Shot>& shots) {
        noc.tick(now);
        Packet out;
        while (sink.pop(out)) {
            got.emplace_back(out.a, now);
        }
        for (std::uint64_t id = 0; id < shots.size(); ++id) {
            if (shots[id].at == now) {
                Packet p = mk(5 + static_cast<EndpointId>(id % 2),
                              shots[id].size);
                p.a = id;
                ASSERT_TRUE(noc.try_inject(shots[id].src, p, now));
            }
        }
    }
    sim::Port<Packet> sink;
    Interconnect noc;
    std::vector<std::pair<std::uint64_t, sim::Cycle>> got;  ///< (id, cycle)
};

TEST(Interconnect, LanesDeliverInDeliverAtSeqOrder) {
    const InterconnectConfig cfg = table4();
    bool cross_lane_tie = false;
    for (std::uint32_t rotation = 0; rotation < 3; ++rotation) {
        SCOPED_TRACE("rotation " + std::to_string(rotation));
        const std::vector<Shot> shots = interleaved_shots(rotation);
        const std::vector<Expected> want = reference_order(cfg, 7, shots, 200);
        ASSERT_EQ(want.size(), shots.size());

        // The streams must exercise what the lanes change: a short packet
        // overtaking an earlier long one, and same-cycle deliveries from
        // different lanes broken by seq.
        bool overtaken = false;
        for (std::size_t i = 1; i < want.size(); ++i) {
            overtaken |= want[i].seq < want[i - 1].seq;
            cross_lane_tie |= want[i].deliver_at == want[i - 1].deliver_at &&
                              want[i].size != want[i - 1].size;
        }
        EXPECT_TRUE(overtaken);

        LaneRig rig(cfg);
        for (sim::Cycle now = 0; now < 200; ++now) {
            rig.step(now, shots);
        }
        ASSERT_EQ(rig.got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(rig.got[i].first, want[i].id) << "delivery " << i;
            EXPECT_EQ(rig.got[i].second, want[i].deliver_at)
                << "delivery " << i;
        }
        EXPECT_TRUE(rig.noc.quiescent());
    }
    EXPECT_TRUE(cross_lane_tie);
}

TEST(Interconnect, MidFlightSnapshotRoundTripsAcrossLanes) {
    const InterconnectConfig cfg = table4();
    const std::vector<Shot> shots = interleaved_shots();
    constexpr sim::Cycle kCut = 10;
    // At the cut, packets of all three sizes are on a bus and more wait in
    // the injection queues or are still to come.
    std::set<std::uint32_t> on_bus;
    for (const Expected& e :
         reference_order(cfg, 7, shots, kCut + 1)) {
        if (e.deliver_at > kCut) {
            on_bus.insert(e.size);
        }
    }
    ASSERT_EQ(on_bus.size(), 3u);

    LaneRig live(cfg);
    for (sim::Cycle now = 0; now <= kCut; ++now) {
        live.step(now, shots);
    }
    sim::StateSink first;
    live.noc.save_state(first);

    LaneRig restored(cfg);
    sim::StateSource src(first.data().data(), first.data().size());
    restored.noc.load_state(src);
    src.finish();
    sim::StateSink second;
    restored.noc.save_state(second);
    EXPECT_EQ(first.data(), second.data());

    // Both continue to the same deliveries at the same cycles.
    live.got.clear();
    for (sim::Cycle now = kCut + 1; now < 200; ++now) {
        live.step(now, shots);
        restored.step(now, shots);
    }
    EXPECT_FALSE(live.got.empty());
    EXPECT_EQ(live.got, restored.got);
    EXPECT_TRUE(restored.noc.quiescent());
}

TEST(Interconnect, SnapshotWithOnBusPacketsOutOfOrderIsRejected) {
    // A fabric section whose on-bus packets are not in (deliver_at, seq)
    // order would leave a lane unsorted; loading must refuse it.  The same
    // section with the two packets in order loads.
    const InterconnectConfig cfg = table4();
    const auto section = [&](sim::Cycle first_at, sim::Cycle second_at) {
        sim::StateSink s;
        for (int ep = 0; ep < 2; ++ep) {
            s.u64(0);  // empty injection queue
        }
        for (std::uint32_t bus = 0; bus < cfg.num_buses; ++bus) {
            s.u64(0);  // bus free
        }
        s.u64(2);  // two packets on a bus
        s.u64(first_at);
        s.u64(0);
        save_packet(s, mk(1, 8));
        s.u64(second_at);
        s.u64(1);
        save_packet(s, mk(1, 8));
        for (int ep = 0; ep < 2; ++ep) {
            s.u64(0);  // empty inbox
        }
        s.u64(0);  // round-robin cursor
        s.u64(2);  // next seq
        for (int stat = 0; stat < 5; ++stat) {
            s.u64(stat < 1 ? 2 : 0);  // two injected, nothing else yet
        }
        return s;
    };
    const sim::StateSink good = section(9, 10);
    Interconnect ok(cfg, 2);
    sim::StateSource good_src(good.data().data(), good.data().size());
    ok.load_state(good_src);
    good_src.finish();
    EXPECT_EQ(ok.pending(), 2u);

    const sim::StateSink bad = section(10, 9);
    Interconnect refused(cfg, 2);
    sim::StateSource bad_src(bad.data().data(), bad.data().size());
    EXPECT_THROW(refused.load_state(bad_src), sim::SimError);
}

}  // namespace
}  // namespace dta::noc
