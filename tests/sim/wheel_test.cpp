// Unit tests of sim::WheelScheduler on scripted mock components: visits run
// in ascending list index within a cycle, wakes follow the dense-order rule
// (a wake to a higher index joins the cycle in flight, one to a lower index
// lands on the next cycle), double wakes and stale wheel entries never cause
// an extra visit, horizons of now + 1 take the stay-armed lane, and all of
// it holds on machines wider than one 64-bit word of the visit sets.  The
// last test drives random horizons and wakes through the scheduler and
// through a plain reference loop that checks every component on every
// cycle, and requires identical visit logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/wheel.hpp"

namespace dta::sim {
namespace {

/// "<prefix><i>", appended rather than prefix + std::to_string(i): gcc 12
/// at -O3 flags the prepend with a false -Wrestrict.
std::string numbered(const char* prefix, std::uint32_t i) {
    std::string s = prefix;
    s += std::to_string(i);
    return s;
}

/// One visit: the cycle and the component ticked.
struct Visit {
    Cycle cycle = 0;
    std::uint32_t id = 0;
    bool operator==(const Visit&) const = default;
};

/// A component whose tick logs the visit, runs an optional hook (which may
/// wake other components) and returns the horizon \p horizon computes.
class Mock final : public Component {
public:
    Mock(std::uint32_t id, std::vector<Visit>* log)
        : Component(numbered("m", id)), id_(id), log_(log) {}

    Cycle tick(Cycle now) override {
        log_->push_back({now, id_});
        if (on_tick) {
            on_tick(now);
        }
        return horizon(now);
    }
    [[nodiscard]] bool quiescent() const override { return true; }
    void skip(Cycle from, Cycle to) override {
        EXPECT_LT(from, to);
        skipped += to - from;
    }

    std::function<Cycle(Cycle)> horizon = [](Cycle) { return kIdleForever; };
    std::function<void(Cycle)> on_tick;
    Cycle skipped = 0;

private:
    std::uint32_t id_;
    std::vector<Visit>* log_;
};

/// N mocks attached to one scheduler, plus a run loop shaped like the
/// machine's: run a cycle, then jump to the next due cycle.
class Rig {
public:
    explicit Rig(std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) {
            mocks_.push_back(std::make_unique<Mock>(i, &log));
            comps_.push_back(mocks_.back().get());
        }
        sched.attach(comps_);
    }

    Mock& operator[](std::uint32_t i) { return *mocks_[i]; }

    /// Runs every cycle up to and including \p last (or until nothing is
    /// armed); returns the cycles run and the components each ticked.
    std::vector<std::pair<Cycle, std::uint32_t>> run(Cycle last) {
        std::vector<std::pair<Cycle, std::uint32_t>> cycles;
        sched.start(0);
        Cycle now = 0;
        std::uint64_t t = 0;
        while (now <= last) {
            cycles.emplace_back(now, sched.run_cycle(now, nullptr, t));
            if (sched.idle()) {
                break;
            }
            now = sched.next_due();
        }
        return cycles;
    }

    /// Visits of component \p id, in order.
    std::vector<Cycle> visits(std::uint32_t id) const {
        std::vector<Cycle> out;
        for (const Visit& v : log) {
            if (v.id == id) {
                out.push_back(v.cycle);
            }
        }
        return out;
    }

    std::vector<Visit> log;
    WheelScheduler sched;

private:
    std::vector<std::unique_ptr<Mock>> mocks_;
    std::vector<Component*> comps_;
};

/// True when visits within each cycle come in strictly ascending id order.
bool ascending_within_cycles(const std::vector<Visit>& log) {
    for (std::size_t k = 1; k < log.size(); ++k) {
        if (log[k].cycle == log[k - 1].cycle && log[k].id <= log[k - 1].id) {
            return false;
        }
        if (log[k].cycle < log[k - 1].cycle) {
            return false;
        }
    }
    return true;
}

TEST(WheelScheduler, VisitsInAscendingIndexWithinACycle) {
    Rig rig(6);
    // Mixed strides: several components share most cycles.
    for (std::uint32_t i = 0; i < 6; ++i) {
        const Cycle stride = 1 + (5 - i) % 3;
        rig[i].horizon = [stride](Cycle now) {
            return now < 40 ? now + stride : kIdleForever;
        };
    }
    rig.run(100);
    EXPECT_TRUE(ascending_within_cycles(rig.log));
    // Cycle 0 (start) visits everyone, in list order.
    for (std::uint32_t i = 0; i < 6; ++i) {
        EXPECT_EQ(rig.log[i], (Visit{0, i}));
    }
    EXPECT_EQ(rig.visits(5).size(), 41u);  // stride 1 over [0, 40]
}

TEST(WheelScheduler, WakeToHigherIndexJoinsTheCycle) {
    Rig rig(5);
    rig[1].horizon = [](Cycle now) { return now == 0 ? 7 : kIdleForever; };
    rig[1].on_tick = [&rig](Cycle now) {
        if (now == 7) {
            rig.sched.wake(3);
        }
    };
    const auto cycles = rig.run(100);
    EXPECT_EQ(rig.visits(3), (std::vector<Cycle>{0, 7}));
    ASSERT_EQ(rig.log.back(), (Visit{7, 3}));
    EXPECT_EQ(rig.log[rig.log.size() - 2], (Visit{7, 1}));
    // The sleeper accounted its idle span [1, 7) before the tick.
    EXPECT_EQ(rig[3].skipped, 6u);
    EXPECT_EQ(rig.sched.stats().wakes, 1u);
    EXPECT_EQ(cycles.back(), (std::pair<Cycle, std::uint32_t>{7, 2}));
}

TEST(WheelScheduler, WakeToLowerIndexLandsOnTheNextCycle) {
    Rig rig(5);
    rig[3].horizon = [](Cycle now) { return now == 0 ? 7 : kIdleForever; };
    rig[3].on_tick = [&rig](Cycle now) {
        if (now == 7) {
            rig.sched.wake(1);
            rig.sched.wake(3);  // itself: already due now, a no-op
        }
    };
    const auto cycles = rig.run(100);
    EXPECT_EQ(rig.visits(1), (std::vector<Cycle>{0, 8}));
    EXPECT_EQ(rig.visits(3), (std::vector<Cycle>{0, 7}));
    EXPECT_EQ(rig.sched.stats().wakes, 1u);
    // A next-cycle wake is an insert; the jump to 7 came from the wheel.
    ASSERT_EQ(cycles.size(), 3u);
    EXPECT_EQ(cycles[1].first, 7u);
    EXPECT_EQ(cycles[2].first, 8u);
}

TEST(WheelScheduler, DoubleWakesAndStaleEntriesVisitOnce) {
    Rig rig(4);
    // Component 2 sleeps until 20 and then until 30; component 0 wakes it
    // twice at cycle 5, leaving its wheel entry at 20 stale.
    int visits_of_2 = 0;
    rig[2].horizon = [&visits_of_2](Cycle now) {
        ++visits_of_2;
        if (now == 0) return Cycle{20};
        if (now == 5) return Cycle{20};  // re-armed at the stale cycle too
        if (now == 20) return Cycle{30};
        return kIdleForever;
    };
    rig[0].horizon = [](Cycle now) { return now == 0 ? 5 : kIdleForever; };
    rig[0].on_tick = [&rig](Cycle now) {
        if (now == 5) {
            rig.sched.wake(2);
            rig.sched.wake(2);
        }
    };
    // Component 3 sleeps until 12; component 1 wakes it twice at cycle 9,
    // so its wheel entry at 12 turns stale.
    rig[3].horizon = [](Cycle now) { return now == 0 ? 12 : kIdleForever; };
    rig[1].horizon = [](Cycle now) { return now == 0 ? 9 : kIdleForever; };
    rig[1].on_tick = [&rig](Cycle now) {
        if (now == 9) {
            rig.sched.wake(3);  // joins cycle 9; the entry at 12 turns stale
            rig.sched.wake(3);
        }
    };
    const auto cycles = rig.run(100);
    EXPECT_EQ(rig.visits(2), (std::vector<Cycle>{0, 5, 20, 30}));
    EXPECT_EQ(rig.visits(3), (std::vector<Cycle>{0, 9}));
    EXPECT_EQ(visits_of_2, 4);
    EXPECT_EQ(rig.sched.stats().wakes, 2u);
    // The stale entry at 12 may still make the loop stop there, but
    // nothing is ticked and the cycle is not counted as active.
    for (const auto& [cycle, ticked] : cycles) {
        if (cycle == 12) {
            EXPECT_EQ(ticked, 0u);
        }
    }
    EXPECT_EQ(rig.sched.stats().pops, rig.log.size());
    EXPECT_TRUE(ascending_within_cycles(rig.log));
}

TEST(WheelScheduler, StayArmedLaneKeepsBusyComponentsHot) {
    Rig rig(3);
    rig[0].horizon = [](Cycle now) {
        return now < 10 ? now + 1 : kIdleForever;
    };
    rig[1].horizon = [](Cycle now) {
        return now < 10 ? now + 3 : kIdleForever;
    };
    rig[2].horizon = [](Cycle now) {
        return now < 10 ? now + 1 : kIdleForever;
    };
    const auto cycles = rig.run(100);
    // Cycles 0..10 run back to back, then the loop jumps to 12.
    ASSERT_EQ(cycles.size(), 12u);
    for (std::size_t k = 0; k < 11; ++k) {
        EXPECT_EQ(cycles[k].first, k);
    }
    EXPECT_EQ(cycles[11].first, 12u);
    EXPECT_EQ(rig.visits(0).size(), 11u);
    EXPECT_EQ(rig.visits(1), (std::vector<Cycle>{0, 3, 6, 9, 12}));
    EXPECT_EQ(rig[0].skipped, 0u);
    EXPECT_EQ(rig[1].skipped, 8u);  // [1,3) [4,6) [7,9) [10,12)
    // Every finite horizon counts as an insert, whichever lane took it,
    // plus the start() arming of all three.
    const WheelStats& st = rig.sched.stats();
    EXPECT_EQ(st.rearms, st.pops);
    EXPECT_EQ(st.inserts, 3u + (10u + 4u + 10u));
    EXPECT_EQ(st.wakes, 0u);
    EXPECT_TRUE(ascending_within_cycles(rig.log));
}

TEST(WheelScheduler, SpansSeveralBitsetWords) {
    constexpr std::uint32_t kN = 150;
    Rig rig(kN);
    for (std::uint32_t i = 0; i < kN; ++i) {
        rig[i].horizon = [i](Cycle now) {
            if (now >= 50) return kIdleForever;
            return now + 1 + (i * 7) % 5;
        };
    }
    // At cycle 60, same-cycle wakes across word boundaries (63 -> 64,
    // 10 -> 140), then a wake to a lower index in the same word (140 -> 130)
    // and one back across a boundary (130 -> 65), each a cycle later.
    rig[63].on_tick = [&rig](Cycle now) {
        if (now == 60) {
            rig.sched.wake(64);
        }
    };
    rig[10].on_tick = [&rig](Cycle now) {
        if (now == 60) {
            rig.sched.wake(140);
        }
    };
    rig[140].on_tick = [&rig](Cycle now) {
        if (now == 60) {
            rig.sched.wake(130);
        }
    };
    rig[130].on_tick = [&rig](Cycle now) {
        if (now == 61) {
            rig.sched.wake(65);
        }
    };
    for (const std::uint32_t i : {10u, 63u}) {
        rig[i].horizon = [](Cycle now) {
            return now < 60 ? Cycle{60} : kIdleForever;
        };
    }
    rig.run(200);
    EXPECT_TRUE(ascending_within_cycles(rig.log));
    EXPECT_EQ(rig.visits(64).back(), 60u);
    EXPECT_EQ(rig.visits(140).back(), 60u);
    EXPECT_EQ(rig.visits(130).back(), 61u);
    EXPECT_EQ(rig.visits(65).back(), 62u);
    EXPECT_EQ(rig.sched.stats().peak_occupancy, kN);
    // Cycle 0 visits all 150 in order.
    for (std::uint32_t i = 0; i < kN; ++i) {
        ASSERT_EQ(rig.log[i], (Visit{0, i}));
    }
}

/// Deterministic hash of (component, cycle, salt) driving the random
/// behaviour identically under both schedulers.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t salt) {
    std::uint64_t x = a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull);
    x ^= salt * 0xd6e8feb86659fd93ull;
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 29;
    return x;
}

/// Horizon of component \p i visited at \p now: mostly short (the lane and
/// the L0 wheel), sometimes long (L1 and overflow), sometimes idle.
Cycle random_horizon(std::uint32_t i, Cycle now, Cycle end) {
    if (now >= end) {
        return kIdleForever;
    }
    const std::uint64_t r = mix(i, now, 1) % 100;
    if (r < 45) return now + 1;
    if (r < 75) return now + 2 + mix(i, now, 2) % 6;
    if (r < 83) return now + 250 + mix(i, now, 3) % 5000;   // L1 pages
    if (r < 85) return now + 66000 + mix(i, now, 3) % 4000;  // overflow
    return kIdleForever;
}

TEST(WheelScheduler, MatchesAReferenceLoopUnderRandomWakes) {
    constexpr std::uint32_t kN = 97;
    constexpr Cycle kEnd = 30000;
    // Wakes issued by component i at cycle now: up to two random targets.
    const auto targets = [](std::uint32_t i, Cycle now) {
        std::vector<std::uint32_t> out;
        const std::uint64_t r = mix(i, now, 4);
        for (std::uint64_t k = 0; k < r % 3; ++k) {
            out.push_back(static_cast<std::uint32_t>(mix(i, now, 5 + k) % kN));
        }
        return out;
    };

    Rig rig(kN);
    for (std::uint32_t i = 0; i < kN; ++i) {
        rig[i].horizon = [i](Cycle now) {
            return random_horizon(i, now, kEnd);
        };
        rig[i].on_tick = [&rig, i, &targets](Cycle now) {
            if (now < kEnd) {
                for (const std::uint32_t j : targets(i, now)) {
                    rig.sched.wake(j);
                }
            }
        };
    }
    rig.run(kCycleNever - 1);

    // Reference: check every component on every cycle, in list order,
    // applying the same wake rule to a plain due table.
    std::vector<Visit> ref;
    std::vector<Cycle> due(kN, 0);
    for (Cycle c = 0; c <= kEnd + 70300; ++c) {
        for (std::uint32_t i = 0; i < kN; ++i) {
            if (due[i] != c) {
                continue;
            }
            ref.push_back({c, i});
            if (c < kEnd) {
                for (const std::uint32_t j : targets(i, c)) {
                    const Cycle at = j > i ? c : c + 1;
                    due[j] = std::min(due[j], at);
                }
            }
            due[i] = random_horizon(i, c, kEnd);
        }
        if (std::all_of(due.begin(), due.end(),
                        [](Cycle d) { return d == kIdleForever; })) {
            break;
        }
    }
    ASSERT_GT(ref.size(), 20000u);
    ASSERT_EQ(rig.log.size(), ref.size());
    EXPECT_TRUE(rig.log == ref) << "wheel visit log diverged from reference";
    EXPECT_EQ(rig.sched.stats().pops, ref.size());
}

}  // namespace
}  // namespace dta::sim
