/// \file wheel.hpp
/// \brief Event-driven scheduler core: a hierarchical timing wheel plus the
///        per-component scheduling state that turns "tick every component
///        every cycle" into "visit each component only when it can act".
///
/// The dense loop (kept behind `--no-wheel` / `cfg.use_wheel = false` as the
/// differential oracle) ticks all N components at every cycle.  The
/// wheel inverts that: every tick returns the component's horizon, the
/// component is *re-armed* there and sleeps until then, and inbound traffic
/// re-arms sleepers through the wake contract (sim/component.hpp).  Results
/// are fingerprint-exact by construction:
///
///  * Per-component accounting cursors.  `acct_[i]` is component i's next
///    unaccounted cycle.  When i is visited at cycle h after sleeping, the
///    span [acct_[i], h) is bulk-applied with `skip()` *first* — the wake
///    contract guarantees a sleeping component received no input inside the
///    span, so its state is frozen and skip() is bit-identical to ticking.
///  * Dense-order visit set.  The components due in the cycle being run
///    are a bitset over component ids, scanned in ascending (dense) order.
///    A push into a *later*-indexed component sets a bit the scan has not
///    passed yet, so it joins the current cycle (the dense loop would tick
///    it after the producer this cycle); a push into an earlier-indexed one
///    arms it for the next cycle — exactly the wrap-edge rule
///    docs/ARCHITECTURE.md derives for the ring.
///  * Stay-armed lane.  A horizon (or wake) of now + 1 — a busy component
///    staying busy — sets a bit in the next cycle's bitset instead of
///    entering the wheel, so the wheel only holds horizons of now + 2 or
///    later.
///
/// The wheel itself is a 2-level calendar: 256 one-cycle L0 slots, 256
/// 256-cycle L1 slots (64Ki-cycle span), and an overflow list.  Entries are
/// lazily deleted: `due_[i]` is the single source of truth, and stale
/// entries (left behind when a wake re-armed a component earlier) are
/// filtered when their cycle is scanned.  A wake only ever *lowers* a
/// component's due cycle, so the earliest live entry is never hidden behind
/// a ghost.  Next-cycle bits are never stale: they are only set for
/// components the scan has already passed, which no later wake in the
/// cycle can move earlier.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/component.hpp"
#include "sim/port.hpp"
#include "sim/prof.hpp"
#include "sim/types.hpp"

namespace dta::sim {

/// Host-side counters of the wheel's own behaviour.  Travels in
/// RunResult::wheel and is *excluded* from the JSON run report and every
/// byte-identity comparison, exactly like RunResult::host_profile: the
/// simulated results are byte-identical with the wheel on or off, and these
/// counters describe the scheduler, not the machine.
struct WheelStats {
    bool enabled = false;
    std::uint64_t pops = 0;     ///< component visits taken from the wheel
    std::uint64_t inserts = 0;  ///< arms, re-arms and wakes to a later cycle
                                ///< (wheel or next-cycle set)
    std::uint64_t rearms = 0;   ///< post-tick reschedules at the horizon
    std::uint64_t wakes = 0;    ///< inbound-traffic wakes that re-armed
    std::uint64_t active_cycles = 0;   ///< cycles with >= 1 due component
    /// Always 0: the degraded dense mode it counted is gone.  Kept because
    /// benchmark records and reports carry the field.
    std::uint64_t dense_cycles = 0;
    std::uint64_t peak_occupancy = 0;  ///< most components armed at once

    /// Average components visited per accounted cycle (the headline ratio:
    /// dense ticking visits N on every cycle).
    [[nodiscard]] double pops_per_cycle(Cycle cycles) const {
        return cycles == 0 ? 0.0
                           : static_cast<double>(pops) /
                                 static_cast<double>(cycles);
    }
};

/// The calendar queue: maps future cycles to component ids.  Standalone so
/// bench/microbench.cpp can drive insert/advance/collect at 1e6-op scale
/// without a machine around it.
class TimingWheel {
public:
    TimingWheel() { l0_.resize(kSlots); l1_.resize(kSlots); }

    /// Stores \p id at cycle \p at.  \p at must be >= the current position.
    void insert(Cycle at, std::uint32_t id) {
        DTA_CHECK_MSG(at >= pos_, "timing wheel insert in the past");
        if (page_of(at) != page_of(pos_)) {
            insert_far(at, id);
            return;
        }
        l0_[at & (kSlots - 1)].push_back(id);
        ++l0_count_;
        ++entries_;
    }

    /// Advances the wheel to \p at and moves every id stored there into
    /// \p out (appended; caller clears).  Cycles between the previous
    /// position and \p at must hold no *live* entries (the caller only
    /// advances to its own earliest due cycle or to a bound below it);
    /// stale ids from lazily-deleted entries may be returned and must be
    /// filtered by the caller against its due table.
    void collect(Cycle at, std::vector<std::uint32_t>& out) {
        DTA_CHECK_MSG(at >= pos_, "timing wheel moved backwards");
        if (page_of(at) != page_of(pos_)) {
            collect_slow(at, out);  // cascades the next page in
            return;
        }
        // Same page: slots jumped over hold only stale ids (the caller
        // never advances past a live entry); drop them so a later lap of
        // the page ring and next_due() never see them.
        for (Cycle c = pos_; c < at && l0_count_ > 0; ++c) {
            drop_slot(c);
        }
        pos_ = at;
        auto& slot = l0_[at & (kSlots - 1)];
        out.insert(out.end(), slot.begin(), slot.end());
        drop_slot(at);
    }

    /// Earliest cycle holding any entry (live or stale); kCycleNever when
    /// empty.  Because a wake only moves a component *earlier*, the minimum
    /// over all entries is always a live one.
    [[nodiscard]] Cycle next_due() const;

    /// Drops every entry and repositions the wheel at \p at.
    void reset(Cycle at);

    [[nodiscard]] std::size_t entries() const { return entries_; }

private:
    static constexpr std::uint32_t kSlots = 256;
    static constexpr std::uint32_t kPageShift = 8;    ///< L0 span: 256 cycles
    static constexpr std::uint32_t kEpochShift = 16;  ///< L1 span: 64Ki

    struct Entry {
        Cycle at = 0;
        std::uint32_t id = 0;
    };

    [[nodiscard]] static Cycle page_of(Cycle c) { return c >> kPageShift; }
    [[nodiscard]] static Cycle epoch_of(Cycle c) { return c >> kEpochShift; }

    void drop_slot(Cycle c) {
        auto& slot = l0_[c & (kSlots - 1)];
        entries_ -= slot.size();
        l0_count_ -= slot.size();
        slot.clear();
    }
    /// insert() beyond the current page: into L1 or the overflow list.
    void insert_far(Cycle at, std::uint32_t id);
    /// collect() into a later page: advance(), then take the slot.
    void collect_slow(Cycle at, std::vector<std::uint32_t>& out);
    /// Moves the wheel's notion of "now" to \p at in a later page,
    /// cascading L1 pages into L0 and overflow epochs into L1 as they come
    /// into range.
    void advance(Cycle at);
    void refill_l1_from_overflow();
    void refill_l0_from_l1();

    Cycle pos_ = 0;  ///< cycles < pos_ are in the past
    std::vector<std::vector<std::uint32_t>> l0_;  ///< current page, 1-cycle slots
    std::vector<std::vector<Entry>> l1_;  ///< current epoch, 256-cycle slots
    std::vector<Entry> overflow_;         ///< beyond the current epoch
    std::size_t entries_ = 0;
    std::size_t l0_count_ = 0;
    std::size_t l1_count_ = 0;
};

/// The machine's scheduler: owns the due/accounting cursors for an ordered
/// component list and drives visits through the visit sets and the wheel.
class WheelScheduler final : public Waker {
public:
    /// Binds the scheduler to \p components (the run loop's scheduler list,
    /// in dense tick order).  Call once before start().
    void attach(const std::vector<Component*>& components);

    /// Arms every component at cycle \p now and activates the wake hook.
    void start(Cycle now);

    [[nodiscard]] bool started() const { return started_; }

    /// No component is armed at any finite cycle: every horizon came back
    /// kIdleForever.  The run loop declares idle-forever deadlock on it —
    /// checked on armed_ rather than on the wheel and the next-cycle set
    /// because lazily-deleted ghosts can keep those non-empty after the last
    /// live entry died.
    [[nodiscard]] bool idle() const { return armed_ == 0; }

    /// Components currently armed at a finite cycle (the live-telemetry
    /// occupancy feed; same counter the sample() series records).
    [[nodiscard]] std::uint64_t armed() const { return armed_; }

    /// Earliest cycle at which any component is scheduled, once the run
    /// loop has finished a cycle.  May name a cycle whose entries are all
    /// stale (the visit then ticks nothing and the loop advances) — never
    /// later than the true earliest live entry.
    [[nodiscard]] Cycle next_due() const {
        return next_any_ ? next_at_ : wheel_.next_due();
    }

    /// Runs one cycle: visits every component due at \p at in ascending
    /// list index (catch-up skip, tick, re-arm at the returned horizon),
    /// folding in same-cycle wakes.  Returns the number of components
    /// ticked.  \p pb / \p t thread the run loop's chained profiling timer
    /// through (null pb disables).
    std::uint32_t run_cycle(Cycle at, ProfBuffer* pb, std::uint64_t& t);

    /// Bulk-accounts [acct_i, to) on every component lagging behind \p to —
    /// the run loop's final catch-up and its checkpoint/stop cuts.  After
    /// this every component has accounted [0, to).
    void catch_up(Cycle to);

    /// Waker: inbound traffic landed in \p component's queue.  Joins the
    /// current cycle when the dense order still permits it (producer index
    /// below consumer index), else arms for the next cycle.
    void wake(std::uint32_t component) override;

    /// Charges wake-path wheel insertions to the kWheelInsert phase (they
    /// fire inside a producer's tick; the orphan-child mechanism keeps the
    /// enclosing kTick charge exclusive).  Null disables.
    void set_prof(ProfBuffer* pb) { pb_ = pb; }

    [[nodiscard]] const WheelStats& stats() const { return stats_; }

private:
    static constexpr std::uint32_t kNoCursor = 0xffffffffu;

    static void set_bit(std::vector<std::uint64_t>& set, std::uint32_t i) {
        set[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
    /// Schedules \p i at \p at (> the cycle in flight): the next-cycle set
    /// for now + 1, the wheel otherwise.  Counts as an insert.
    void arm(std::uint32_t i, Cycle at);

    std::vector<Component*> comps_;
    std::vector<Cycle> due_;   ///< scheduled visit; kIdleForever = unarmed
    std::vector<Cycle> acct_;  ///< next unaccounted cycle, per component
    TimingWheel wheel_;        ///< horizons of now + 2 and later
    std::vector<std::uint64_t> cur_;   ///< visit set of the cycle in flight
    std::vector<std::uint64_t> next_;  ///< stay-armed lane: due at next_at_
    std::vector<std::uint32_t> scratch_;  ///< collect() buffer
    std::uint64_t armed_ = 0;             ///< components with finite due_

    bool started_ = false;
    bool in_cycle_ = false;
    bool next_any_ = false;  ///< next_ has a bit set
    Cycle now_ = 0;          ///< cycle being (or last) processed
    Cycle next_at_ = 0;      ///< the cycle next_ belongs to: now_ + 1
    std::uint32_t cursor_ = kNoCursor;  ///< component being ticked
    ProfBuffer* pb_ = nullptr;          ///< wake-path kWheelInsert charges

    WheelStats stats_;
};

}  // namespace dta::sim
