/// \file interconnect.hpp
/// \brief Intra-node bus fabric (Table 4: 4 buses × 8 bytes/cycle).
///
/// Models the Cell EIB the way CellSim does: a small set of equal buses; a
/// packet occupies one bus for ceil(size / bytes_per_cycle) cycles and is
/// delivered a fixed hop latency after its transfer completes.  Endpoints
/// inject into bounded per-endpoint queues (full queue = back pressure that
/// stalls the producer) and drain their inbox each cycle.  Arbitration is
/// round-robin across endpoints, oldest-first within an endpoint, so the
/// fabric is fair and deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "noc/packet.hpp"
#include "sim/component.hpp"
#include "sim/metrics.hpp"
#include "sim/port.hpp"
#include "sim/types.hpp"

namespace dta::sim {
class AuditCtx;
}

namespace dta::noc {

/// Configuration of one node's bus fabric (defaults = Table 4).
struct InterconnectConfig {
    std::uint32_t num_buses = 4;
    std::uint32_t bytes_per_cycle = 8;  ///< per-bus bandwidth
    std::uint32_t hop_latency = 5;      ///< fixed propagation delay, cycles
    std::uint32_t inject_queue_depth = 16;  ///< per-endpoint injection slots
};

/// Aggregate fabric statistics.
struct InterconnectStats {
    std::uint64_t packets_injected = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t bytes_transferred = 0;
    std::uint64_t bus_busy_cycles = 0;   ///< summed over all buses
    std::uint64_t inject_stall_events = 0;  ///< try_inject refused (queue full)
};

/// One node's bus fabric.
class Interconnect final : public sim::Component {
public:
    Interconnect(const InterconnectConfig& cfg, std::uint32_t num_endpoints);

    /// True if \p src has a free injection slot this cycle.
    [[nodiscard]] bool can_inject(EndpointId src) const;

    /// Injects a packet at cycle \p now; returns false (and leaves \p pkt
    /// untouched) when the endpoint's injection queue is full.  \p now is
    /// the caller's current cycle — under the event-driven scheduler the
    /// fabric may not have ticked this cycle, so the injection timestamp
    /// cannot be derived from its own clock.
    [[nodiscard]] bool try_inject(EndpointId src, Packet pkt, sim::Cycle now);

    /// Re-arms scheduler entry \p component on every successful injection
    /// (the fabric sleeps between grants; an injection is new input).
    void set_waker(sim::Waker* w, std::uint32_t component) {
        waker_ = w;
        waker_comp_ = component;
    }

    /// Binds endpoint \p dst to \p sink: matured packets are pushed there
    /// directly during tick() instead of parking in the internal inbox.
    /// This is how cross-layer wiring is declared once at construction.
    void bind_endpoint(EndpointId dst, sim::Port<Packet>* sink);

    /// Arbitrates buses and matures in-flight packets into bound sinks
    /// (or the inboxes of unbound endpoints).  Returns the horizon.
    sim::Cycle tick(sim::Cycle now) override;

    /// Pops the next delivered packet for \p dst, if any (unbound endpoints
    /// only — bound endpoints receive deliveries through their sink port).
    [[nodiscard]] bool pop_delivered(EndpointId dst, Packet& out);

    /// True when no packet is queued, in transfer, or awaiting pickup.
    [[nodiscard]] bool quiescent() const override;

    /// Horizon: matured-but-unfetched inbox packets and pending injections
    /// need a next-cycle retry; otherwise the earliest of the next bus
    /// grant and the next in-flight delivery.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) const;

    [[nodiscard]] const InterconnectStats& stats() const { return stats_; }
    [[nodiscard]] const InterconnectConfig& config() const { return cfg_; }
    [[nodiscard]] std::uint32_t num_endpoints() const {
        return static_cast<std::uint32_t>(inject_.size());
    }

    /// Packets anywhere in the fabric (queued, on a bus, or undelivered) —
    /// the congestion gauge the Machine's sampler records per fabric.
    [[nodiscard]] std::size_t pending() const;

    /// Invariant audit (sim/audit.hpp): packet conservation — every packet
    /// injected is either delivered, on a bus, or still queued, and the
    /// aggregate injection counter matches the per-endpoint queues.
    /// Read-only; reports violations through \p ctx.
    void audit(const sim::AuditCtx& ctx) const;

    /// Resolves the noc.packet_latency histogram (injection → inbox
    /// delivery, aggregated over every fabric); no-op when \p reg is
    /// disabled.
    void attach_metrics(sim::MetricsRegistry& reg) {
        pkt_latency_ = reg.histogram("noc.packet_latency");
    }

    // --- checkpoint/restore -------------------------------------------------
    /// Serializes queued, on-bus, and delivered-but-unfetched packets plus
    /// arbitration cursors and statistics.  In-transit packets are written
    /// in (deliver_at, seq) order, so the section is canonical.
    void save_state(sim::StateSink& s) const override;
    void load_state(sim::StateSource& s) override;

private:
    struct InTransit {
        sim::Cycle deliver_at = 0;
        std::uint64_t seq = 0;  ///< tie-break for deterministic ordering
        Packet pkt;
        friend bool operator>(const InTransit& x, const InTransit& y) {
            if (x.deliver_at != y.deliver_at) return x.deliver_at > y.deliver_at;
            return x.seq > y.seq;
        }
    };

    [[nodiscard]] std::uint32_t transfer_cycles(const Packet& pkt) const;

    InterconnectConfig cfg_;
    std::vector<std::deque<Packet>> inject_;   ///< per-endpoint injection queues
    std::vector<sim::Cycle> bus_free_at_;      ///< per-bus availability
    /// Min-heap on (deliver_at, seq) under std::push_heap/std::pop_heap, so
    /// a matured packet can be moved out of the back instead of copied.
    std::vector<InTransit> in_transit_;
    std::vector<std::deque<Packet>> inbox_;    ///< per-endpoint delivered packets
    std::vector<sim::Port<Packet>*> sinks_;    ///< per-endpoint bound consumers
    std::size_t rr_next_ = 0;
    std::size_t inject_pending_ = 0;  ///< total packets across inject_ queues
    std::size_t inbox_pending_ = 0;   ///< total packets across inbox_ queues
    std::uint64_t seq_ = 0;
    InterconnectStats stats_;
    sim::Histogram* pkt_latency_ = nullptr;  ///< null when metrics are off
    sim::Waker* waker_ = nullptr;            ///< event-driven wake hook
    std::uint32_t waker_comp_ = 0;
};

}  // namespace dta::noc
