/// \file link.hpp
/// \brief Inter-node point-to-point link (the slower between-node network of
///        the DTA clustering concept — Section 2: "communication between
///        nodes is slower as we rely on a more complex interconnection
///        network").
///
/// A Link is unidirectional; the machine instantiates one per direction.
/// Packets are serialised at the link bandwidth and arrive after the link
/// latency; ordering is FIFO.
#pragma once

#include <cstdint>
#include <deque>

#include "noc/packet.hpp"
#include "sim/component.hpp"
#include "sim/types.hpp"

namespace dta::noc {

/// Configuration of one inter-node link.
struct LinkConfig {
    std::uint32_t latency = 40;         ///< propagation delay, cycles
    std::uint32_t bytes_per_cycle = 16; ///< serialisation bandwidth
    std::uint32_t queue_depth = 32;     ///< sender-side buffer
};

/// A unidirectional inter-node link: matured packets collect in
/// `delivered_` and the owning router pops and forwards them.
class Link final : public sim::Component {
public:
    explicit Link(const LinkConfig& cfg);

    [[nodiscard]] bool can_send() const {
        return queue_.size() < cfg_.queue_depth;
    }
    /// Returns false if the sender-side buffer is full.
    [[nodiscard]] bool try_send(Packet pkt);

    /// Matures arrivals and starts the next queued packet when the wire is
    /// free; returns the horizon.
    sim::Cycle tick(sim::Cycle now) override;

    [[nodiscard]] bool pop_delivered(Packet& out);
    [[nodiscard]] bool quiescent() const override {
        return queue_.empty() && in_transit_.empty() && delivered_.empty();
    }

    /// Horizon: delivered packets await an external pop next cycle; the
    /// serialiser starts the next queued packet when the wire frees; an
    /// in-flight packet matures at its deliver_at.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) const {
        if (!delivered_.empty()) {
            return now + 1;
        }
        sim::Cycle h = sim::kIdleForever;
        if (!in_transit_.empty()) {
            h = in_transit_.front().deliver_at > now
                    ? in_transit_.front().deliver_at
                    : now + 1;
        }
        if (!queue_.empty()) {
            const sim::Cycle start =
                wire_free_at_ > now + 1 ? wire_free_at_ : now + 1;
            h = start < h ? start : h;
        }
        return h;
    }

    [[nodiscard]] std::uint64_t packets_carried() const { return carried_; }
    [[nodiscard]] std::uint64_t bytes_carried() const { return bytes_; }
    [[nodiscard]] const LinkConfig& config() const { return cfg_; }

    // --- checkpoint/restore -------------------------------------------------
    /// Serializes sender queue, on-wire packets, delivered-but-unpopped
    /// packets, and statistics.
    void save_state(sim::StateSink& s) const override;
    void load_state(sim::StateSource& s) override;

private:
    struct InTransit {
        sim::Cycle deliver_at = 0;
        Packet pkt;
    };

    LinkConfig cfg_;
    std::deque<Packet> queue_;
    std::deque<InTransit> in_transit_;  ///< FIFO: serialised in order
    std::deque<Packet> delivered_;
    sim::Cycle wire_free_at_ = 0;
    std::uint64_t carried_ = 0;
    std::uint64_t bytes_ = 0;
};

}  // namespace dta::noc
