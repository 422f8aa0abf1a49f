/// \file node_router.hpp
/// \brief Per-node injection and ring bridge: the one place that routes a
///        packet onto the node's bus fabric (rewriting cross-node traffic
///        to the bridge), plus the pump from the bridge into the outbound
///        ring link.
///
/// Producers inject themselves: each PE, the DSE and the memory interface
/// drains its own outbox through inject() at the end of its own tick, so
/// the router's tick is left with the ring: link arrivals, the bridge
/// endpoint's outbound queue and the link itself.  On a single-node
/// machine it has no work after cycle 0.  Routers are registered last and
/// in node order, preserving the seed's same-cycle forwarding of link
/// arrivals to higher-numbered nodes.
#pragma once

#include <cstdint>

#include "core/topology.hpp"
#include "noc/interconnect.hpp"
#include "noc/link.hpp"
#include "sched/messages.hpp"
#include "sim/component.hpp"
#include "sim/events.hpp"
#include "sim/port.hpp"

namespace dta::core {

class NodeRouter final : public sim::Component, public sched::MsgOutlet {
public:
    /// \p link is non-null only in multi-node machines (the node's
    /// *outbound* ring link).
    NodeRouter(std::uint16_t node, std::uint16_t num_nodes,
               FabricLayout layout, noc::Interconnect& fabric,
               noc::Link* link);

    NodeRouter(const NodeRouter&) = delete;
    NodeRouter& operator=(const NodeRouter&) = delete;

    /// Routes \p pkt from local endpoint \p src onto this node's fabric,
    /// moving from it only when the fabric accepts.  A refusal counts one
    /// injection stall and leaves \p pkt as it was, so a queued packet
    /// retries in place, uncopied.
    [[nodiscard]] bool inject(noc::EndpointId src, noc::Packet& pkt,
                              sim::Cycle now);
    /// inject() for producers that wait for room instead of being refused
    /// (PEs and the DSE): a full injection queue returns false without
    /// counting a stall.
    [[nodiscard]] bool inject_if_room(noc::EndpointId src, noc::Packet& pkt,
                                      sim::Cycle now) {
        return fabric_.can_inject(src) && inject(src, pkt, now);
    }
    /// The DSE's outlet: packages \p msg and injects it from the DSE
    /// endpoint when there is room.
    bool try_send(const sched::SchedMsg& msg, sim::Cycle now) override;

    /// The upstream node's link deliveries land here.
    [[nodiscard]] sim::Port<noc::Packet>& arrivals_port() { return arrivals_; }
    /// The fabric's bridge endpoint binds here (packets leaving the node).
    [[nodiscard]] sim::Port<noc::Packet>& bridge_out_port() {
        return bridge_out_;
    }
    /// Wires the ring: this node's link delivers into \p next's arrivals.
    void set_forward_to(sim::Port<noc::Packet>* next) { forward_to_ = next; }
    /// Points kLinkHop emission (remote frame stores leaving the node) at
    /// \p log; \p ordinal identifies this router in the merged event log
    /// (total PE count + node id, keeping it disjoint from PE ordinals).
    void attach_events(sim::EventLog* log, std::uint32_t ordinal) {
        events_ = log;
        ordinal_ = ordinal;
    }

    sim::Cycle tick(sim::Cycle now) override;
    [[nodiscard]] bool quiescent() const override;
    /// The horizon tick() returns.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) const;

    // --- checkpoint/restore -------------------------------------------------
    /// Serializes the two packet ports; everything else is wiring.
    void save_state(sim::StateSink& s) const override;
    void load_state(sim::StateSource& s) override;

private:
    std::uint16_t node_;
    std::uint16_t num_nodes_;
    FabricLayout layout_;
    noc::Interconnect& fabric_;
    noc::Link* link_;                          ///< multi-node only
    sim::Port<noc::Packet>* forward_to_ = nullptr;
    sim::EventLog* events_ = nullptr;  ///< optional, machine-owned
    std::uint32_t ordinal_ = 0;        ///< event ordinal (pes + node)

    sim::Port<noc::Packet> arrivals_;
    sim::Port<noc::Packet> bridge_out_;
};

}  // namespace dta::core
