#include "core/node_router.hpp"

#include <string>
#include <utility>

#include "sim/check.hpp"

namespace dta::core {

NodeRouter::NodeRouter(std::uint16_t node, std::uint16_t num_nodes,
                       FabricLayout layout, noc::Interconnect& fabric,
                       sched::Dse& dse, std::vector<Pe*> local_pes,
                       MemInterface* memif, noc::Link* link)
    : node_(node),
      num_nodes_(num_nodes),
      layout_(layout),
      fabric_(fabric),
      dse_(dse),
      local_pes_(std::move(local_pes)),
      memif_(memif),
      link_(link) {
    set_name("router" + std::to_string(node));
}

bool NodeRouter::inject(noc::EndpointId src, noc::Packet pkt,
                        sim::Cycle now) {
    pkt.dst = pkt.dst_node == node_ ? pkt.dst_final : layout_.bridge_ep();
    DTA_CHECK_MSG(pkt.dst_node == node_ || num_nodes_ > 1,
                  "cross-node packet in a single-node machine");
    return fabric_.try_inject(src, std::move(pkt), now);
}

sim::Cycle NodeRouter::tick(sim::Cycle now) {
    // (a) packets that arrived over the inbound link
    while (!arrivals_.empty()) {
        if (arrivals_.front().dst_node == node_) {
            if (!inject(layout_.bridge_ep(), arrivals_.front(), now)) {
                break;
            }
            arrivals_.pop_front();
        } else {
            // keep circling the ring
            noc::Packet pkt;
            (void)arrivals_.pop(pkt);
            bridge_out_.push(std::move(pkt));
        }
    }
    // (b) memory responses (memory node only)
    if (memif_ != nullptr) {
        sim::Port<noc::Packet>& tx = memif_->tx_port();
        while (!tx.empty()) {
            if (!inject(layout_.mem_ep(), tx.front(), now)) {
                break;
            }
            tx.pop_front();
        }
    }
    // (c) DSE messages
    {
        sched::SchedMsg msg;
        while (dse_.has_outgoing() && fabric_.can_inject(layout_.dse_ep()) &&
               dse_.pop_outgoing(msg)) {
            noc::Packet pkt;
            pkt.kind = static_cast<std::uint16_t>(msg.kind);
            pkt.dst_node = msg.dst_node;
            pkt.dst_final = msg.dst_is_dse ? layout_.dse_ep()
                                           : layout_.spe_ep(msg.dst_pe);
            pkt.size_bytes = sched::kCtrlMsgBytes;
            pkt.a = msg.a;
            pkt.b = msg.b;
            pkt.c = msg.c;
            const bool ok = inject(layout_.dse_ep(), std::move(pkt), now);
            DTA_CHECK(ok);  // can_inject was checked
        }
    }
    // (d) PE traffic
    for (std::size_t i = 0; i < local_pes_.size(); ++i) {
        const auto local = static_cast<std::uint16_t>(i);
        Pe& pe = *local_pes_[i];
        noc::Packet pkt;
        while (pe.has_outgoing() && fabric_.can_inject(layout_.spe_ep(local)) &&
               pe.pop_outgoing(pkt)) {
            const bool ok =
                inject(layout_.spe_ep(local), std::move(pkt), now);
            DTA_CHECK(ok);
        }
    }
    // (e) bridge -> outbound ring link
    if (link_ != nullptr) {
        while (!bridge_out_.empty() && link_->can_send()) {
            noc::Packet pkt;
            (void)bridge_out_.pop(pkt);
            if (events_ != nullptr &&
                static_cast<sched::MsgKind>(pkt.kind) ==
                    sched::MsgKind::kRemoteStore) {
                sim::Event e;
                e.cycle = now;
                e.thread = sched::carried_uid(pkt.c);  // producer uid
                e.arg = sim::FrameHandle::unpack(pkt.a).global_pe;
                e.ordinal = ordinal_;
                e.kind = sim::EventKind::kLinkHop;
                events_->push(e);
            }
            const bool ok = link_->try_send(std::move(pkt));
            DTA_CHECK(ok);
        }
        link_->tick(now);
        noc::Packet pkt;
        while (link_->pop_delivered(pkt)) {
            forward_to_->push(std::move(pkt));
        }
    }
    return next_activity(now);
}

bool NodeRouter::quiescent() const {
    return arrivals_.empty() && bridge_out_.empty() &&
           (link_ == nullptr || link_->quiescent());
}

sim::Cycle NodeRouter::next_activity(sim::Cycle now) const {
    // Queued packets are retried against the fabric every tick; the retry
    // (and the injection once credit frees) is observable activity.  The
    // pull-model producer queues this router drains (memory responses, DSE
    // outbox, PE outgoing) count as its own: tick() is what moves them.
    if (!arrivals_.empty() || !bridge_out_.empty()) {
        return now + 1;
    }
    if (memif_ != nullptr && !memif_->tx_port().empty()) {
        return now + 1;
    }
    if (dse_.has_outgoing()) {
        return now + 1;
    }
    for (const Pe* pe : local_pes_) {
        if (pe->has_outgoing()) {
            return now + 1;
        }
    }
    return link_ != nullptr ? link_->next_activity(now) : sim::kIdleForever;
}

void NodeRouter::save_state(sim::StateSink& s) const {
    arrivals_.save_state(s, noc::save_packet);
    bridge_out_.save_state(s, noc::save_packet);
}

void NodeRouter::load_state(sim::StateSource& s) {
    arrivals_.load_state(s, noc::load_packet);
    bridge_out_.load_state(s, noc::load_packet);
}

}  // namespace dta::core
