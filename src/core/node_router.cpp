#include "core/node_router.hpp"

#include <string>
#include <utility>

#include "sim/check.hpp"

namespace dta::core {

NodeRouter::NodeRouter(std::uint16_t node, std::uint16_t num_nodes,
                       FabricLayout layout, noc::Interconnect& fabric,
                       noc::Link* link)
    : node_(node),
      num_nodes_(num_nodes),
      layout_(layout),
      fabric_(fabric),
      link_(link) {
    set_name("router" + std::to_string(node));
}

bool NodeRouter::inject(noc::EndpointId src, noc::Packet& pkt,
                        sim::Cycle now) {
    DTA_CHECK_MSG(pkt.dst_node == node_ || num_nodes_ > 1,
                  "cross-node packet in a single-node machine");
    const noc::EndpointId queued_dst = pkt.dst;
    pkt.dst = pkt.dst_node == node_ ? pkt.dst_final : layout_.bridge_ep();
    if (fabric_.try_inject(src, pkt, now)) {
        return true;
    }
    pkt.dst = queued_dst;  // a refused packet stays queued as it was
    return false;
}

bool NodeRouter::try_send(const sched::SchedMsg& msg, sim::Cycle now) {
    noc::Packet pkt;
    pkt.kind = static_cast<std::uint16_t>(msg.kind);
    pkt.dst_node = msg.dst_node;
    pkt.dst_final =
        msg.dst_is_dse ? layout_.dse_ep() : layout_.spe_ep(msg.dst_pe);
    pkt.size_bytes = sched::kCtrlMsgBytes;
    pkt.a = msg.a;
    pkt.b = msg.b;
    pkt.c = msg.c;
    return inject_if_room(layout_.dse_ep(), pkt, now);
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
            bridge_out_.push(std::move(arrivals_.front()));
            arrivals_.pop_front();
        }
    }
    // (b) bridge -> outbound ring link
    if (link_ != nullptr) {
        while (!bridge_out_.empty() && link_->can_send()) {
            noc::Packet& pkt = bridge_out_.front();
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
            bridge_out_.pop_front();
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
    // (and the injection once credit frees) is observable activity.
    if (!arrivals_.empty() || !bridge_out_.empty()) {
        return now + 1;
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
