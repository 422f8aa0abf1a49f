#include "sched/dse.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace dta::sched {

Dse::Dse(const Topology& topo, std::uint16_t node, std::uint32_t frames_per_pe,
         bool virtual_frames)
    : topo_(topo), node_(node), virtual_frames_(virtual_frames) {
    DTA_SIM_REQUIRE(node < topo.nodes, "DSE node id out of range");
    free_.assign(topo.spes_per_node, frames_per_pe);
    set_name("dse" + std::to_string(node));
}

sim::Cycle Dse::tick(sim::Cycle now) {
    noc::Packet pkt;
    while (rx_.pop(pkt)) {
        switch (static_cast<MsgKind>(pkt.kind)) {
            case MsgKind::kFallocReq:
                on_falloc_req(pkt.a, static_cast<std::uint32_t>(pkt.b),
                              FallocCtx::unpack(pkt.c), now);
                break;
            case MsgKind::kFrameFree:
                on_frame_free(static_cast<sim::GlobalPeId>(pkt.a), now);
                break;
            default:
                DTA_CHECK_MSG(false, "DSE got unexpected packet kind " +
                                         std::to_string(pkt.kind));
        }
    }
    return next_activity(now);
}

bool Dse::try_grant(const Pending& req) {
    for (std::uint16_t probe = 0; probe < topo_.spes_per_node; ++probe) {
        const std::uint16_t pe =
            static_cast<std::uint16_t>((rr_next_ + probe) % topo_.spes_per_node);
        if (!virtual_frames_ && free_[pe] == 0) {
            continue;
        }
        if (free_[pe] > 0) {
            --free_[pe];
        }
        rr_next_ = static_cast<std::uint16_t>((pe + 1) % topo_.spes_per_node);
        SchedMsg msg;
        msg.kind = MsgKind::kFallocFwd;
        msg.dst_node = node_;
        msg.dst_is_dse = false;
        msg.dst_pe = pe;
        msg.a = req.code;
        msg.b = req.sc;
        msg.c = req.ctx.pack();
        outbox_.push(msg);
        ++stats_.granted_local;
        return true;
    }
    return false;
}

void Dse::on_falloc_req(std::uint64_t code, std::uint32_t sc, FallocCtx ctx,
                        sim::Cycle now) {
    ++stats_.requests;
    Pending req{code, sc, ctx, now};
    if (try_grant(req)) {
        return;
    }
    // Node full: forward to the neighbour node unless the request already
    // visited every node, in which case it parks here until a frame frees.
    if (topo_.nodes > 1 && ctx.hops + 1 < topo_.nodes) {
        ++req.ctx.hops;
        SchedMsg msg;
        msg.kind = MsgKind::kFallocReq;
        msg.dst_node = static_cast<std::uint16_t>((node_ + 1) % topo_.nodes);
        msg.dst_is_dse = true;
        msg.a = req.code;
        msg.b = req.sc;
        msg.c = req.ctx.pack();
        outbox_.push(msg);
        ++stats_.forwarded;
        return;
    }
    pending_.push_back(req);
    ++stats_.queued;
    stats_.peak_pending = std::max(stats_.peak_pending, pending_.size());
}

void Dse::on_frame_free(sim::GlobalPeId pe, sim::Cycle now) {
    DTA_CHECK_MSG(topo_.node_of(pe) == node_,
                  "kFrameFree routed to the wrong DSE");
    const std::uint16_t local = topo_.local_pe_of(pe);
    ++free_[local];
    // Serve parked requests oldest-first.
    while (!pending_.empty()) {
        if (!try_grant(pending_.front())) {
            break;
        }
        if (queue_wait_ != nullptr) {
            queue_wait_->record(now - pending_.front().queued_at);
        }
        pending_.pop_front();
    }
}

void Dse::steal_frame(sim::GlobalPeId pe) {
    DTA_CHECK(topo_.node_of(pe) == node_);
    const std::uint16_t local = topo_.local_pe_of(pe);
    DTA_SIM_REQUIRE(free_[local] > 0, "bootstrap frame on a full PE");
    --free_[local];
}

bool Dse::pop_outgoing(SchedMsg& out) {
    if (outbox_.empty()) {
        return false;
    }
    out = outbox_.front();
    outbox_.pop_front();
    return true;
}

void Dse::save_state(sim::StateSink& s) const {
    rx_.save_state(s, noc::save_packet);
    sim::save_seq(s, free_,
                  [](sim::StateSink& k, std::uint32_t n) { k.u32(n); });
    sim::save_seq(s, pending_, [](sim::StateSink& k, const Pending& p) {
        k.u64(p.code);
        k.u32(p.sc);
        k.u64(p.ctx.pack());
        k.u64(p.queued_at);
    });
    outbox_.save_state(s, save_sched_msg);
    s.u16(rr_next_);
    s.u64(stats_.requests);
    s.u64(stats_.granted_local);
    s.u64(stats_.forwarded);
    s.u64(stats_.queued);
    s.u64(stats_.peak_pending);
}

void Dse::load_state(sim::StateSource& s) {
    rx_.load_state(s, noc::load_packet);
    sim::load_seq(s, free_,
                  [](sim::StateSource& k, std::uint32_t& n) { n = k.u32(); });
    sim::load_seq(s, pending_, [](sim::StateSource& k, Pending& p) {
        p.code = k.u64();
        p.sc = k.u32();
        p.ctx = FallocCtx::unpack(k.u64());
        p.queued_at = k.u64();
    });
    outbox_.load_state(s, load_sched_msg);
    rr_next_ = s.u16();
    stats_.requests = s.u64();
    stats_.granted_local = s.u64();
    stats_.forwarded = s.u64();
    stats_.queued = s.u64();
    stats_.peak_pending = s.u64();
}

}  // namespace dta::sched
