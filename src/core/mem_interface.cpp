#include "core/mem_interface.hpp"

#include <string>
#include <utility>

#include "core/wire.hpp"
#include "sim/check.hpp"

namespace dta::core {

namespace {
constexpr std::uint64_t kNoResponse = ~0ull;
}

MemInterface::MemInterface(mem::MainMemory& mem) : mem_(mem) {
    set_name("memif");
}

void MemInterface::decode(noc::Packet&& pkt) {
    switch (static_cast<sched::MsgKind>(pkt.kind)) {
        case sched::MsgKind::kMemReadReq: {
            const auto req = sched::GlobalEndpoint::unpack(pkt.b);
            mem::MemRequest mr;
            mr.op = mem::MemOp::kRead;
            mr.addr = pkt.a;
            mr.size = 4;
            mr.meta = ctxs_.alloc(
                {sched::MsgKind::kMemReadResp, req.node, req.ep, pkt.c});
            mem_.enqueue(std::move(mr));
            break;
        }
        case sched::MsgKind::kMemWriteReq: {
            mem::MemRequest mr;
            mr.op = mem::MemOp::kWrite;
            mr.addr = pkt.a;
            mr.size = 4;
            const auto v = static_cast<std::uint32_t>(pkt.b);
            mr.data = {static_cast<std::uint8_t>(v),
                       static_cast<std::uint8_t>(v >> 8),
                       static_cast<std::uint8_t>(v >> 16),
                       static_cast<std::uint8_t>(v >> 24)};
            mr.meta = kNoResponse;  // posted SPU WRITE
            mem_.enqueue(std::move(mr));
            break;
        }
        case sched::MsgKind::kDmaLineReq: {
            const DmaWireCtx wire = DmaWireCtx::unpack(pkt.c);
            mem::MemRequest mr;
            mr.op = mem::MemOp::kRead;
            mr.addr = pkt.a;
            mr.size = wire.bytes;
            mr.meta = ctxs_.alloc(
                {sched::MsgKind::kDmaLineResp, wire.node, wire.ep, pkt.b});
            mem_.enqueue(std::move(mr));
            break;
        }
        case sched::MsgKind::kDmaPutReq: {
            const DmaWireCtx wire = DmaWireCtx::unpack(pkt.c);
            mem::MemRequest mr;
            mr.op = mem::MemOp::kWrite;
            mr.addr = pkt.a;
            mr.size = wire.bytes;
            mr.data = std::move(pkt.data);
            mr.meta = ctxs_.alloc(
                {sched::MsgKind::kDmaPutAck, wire.node, wire.ep, pkt.b});
            mem_.enqueue(std::move(mr));
            break;
        }
        default:
            DTA_CHECK_MSG(false, "memory interface got unexpected packet kind " +
                                     std::to_string(pkt.kind));
    }
}

void MemInterface::drain_responses() {
    mem::MemResponse resp;
    while (mem_.pop_response(resp)) {
        if (resp.meta == kNoResponse) {
            continue;  // posted SPU WRITE
        }
        const MemCtx ctx = ctxs_.at(resp.meta);
        noc::Packet pkt;
        pkt.kind = static_cast<std::uint16_t>(ctx.resp_kind);
        pkt.dst_node = ctx.node;
        pkt.dst_final = ctx.ep;
        switch (ctx.resp_kind) {
            case sched::MsgKind::kMemReadResp:
                pkt.a = resp.addr;
                pkt.b = decode_le(resp.data, 4);
                pkt.c = ctx.x;
                pkt.size_bytes = sched::kMemReadRespBytes;
                break;
            case sched::MsgKind::kDmaLineResp:
                pkt.a = ctx.x;
                pkt.size_bytes =
                    8 + static_cast<std::uint32_t>(resp.data.size());
                pkt.data = std::move(resp.data);
                break;
            case sched::MsgKind::kDmaPutAck:
                pkt.a = ctx.x;
                pkt.size_bytes = 8;
                break;
            default:
                DTA_CHECK_MSG(false, "bad memory context kind");
        }
        ctxs_.release(resp.meta);
        tx_.push(std::move(pkt));
    }
}

sim::Cycle MemInterface::tick(sim::Cycle now) {
    noc::Packet pkt;
    while (rx_.pop(pkt)) {
        decode(std::move(pkt));
    }
    mem_.tick(now);
    drain_responses();
    return next_activity(now);
}

bool MemInterface::quiescent() const {
    return rx_.empty() && tx_.empty() && ctxs_.outstanding() == 0 &&
           mem_.quiescent();
}

sim::Cycle MemInterface::next_activity(sim::Cycle now) const {
    if (!rx_.empty() || !tx_.empty()) {
        return now + 1;  // decode / injection retry next tick
    }
    return mem_.next_activity(now);
}

void MemInterface::save_state(sim::StateSink& s) const {
    ctxs_.save_state(s, [](sim::StateSink& k, const MemCtx& c) {
        k.u16(static_cast<std::uint16_t>(c.resp_kind));
        k.u16(c.node);
        k.u32(c.ep);
        k.u64(c.x);
    });
    rx_.save_state(s, noc::save_packet);
    tx_.save_state(s, noc::save_packet);
}

void MemInterface::load_state(sim::StateSource& s) {
    ctxs_.load_state(s, [](sim::StateSource& k, MemCtx& c) {
        c.resp_kind = static_cast<sched::MsgKind>(k.u16());
        c.node = k.u16();
        c.ep = k.u32();
        c.x = k.u64();
    });
    rx_.load_state(s, noc::load_packet);
    tx_.load_state(s, noc::load_packet);
}

}  // namespace dta::core
