/// \file messages.hpp
/// \brief The DTA scheduler / memory wire protocol carried over the NoC.
///
/// Section 2 of the paper: "Scheduler elements communicate among themselves
/// by sending messages.  These messages can signal the allocation of a new
/// frame (FALLOC-Request and FALLOC-Response messages), releasing a frame
/// (FFREE message) and storing the data in remote frames."  This header
/// gives those messages (plus the memory / DMA traffic) concrete wire kinds
/// and payload packing over noc::Packet's three scalar words.
#pragma once

#include <cstdint>

#include "sim/snapshot.hpp"
#include "sim/types.hpp"

namespace dta::sched {

/// Discriminator values for noc::Packet::kind.
enum class MsgKind : std::uint16_t {
    kInvalid = 0,
    // -- SPU <-> main memory (the paper's READ / WRITE instructions) -----
    kMemReadReq,   ///< a=address, b=packed requester, c=context (slot/reg)
    kMemReadResp,  ///< a=address, b=value, c=context
    kMemWriteReq,  ///< a=address, b=value
    // -- MFC <-> main memory (DMA lines) ----------------------------------
    kDmaLineReq,   ///< a=address, b=line id, c=packed requester (+size in data? no: bytes in low c)
    kDmaLineResp,  ///< a=line id, data = payload bytes
    kDmaPutReq,    ///< a=address, b=line id, c=packed requester, data = payload
    kDmaPutAck,    ///< a=line id
    // -- distributed scheduler ------------------------------------------------
    kFallocReq,    ///< a=code id | parent uid << 16, b=SC, c=FallocCtx
    kFallocFwd,    ///< DSE -> chosen LSE; same payload as kFallocReq
    kFallocResp,   ///< a=packed FrameHandle, c=FallocCtx
    kFrameFree,    ///< LSE -> home DSE; a=global PE id whose frame freed
    kRemoteStore,  ///< a=packed FrameHandle, b=value,
                   ///< c=frame word offset | producer uid << 16
};

/// Thread-lifecycle tracing needs the requesting/producing thread's uid at
/// the *receiving* end of kFallocReq/kFallocFwd and kRemoteStore, but
/// growing noc::Packet by a word measurably slows the whole simulator even
/// with tracing off (the fabric FIFOs copy packets on every hop).  The uid
/// therefore rides in the spare upper bits of an existing payload word:
/// code ids and frame word offsets are 16-bit quantities (enforced at
/// machine/LSE construction), and a uid — (pe << 32) | sequence — fits the
/// remaining 48 bits whenever pe < 2^16 (enforced when event collection is
/// on).  With tracing off the uid is 0 and the packed word equals the
/// plain value, so the wire traffic is bit-identical to an uninstrumented
/// build.
[[nodiscard]] constexpr std::uint64_t pack_carried_uid(std::uint64_t low16,
                                                       std::uint64_t uid) {
    return low16 | (uid << 16);
}
[[nodiscard]] constexpr std::uint32_t carried_low16(std::uint64_t word) {
    return static_cast<std::uint32_t>(word & 0xffff);
}
[[nodiscard]] constexpr std::uint64_t carried_uid(std::uint64_t word) {
    return word >> 16;
}

/// Wire sizes (bytes) used for bus-occupancy accounting.  Control messages
/// are two bus beats (16 B, one header + one payload beat); DMA line data
/// additionally carries its payload.
inline constexpr std::uint32_t kCtrlMsgBytes = 16;
inline constexpr std::uint32_t kMemReadRespBytes = 16;

/// Packs (node, global PE or endpoint ordinal) requester identities.
struct GlobalEndpoint {
    std::uint16_t node = 0;
    std::uint32_t ep = 0;  ///< endpoint id on that node's fabric

    [[nodiscard]] std::uint64_t pack() const {
        return (static_cast<std::uint64_t>(node) << 32) | ep;
    }
    [[nodiscard]] static GlobalEndpoint unpack(std::uint64_t v) {
        return GlobalEndpoint{static_cast<std::uint16_t>(v >> 32),
                              static_cast<std::uint32_t>(v & 0xffffffffu)};
    }
    friend bool operator==(const GlobalEndpoint&, const GlobalEndpoint&) =
        default;
};

/// Context travelling with a FALLOC through the scheduler: who asked, which
/// destination register tags the reply, and how many DSE-to-DSE forwards
/// already happened (to stop ring-around when every node is full).
struct FallocCtx {
    std::uint16_t node = 0;    ///< requester's node
    std::uint16_t pe = 0;      ///< requester's PE index within its node
    std::uint8_t rd = 0;       ///< destination register of the FALLOC
    std::uint8_t hops = 0;     ///< DSE forwarding count

    [[nodiscard]] std::uint64_t pack() const {
        return (static_cast<std::uint64_t>(node) << 32) |
               (static_cast<std::uint64_t>(pe) << 16) |
               (static_cast<std::uint64_t>(rd) << 8) | hops;
    }
    [[nodiscard]] static FallocCtx unpack(std::uint64_t v) {
        return FallocCtx{static_cast<std::uint16_t>(v >> 32),
                         static_cast<std::uint16_t>((v >> 16) & 0xffff),
                         static_cast<std::uint8_t>((v >> 8) & 0xff),
                         static_cast<std::uint8_t>(v & 0xff)};
    }
    friend bool operator==(const FallocCtx&, const FallocCtx&) = default;
};

/// Machine topology as the scheduler sees it; lets scheduler elements map a
/// global PE index to (node, local PE).
struct Topology {
    std::uint16_t nodes = 1;
    std::uint16_t spes_per_node = 8;

    [[nodiscard]] std::uint32_t total_pes() const {
        return static_cast<std::uint32_t>(nodes) * spes_per_node;
    }
    [[nodiscard]] std::uint16_t node_of(sim::GlobalPeId pe) const {
        return static_cast<std::uint16_t>(pe / spes_per_node);
    }
    [[nodiscard]] std::uint16_t local_pe_of(sim::GlobalPeId pe) const {
        return static_cast<std::uint16_t>(pe % spes_per_node);
    }
    [[nodiscard]] sim::GlobalPeId global_pe(std::uint16_t node,
                                            std::uint16_t local) const {
        return static_cast<sim::GlobalPeId>(node) * spes_per_node + local;
    }
};

/// A scheduler-layer message queued for transmission; the PE / machine glue
/// turns it into a noc::Packet (choosing fabric endpoints and wire size).
struct SchedMsg {
    MsgKind kind = MsgKind::kInvalid;
    std::uint16_t dst_node = 0;
    bool dst_is_dse = false;   ///< else a PE (its LSE)
    std::uint16_t dst_pe = 0;  ///< valid when !dst_is_dse
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
};

/// Where a scheduler element's outbox drains: the node's fabric
/// injection, bound once at machine construction (the scheduler layer
/// knows nothing of the fabric's endpoint layout).
class MsgOutlet {
public:
    virtual ~MsgOutlet() = default;
    /// Sends \p msg at cycle \p now; false, with nothing sent, when the
    /// sender's injection queue is full.
    virtual bool try_send(const SchedMsg& msg, sim::Cycle now) = 0;
};

/// Checkpoint serialization of a queued scheduler message.
inline void save_sched_msg(sim::StateSink& s, const SchedMsg& m) {
    s.u16(static_cast<std::uint16_t>(m.kind));
    s.u16(m.dst_node);
    s.flag(m.dst_is_dse);
    s.u16(m.dst_pe);
    s.u64(m.a);
    s.u64(m.b);
    s.u64(m.c);
}

inline void load_sched_msg(sim::StateSource& s, SchedMsg& m) {
    m.kind = static_cast<MsgKind>(s.u16());
    m.dst_node = s.u16();
    m.dst_is_dse = s.flag();
    m.dst_pe = s.u16();
    m.a = s.u64();
    m.b = s.u64();
    m.c = s.u64();
}

}  // namespace dta::sched
