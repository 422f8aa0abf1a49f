/// \file packet.hpp
/// \brief The payload-agnostic packet the interconnect moves around.
///
/// The NoC layer knows nothing about the DTA protocol; packet *kinds* are
/// small integers defined by the protocol layer (src/sched/messages.hpp).
/// Three scalar payload words cover every control message; bulk DMA data
/// rides in the byte payload (sim/payload.hpp) and is what the size
/// accounting charges.
#pragma once

#include <cstdint>

#include "sim/payload.hpp"
#include "sim/snapshot.hpp"

namespace dta::noc {

/// Index of an endpoint attached to one Interconnect (bus-local).
using EndpointId = std::uint32_t;

/// A message in flight on the interconnect.
///
/// `dst` is the next hop on the *current* fabric (an SPE, the DSE, the
/// memory interface, or the inter-node bridge).  For multi-node machines the
/// final destination is carried in (`dst_node`, `dst_final`): the machine
/// glue sets `dst` to the local bridge when `dst_node` differs from the
/// fabric's node, and the receiving bridge re-injects with
/// `dst = dst_final`.  Single-node machines simply keep `dst == dst_final`.
struct Packet {
    EndpointId src = 0;
    EndpointId dst = 0;
    std::uint16_t dst_node = 0;   ///< node of the final destination
    EndpointId dst_final = 0;     ///< endpoint id on the destination node
    std::uint16_t kind = 0;       ///< protocol-defined discriminator
    std::uint32_t size_bytes = 8; ///< wire size (drives bus occupancy)
    std::uint64_t a = 0;          ///< payload word (e.g. address)
    std::uint64_t b = 0;          ///< payload word (e.g. value)
    std::uint64_t c = 0;          ///< payload word (e.g. correlation id)
    std::uint64_t enq_at = 0;     ///< fabric-internal: injection cycle
    sim::Payload data;            ///< bulk payload (DMA lines)
};

/// Checkpoint serialization of a packet (field by field; every layer that
/// carries packets — fabrics, links, routers, channels — shares these).
inline void save_packet(sim::StateSink& s, const Packet& p) {
    s.u32(p.src);
    s.u32(p.dst);
    s.u16(p.dst_node);
    s.u32(p.dst_final);
    s.u16(p.kind);
    s.u32(p.size_bytes);
    s.u64(p.a);
    s.u64(p.b);
    s.u64(p.c);
    s.u64(p.enq_at);
    sim::save_payload(s, p.data);
}

inline void load_packet(sim::StateSource& s, Packet& p) {
    p.src = s.u32();
    p.dst = s.u32();
    p.dst_node = s.u16();
    p.dst_final = s.u32();
    p.kind = s.u16();
    p.size_bytes = s.u32();
    p.a = s.u64();
    p.b = s.u64();
    p.c = s.u64();
    p.enq_at = s.u64();
    sim::load_payload(s, p.data);
}

}  // namespace dta::noc
