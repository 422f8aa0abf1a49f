/// \file mem_interface.hpp
/// \brief The node-0 memory interface: a clocked component that decodes
///        fabric packets into memory-controller requests, drives the
///        controller, and turns completions back into response packets.
///
/// In the seed this logic lived as free-floating Machine methods
/// (handle_memif_packet / drain_memory_responses) plus a hand-rolled
/// context free-list.  It is now a Component: the fabric's memory endpoint
/// binds to rx_port(), and tick() ends by injecting the response queue
/// through the node-0 router.
#pragma once

#include <cstdint>

#include "mem/main_memory.hpp"
#include "noc/packet.hpp"
#include "sched/messages.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/port.hpp"

namespace dta::core {

class NodeRouter;

class MemInterface final : public sim::Component {
public:
    explicit MemInterface(mem::MainMemory& mem);

    MemInterface(const MemInterface&) = delete;
    MemInterface& operator=(const MemInterface&) = delete;

    /// The fabric's memory endpoint delivers here.
    [[nodiscard]] sim::Port<noc::Packet>& rx_port() { return rx_; }
    /// Binds the injection of response packets: \p router from fabric
    /// endpoint \p ep.
    void attach_router(NodeRouter* router, noc::EndpointId ep) {
        router_ = router;
        ep_ = ep;
    }

    /// Decode rx packets into requests, advance the controller, package
    /// completions, inject them.  Request decode runs before the controller
    /// tick, as in the seed's route-then-tick ordering, so
    /// enqueue-to-service timing is unchanged.
    sim::Cycle tick(sim::Cycle now) override;
    [[nodiscard]] bool quiescent() const override;
    /// The horizon tick() returns.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) const;

    /// Timed accesses in flight (for tests).
    [[nodiscard]] std::uint64_t outstanding() const {
        return ctxs_.outstanding();
    }

    // --- checkpoint/restore -------------------------------------------------
    /// Serializes outstanding access contexts and both packet ports (the
    /// memory controller itself is its own snapshot section).
    void save_state(sim::StateSink& s) const override;
    void load_state(sim::StateSource& s) override;

private:
    /// Bookkeeping for one outstanding timed memory access.
    struct MemCtx {
        sched::MsgKind resp_kind = sched::MsgKind::kInvalid;
        std::uint16_t node = 0;
        std::uint32_t ep = 0;
        std::uint64_t x = 0;  ///< rd (reads) or DMA line id
    };

    void decode(noc::Packet&& pkt);
    void drain_responses();

    mem::MainMemory& mem_;
    sim::Pool<MemCtx> ctxs_;
    sim::Port<noc::Packet> rx_;
    sim::Fifo<noc::Packet> tx_;      ///< responses the fabric has not taken
    NodeRouter* router_ = nullptr;   ///< wiring, not state
    noc::EndpointId ep_ = 0;
};

}  // namespace dta::core
