#include "noc/interconnect.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "sim/audit.hpp"
#include "sim/check.hpp"

namespace dta::noc {

Interconnect::Interconnect(const InterconnectConfig& cfg,
                           std::uint32_t num_endpoints)
    : cfg_(cfg) {
    DTA_SIM_REQUIRE(cfg.num_buses > 0, "interconnect needs at least one bus");
    DTA_SIM_REQUIRE(cfg.bytes_per_cycle > 0, "bus bandwidth must be non-zero");
    DTA_SIM_REQUIRE(num_endpoints > 0, "interconnect needs endpoints");
    inject_.resize(num_endpoints);
    inbox_.resize(num_endpoints);
    sinks_.assign(num_endpoints, nullptr);
    bus_free_at_.assign(cfg.num_buses, 0);
    set_name("noc");
}

void Interconnect::bind_endpoint(EndpointId dst, sim::Port<Packet>* sink) {
    DTA_CHECK(dst < sinks_.size());
    sinks_[dst] = sink;
}

std::uint32_t Interconnect::transfer_cycles(const Packet& pkt) const {
    const std::uint32_t sz = pkt.size_bytes == 0 ? 1 : pkt.size_bytes;
    return (sz + cfg_.bytes_per_cycle - 1) / cfg_.bytes_per_cycle;
}

bool Interconnect::can_inject(EndpointId src) const {
    DTA_CHECK(src < inject_.size());
    return inject_[src].size() < cfg_.inject_queue_depth;
}

bool Interconnect::try_inject(EndpointId src, Packet pkt, sim::Cycle now) {
    DTA_CHECK(src < inject_.size());
    DTA_CHECK_MSG(pkt.dst < inbox_.size(), "packet addressed off the fabric");
    if (inject_[src].size() >= cfg_.inject_queue_depth) {
        ++stats_.inject_stall_events;
        return false;
    }
    pkt.src = src;
    pkt.enq_at = now;
    inject_[src].push_back(std::move(pkt));
    ++inject_pending_;
    ++stats_.packets_injected;
    if (waker_ != nullptr) {
        waker_->wake(waker_comp_);
    }
    return true;
}

std::size_t Interconnect::pending() const {
    return in_transit_.size() + inject_pending_ + inbox_pending_;
}

sim::Cycle Interconnect::tick(sim::Cycle now) {
    if (inject_pending_ == 0 && in_transit_.empty()) {
        // Empty fabric: nothing to mature, nothing to grant.
        return next_activity(now);
    }
    // 1. Mature in-flight packets into destination inboxes.
    while (!in_transit_.empty() && in_transit_.front().deliver_at <= now) {
        std::pop_heap(in_transit_.begin(), in_transit_.end(),
                      std::greater<>());
        Packet& pkt = in_transit_.back().pkt;
        if (pkt_latency_ != nullptr) {
            pkt_latency_->record(now - pkt.enq_at);
        }
        if (sinks_[pkt.dst] != nullptr) {
            sinks_[pkt.dst]->push(std::move(pkt));
        } else {
            inbox_[pkt.dst].push_back(std::move(pkt));
            ++inbox_pending_;
        }
        in_transit_.pop_back();
        ++stats_.packets_delivered;
    }

    // 2. Grant free buses to waiting injection queues, round-robin.
    for (std::uint32_t bus = 0; bus < cfg_.num_buses; ++bus) {
        if (inject_pending_ == 0) {
            break;
        }
        if (bus_free_at_[bus] > now) {
            continue;
        }
        // Find the next endpoint with pending traffic.
        bool granted = false;
        const std::size_t n = inject_.size();
        std::size_t ep = rr_next_;
        for (std::size_t probe = 0; probe < n;
             ++probe, ep = ep + 1 == n ? 0 : ep + 1) {
            if (inject_[ep].empty()) {
                continue;
            }
            Packet pkt = std::move(inject_[ep].front());
            inject_[ep].pop_front();
            --inject_pending_;
            const std::uint32_t occupancy = transfer_cycles(pkt);
            bus_free_at_[bus] = now + occupancy;
            stats_.bus_busy_cycles += occupancy;
            stats_.bytes_transferred += pkt.size_bytes;
            in_transit_.push_back(InTransit{
                now + occupancy + cfg_.hop_latency, seq_++, std::move(pkt)});
            std::push_heap(in_transit_.begin(), in_transit_.end(),
                           std::greater<>());
            rr_next_ = ep + 1 == n ? 0 : ep + 1;
            granted = true;
            break;
        }
        if (!granted) {
            break;  // nothing pending anywhere; remaining buses stay idle
        }
    }
    return next_activity(now);
}

bool Interconnect::pop_delivered(EndpointId dst, Packet& out) {
    DTA_CHECK(dst < inbox_.size());
    auto& q = inbox_[dst];
    if (q.empty()) {
        return false;
    }
    out = std::move(q.front());
    q.pop_front();
    --inbox_pending_;
    return true;
}

void Interconnect::audit(const sim::AuditCtx& ctx) const {
    std::size_t queued = 0;
    for (const auto& q : inject_) {
        queued += q.size();
        if (q.size() > cfg_.inject_queue_depth) {
            ctx.fail("packet-conservation",
                     "an injection queue holds " + std::to_string(q.size()) +
                         " packets, over the depth of " +
                         std::to_string(cfg_.inject_queue_depth));
        }
    }
    if (queued != inject_pending_) {
        ctx.fail("packet-conservation",
                 "inject_pending says " + std::to_string(inject_pending_) +
                     " but the injection queues hold " +
                     std::to_string(queued) + " packets");
    }
    std::size_t undelivered = 0;
    for (const auto& q : inbox_) {
        undelivered += q.size();
    }
    if (undelivered != inbox_pending_) {
        ctx.fail("packet-conservation",
                 "inbox_pending says " + std::to_string(inbox_pending_) +
                     " but the inboxes hold " + std::to_string(undelivered) +
                     " packets");
    }
    // Conservation: a packet is counted delivered when it matures into a
    // sink or inbox, so injected must equal delivered plus what is still on
    // a bus or waiting for one.
    if (stats_.packets_injected !=
        stats_.packets_delivered + in_transit_.size() + inject_pending_) {
        ctx.fail("packet-conservation",
                 "injected " + std::to_string(stats_.packets_injected) +
                     " != delivered " +
                     std::to_string(stats_.packets_delivered) +
                     " + on-bus " + std::to_string(in_transit_.size()) +
                     " + queued " + std::to_string(inject_pending_));
    }
}

void Interconnect::save_state(sim::StateSink& s) const {
    for (const auto& q : inject_) {
        sim::save_seq(s, q, save_packet);
    }
    for (const sim::Cycle free_at : bus_free_at_) {
        s.u64(free_at);
    }
    // Entries go out in (deliver_at, seq) order, independent of the heap's
    // internal layout; load_state re-pushes them verbatim.
    std::vector<const InTransit*> order;
    order.reserve(in_transit_.size());
    for (const InTransit& it : in_transit_) {
        order.push_back(&it);
    }
    std::sort(order.begin(), order.end(),
              [](const InTransit* x, const InTransit* y) { return *y > *x; });
    s.u64(order.size());
    for (const InTransit* it : order) {
        s.u64(it->deliver_at);
        s.u64(it->seq);
        save_packet(s, it->pkt);
    }
    for (const auto& q : inbox_) {
        sim::save_seq(s, q, save_packet);
    }
    s.u64(rr_next_);
    s.u64(seq_);
    s.u64(stats_.packets_injected);
    s.u64(stats_.packets_delivered);
    s.u64(stats_.bytes_transferred);
    s.u64(stats_.bus_busy_cycles);
    s.u64(stats_.inject_stall_events);
}

void Interconnect::load_state(sim::StateSource& s) {
    inject_pending_ = 0;
    for (auto& q : inject_) {
        sim::load_seq(s, q, load_packet);
        inject_pending_ += q.size();
    }
    for (sim::Cycle& free_at : bus_free_at_) {
        free_at = s.u64();
    }
    DTA_CHECK(in_transit_.empty());
    const std::uint64_t n = s.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        InTransit it;
        it.deliver_at = s.u64();
        it.seq = s.u64();
        load_packet(s, it.pkt);
        in_transit_.push_back(std::move(it));
        std::push_heap(in_transit_.begin(), in_transit_.end(),
                       std::greater<>());
    }
    inbox_pending_ = 0;
    for (auto& q : inbox_) {
        sim::load_seq(s, q, load_packet);
        inbox_pending_ += q.size();
    }
    rr_next_ = s.u64();
    seq_ = s.u64();
    stats_.packets_injected = s.u64();
    stats_.packets_delivered = s.u64();
    stats_.bytes_transferred = s.u64();
    stats_.bus_busy_cycles = s.u64();
    stats_.inject_stall_events = s.u64();
}

bool Interconnect::quiescent() const {
    return in_transit_.empty() && inject_pending_ == 0 && inbox_pending_ == 0;
}

sim::Cycle Interconnect::next_activity(sim::Cycle now) const {
    sim::Cycle h = sim::kIdleForever;
    // Undelivered inbox packets wait on an external pop; conservatively
    // assume the consumer retries next cycle (only unbound endpoints).
    if (inbox_pending_ != 0) {
        return now + 1;
    }
    if (!in_transit_.empty()) {
        h = std::min(h, std::max(in_transit_.front().deliver_at, now + 1));
    }
    if (inject_pending_ != 0) {
        sim::Cycle grant = sim::kIdleForever;
        for (const sim::Cycle free_at : bus_free_at_) {
            grant = std::min(grant, free_at);
        }
        h = std::min(h, std::max(grant, now + 1));
    }
    return h;
}

}  // namespace dta::noc
