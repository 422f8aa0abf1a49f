#include "noc/interconnect.hpp"

#include <algorithm>
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

Interconnect::Lane& Interconnect::lane_for(std::uint32_t occupancy) {
    for (Lane& lane : lanes_) {
        if (lane.occupancy == occupancy) {
            return lane;
        }
    }
    lanes_.emplace_back().occupancy = occupancy;
    return lanes_.back();
}

std::size_t Interconnect::earliest_lane() const {
    std::size_t best = lanes_.size();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        if (lanes_[i].q.empty()) {
            continue;
        }
        const InTransit& head = lanes_[i].q.front();
        if (best == lanes_.size()) {
            best = i;
            continue;
        }
        const InTransit& top = lanes_[best].q.front();
        if (head.deliver_at < top.deliver_at ||
            (head.deliver_at == top.deliver_at && head.seq < top.seq)) {
            best = i;
        }
    }
    return best;
}

bool Interconnect::can_inject(EndpointId src) const {
    DTA_CHECK(src < inject_.size());
    return inject_[src].size() < cfg_.inject_queue_depth;
}

bool Interconnect::try_inject(EndpointId src, Packet& pkt, sim::Cycle now) {
    DTA_CHECK(src < inject_.size());
    DTA_CHECK_MSG(pkt.dst < inbox_.size(), "packet addressed off the fabric");
    if (inject_[src].size() >= cfg_.inject_queue_depth) {
        ++stats_.inject_stall_events;
        return false;
    }
    Packet& queued = inject_[src].emplace_back(std::move(pkt));
    queued.src = src;
    queued.enq_at = now;
    ++inject_pending_;
    ++stats_.packets_injected;
    if (waker_ != nullptr) {
        waker_->wake(waker_comp_);
    }
    return true;
}

std::size_t Interconnect::pending() const {
    return in_transit_ + inject_pending_ + inbox_pending_;
}

sim::Cycle Interconnect::tick(sim::Cycle now) {
    if (inject_pending_ == 0 && in_transit_ == 0) {
        // Empty fabric: nothing to mature, nothing to grant.
        return next_activity(now);
    }
    // 1. Mature in-flight packets into destination inboxes, earliest lane
    //    head first.
    while (in_transit_ != 0) {
        sim::Fifo<InTransit>& lane = lanes_[earliest_lane()].q;
        if (lane.front().deliver_at > now) {
            break;
        }
        Packet& pkt = lane.front().pkt;
        if (pkt_latency_ != nullptr) {
            pkt_latency_->record(now - pkt.enq_at);
        }
        if (sinks_[pkt.dst] != nullptr) {
            sinks_[pkt.dst]->push(std::move(pkt));
        } else {
            inbox_[pkt.dst].push_back(std::move(pkt));
            ++inbox_pending_;
        }
        lane.pop_front();
        --in_transit_;
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
            Packet& pkt = inject_[ep].front();
            const std::uint32_t occupancy = transfer_cycles(pkt);
            bus_free_at_[bus] = now + occupancy;
            stats_.bus_busy_cycles += occupancy;
            stats_.bytes_transferred += pkt.size_bytes;
            lane_for(occupancy).q.emplace_back(
                now + occupancy + cfg_.hop_latency, seq_++, std::move(pkt));
            ++in_transit_;
            inject_[ep].pop_front();
            --inject_pending_;
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
    std::size_t on_bus = 0;
    for (const Lane& lane : lanes_) {
        on_bus += lane.q.size();
        const InTransit* prev = nullptr;
        for (const InTransit& it : lane.q) {
            if (prev != nullptr &&
                (it.deliver_at < prev->deliver_at || it.seq <= prev->seq)) {
                ctx.fail("packet-conservation",
                         "the " + std::to_string(lane.occupancy) +
                             "-cycle lane is out of (deliver_at, seq) order "
                             "at seq " + std::to_string(it.seq));
            }
            prev = &it;
        }
    }
    if (on_bus != in_transit_) {
        ctx.fail("packet-conservation",
                 "in_transit says " + std::to_string(in_transit_) +
                     " but the lanes hold " + std::to_string(on_bus) +
                     " packets");
    }
    // Conservation: a packet is counted delivered when it matures into a
    // sink or inbox, so injected must equal delivered plus what is still on
    // a bus or waiting for one.
    if (stats_.packets_injected !=
        stats_.packets_delivered + in_transit_ + inject_pending_) {
        ctx.fail("packet-conservation",
                 "injected " + std::to_string(stats_.packets_injected) +
                     " != delivered " +
                     std::to_string(stats_.packets_delivered) +
                     " + on-bus " + std::to_string(in_transit_) +
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
    // Entries go out merged across lanes in (deliver_at, seq) order;
    // load_state deals them back into their lanes in that order.
    std::vector<const InTransit*> order;
    order.reserve(in_transit_);
    for (const Lane& lane : lanes_) {
        for (const InTransit& it : lane.q) {
            order.push_back(&it);
        }
    }
    std::sort(order.begin(), order.end(),
              [](const InTransit* x, const InTransit* y) {
                  return x->deliver_at != y->deliver_at
                             ? x->deliver_at < y->deliver_at
                             : x->seq < y->seq;
              });
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
    DTA_CHECK(in_transit_ == 0);
    const std::uint64_t n = s.u64();
    sim::Cycle prev_at = 0;
    std::uint64_t prev_seq = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        InTransit it;
        it.deliver_at = s.u64();
        it.seq = s.u64();
        load_packet(s, it.pkt);
        // save_state writes (deliver_at, seq) order, which keeps each lane
        // sorted; anything else is a damaged section.
        DTA_SIM_REQUIRE(i == 0 || it.deliver_at > prev_at ||
                            (it.deliver_at == prev_at && it.seq > prev_seq),
                        "snapshot fabric section: on-bus packets out of "
                        "(deliver_at, seq) order");
        prev_at = it.deliver_at;
        prev_seq = it.seq;
        lane_for(transfer_cycles(it.pkt)).q.push_back(std::move(it));
        ++in_transit_;
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
    return in_transit_ == 0 && inject_pending_ == 0 && inbox_pending_ == 0;
}

sim::Cycle Interconnect::next_activity(sim::Cycle now) const {
    sim::Cycle h = sim::kIdleForever;
    // Undelivered inbox packets wait on an external pop; conservatively
    // assume the consumer retries next cycle (only unbound endpoints).
    if (inbox_pending_ != 0) {
        return now + 1;
    }
    if (in_transit_ != 0) {
        const sim::Cycle at = lanes_[earliest_lane()].q.front().deliver_at;
        h = std::min(h, std::max(at, now + 1));
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
