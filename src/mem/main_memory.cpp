#include "mem/main_memory.hpp"

#include <algorithm>
#include <cstring>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace dta::mem {

namespace {

void save_request(sim::StateSink& s, const MemRequest& r) {
    s.u64(r.id);
    s.u8(static_cast<std::uint8_t>(r.op));
    s.u64(r.addr);
    s.u32(r.size);
    sim::save_seq(s, r.data,
                  [](sim::StateSink& k, std::uint8_t b) { k.u8(b); });
    s.u64(r.meta);
}

void load_request(sim::StateSource& s, MemRequest& r) {
    r.id = s.u64();
    r.op = static_cast<MemOp>(s.u8());
    r.addr = s.u64();
    r.size = s.u32();
    sim::load_seq(s, r.data,
                  [](sim::StateSource& k, std::uint8_t& b) { b = k.u8(); });
    r.meta = s.u64();
}

}  // namespace

MainMemory::MainMemory(const MainMemoryConfig& cfg) : cfg_(cfg) {
    DTA_SIM_REQUIRE(cfg.size_bytes > 0, "main memory size must be non-zero");
    DTA_SIM_REQUIRE(cfg.ports > 0, "main memory needs at least one port");
    DTA_SIM_REQUIRE(cfg.max_request_bytes > 0 &&
                        cfg.max_request_bytes <= kPageBytes,
                    "invalid max_request_bytes");
    pages_.resize((cfg.size_bytes + kPageBytes - 1) / kPageBytes);
    set_name("mem");
}

void MainMemory::bounds_check(sim::MemAddr addr, std::uint64_t size) const {
    DTA_SIM_REQUIRE(addr + size <= cfg_.size_bytes && addr + size >= addr,
                    "main-memory access out of bounds: addr=" +
                        std::to_string(addr) + " size=" + std::to_string(size));
}

std::uint8_t* MainMemory::page_for(sim::MemAddr addr) {
    auto& page = pages_[addr / kPageBytes];
    if (page.empty()) {
        page.assign(kPageBytes, 0);
    }
    return page.data();
}

const std::uint8_t* MainMemory::page_if_present(sim::MemAddr addr) const {
    const auto& page = pages_[addr / kPageBytes];
    return page.empty() ? nullptr : page.data();
}

void MainMemory::write_bytes(sim::MemAddr addr,
                             std::span<const std::uint8_t> data) {
    bounds_check(addr, data.size());
    std::size_t written = 0;
    while (written < data.size()) {
        const sim::MemAddr a = addr + written;
        const std::uint64_t in_page = a % kPageBytes;
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(kPageBytes - in_page,
                                    data.size() - written));
        std::memcpy(page_for(a) + in_page, data.data() + written, chunk);
        written += chunk;
    }
}

void MainMemory::read_bytes(sim::MemAddr addr,
                            std::span<std::uint8_t> out) const {
    bounds_check(addr, out.size());
    std::size_t done = 0;
    while (done < out.size()) {
        const sim::MemAddr a = addr + done;
        const std::uint64_t in_page = a % kPageBytes;
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(kPageBytes - in_page, out.size() - done));
        if (const std::uint8_t* page = page_if_present(a)) {
            std::memcpy(out.data() + done, page + in_page, chunk);
        } else {
            std::memset(out.data() + done, 0, chunk);
        }
        done += chunk;
    }
}

void MainMemory::write_u32(sim::MemAddr addr, std::uint32_t v) {
    std::uint8_t buf[4];
    std::memcpy(buf, &v, 4);
    write_bytes(addr, buf);
}

std::uint32_t MainMemory::read_u32(sim::MemAddr addr) const {
    std::uint8_t buf[4];
    read_bytes(addr, buf);
    std::uint32_t v;
    std::memcpy(&v, buf, 4);
    return v;
}

void MainMemory::write_u64(sim::MemAddr addr, std::uint64_t v) {
    std::uint8_t buf[8];
    std::memcpy(buf, &v, 8);
    write_bytes(addr, buf);
}

std::uint64_t MainMemory::read_u64(sim::MemAddr addr) const {
    std::uint8_t buf[8];
    read_bytes(addr, buf);
    std::uint64_t v;
    std::memcpy(&v, buf, 8);
    return v;
}

void MainMemory::enqueue(MemRequest req) {
    DTA_SIM_REQUIRE(req.size > 0 && req.size <= cfg_.max_request_bytes,
                    "memory request size " + std::to_string(req.size) +
                        " exceeds max_request_bytes");
    bounds_check(req.addr, req.size);
    if (req.op == MemOp::kWrite) {
        DTA_SIM_REQUIRE(req.data.size() == req.size,
                        "write request payload size mismatch");
    }
    queue_.push_back(std::move(req));
    peak_queue_ = std::max(peak_queue_, queue_.size());
}

sim::Cycle MainMemory::tick(sim::Cycle now) {
    // Retire in-flight requests whose access latency elapsed.  Starts are
    // FIFO with a fixed latency, so completions are FIFO too.
    while (!in_flight_.empty() && in_flight_.front().done_at <= now) {
        InFlight fl = std::move(in_flight_.front());
        in_flight_.pop_front();
        MemResponse resp;
        resp.id = fl.req.id;
        resp.op = fl.req.op;
        resp.addr = fl.req.addr;
        resp.meta = fl.req.meta;
        if (fl.req.op == MemOp::kRead) {
            resp.data.resize(fl.req.size);
            read_bytes(fl.req.addr, resp.data);
            ++reads_served_;
            bytes_read_ += fl.req.size;
        } else {
            write_bytes(fl.req.addr, fl.req.data);
            ++writes_served_;
            bytes_written_ += fl.req.size;
        }
        responses_.push_back(std::move(resp));
    }

    // Start new requests if the channel is free.
    if (now >= port_free_at_) {
        std::uint32_t started = 0;
        while (!queue_.empty() && started < cfg_.ports) {
            in_flight_.push_back(
                InFlight{now + cfg_.latency, std::move(queue_.front())});
            queue_.pop_front();
            ++started;
        }
        if (started > 0) {
            port_free_at_ = now + cfg_.bank_busy;
        }
    }
    return next_activity(now);
}

void MainMemory::save_state(sim::StateSink& s) const {
    // Backing store: only allocated pages, keyed by page index (ascending,
    // so the section is canonical).
    std::uint64_t live = 0;
    for (const auto& page : pages_) {
        live += page.empty() ? 0 : 1;
    }
    s.u64(live);
    for (std::size_t i = 0; i < pages_.size(); ++i) {
        if (!pages_[i].empty()) {
            s.u64(i);
            s.blob(pages_[i].data(), kPageBytes);
        }
    }
    sim::save_seq(s, queue_, save_request);
    sim::save_seq(s, in_flight_, [](sim::StateSink& k, const InFlight& fl) {
        k.u64(fl.done_at);
        save_request(k, fl.req);
    });
    sim::save_seq(s, responses_, [](sim::StateSink& k, const MemResponse& r) {
        k.u64(r.id);
        k.u8(static_cast<std::uint8_t>(r.op));
        k.u64(r.addr);
        sim::save_seq(k, r.data,
                      [](sim::StateSink& j, std::uint8_t b) { j.u8(b); });
        k.u64(r.meta);
    });
    s.u64(port_free_at_);
    s.u64(reads_served_);
    s.u64(writes_served_);
    s.u64(bytes_read_);
    s.u64(bytes_written_);
    s.u64(peak_queue_);
}

void MainMemory::load_state(sim::StateSource& s) {
    const std::uint64_t live = s.u64();
    for (std::uint64_t i = 0; i < live; ++i) {
        const std::uint64_t idx = s.u64();
        DTA_CHECK(idx < pages_.size());
        pages_[idx].resize(kPageBytes);
        s.blob(pages_[idx].data(), kPageBytes);
    }
    sim::load_seq(s, queue_, load_request);
    sim::load_seq(s, in_flight_, [](sim::StateSource& k, InFlight& fl) {
        fl.done_at = k.u64();
        load_request(k, fl.req);
    });
    sim::load_seq(s, responses_, [](sim::StateSource& k, MemResponse& r) {
        r.id = k.u64();
        r.op = static_cast<MemOp>(k.u8());
        r.addr = k.u64();
        sim::load_seq(k, r.data,
                      [](sim::StateSource& j, std::uint8_t& b) { b = j.u8(); });
        r.meta = k.u64();
    });
    port_free_at_ = s.u64();
    reads_served_ = s.u64();
    writes_served_ = s.u64();
    bytes_read_ = s.u64();
    bytes_written_ = s.u64();
    peak_queue_ = s.u64();
}

bool MainMemory::pop_response(MemResponse& out) {
    if (responses_.empty()) {
        return false;
    }
    out = std::move(responses_.front());
    responses_.pop_front();
    return true;
}

}  // namespace dta::mem
