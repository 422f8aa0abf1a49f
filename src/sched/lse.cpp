#include "sched/lse.hpp"

#include <algorithm>
#include <utility>

#include "sim/audit.hpp"
#include "sim/check.hpp"

namespace dta::sched {

Lse::Lse(const LseConfig& cfg, const Topology& topo, sim::GlobalPeId self,
         mem::LocalStore& ls)
    : cfg_(cfg), topo_(topo), self_(self), ls_(ls) {
    DTA_SIM_REQUIRE(cfg.frames > 0, "LSE needs at least one frame");
    DTA_SIM_REQUIRE(cfg.frame_words > 0, "frames must hold at least one word");
    // Remote stores carry the word offset in 16 wire bits (the upper bits
    // of the payload word carry the producer uid — see pack_carried_uid).
    DTA_SIM_REQUIRE(cfg.frame_words <= 0x10000,
                    "frames larger than 65536 words are not representable "
                    "in the remote-store wire format");
    const std::uint64_t frame_area_end =
        static_cast<std::uint64_t>(cfg.frame_area_base) +
        static_cast<std::uint64_t>(cfg.frames) * cfg.frame_bytes();
    DTA_SIM_REQUIRE(frame_area_end <= ls.config().size_bytes,
                    "frame area exceeds the local store");
    const std::uint64_t staging_end =
        static_cast<std::uint64_t>(cfg.staging_base) +
        static_cast<std::uint64_t>(cfg.frames) * cfg.staging_bytes_per_frame;
    DTA_SIM_REQUIRE(staging_end <= ls.config().size_bytes,
                    "staging area exceeds the local store");
    DTA_SIM_REQUIRE(cfg.staging_base >= frame_area_end,
                    "staging area overlaps the frame area");
    frames_.resize(cfg.frames);
    for (std::uint32_t i = 0; i < cfg.frames; ++i) {
        free_slots_.push_back(i);
    }
}

Lse::Frame& Lse::frame_at(std::uint32_t slot) {
    DTA_CHECK_MSG(slot < frames_.size(), "frame slot out of range");
    return frames_[slot];
}

const Lse::Frame& Lse::frame_at(std::uint32_t slot) const {
    DTA_CHECK_MSG(slot < frames_.size(), "frame slot out of range");
    return frames_[slot];
}

std::uint32_t Lse::frame_ls_base(std::uint32_t slot) const {
    DTA_CHECK(slot < frames_.size());
    return cfg_.frame_area_base + slot * cfg_.frame_bytes();
}

std::uint32_t Lse::staging_ls_base(std::uint32_t slot) const {
    DTA_CHECK(slot < frames_.size());
    return cfg_.staging_base + slot * cfg_.staging_bytes_per_frame;
}

sim::ThreadCodeId Lse::code_of(std::uint32_t slot) const {
    return frame_at(slot).code;
}

std::uint64_t Lse::uid_of(std::uint32_t slot) const {
    if (is_virtual(slot)) {
        const auto it = virtual_.find(slot);
        return it != virtual_.end() ? it->second.uid : 0;
    }
    return frame_at(slot).uid;
}

void Lse::emit_ready(std::uint64_t uid, sim::ThreadCodeId code, bool resume) {
    if (events_ != nullptr) {
        sim::Event e;
        e.cycle = now_;
        e.kind = sim::EventKind::kReady;
        e.ordinal = self_;
        e.thread = uid;
        e.arg = code;
        e.aux = resume ? 1 : 0;
        events_->push(e);
    }
}

void Lse::attach_metrics(sim::MetricsRegistry& reg) {
    falloc_wait_ = reg.histogram("sched.falloc_wait");
    dispatch_wait_ = reg.histogram("sched.dispatch_wait");
    dma_suspend_ = reg.histogram("sched.dma_suspend");
}

// ---- allocation -------------------------------------------------------------

std::uint32_t Lse::allocate_slot(sim::ThreadCodeId code, std::uint32_t sc,
                                 std::uint64_t parent, std::uint8_t rd) {
    const std::uint64_t uid = next_uid();
    if (free_slots_.empty()) {
        // Virtual frame pointers: never refuse a FALLOC.  The frame exists
        // only as a store buffer until a physical slot frees.
        DTA_CHECK_MSG(cfg_.virtual_frames,
                      "DSE granted a FALLOC to an LSE with no free frames");
        DTA_SIM_REQUIRE(virtual_.size() < cfg_.max_virtual_frames,
                        "virtual-frame population exceeded max_virtual_frames");
        const std::uint32_t vid = cfg_.frames + next_virtual_id_++;
        VirtualFrame vf;
        vf.code = code;
        vf.uid = uid;
        vf.sc = sc;
        if (sc == 0) {
            vf.complete = true;
            materialize_queue_.push_back(vid);
        }
        virtual_.emplace(vid, std::move(vf));
        ++stats_.virtual_allocations;
        stats_.peak_virtual_frames =
            std::max(stats_.peak_virtual_frames,
                     static_cast<std::uint32_t>(virtual_.size()));
        if (events_ != nullptr) {
            sim::Event e;
            e.cycle = now_;
            e.kind = sim::EventKind::kFrameGrant;
            e.ordinal = self_;
            e.thread = uid;
            e.other = parent;
            e.arg = sim::pack_grant(code, /*is_virtual=*/true);
            e.aux = rd;
            events_->push(e);
        }
        return vid;
    }
    const std::uint32_t slot = free_slots_.front();
    free_slots_.pop_front();
    Frame& f = frames_[slot];
    f = Frame{};
    f.code = code;
    f.uid = uid;
    f.sc = sc;
    f.state = sc == 0 ? FrameState::kReady : FrameState::kWaitStores;
    if (events_ != nullptr) {
        sim::Event e;
        e.cycle = now_;
        e.kind = sim::EventKind::kFrameGrant;
        e.ordinal = self_;
        e.thread = uid;
        e.other = parent;
        e.arg = sim::pack_grant(code, /*is_virtual=*/false);
        e.aux = rd;
        events_->push(e);
    }
    if (f.state == FrameState::kReady) {
        f.ready_at = now_;
        ready_.push_back(slot);
        emit_ready(uid, code, /*resume=*/false);
    }
    ++live_frames_;
    stats_.peak_live_frames = std::max(stats_.peak_live_frames, live_frames_);
    ++stats_.frames_allocated;
    return slot;
}

void Lse::release_slot(std::uint32_t slot, bool notify_dse) {
    Frame& f = frame_at(slot);
    DTA_CHECK_MSG(f.state != FrameState::kFree, "double frame free");
    if (events_ != nullptr) {
        sim::Event e;
        e.cycle = now_;
        e.kind = sim::EventKind::kFree;
        e.ordinal = self_;
        e.thread = f.uid;
        events_->push(e);
    }
    f.state = FrameState::kFree;
    free_slots_.push_back(slot);
    DTA_CHECK(live_frames_ > 0);
    --live_frames_;
    ++stats_.frames_freed;
    if (notify_dse) {
        SchedMsg msg;
        msg.kind = MsgKind::kFrameFree;
        msg.dst_node = topo_.node_of(self_);
        msg.dst_is_dse = true;
        msg.a = self_;
        outbox_.push_back(msg);
    }
    // A freed slot can immediately host the oldest complete virtual frame.
    materialize_next();
}

void Lse::store_virtual(std::uint32_t vid, std::uint32_t word_off,
                        std::uint64_t value, std::uint64_t producer) {
    const auto it = virtual_.find(vid);
    DTA_SIM_REQUIRE(it != virtual_.end(),
                    "STORE to an unknown or already-complete virtual frame");
    VirtualFrame& vf = it->second;
    DTA_SIM_REQUIRE(!vf.complete,
                    "more STOREs than the virtual frame's SC expects");
    DTA_SIM_REQUIRE(word_off < cfg_.frame_words,
                    "virtual frame STORE offset out of range");
    vf.stores.push_back(BufferedStore{word_off, value, producer});
    DTA_CHECK(vf.sc > 0);
    --vf.sc;
    // The arrival event fires at buffering time — that is when the SC
    // decrements — so the materialization replay stays event-silent.
    if (events_ != nullptr) {
        sim::Event e;
        e.cycle = now_;
        e.kind = sim::EventKind::kFrameStore;
        e.ordinal = self_;
        e.thread = vf.uid;
        e.other = producer;
        e.arg = sim::pack_store_dest(self_, vid, word_off);
        e.aux = static_cast<std::uint8_t>(std::min<std::uint32_t>(vf.sc, 255));
        events_->push(e);
    }
    if (vf.sc == 0) {
        vf.complete = true;
        materialize_queue_.push_back(vid);
        materialize_next();
    }
}

void Lse::materialize_next() {
    while (!materialize_queue_.empty() && !free_slots_.empty()) {
        const std::uint32_t vid = materialize_queue_.front();
        materialize_queue_.pop_front();
        const auto it = virtual_.find(vid);
        DTA_CHECK(it != virtual_.end());
        VirtualFrame vf = std::move(it->second);
        virtual_.erase(it);

        const std::uint32_t slot = free_slots_.front();
        free_slots_.pop_front();
        Frame& f = frames_[slot];
        f = Frame{};
        f.code = vf.code;
        f.uid = vf.uid;  // same thread, now physical
        ++live_frames_;
        stats_.peak_live_frames =
            std::max(stats_.peak_live_frames, live_frames_);
        ++stats_.frames_allocated;
        if (vf.stores.empty()) {
            f.state = FrameState::kReady;
            f.ready_at = now_;
            ready_.push_back(slot);
            emit_ready(f.uid, f.code, /*resume=*/false);
            continue;
        }
        // Replay the buffered stores into real frame memory; the thread
        // becomes ready when the last write completes (the normal SC path).
        f.sc = static_cast<std::uint32_t>(vf.stores.size());
        f.state = FrameState::kWaitStores;
        for (const BufferedStore& s : vf.stores) {
            enqueue_frame_write(slot, s.word_off, s.value, s.producer,
                                /*replay=*/true);
        }
    }
}

// ---- SPU-facing ----------------------------------------------------------------

void Lse::falloc(std::uint8_t rd, sim::ThreadCodeId code, std::uint32_t sc,
                 std::uint64_t parent) {
    if (falloc_wait_ != nullptr) {
        falloc_issue_[rd].push_back(now_);
    }
    SchedMsg msg;
    msg.kind = MsgKind::kFallocReq;
    msg.dst_node = topo_.node_of(self_);
    msg.dst_is_dse = true;
    msg.a = pack_carried_uid(code, parent);
    msg.b = sc;
    msg.c = FallocCtx{topo_.node_of(self_), topo_.local_pe_of(self_), rd, 0}
                .pack();
    outbox_.push_back(msg);
}

void Lse::enqueue_frame_write(std::uint32_t slot, std::uint32_t word_off,
                              std::uint64_t value, std::uint64_t producer,
                              bool replay) {
    Frame& f = frame_at(slot);
    DTA_SIM_REQUIRE(f.state == FrameState::kWaitStores,
                    "STORE to a frame that is not waiting for stores (slot " +
                        std::to_string(slot) + ")");
    DTA_SIM_REQUIRE(word_off < cfg_.frame_words,
                    "frame STORE offset " + std::to_string(word_off) +
                        " out of range");
    DTA_SIM_REQUIRE(f.sc > f.stores_in_flight,
                    "more STOREs than the synchronisation counter expects");
    mem::LsRequest rq;
    rq.id = ls_write_seq_++;
    rq.is_write = true;
    rq.addr = frame_ls_base(slot) + word_off * 8;
    rq.size = 8;
    rq.data.resize(8);
    std::uint64_t v = value;
    for (int i = 0; i < 8; ++i) {
        rq.data[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
    }
    // meta carries (slot, word offset, replay flag) to the completion; only
    // sc_arrived reads it back.  The producer uid is tracing-only state and
    // must not grow the request struct, so it waits in a side FIFO: the LS
    // serves each client's queue in order with a fixed latency, hence
    // completions come back in enqueue order.
    rq.meta = slot | (static_cast<std::uint64_t>(word_off) << 32) |
              (replay ? (1ull << 63) : 0ull);
    if (events_ != nullptr) {
        write_producers_.push_back(producer);
    }
    ++f.stores_in_flight;
    ls_.enqueue(mem::LsClient::kLse, std::move(rq));
}

void Lse::store_local(sim::FrameHandle h, std::uint32_t word_off,
                      std::uint64_t value, std::uint64_t producer) {
    DTA_CHECK_MSG(h.global_pe == self_, "store_local on a remote handle");
    if (is_virtual(h.slot)) {
        store_virtual(h.slot, word_off, value, producer);
    } else {
        enqueue_frame_write(h.slot, word_off, value, producer);
    }
    ++stats_.local_stores;
}

void Lse::store_remote(sim::FrameHandle h, std::uint32_t word_off,
                       std::uint64_t value, std::uint64_t producer) {
    DTA_CHECK_MSG(h.global_pe != self_, "store_remote on a local handle");
    SchedMsg msg;
    msg.kind = MsgKind::kRemoteStore;
    msg.dst_node = topo_.node_of(h.global_pe);
    msg.dst_is_dse = false;
    msg.dst_pe = topo_.local_pe_of(h.global_pe);
    msg.a = h.pack();
    msg.b = value;
    msg.c = pack_carried_uid(word_off, producer);
    outbox_.push_back(msg);
    ++stats_.remote_stores_out;
}

void Lse::ffree(std::uint32_t slot) {
    Frame& f = frame_at(slot);
    DTA_SIM_REQUIRE(f.state == FrameState::kRunning,
                    "FFREE outside a running thread");
    release_slot(slot, /*notify_dse=*/true);
}

void Lse::stop_thread(std::uint32_t slot, bool already_freed) {
    if (already_freed) {
        // The slot was released at FFREE time and may already host a new
        // thread; nothing to do here.
        return;
    }
    Frame& f = frame_at(slot);
    DTA_SIM_REQUIRE(f.state == FrameState::kRunning,
                    "STOP from a thread that is not running");
    release_slot(slot, /*notify_dse=*/true);
}

void Lse::mark_dma_issued(std::uint32_t slot) {
    Frame& f = frame_at(slot);
    DTA_SIM_REQUIRE(f.state == FrameState::kRunning,
                    "DMAGET outside a running thread");
    ++f.dma_pending;
}

void Lse::dma_completed(std::uint32_t slot) {
    Frame& f = frame_at(slot);
    DTA_CHECK_MSG(f.dma_pending > 0, "DMA completion with none outstanding");
    --f.dma_pending;
    if (f.dma_pending == 0 && f.state == FrameState::kWaitDma) {
        f.state = FrameState::kReady;
        DTA_CHECK(waitdma_count_ > 0);
        --waitdma_count_;
        f.ready_at = now_;
        if (dma_suspend_ != nullptr) {
            dma_suspend_->record(now_ - f.suspend_at);
        }
        ready_.push_back(slot);
        emit_ready(f.uid, f.code, /*resume=*/true);
    }
}

std::uint32_t Lse::dma_pending(std::uint32_t slot) const {
    return frame_at(slot).dma_pending;
}

void Lse::suspend_for_dma(std::uint32_t slot, std::uint32_t resume_ip,
                          const ThreadSnapshot& snap) {
    Frame& f = frame_at(slot);
    DTA_SIM_REQUIRE(f.state == FrameState::kRunning,
                    "DMAWAIT suspend outside a running thread");
    DTA_CHECK_MSG(f.dma_pending > 0, "suspend_for_dma with nothing pending");
    f.state = FrameState::kWaitDma;
    f.resume_ip = resume_ip;
    f.snapshot = snap;
    f.has_snapshot = true;
    f.suspend_at = now_;
    ++waitdma_count_;
    ++stats_.dma_suspends;
}

void Lse::request_dispatch(sim::Cycle now) {
    DTA_CHECK_MSG(!dispatch_pending_, "dispatch requested twice");
    dispatch_pending_ = true;
    dispatch_ready_at_ = now + cfg_.dispatch_latency;
}

bool Lse::pop_dispatch(sim::Cycle now, Dispatch& out) {
    if (!dispatch_pending_ || now < dispatch_ready_at_ || ready_.empty()) {
        return false;
    }
    const std::uint32_t slot = ready_.front();
    ready_.pop_front();
    Frame& f = frame_at(slot);
    DTA_CHECK(f.state == FrameState::kReady);
    if (dispatch_wait_ != nullptr) {
        dispatch_wait_->record(now - f.ready_at);
    }
    f.state = FrameState::kRunning;
    out.slot = slot;
    out.code = f.code;
    out.resume_ip = f.resume_ip;
    out.has_snapshot = f.has_snapshot;
    if (f.has_snapshot) {
        out.snapshot = f.snapshot;
        f.has_snapshot = false;
    }
    dispatch_pending_ = false;
    ++stats_.dispatches;
    return true;
}

void Lse::thread_running(std::uint32_t slot) {
    DTA_CHECK(frame_at(slot).state == FrameState::kRunning);
}

// ---- NoC-facing -------------------------------------------------------------

void Lse::on_falloc_fwd(sim::ThreadCodeId code, std::uint32_t sc,
                        FallocCtx ctx, std::uint64_t parent) {
    const std::uint32_t slot = allocate_slot(code, sc, parent, ctx.rd);
    SchedMsg msg;
    msg.kind = MsgKind::kFallocResp;
    msg.dst_node = ctx.node;
    msg.dst_is_dse = false;
    msg.dst_pe = ctx.pe;
    msg.a = sim::FrameHandle{self_, slot}.pack();
    msg.c = ctx.pack();
    outbox_.push_back(msg);
}

void Lse::on_falloc_resp(sim::FrameHandle h, FallocCtx ctx) {
    DTA_CHECK_MSG(ctx.node == topo_.node_of(self_) &&
                      ctx.pe == topo_.local_pe_of(self_),
                  "FALLOC response routed to the wrong LSE");
    if (falloc_wait_ != nullptr) {
        const auto it = falloc_issue_.find(ctx.rd);
        if (it != falloc_issue_.end() && !it->second.empty()) {
            falloc_wait_->record(now_ - it->second.front());
            it->second.pop_front();
        }
    }
    falloc_done_.push_back(FallocDone{ctx.rd, h});
}

void Lse::on_remote_store(sim::FrameHandle h, std::uint32_t word_off,
                          std::uint64_t value, std::uint64_t producer) {
    DTA_CHECK_MSG(h.global_pe == self_, "remote store routed to wrong LSE");
    if (is_virtual(h.slot)) {
        store_virtual(h.slot, word_off, value, producer);
    } else {
        enqueue_frame_write(h.slot, word_off, value, producer);
    }
    ++stats_.remote_stores_in;
}

void Lse::drain_frame_writes() {
    // Frame writes that completed in the LS decrement the SC now.
    mem::LsResponse resp;
    while (ls_.pop_response(mem::LsClient::kLse, resp)) {
        std::uint64_t producer = 0;
        if (events_ != nullptr) {
            DTA_CHECK_MSG(!write_producers_.empty(),
                          "frame-write completion without a queued producer");
            producer = write_producers_.front();
            write_producers_.pop_front();
        }
        sc_arrived(static_cast<std::uint32_t>(resp.meta & 0xffffffffu),
                   static_cast<std::uint32_t>((resp.meta >> 32) & 0x7fffffffu),
                   producer, (resp.meta >> 63) != 0);
    }
}

void Lse::sc_arrived(std::uint32_t slot, std::uint32_t word_off,
                     std::uint64_t producer, bool replay) {
    Frame& f = frame_at(slot);
    DTA_CHECK_MSG(f.state == FrameState::kWaitStores,
                  "SC decrement on a frame not waiting for stores");
    DTA_CHECK(f.stores_in_flight > 0);
    --f.stores_in_flight;
    DTA_CHECK_MSG(f.sc > 0, "synchronisation counter underflow");
    --f.sc;
    if (events_ != nullptr && !replay) {
        sim::Event e;
        e.cycle = now_;
        e.kind = sim::EventKind::kFrameStore;
        e.ordinal = self_;
        e.thread = f.uid;
        e.other = producer;
        e.arg = sim::pack_store_dest(self_, slot, word_off);
        e.aux = static_cast<std::uint8_t>(std::min<std::uint32_t>(f.sc, 255));
        events_->push(e);
    }
    if (f.sc == 0) {
        f.state = FrameState::kReady;
        f.ready_at = now_;
        ready_.push_back(slot);
        emit_ready(f.uid, f.code, /*resume=*/false);
    }
}

// ---- bootstrap ---------------------------------------------------------------

std::uint32_t Lse::bootstrap_frame(sim::ThreadCodeId code, std::uint32_t sc) {
    return allocate_slot(code, sc);
}

void Lse::write_frame_word(std::uint32_t slot, std::uint32_t word_off,
                           std::uint64_t value) {
    DTA_SIM_REQUIRE(word_off < cfg_.frame_words,
                    "bootstrap frame write out of range");
    ls_.write_u64(frame_ls_base(slot) + word_off * 8, value);
}

void Lse::make_ready(std::uint32_t slot) {
    Frame& f = frame_at(slot);
    DTA_CHECK_MSG(f.state == FrameState::kWaitStores ||
                      f.state == FrameState::kReady,
                  "make_ready on a frame in the wrong state");
    if (f.state == FrameState::kWaitStores) {
        f.sc = 0;
        f.state = FrameState::kReady;
        f.ready_at = now_;
        ready_.push_back(slot);
        emit_ready(f.uid, f.code, /*resume=*/false);
    }
}

bool Lse::quiescent() const {
    return live_frames_ == 0 && ready_.empty() && outbox_.empty() &&
           falloc_done_.empty() && waitdma_count_ == 0 && virtual_.empty() &&
           materialize_queue_.empty();
}

// ---- invariant audit --------------------------------------------------------

void Lse::audit(const sim::AuditCtx& ctx) const {
    // Frame-slot lifecycle FSM + SC conservation, one pass over the slots.
    std::uint32_t live = 0;
    std::uint32_t ready = 0;
    std::uint32_t waitdma = 0;
    std::uint32_t free_count = 0;
    for (std::uint32_t slot = 0; slot < frames_.size(); ++slot) {
        const Frame& f = frames_[slot];
        if (f.state == FrameState::kFree) {
            ++free_count;
            continue;
        }
        ++live;
        ready += f.state == FrameState::kReady ? 1 : 0;
        waitdma += f.state == FrameState::kWaitDma ? 1 : 0;
        if (f.state == FrameState::kWaitStores) {
            if (f.sc == 0) {
                ctx.fail("frame-fsm",
                         "slot " + std::to_string(slot) +
                             " waits for stores with SC already zero",
                         f.uid);
            }
            if (f.stores_in_flight > f.sc) {
                ctx.fail("sc-conservation",
                         "slot " + std::to_string(slot) + " has " +
                             std::to_string(f.stores_in_flight) +
                             " stores in flight but the SC expects only " +
                             std::to_string(f.sc),
                         f.uid);
            }
        } else {
            if (f.sc != 0) {
                ctx.fail("sc-conservation",
                         "slot " + std::to_string(slot) + " is past "
                             "kWaitStores with a non-zero SC (" +
                             std::to_string(f.sc) + ")",
                         f.uid);
            }
            if (f.stores_in_flight != 0) {
                ctx.fail("sc-conservation",
                         "slot " + std::to_string(slot) + " is past "
                             "kWaitStores with " +
                             std::to_string(f.stores_in_flight) +
                             " stores still in flight",
                         f.uid);
            }
        }
        if (f.state == FrameState::kWaitDma && f.dma_pending == 0) {
            ctx.fail("frame-fsm",
                     "slot " + std::to_string(slot) +
                         " parked in Wait-for-DMA with no DMA outstanding",
                     f.uid);
        }
    }
    if (live != live_frames_) {
        ctx.fail("frame-accounting",
                 "live_frames counter says " + std::to_string(live_frames_) +
                     " but " + std::to_string(live) + " slots are occupied");
    }
    if (waitdma != waitdma_count_) {
        ctx.fail("frame-accounting",
                 "waitdma counter says " + std::to_string(waitdma_count_) +
                     " but " + std::to_string(waitdma) +
                     " slots are in Wait-for-DMA");
    }
    if (stats_.frames_allocated - stats_.frames_freed != live_frames_) {
        ctx.fail("frame-accounting",
                 "allocation ledger (allocated " +
                     std::to_string(stats_.frames_allocated) + " - freed " +
                     std::to_string(stats_.frames_freed) +
                     ") disagrees with live_frames " +
                     std::to_string(live_frames_));
    }
    // Free-slot queue: exactly the kFree slots, each once (a duplicate or a
    // non-free entry is a double-free / double-grant in the making).
    if (free_count != free_slots_.size()) {
        ctx.fail("frame-accounting",
                 "free-slot queue holds " + std::to_string(free_slots_.size()) +
                     " entries but " + std::to_string(free_count) +
                     " slots are kFree");
    }
    std::vector<bool> in_free(frames_.size(), false);
    for (const std::uint32_t slot : free_slots_) {
        if (slot >= frames_.size()) {
            ctx.fail("frame-accounting", "free-slot queue holds out-of-range "
                                         "slot " + std::to_string(slot));
        }
        if (frames_[slot].state != FrameState::kFree) {
            ctx.fail("use-after-free",
                     "slot " + std::to_string(slot) +
                         " sits in the free queue while occupied (double-"
                         "grant hazard)",
                     frames_[slot].uid);
        }
        if (in_free[slot]) {
            ctx.fail("double-free", "slot " + std::to_string(slot) +
                                        " appears twice in the free queue");
        }
        in_free[slot] = true;
    }
    // Ready queue: exactly the kReady slots, each once.
    if (ready != ready_.size()) {
        ctx.fail("frame-fsm",
                 "ready queue holds " + std::to_string(ready_.size()) +
                     " entries but " + std::to_string(ready) +
                     " slots are kReady");
    }
    std::vector<bool> in_ready(frames_.size(), false);
    for (const std::uint32_t slot : ready_) {
        if (slot >= frames_.size()) {
            ctx.fail("frame-fsm", "ready queue holds out-of-range slot " +
                                      std::to_string(slot));
        }
        if (frames_[slot].state != FrameState::kReady) {
            ctx.fail("frame-fsm",
                     "ready queue holds slot " + std::to_string(slot) +
                         " whose frame is not kReady",
                     frames_[slot].uid);
        }
        if (in_ready[slot]) {
            ctx.fail("frame-fsm", "slot " + std::to_string(slot) +
                                      " appears twice in the ready queue");
        }
        in_ready[slot] = true;
    }
    // Virtual frames: ids past the physical range, completion flag in step
    // with the SC, buffered stores within the frame, and the materialize
    // queue holding exactly the complete ones (in some order) — the ordering
    // itself is FIFO by completion, which membership + FIFO pops preserve.
    if (!cfg_.virtual_frames && !virtual_.empty()) {
        ctx.fail("virtual-frames",
                 "virtual frames exist with virtual_frames disabled");
    }
    std::size_t complete = 0;
    for (const auto& [vid, vf] : virtual_) {
        if (!is_virtual(vid)) {
            ctx.fail("virtual-frames",
                     "virtual id " + std::to_string(vid) +
                         " collides with the physical slot range",
                     vf.uid);
        }
        if (vf.complete != (vf.sc == 0)) {
            ctx.fail("virtual-frames",
                     "virtual frame " + std::to_string(vid) +
                         " complete flag out of step with its SC (" +
                         std::to_string(vf.sc) + ")",
                     vf.uid);
        }
        if (vf.stores.size() > cfg_.frame_words) {
            ctx.fail("virtual-frames",
                     "virtual frame " + std::to_string(vid) + " buffered " +
                         std::to_string(vf.stores.size()) +
                         " stores into a " + std::to_string(cfg_.frame_words) +
                         "-word frame",
                     vf.uid);
        }
        for (const BufferedStore& s : vf.stores) {
            if (s.word_off >= cfg_.frame_words) {
                ctx.fail("virtual-frames",
                         "virtual frame " + std::to_string(vid) +
                             " buffered a store past the frame (word " +
                             std::to_string(s.word_off) + ")",
                         vf.uid);
            }
        }
        complete += vf.complete ? 1 : 0;
    }
    if (complete != materialize_queue_.size()) {
        ctx.fail("virtual-frames",
                 "materialize queue holds " +
                     std::to_string(materialize_queue_.size()) +
                     " entries but " + std::to_string(complete) +
                     " virtual frames are complete");
    }
    for (const std::uint32_t vid : materialize_queue_) {
        const auto it = virtual_.find(vid);
        if (it == virtual_.end()) {
            ctx.fail("virtual-frames",
                     "materialize queue references unknown virtual frame " +
                         std::to_string(vid));
        }
        if (!it->second.complete) {
            ctx.fail("virtual-frames",
                     "materialize queue holds incomplete virtual frame " +
                         std::to_string(vid),
                     it->second.uid);
        }
    }
    // A complete virtual frame may never coexist with a free physical slot:
    // release_slot / store_virtual materialise eagerly.
    if (!materialize_queue_.empty() && !free_slots_.empty()) {
        ctx.fail("virtual-frames",
                 "complete virtual frames queued while physical slots are "
                 "free (materialization stalled)");
    }
    // Events-only side FIFO mirrors the in-flight frame writes one-to-one.
    if (events_ != nullptr) {
        std::uint64_t in_flight = 0;
        for (const Frame& f : frames_) {
            in_flight += f.stores_in_flight;
        }
        if (write_producers_.size() != in_flight) {
            ctx.fail("frame-accounting",
                     "producer side-FIFO holds " +
                         std::to_string(write_producers_.size()) +
                         " entries but " + std::to_string(in_flight) +
                         " frame writes are in flight");
        }
    }
    // LS layout: the frame and staging areas must still fit the local store
    // (they are constructor-checked; re-checked here against corruption).
    const std::uint64_t frame_end =
        static_cast<std::uint64_t>(cfg_.frame_area_base) +
        static_cast<std::uint64_t>(cfg_.frames) * cfg_.frame_bytes();
    const std::uint64_t staging_end =
        static_cast<std::uint64_t>(cfg_.staging_base) +
        static_cast<std::uint64_t>(cfg_.frames) * cfg_.staging_bytes_per_frame;
    if (frame_end > ls_.config().size_bytes ||
        staging_end > ls_.config().size_bytes) {
        ctx.fail("ls-range", "frame or staging area exceeds the local store");
    }
}

void Lse::save_state(sim::StateSink& s) const {
    s.u64(frames_.size());
    for (const Frame& f : frames_) {
        s.u8(static_cast<std::uint8_t>(f.state));
        s.u32(f.code);
        s.u64(f.uid);
        s.u32(f.sc);
        s.u32(f.dma_pending);
        s.u32(f.resume_ip);
        s.flag(f.has_snapshot);
        save_thread_snapshot(s, f.snapshot);
        s.u32(f.stores_in_flight);
        s.u64(f.ready_at);
        s.u64(f.suspend_at);
    }
    sim::save_seq(s, free_slots_,
                  [](sim::StateSink& k, std::uint32_t v) { k.u32(v); });
    sim::save_seq(s, ready_,
                  [](sim::StateSink& k, std::uint32_t v) { k.u32(v); });
    sim::save_seq(s, outbox_, save_sched_msg);
    sim::save_seq(s, falloc_done_, [](sim::StateSink& k, const FallocDone& d) {
        k.u8(d.rd);
        k.u64(d.handle.pack());
    });
    s.flag(dispatch_pending_);
    s.u64(dispatch_ready_at_);
    s.u32(live_frames_);
    s.u32(waitdma_count_);
    s.u64(ls_write_seq_);
    s.u64(uid_seq_);
    // Virtual-frame table in ascending-id order for canonical bytes (the
    // unordered_map's iteration order is not deterministic across runs).
    std::vector<std::uint32_t> vids;
    vids.reserve(virtual_.size());
    for (const auto& [vid, vf] : virtual_) {
        vids.push_back(vid);
    }
    std::sort(vids.begin(), vids.end());
    s.u64(vids.size());
    for (const std::uint32_t vid : vids) {
        const VirtualFrame& vf = virtual_.at(vid);
        s.u32(vid);
        s.u32(vf.code);
        s.u64(vf.uid);
        s.u32(vf.sc);
        sim::save_seq(s, vf.stores,
                      [](sim::StateSink& k, const BufferedStore& b) {
                          k.u32(b.word_off);
                          k.u64(b.value);
                          k.u64(b.producer);
                      });
        s.flag(vf.complete);
    }
    sim::save_seq(s, materialize_queue_,
                  [](sim::StateSink& k, std::uint32_t v) { k.u32(v); });
    s.u32(next_virtual_id_);
    s.u64(stats_.frames_allocated);
    s.u64(stats_.frames_freed);
    s.u64(stats_.local_stores);
    s.u64(stats_.remote_stores_in);
    s.u64(stats_.remote_stores_out);
    s.u64(stats_.dispatches);
    s.u64(stats_.dma_suspends);
    s.u64(stats_.dma_immediate);
    s.u32(stats_.peak_live_frames);
    s.u64(stats_.virtual_allocations);
    s.u32(stats_.peak_virtual_frames);
    s.u64(now_);
    sim::save_seq(s, write_producers_,
                  [](sim::StateSink& k, std::uint64_t v) { k.u64(v); });
    s.u64(falloc_issue_.size());
    for (const auto& [rd, issues] : falloc_issue_) {
        s.u8(rd);
        sim::save_seq(s, issues,
                      [](sim::StateSink& k, sim::Cycle c) { k.u64(c); });
    }
}

void Lse::load_state(sim::StateSource& s) {
    const std::uint64_t nframes = s.u64();
    DTA_CHECK_MSG(nframes == frames_.size(),
                  "snapshot frame count does not match the configuration");
    for (Frame& f : frames_) {
        f.state = static_cast<FrameState>(s.u8());
        f.code = s.u32();
        f.uid = s.u64();
        f.sc = s.u32();
        f.dma_pending = s.u32();
        f.resume_ip = s.u32();
        f.has_snapshot = s.flag();
        load_thread_snapshot(s, f.snapshot);
        f.stores_in_flight = s.u32();
        f.ready_at = s.u64();
        f.suspend_at = s.u64();
    }
    sim::load_seq(s, free_slots_,
                  [](sim::StateSource& k, std::uint32_t& v) { v = k.u32(); });
    sim::load_seq(s, ready_,
                  [](sim::StateSource& k, std::uint32_t& v) { v = k.u32(); });
    sim::load_seq(s, outbox_, load_sched_msg);
    sim::load_seq(s, falloc_done_, [](sim::StateSource& k, FallocDone& d) {
        d.rd = k.u8();
        d.handle = sim::FrameHandle::unpack(k.u64());
    });
    dispatch_pending_ = s.flag();
    dispatch_ready_at_ = s.u64();
    live_frames_ = s.u32();
    waitdma_count_ = s.u32();
    ls_write_seq_ = s.u64();
    uid_seq_ = s.u64();
    virtual_.clear();
    const std::uint64_t nvirtual = s.u64();
    for (std::uint64_t i = 0; i < nvirtual; ++i) {
        const std::uint32_t vid = s.u32();
        VirtualFrame vf;
        vf.code = s.u32();
        vf.uid = s.u64();
        vf.sc = s.u32();
        sim::load_seq(s, vf.stores,
                      [](sim::StateSource& k, BufferedStore& b) {
                          b.word_off = k.u32();
                          b.value = k.u64();
                          b.producer = k.u64();
                      });
        vf.complete = s.flag();
        virtual_.emplace(vid, std::move(vf));
    }
    sim::load_seq(s, materialize_queue_,
                  [](sim::StateSource& k, std::uint32_t& v) { v = k.u32(); });
    next_virtual_id_ = s.u32();
    stats_.frames_allocated = s.u64();
    stats_.frames_freed = s.u64();
    stats_.local_stores = s.u64();
    stats_.remote_stores_in = s.u64();
    stats_.remote_stores_out = s.u64();
    stats_.dispatches = s.u64();
    stats_.dma_suspends = s.u64();
    stats_.dma_immediate = s.u64();
    stats_.peak_live_frames = s.u32();
    stats_.virtual_allocations = s.u64();
    stats_.peak_virtual_frames = s.u32();
    now_ = s.u64();
    sim::load_seq(s, write_producers_,
                  [](sim::StateSource& k, std::uint64_t& v) { v = k.u64(); });
    falloc_issue_.clear();
    const std::uint64_t nissue = s.u64();
    for (std::uint64_t i = 0; i < nissue; ++i) {
        const std::uint8_t rd = s.u8();
        std::deque<sim::Cycle>& issues = falloc_issue_[rd];
        sim::load_seq(s, issues,
                      [](sim::StateSource& k, sim::Cycle& c) { c = k.u64(); });
    }
}

}  // namespace dta::sched
