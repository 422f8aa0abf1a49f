/// \file mfc.hpp
/// \brief The Memory Flow Controller — the per-SPE DMA engine the paper's
///        prefetch mechanism programs (Tables 3 & 4).
///
/// Commands carry the Table-3 parameter set: LS address, MEM address, data
/// size and a tag id that the LSE later uses to learn that the transfer
/// completed.  Strided transfers are a single command (Section 3: a strided
/// array access "could generate too many transactions [on a split-transaction
/// network] and DMA performs it in one transaction").
///
/// Timing model, matching Table 4:
///  * a bounded command queue (depth 16);
///  * one command is decoded at a time, taking `command_latency` (30) cycles;
///  * a decoded GET splits into line requests of at most `line_bytes` (128)
///    each (one request per element when strided); the enclosing PE ships
///    them over the NoC to the memory controller and feeds the returned data
///    back in;
///  * returned lines are written to the local store through the MFC's LS
///    client port (so DMA traffic really contends with the SPU and LSE);
///  * when every line of a command has been written, a completion with the
///    command's tag is published.
///
/// PUT commands (LS -> main memory) are implemented for completeness: lines
/// are read from the LS and handed out with payload attached.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "mem/local_store.hpp"
#include "sim/component.hpp"
#include "sim/metrics.hpp"
#include "sim/types.hpp"

namespace dta::sim {
class AuditCtx;
}

namespace dta::dma {

/// Configuration of one MFC (defaults = Table 4).
struct MfcConfig {
    std::uint32_t queue_depth = 16;      ///< command queue size
    std::uint32_t command_latency = 30;  ///< decode latency per command
    std::uint32_t line_bytes = 128;      ///< largest single bus transfer
    std::uint32_t max_outstanding_lines = 8;  ///< in-flight line requests
};

/// Transfer direction.
enum class MfcOp : std::uint8_t { kGet, kPut };

/// One DMA command (Table 3 parameters + bookkeeping).
struct MfcCommand {
    MfcOp op = MfcOp::kGet;
    std::uint32_t tag = 0;        ///< Table 3 "Tag ID"
    sim::MemAddr mem_addr = 0;    ///< Table 3 "MEM address"
    sim::LsAddr ls_addr = 0;      ///< Table 3 "LS address"
    std::uint32_t bytes = 0;      ///< Table 3 "Data size"
    std::uint32_t stride = 0;     ///< 0 = contiguous
    std::uint32_t elem_bytes = 0; ///< element size when strided
    std::uint64_t owner = 0;      ///< opaque owner context (frame handle)
};

/// A line-granularity memory request produced by a decoded command.
struct MfcLineRequest {
    std::uint64_t line_id = 0;  ///< MFC-internal correlation id
    MfcOp op = MfcOp::kGet;
    sim::MemAddr mem_addr = 0;
    std::uint32_t bytes = 0;
    std::vector<std::uint8_t> data;  ///< payload for PUT lines
};

/// Published when the last line of a command lands.
struct MfcCompletion {
    std::uint32_t tag = 0;
    std::uint64_t owner = 0;
};

/// One completed DMA command's lifetime (program → tag-complete), recorded
/// when a span sink is installed; rendered as timeline slices by
/// core/trace.cpp.
struct DmaSpan {
    std::uint32_t pe = 0;
    std::uint32_t tag = 0;
    MfcOp op = MfcOp::kGet;
    std::uint32_t bytes = 0;
    sim::Cycle begin = 0;
    sim::Cycle end = 0;  ///< exclusive
};

/// One SPE's DMA engine.
class Mfc final : public sim::Component {
public:
    /// \p ls is the local store DMA data is staged in/out of; not owned.
    Mfc(const MfcConfig& cfg, mem::LocalStore& ls);

    /// True if the command queue has a free slot.
    [[nodiscard]] bool can_enqueue() const {
        return queue_.size() < cfg_.queue_depth;
    }

    /// Enqueues a command; returns false when the queue is full.
    [[nodiscard]] bool try_enqueue(MfcCommand cmd);

    /// Advances decode, line issue, and LS write-back by one cycle;
    /// returns the horizon.
    sim::Cycle tick(sim::Cycle now) override {
        step(now);
        return next_activity(now);
    }

    /// tick() without the horizon, which the owning PE folds in after its
    /// own drains.  The work runs only when there is input (a command
    /// queued or decoding, an LS response, or a line waiting for an
    /// outstanding-line slot); otherwise the cycle just stamps now_ for
    /// the off-tick calls.
    void step(sim::Cycle now) {
        if (decoding_ || !queue_.empty() ||
            (lines_unemitted_ > 0 &&
             lines_in_flight_ < cfg_.max_outstanding_lines) ||
            ls_.has_response(mem::LsClient::kMfc)) {
            advance(now);
        } else {
            now_ = now;
        }
    }

    /// Horizon: emitted-but-unfetched lines and fresh completions need the
    /// owning PE next cycle; a decode in progress matures at
    /// decode_done_at_; lines in flight wait on external data (reported by
    /// whichever component carries them).
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) const {
        // Outputs waiting for the owning PE to drain them: retry next cycle.
        if (!completions_.empty() || !ready_lines_.empty()) {
            return now + 1;
        }
        if (decoding_) {
            return decode_done_at_ > now ? decode_done_at_ : now + 1;
        }
        if (!queue_.empty()) {
            return now + 1;  // start_decode would run on the next tick
        }
        // Lines in flight (line_table_) and fully-emitted active commands
        // wait on external data/acks; the carrier's horizon bounds the jump.
        return sim::kIdleForever;
    }

    /// Skipped cycles only need the stale-by-one event timestamp updated:
    /// off-tick calls (ack_put_line) observe the previous cycle's now_,
    /// exactly as they would after a real tick at to - 1.
    void skip(sim::Cycle from, sim::Cycle to) override {
        (void)from;
        now_ = to - 1;
    }

    /// Hands the next issued line request to the caller (who owns NoC
    /// transport); respects the outstanding-line limit.
    [[nodiscard]] bool pop_line_request(MfcLineRequest& out) {
        if (ready_lines_.empty()) {
            return false;
        }
        out = std::move(ready_lines_.front());
        ready_lines_.pop_front();
        return true;
    }

    /// Delivers the data for a previously popped GET line request.
    void deliver_line_data(std::uint64_t line_id,
                           std::span<const std::uint8_t> data);

    /// Acknowledges a PUT line reaching memory.
    void ack_put_line(std::uint64_t line_id);

    /// Pops the next command completion, if any.
    [[nodiscard]] bool pop_completion(MfcCompletion& out) {
        if (completions_.empty()) {
            return false;
        }
        out = completions_.front();
        completions_.pop_front();
        return true;
    }

    /// True when no command or line is pending anywhere in the engine.
    [[nodiscard]] bool quiescent() const override;

    /// Invariant audit (sim/audit.hpp): line/tag accounting — the in-flight
    /// counter, line table, free-slot list, and per-command line ledgers
    /// must stay mutually consistent, and every in-flight line must target
    /// a valid LS range.  Read-only; reports violations through \p ctx.
    void audit(const sim::AuditCtx& ctx) const;

    [[nodiscard]] const MfcConfig& config() const { return cfg_; }

    // --- observability ------------------------------------------------------
    /// Resolves this MFC's instruments (no-op when \p reg is disabled):
    /// dma.tag_latency histogram and dma.* counters.
    void attach_metrics(sim::MetricsRegistry& reg);
    /// Installs a sink receiving one DmaSpan per completed command;
    /// \p pe labels the spans with the owning PE.
    void set_span_sink(std::vector<DmaSpan>* sink, std::uint32_t pe) {
        span_sink_ = sink;
        span_pe_ = pe;
    }

    // --- statistics ---------------------------------------------------------
    [[nodiscard]] std::uint64_t commands_completed() const {
        return commands_completed_;
    }
    [[nodiscard]] std::uint64_t bytes_transferred() const { return bytes_; }
    [[nodiscard]] std::uint64_t enqueue_rejections() const {
        return rejections_;
    }
    [[nodiscard]] std::size_t queued_commands() const {
        return queue_.size() + (decoding_ ? 1 : 0);
    }
    /// Line requests issued to the NoC/memory and not yet finished.
    [[nodiscard]] std::uint32_t lines_in_flight() const {
        return lines_in_flight_;
    }
    /// Commands anywhere in the engine: queued, decoding, or transferring.
    [[nodiscard]] std::size_t commands_in_flight() const;

    // --- checkpoint/restore -------------------------------------------------
    /// Serializes the command queue, the decode in progress, every active
    /// command's line ledger, emitted-but-unfetched lines, the in-flight
    /// line table, completions, and statistics — a snapshot taken mid-DMA
    /// restores with the transfer still in flight.
    void save_state(sim::StateSink& s) const override;
    void load_state(sim::StateSource& s) override;

private:
    struct ActiveCommand {
        MfcCommand cmd;
        sim::Cycle enqueued_at = 0;        ///< cycle the SPU programmed it
        std::uint32_t lines_total = 0;
        std::uint32_t lines_emitted = 0;   ///< line requests generated
        std::uint32_t lines_finished = 0;  ///< data written to LS / acked
        bool done() const { return lines_finished == lines_total; }
    };

    struct LineInfo {
        std::size_t active_idx = 0;  ///< index into active_ (stable via ids)
        sim::LsAddr ls_addr = 0;
        std::uint32_t bytes = 0;
    };

    /// One cycle's work, ungated (step() decides whether it runs).
    void advance(sim::Cycle now);
    void start_decode(sim::Cycle now);
    void emit_lines();
    /// Publishes the completion (and metrics) when every line landed.
    void finish_if_done(std::size_t active_idx, sim::Cycle now);
    [[nodiscard]] static std::uint32_t count_lines(const MfcCommand& cmd,
                                                   std::uint32_t line_bytes);

    MfcConfig cfg_;
    mem::LocalStore& ls_;
    std::deque<MfcCommand> queue_;
    std::deque<sim::Cycle> queue_times_;  ///< enqueue cycle, parallel to queue_
    bool decoding_ = false;
    sim::Cycle decode_done_at_ = 0;
    MfcCommand decode_cmd_;
    sim::Cycle decode_cmd_enq_at_ = 0;
    std::vector<ActiveCommand> active_;    ///< indexed by slot; freed lazily
    std::deque<std::size_t> free_slots_;
    std::deque<MfcLineRequest> ready_lines_;  ///< emitted, waiting for pickup
    std::uint64_t next_line_id_ = 1;
    std::vector<std::pair<std::uint64_t, LineInfo>> line_table_;  ///< in-flight
    std::uint32_t lines_in_flight_ = 0;
    /// Lines of decoded commands not yet emitted; derived from active_
    /// (recomputed on load, never serialized).
    std::uint32_t lines_unemitted_ = 0;
    std::deque<MfcCompletion> completions_;
    std::uint64_t commands_completed_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t rejections_ = 0;

    // observability (all optional; null when metrics are off)
    sim::Cycle now_ = 0;  ///< last tick time, for off-tick event stamps
    sim::Histogram* tag_latency_ = nullptr;
    sim::Counter* commands_ctr_ = nullptr;
    sim::Counter* bytes_ctr_ = nullptr;
    std::vector<DmaSpan>* span_sink_ = nullptr;
    std::uint32_t span_pe_ = 0;
};

}  // namespace dta::dma
