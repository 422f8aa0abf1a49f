#include "core/trace.hpp"

#include <sstream>

namespace dta::core {

namespace {

/// Emits one event object, managing the leading comma.
class EventWriter {
public:
    explicit EventWriter(std::ostringstream& os) : os_(os) { os_ << "[\n"; }

    std::ostringstream& next() {
        if (!first_) {
            os_ << ",\n";
        }
        first_ = false;
        return os_;
    }

    void finish() { os_ << "\n]\n"; }

private:
    std::ostringstream& os_;
    bool first_ = true;
};

void emit_process_name(EventWriter& w, int pid, const char* name) {
    w.next() << R"(  {"name": "process_name", "ph": "M", "pid": )" << pid
             << R"(, "args": {"name": ")" << name << R"("}})";
}

/// Perfetto row metadata: name and pin the SPU tracks in PE-id order.  The
/// set of rows is derived from the spans so empty runs emit nothing.
void emit_spu_track_names(EventWriter& w, std::span<const ThreadSpan> spans) {
    std::uint32_t max_pe = 0;
    if (spans.empty()) {
        return;
    }
    for (const ThreadSpan& s : spans) {
        max_pe = s.pe > max_pe ? s.pe : max_pe;
    }
    for (std::uint32_t pe = 0; pe <= max_pe; ++pe) {
        w.next() << R"(  {"name": "thread_name", "ph": "M", "pid": 0, "tid": )"
                 << pe << R"(, "args": {"name": "spu)" << pe << R"("}})";
        w.next() << R"(  {"name": "thread_sort_index", "ph": "M", "pid": 0, )"
                 << R"("tid": )" << pe << R"(, "args": {"sort_index": )" << pe
                 << "}}";
    }
}

void emit_thread_slices(EventWriter& w, std::span<const ThreadSpan> spans,
                        std::span<const std::string> code_names) {
    for (const ThreadSpan& s : spans) {
        const std::string name =
            s.code < code_names.size() ? code_names[s.code]
                                       : "code" + std::to_string(s.code);
        w.next() << R"(  {"name": ")" << name
                 << (s.resumed ? " (resume)" : "")
                 << R"(", "cat": "thread", "ph": "X", "ts": )" << s.begin
                 << R"(, "dur": )" << (s.end - s.begin)
                 << R"(, "pid": 0, "tid": )" << s.pe
                 << R"(, "args": {"slot": )" << s.slot << "}}";
    }
}

}  // namespace

std::string chrome_trace_json(const TraceInput& in) {
    const bool host = in.host != nullptr && in.host->enabled;
    const bool frames = in.telemetry != nullptr && in.telemetry->enabled &&
                        !in.telemetry->frames.empty();
    std::ostringstream os;
    EventWriter w(os);
    emit_process_name(w, 0, "SPUs");
    emit_process_name(w, 2, "DMA");
    if (host) {
        emit_process_name(w, 3, "host");
    }
    if (in.wheel && frames) {
        emit_process_name(w, 4, "wheel");
    }
    if (frames) {
        emit_process_name(w, 5, "telemetry");
    }
    emit_spu_track_names(w, in.spans);
    emit_thread_slices(w, in.spans, in.code_names);

    // DMA transfers as async begin/end pairs so concurrent commands on one
    // MFC stack instead of colliding on a thread track.
    std::uint64_t id = 0;
    for (const dma::DmaSpan& d : in.dma_spans) {
        const char* op = d.op == dma::MfcOp::kGet ? "GET" : "PUT";
        w.next() << R"(  {"name": ")" << op << ' ' << d.bytes
                 << R"(B", "cat": "dma", "ph": "b", "id": )" << id
                 << R"(, "ts": )" << d.begin << R"(, "pid": 2, "tid": )"
                 << d.pe << R"(, "args": {"tag": )" << d.tag
                 << R"(, "bytes": )" << d.bytes << "}}";
        w.next() << R"(  {"name": ")" << op << ' ' << d.bytes
                 << R"(B", "cat": "dma", "ph": "e", "id": )" << id
                 << R"(, "ts": )" << d.end << R"(, "pid": 2, "tid": )" << d.pe
                 << "}";
        ++id;
    }

    // Dataflow arrows: a flow starts inside the producer's slice ("ph":"s")
    // and ends at the consumer's dispatch ("ph":"f", "bp":"e" binds to the
    // enclosing slice even though the timestamp is its left edge).
    std::uint64_t flow_id = 0;
    for (const TraceFlow& f : in.flows) {
        const char* name = f.on_critical_path ? "critical-store" : "store";
        w.next() << R"(  {"name": ")" << name
                 << R"(", "cat": "dataflow", "ph": "s", "id": )" << flow_id
                 << R"(, "ts": )" << f.src_cycle << R"(, "pid": 0, "tid": )"
                 << f.src_pe << "}";
        w.next() << R"(  {"name": ")" << name
                 << R"(", "cat": "dataflow", "ph": "f", "bp": "e", "id": )"
                 << flow_id << R"(, "ts": )" << f.dst_cycle
                 << R"(, "pid": 0, "tid": )" << f.dst_pe << "}";
        ++flow_id;
    }

    // Host-side tracks: per (row group, phase), the host nanoseconds burnt
    // in each telemetry interval, plotted against simulated time.  The
    // snapshots carry cumulative totals, so each point is a delta from the
    // previous one; phases a group never touched are skipped entirely.
    if (host) {
        for (const sim::HostProfileShard& s : in.host->shards) {
            for (std::size_t p = 0; p < sim::kNumProfPhases; ++p) {
                if (s.phase_ns[p] == 0) {
                    continue;
                }
                std::uint64_t prev = 0;
                for (const sim::ProfSnapshot& snap : s.samples) {
                    w.next() << R"(  {"name": ")" << s.name << '/'
                             << sim::prof_phase_name(
                                    static_cast<sim::ProfPhase>(p))
                             << R"j( (ns)", "cat": "host", "ph": "C", "ts": )j"
                             << snap.cycle << R"(, "pid": 3, "args": )"
                             << R"({"value": )" << snap.ns[p] - prev << "}}";
                    prev = snap.ns[p];
                }
            }
        }
    }
    // Event-driven scheduler tracks from the frames' host-side tail: the
    // armed-component count plus pop and insert *rates* over each interval
    // (the frames carry cumulative totals, so each point is a delta).
    if (in.wheel && frames) {
        const auto counter = [&w](const char* name, sim::Cycle ts,
                                  std::uint64_t value) {
            w.next() << R"(  {"name": "wheel/)" << name
                     << R"(", "cat": "wheel", "ph": "C", "ts": )" << ts
                     << R"(, "pid": 4, "args": {"value": )" << value << "}}";
        };
        std::uint64_t prev_pops = 0;
        std::uint64_t prev_inserts = 0;
        for (const sim::TelemetryFrame& f : in.telemetry->frames) {
            counter("armed", f.cycle, f.wheel_armed);
            counter("pops", f.cycle, f.wheel_pops - prev_pops);
            counter("inserts", f.cycle, f.wheel_inserts - prev_inserts);
            prev_pops = f.wheel_pops;
            prev_inserts = f.wheel_inserts;
        }
    }
    // Live-telemetry tracks: machine-wide occupancy and queue depths at the
    // sampler's cadence, plus the retired-instruction count as a
    // per-interval delta (the frames carry cumulative totals).  Only
    // simulated-state fields are drawn — host_ns and the wheel counters
    // stay out so traces remain comparable across wheel modes.
    if (frames) {
        const auto counter = [&w](const char* name, sim::Cycle ts,
                                  std::uint64_t value) {
            w.next() << R"(  {"name": ")" << name
                     << R"(", "cat": "telemetry", "ph": "C", "ts": )" << ts
                     << R"(, "pid": 5, "args": {"value": )" << value << "}}";
        };
        std::uint64_t prev_retired = 0;
        for (const sim::TelemetryFrame& f : in.telemetry->frames) {
            counter("spus_running", f.cycle, f.pes_running);
            counter("threads_ready", f.cycle, f.threads_ready);
            counter("threads_waitdma", f.cycle, f.threads_waitdma);
            counter("frames_live", f.cycle, f.frames_live);
            counter("mfc_commands", f.cycle, f.mfc_commands);
            counter("dma_bytes_in_flight", f.cycle, f.dma_bytes);
            counter("mem_queue", f.cycle, f.mem_queue);
            counter("noc_pending", f.cycle, f.noc_pending);
            counter("instrs_retired/interval", f.cycle,
                    f.instrs_retired - prev_retired);
            prev_retired = f.instrs_retired;
        }
    }
    w.finish();
    return os.str();
}

}  // namespace dta::core
