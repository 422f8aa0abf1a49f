#include "sim/telemetry.hpp"

#include <cinttypes>
#include <cstdio>

#include "sim/check.hpp"

namespace dta::sim {

TelemetrySampler::TelemetrySampler(const TelemetryConfig& cfg) : cfg_(cfg) {
    DTA_SIM_REQUIRE(cfg_.interval > 0, "telemetry interval must be positive");
    DTA_SIM_REQUIRE(cfg_.ring_capacity > 0,
                    "telemetry ring capacity must be positive");
    ring_.resize(cfg_.ring_capacity);
    if (!cfg_.stream_path.empty()) {
        // A FIFO open blocks until the reader side opens — exactly the
        // hand-off `dta_run --telemetry-fifo p & dta_top p` wants.
        stream_ = std::fopen(cfg_.stream_path.c_str(), "w");
        DTA_SIM_REQUIRE(stream_ != nullptr, "cannot open telemetry stream '" +
                                                cfg_.stream_path + "'");
    }
}

TelemetrySampler::~TelemetrySampler() {
    if (stream_ != nullptr) {
        std::fclose(stream_);
    }
}

void TelemetrySampler::record(const TelemetryFrame& frame) {
    latest_ = frame;
    ++captured_;
    if (size_ == ring_.size()) {
        ring_[head_] = frame;  // overwrite the oldest
        head_ = (head_ + 1) % ring_.size();
        ++dropped_;
    } else {
        ring_[(head_ + size_) % ring_.size()] = frame;
        ++size_;
    }
    if (stream_ != nullptr) {
        write_line(ndjson_line(frame));
    }
}

void TelemetrySampler::record_stall(const TelemetryStall& stall) {
    if (stream_ != nullptr) {
        write_line(ndjson_stall_line(stall));
    }
}

void TelemetrySampler::write_line(const std::string& line) {
    std::fwrite(line.data(), 1, line.size(), stream_);
    std::fflush(stream_);  // the reader tails a live run
}

TelemetryResult TelemetrySampler::result() const {
    TelemetryResult r;
    r.enabled = true;
    r.interval = cfg_.interval;
    r.frames.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) {
        r.frames.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    r.captured = captured_;
    r.dropped = dropped_;
    return r;
}

std::string TelemetrySampler::ndjson_line(const TelemetryFrame& f) {
    char buf[512];
    const int n = std::snprintf(
        buf, sizeof buf,
        "{\"type\":\"frame\",\"cycle\":%" PRIu64 ",\"running\":%" PRIu32
        ",\"ready\":%" PRIu32 ",\"waitdma\":%" PRIu32
        ",\"frames_live\":%" PRIu32 ",\"mfc_commands\":%" PRIu32
        ",\"dma_bytes\":%" PRIu64 ",\"mem_queue\":%" PRIu32
        ",\"noc_pending\":%" PRIu32 ",\"instrs_retired\":%" PRIu64
        ",\"host_ns\":%" PRIu64 ",\"wheel_armed\":%" PRIu64
        ",\"wheel_pops\":%" PRIu64 ",\"wheel_inserts\":%" PRIu64 "}\n",
        f.cycle, f.pes_running, f.threads_ready, f.threads_waitdma,
        f.frames_live, f.mfc_commands, f.dma_bytes, f.mem_queue,
        f.noc_pending, f.instrs_retired, f.host_ns, f.wheel_armed,
        f.wheel_pops, f.wheel_inserts);
    DTA_CHECK(n > 0 && static_cast<std::size_t>(n) < sizeof buf);
    return std::string(buf, static_cast<std::size_t>(n));
}

std::string TelemetrySampler::ndjson_stall_line(const TelemetryStall& s) {
    // Component names and the replay hint are free-form text: escape the
    // characters JSON cares about.
    const auto esc = [](const std::string& in) {
        std::string out;
        out.reserve(in.size());
        for (const char c : in) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (c == '\n') {
                out += "\\n";
            } else {
                out += c;
            }
        }
        return out;
    };
    std::string line = "{\"type\":\"stall\",\"cycle\":";
    line += std::to_string(s.cycle);
    line += ",\"stalled_cycles\":";
    line += std::to_string(s.stalled_cycles);
    line += ",\"components\":\"";
    line += esc(s.components);
    line += "\",\"replay\":\"";
    line += esc(s.replay);
    line += "\"}\n";
    return line;
}

}  // namespace dta::sim
