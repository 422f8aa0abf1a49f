// TelemetrySampler mechanics: bounded-ring eviction order, the NDJSON line
// formats dta_top parses, and the stream writer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/check.hpp"
#include "sim/telemetry.hpp"

namespace dta::sim {
namespace {

TelemetryFrame frame_at(std::uint64_t cycle, std::uint64_t retired) {
    TelemetryFrame f;
    f.cycle = cycle;
    f.instrs_retired = retired;
    return f;
}

TEST(Telemetry, ConfigMustBeSane) {
    TelemetryConfig bad;
    bad.interval = 0;
    EXPECT_THROW(TelemetrySampler{bad}, SimError);
    bad = TelemetryConfig{};
    bad.ring_capacity = 0;
    EXPECT_THROW(TelemetrySampler{bad}, SimError);
}

TEST(Telemetry, RingKeepsNewestAndCountsDrops) {
    TelemetryConfig cfg;
    cfg.ring_capacity = 4;
    TelemetrySampler s(cfg);
    for (std::uint64_t i = 0; i < 10; ++i) {
        s.record(frame_at(i * 100, i));
    }
    const TelemetryResult r = s.result();
    EXPECT_TRUE(r.enabled);
    EXPECT_EQ(r.captured, 10u);
    EXPECT_EQ(r.dropped, 6u);
    ASSERT_EQ(r.frames.size(), 4u);
    // Oldest-first drain of the newest window.
    EXPECT_EQ(r.frames.front().cycle, 600u);
    EXPECT_EQ(r.frames.back().cycle, 900u);
    EXPECT_EQ(s.latest().cycle, 900u);
}

TEST(Telemetry, RingBelowCapacityKeepsEverything) {
    TelemetryConfig cfg;
    cfg.ring_capacity = 8;
    TelemetrySampler s(cfg);
    s.record(frame_at(0, 1));
    s.record(frame_at(100, 2));
    const TelemetryResult r = s.result();
    EXPECT_EQ(r.dropped, 0u);
    ASSERT_EQ(r.frames.size(), 2u);
    EXPECT_EQ(r.frames[0].cycle, 0u);
    EXPECT_EQ(r.frames[1].cycle, 100u);
}

TEST(Telemetry, NdjsonFrameLine) {
    TelemetryFrame f;
    f.cycle = 12800;
    f.pes_running = 3;
    f.threads_ready = 5;
    f.threads_waitdma = 2;
    f.frames_live = 9;
    f.mfc_commands = 4;
    f.dma_bytes = 512;
    f.mem_queue = 1;
    f.noc_pending = 6;
    f.instrs_retired = 777;
    f.host_ns = 1234;
    f.wheel_armed = 11;
    f.wheel_pops = 999;
    f.wheel_inserts = 1500;
    const std::string line = TelemetrySampler::ndjson_line(f);
    EXPECT_EQ(line,
              "{\"type\":\"frame\",\"cycle\":12800,\"running\":3,"
              "\"ready\":5,\"waitdma\":2,\"frames_live\":9,"
              "\"mfc_commands\":4,\"dma_bytes\":512,\"mem_queue\":1,"
              "\"noc_pending\":6,\"instrs_retired\":777,\"host_ns\":1234,"
              "\"wheel_armed\":11,\"wheel_pops\":999,"
              "\"wheel_inserts\":1500}\n");
}

TEST(Telemetry, NdjsonStallLineEscapes) {
    TelemetryStall st;
    st.cycle = 500;
    st.stalled_cycles = 400;
    st.components = "mfc0 \"queue\"\nlse1 c:\\x";
    st.replay = "dta_run p.dta --restore snap";
    const std::string line = TelemetrySampler::ndjson_stall_line(st);
    EXPECT_EQ(line,
              "{\"type\":\"stall\",\"cycle\":500,"
              "\"stalled_cycles\":400,"
              "\"components\":\"mfc0 \\\"queue\\\"\\nlse1 c:\\\\x\","
              "\"replay\":\"dta_run p.dta --restore snap\"}\n");
}

TEST(Telemetry, StreamWritesOneLinePerFrame) {
    // A plain file stands in for the FIFO: same fopen/fwrite path.
    TelemetryConfig cfg;
    const std::string path = ::testing::TempDir() + "telemetry_stream.ndjson";
    cfg.stream_path = path;
    {
        TelemetrySampler s(cfg);
        s.record(frame_at(0, 1));
        s.record(frame_at(100, 2));
    }
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    int lines = 0;
    char buf[512];
    std::string first;
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
        if (lines == 0) {
            first = buf;
        }
        ++lines;
    }
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(lines, 2);
    EXPECT_NE(first.find("\"type\":\"frame\""), std::string::npos);
    EXPECT_NE(first.find("\"cycle\":0"), std::string::npos);
}

TEST(Telemetry, StallLineFollowsTheFrames) {
    // The deadlock detector hands its stall to the sampler, which appends
    // it to the stream after the frames; without a stream it is a no-op.
    TelemetryConfig cfg;
    TelemetryStall st;
    st.cycle = 300;
    st.components = "pe0";
    TelemetrySampler quiet(cfg);
    quiet.record_stall(st);
    EXPECT_EQ(quiet.captured(), 0u);

    const std::string path = ::testing::TempDir() + "telemetry_stall.ndjson";
    cfg.stream_path = path;
    {
        TelemetrySampler s(cfg);
        s.record(frame_at(0, 1));
        s.record(frame_at(256, 2));
        s.record_stall(st);
    }
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::vector<std::string> lines;
    char buf[512];
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
        lines.emplace_back(buf);
    }
    std::fclose(f);
    std::remove(path.c_str());
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[2], TelemetrySampler::ndjson_stall_line(st));
}

TEST(Telemetry, UnwritableStreamPathIsRefused) {
    TelemetryConfig cfg;
    cfg.stream_path = "/nonexistent-dir/telemetry.ndjson";
    EXPECT_THROW(TelemetrySampler{cfg}, SimError);
}

}  // namespace
}  // namespace dta::sim
