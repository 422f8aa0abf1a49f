// Unit tests for the MFC: command queue bounds, decode latency, line
// splitting, strided gathers, PUTs, tag completions.
#include "dma/mfc.hpp"

#include <gtest/gtest.h>

#include "sim/check.hpp"
#include "sim/metrics.hpp"

namespace dta::dma {
namespace {

/// Drives the MFC against a zero-latency fake memory until quiescent;
/// returns the cycle the first completion appeared and collects line sizes.
struct Harness {
    mem::LocalStore ls{mem::LocalStoreConfig{}};
    Mfc mfc;
    std::vector<std::uint8_t> memory;  // fake main memory backing
    std::vector<MfcLineRequest> lines_seen;
    std::vector<MfcCompletion> completions;

    explicit Harness(const MfcConfig& cfg = MfcConfig{})
        : mfc(cfg, ls), memory(1 << 20, 0) {
        for (std::size_t i = 0; i < memory.size(); ++i) {
            memory[i] = static_cast<std::uint8_t>(i * 7 + 1);
        }
    }

    void run(sim::Cycle cycles) {
        for (sim::Cycle now = 0; now < cycles; ++now) {
            ls.tick(now);
            mfc.tick(now);
            MfcLineRequest line;
            while (mfc.pop_line_request(line)) {
                lines_seen.push_back(line);
                if (line.op == MfcOp::kGet) {
                    // Instant fake memory: return data next tick.
                    sim::Payload data;
                    data.assign(
                        memory.begin() + static_cast<long>(line.mem_addr),
                        memory.begin() +
                            static_cast<long>(line.mem_addr + line.bytes));
                    mfc.deliver_line_data(line.line_id, std::move(data));
                } else {
                    // Apply the PUT and ack.
                    for (std::uint32_t i = 0; i < line.bytes; ++i) {
                        memory[line.mem_addr + i] = line.data[i];
                    }
                    mfc.ack_put_line(line.line_id);
                }
            }
            MfcCompletion comp;
            while (mfc.pop_completion(comp)) {
                completions.push_back(comp);
            }
        }
    }
};

MfcCommand get_cmd(std::uint32_t bytes, sim::MemAddr src = 0x1000,
                   sim::LsAddr dst = 0x100) {
    MfcCommand cmd;
    cmd.op = MfcOp::kGet;
    cmd.tag = 3;
    cmd.mem_addr = src;
    cmd.ls_addr = dst;
    cmd.bytes = bytes;
    cmd.owner = 42;
    return cmd;
}

TEST(Mfc, QueueDepthSixteenEnforced) {
    Harness h;
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(16)));
    }
    EXPECT_FALSE(h.mfc.can_enqueue());
    EXPECT_FALSE(h.mfc.try_enqueue(get_cmd(16)));
    EXPECT_EQ(h.mfc.enqueue_rejections(), 1u);
}

TEST(Mfc, RejectsInvalidCommands) {
    Harness h;
    EXPECT_THROW((void)h.mfc.try_enqueue(get_cmd(0)), sim::SimError);
    MfcCommand strided = get_cmd(64);
    strided.stride = 8;
    strided.elem_bytes = 16;  // elements overlap
    EXPECT_THROW((void)h.mfc.try_enqueue(strided), sim::SimError);
    MfcCommand overflow = get_cmd(1024, 0, 256 * 1024 - 4);
    EXPECT_THROW((void)h.mfc.try_enqueue(overflow), sim::SimError);
}

TEST(Mfc, ContiguousGetSplitsIntoLines) {
    Harness h;
    ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(300)));  // 128 + 128 + 44
    h.run(200);
    ASSERT_EQ(h.lines_seen.size(), 3u);
    EXPECT_EQ(h.lines_seen[0].bytes, 128u);
    EXPECT_EQ(h.lines_seen[1].bytes, 128u);
    EXPECT_EQ(h.lines_seen[2].bytes, 44u);
    EXPECT_EQ(h.lines_seen[1].mem_addr, 0x1080u);
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].tag, 3u);
    EXPECT_EQ(h.completions[0].owner, 42u);
    EXPECT_EQ(h.mfc.bytes_transferred(), 300u);
    EXPECT_TRUE(h.mfc.quiescent());
}

TEST(Mfc, GetDataLandsInLocalStore) {
    Harness h;
    ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(64, 0x2000, 0x400)));
    h.run(200);
    for (std::uint32_t i = 0; i < 16; ++i) {  // 64 bytes = 16 u32 words
        ASSERT_EQ(h.ls.read_u32(0x400 + i * 4) & 0xff,
                  h.memory[0x2000 + i * 4]);
    }
}

TEST(Mfc, CommandLatencyDelaysFirstLine) {
    MfcConfig cfg;
    cfg.command_latency = 30;
    Harness h(cfg);
    ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(16)));
    // Tick exactly 30 cycles: decode finishes at cycle 30, so no line yet
    // at cycle 29.
    for (sim::Cycle now = 0; now < 30; ++now) {
        h.ls.tick(now);
        h.mfc.tick(now);
        MfcLineRequest line;
        ASSERT_FALSE(h.mfc.pop_line_request(line))
            << "line emitted before command decode finished (cycle " << now
            << ")";
    }
    h.mfc.tick(30);
    MfcLineRequest line;
    EXPECT_TRUE(h.mfc.pop_line_request(line));
}

TEST(Mfc, StridedGatherOneCommandManyElements) {
    // Section 3: a strided access "could generate too many transactions
    // [individually] and DMA performs it in one transaction" — one command,
    // element_count line requests, gathered contiguously into the LS.
    Harness h;
    MfcCommand cmd = get_cmd(32, 0x3000, 0x800);
    cmd.stride = 128;     // one u64 every 128 bytes
    cmd.elem_bytes = 8;   // 4 elements (32 / 8)
    ASSERT_TRUE(h.mfc.try_enqueue(cmd));
    h.run(300);
    ASSERT_EQ(h.lines_seen.size(), 4u);
    EXPECT_EQ(h.lines_seen[0].mem_addr, 0x3000u);
    EXPECT_EQ(h.lines_seen[1].mem_addr, 0x3080u);
    EXPECT_EQ(h.lines_seen[3].mem_addr, 0x3180u);
    for (auto& l : h.lines_seen) {
        EXPECT_EQ(l.bytes, 8u);
    }
    // Gathered packing: element i at ls_addr + i*8.
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(h.ls.read_u64(0x800 + i * 8) & 0xff,
                  h.memory[0x3000 + i * 128]);
    }
    ASSERT_EQ(h.completions.size(), 1u);
}

TEST(Mfc, OutstandingLineLimitThrottles) {
    MfcConfig cfg;
    cfg.max_outstanding_lines = 2;
    cfg.command_latency = 1;
    mem::LocalStore ls{mem::LocalStoreConfig{}};
    Mfc mfc(cfg, ls);
    ASSERT_TRUE(mfc.try_enqueue(get_cmd(128 * 6)));
    // Never deliver data: the MFC must stop emitting after 2 lines.
    std::size_t emitted = 0;
    for (sim::Cycle now = 0; now < 50; ++now) {
        ls.tick(now);
        mfc.tick(now);
        MfcLineRequest line;
        while (mfc.pop_line_request(line)) {
            ++emitted;
        }
    }
    EXPECT_EQ(emitted, 2u);
}

TEST(Mfc, PutWritesBackToMemory) {
    Harness h;
    h.ls.write_u32(0x100, 0xcafebabe);
    MfcCommand cmd;
    cmd.op = MfcOp::kPut;
    cmd.tag = 9;
    cmd.mem_addr = 0x4000;
    cmd.ls_addr = 0x100;
    cmd.bytes = 4;
    ASSERT_TRUE(h.mfc.try_enqueue(cmd));
    h.run(300);
    EXPECT_EQ(h.memory[0x4000], 0xbe);
    EXPECT_EQ(h.memory[0x4003], 0xca);
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].tag, 9u);
}

TEST(Mfc, MultipleCommandsCompleteWithTheirOwnTags) {
    Harness h;
    MfcCommand a = get_cmd(64, 0x1000, 0x100);
    a.tag = 1;
    a.owner = 10;
    MfcCommand b = get_cmd(64, 0x2000, 0x200);
    b.tag = 2;
    b.owner = 20;
    ASSERT_TRUE(h.mfc.try_enqueue(a));
    ASSERT_TRUE(h.mfc.try_enqueue(b));
    h.run(400);
    ASSERT_EQ(h.completions.size(), 2u);
    EXPECT_EQ(h.completions[0].tag, 1u);
    EXPECT_EQ(h.completions[0].owner, 10u);
    EXPECT_EQ(h.completions[1].tag, 2u);
    EXPECT_EQ(h.completions[1].owner, 20u);
    EXPECT_EQ(h.mfc.commands_completed(), 2u);
}

TEST(Mfc, MultiLinePutCompletesOnceAfterAllAcks) {
    // A PUT command finishes only when memory acknowledges its last line
    // (not when the LS read drains), and exactly once.
    Harness h;
    MfcCommand cmd;
    cmd.op = MfcOp::kPut;
    cmd.tag = 5;
    cmd.mem_addr = 0x5000;
    cmd.ls_addr = 0x100;
    cmd.bytes = 300;  // 128 + 128 + 44
    ASSERT_TRUE(h.mfc.try_enqueue(cmd));
    h.run(400);
    ASSERT_EQ(h.lines_seen.size(), 3u);
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].tag, 5u);
    EXPECT_EQ(h.mfc.commands_completed(), 1u);
    EXPECT_EQ(h.mfc.bytes_transferred(), 300u);
    EXPECT_TRUE(h.mfc.quiescent());
}

TEST(Mfc, MetricsCountersMatchPublicStats) {
    // Regression: the dma.commands / dma.bytes counters must track the
    // public statistics one-for-one over a GET + PUT mix (they were once
    // gated on the latency histogram being attached).
    Harness h;
    sim::MetricsRegistry reg;
    reg.enable();
    h.mfc.attach_metrics(reg);

    ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(300)));
    MfcCommand put;
    put.op = MfcOp::kPut;
    put.tag = 7;
    put.mem_addr = 0x6000;
    put.ls_addr = 0x200;
    put.bytes = 200;
    ASSERT_TRUE(h.mfc.try_enqueue(put));
    ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(64, 0x2000, 0x400)));
    h.run(600);

    EXPECT_EQ(h.mfc.commands_completed(), 3u);
    EXPECT_EQ(reg.counter("dma.commands")->value, h.mfc.commands_completed());
    EXPECT_EQ(reg.counter("dma.bytes")->value, h.mfc.bytes_transferred());
    EXPECT_EQ(reg.histogram("dma.tag_latency")->count(),
              h.mfc.commands_completed());
}

}  // namespace
}  // namespace dta::dma
