// Machine-level behaviour: thread forking and synchronisation, scheduler
// distribution, frame lifecycle, error detection.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "isa/builder.hpp"
#include "sim/check.hpp"
#include "test_util.hpp"

namespace dta::core {
namespace {

using isa::CodeBlock;
using isa::r;
using test::tiny_config;

constexpr sim::MemAddr kOut = 0x8000;

/// Program: main forks `n` adder threads; adder i writes (i + 100) to
/// kOut + 4*i.  Exercises FALLOC distribution, frame stores, LOADs.
isa::Program fanout_program(std::uint32_t n) {
    isa::Program prog;
    prog.name = "fanout";

    isa::CodeBuilder w("adder", 1);
    w.block(CodeBlock::kPl).load(r(1), 0);
    w.block(CodeBlock::kEx)
        .addi(r(2), r(1), 100)
        .shli(r(3), r(1), 2)
        .addi(r(3), r(3), kOut)
        .write(r(2), r(3), 0);
    w.block(CodeBlock::kPs).ffree().stop();
    const auto worker = prog.add(std::move(w).build());

    isa::CodeBuilder m("main", 0);
    m.block(CodeBlock::kPs).movi(r(1), 0).movi(r(2), n);
    auto loop = m.new_label();
    auto done = m.new_label();
    m.bind(loop)
        .bge(r(1), r(2), done)
        .falloc(r(3), worker)
        .store(r(1), r(3), 0)
        .addi(r(1), r(1), 1)
        .jmp(loop);
    m.bind(done).ffree().stop();
    prog.entry = prog.add(std::move(m).build());
    return prog;
}

TEST(Machine, FanOutComputesAllResults) {
    core::Machine m(tiny_config(4), fanout_program(16));
    m.launch({});
    const auto res = m.run();
    for (std::uint32_t i = 0; i < 16; ++i) {
        EXPECT_EQ(m.memory().read_u32(kOut + 4 * i), i + 100) << "adder " << i;
    }
    // 16 adders + main.
    std::uint64_t threads = 0;
    for (const auto& pe : res.pes) {
        threads += pe.threads_executed;
    }
    EXPECT_EQ(threads, 17u);
}

TEST(Machine, SchedulerDistributesAcrossPes) {
    core::Machine m(tiny_config(4), fanout_program(16));
    m.launch({});
    const auto res = m.run();
    // Round-robin placement: every PE must have executed several threads.
    for (const auto& pe : res.pes) {
        EXPECT_GE(pe.threads_executed, 2u);
    }
}

TEST(Machine, AllFramesFreedAtEnd) {
    core::Machine m(tiny_config(2), fanout_program(8));
    m.launch({});
    (void)m.run();
    for (std::uint32_t p = 0; p < m.num_pes(); ++p) {
        EXPECT_EQ(m.pe(p).lse().live_frames(), 0u);
        EXPECT_EQ(m.pe(p).lse().stats().frames_allocated,
                  m.pe(p).lse().stats().frames_freed);
    }
}

TEST(Machine, EntryArgsReachTheEntryThread) {
    isa::Program prog;
    isa::CodeBuilder b("echo", 2);
    b.block(CodeBlock::kPl).load(r(1), 0).load(r(2), 1);
    b.block(CodeBlock::kEx)
        .movi(r(3), kOut)
        .write(r(1), r(3), 0)
        .write(r(2), r(3), 4);
    b.block(CodeBlock::kPs).ffree().stop();
    prog.entry = prog.add(std::move(b).build());

    core::Machine m(tiny_config(1), prog);
    const std::vector<std::uint64_t> args{321, 654};
    m.launch(args);
    (void)m.run();
    EXPECT_EQ(m.memory().read_u32(kOut), 321u);
    EXPECT_EQ(m.memory().read_u32(kOut + 4), 654u);
}

TEST(Machine, ProducerConsumerThroughFrames) {
    // producer -> consumer value passing via STORE, plus handle passing via
    // SELF so the consumer's result returns to a collector.
    isa::Program prog;
    isa::CodeBuilder c("consumer", 2);
    c.block(CodeBlock::kPl).load(r(1), 0).load(r(2), 1);  // value, collector
    c.block(CodeBlock::kEx).muli(r(3), r(1), 2);
    c.block(CodeBlock::kPs).store(r(3), r(2), 0).ffree().stop();
    const auto consumer = prog.add(std::move(c).build());

    isa::CodeBuilder k("collector", 1);
    k.block(CodeBlock::kPl).load(r(1), 0);
    k.block(CodeBlock::kEx).movi(r(2), kOut).write(r(1), r(2), 0);
    k.block(CodeBlock::kPs).ffree().stop();
    const auto collector = prog.add(std::move(k).build());

    isa::CodeBuilder p("producer", 0);
    p.block(CodeBlock::kPs)
        .falloc(r(1), collector)
        .falloc(r(2), consumer)
        .movi(r(3), 21)
        .store(r(3), r(2), 0)
        .store(r(1), r(2), 1)
        .ffree()
        .stop();
    prog.entry = prog.add(std::move(p).build());

    core::Machine m(tiny_config(2), prog);
    m.launch({});
    (void)m.run();
    EXPECT_EQ(m.memory().read_u32(kOut), 42u);
}

TEST(Machine, FallocNOverridesSc) {
    // A collector with declared num_inputs=1 is allocated with SC=3 via
    // FALLOCN and must wait for all three stores.
    isa::Program prog;
    isa::CodeBuilder k("sum3", 3);
    k.block(CodeBlock::kPl).load(r(1), 0).load(r(2), 1).load(r(3), 2);
    k.block(CodeBlock::kEx)
        .add(r(4), r(1), r(2))
        .add(r(4), r(4), r(3))
        .movi(r(5), kOut)
        .write(r(4), r(5), 0);
    k.block(CodeBlock::kPs).ffree().stop();
    const auto sum3 = prog.add(std::move(k).build());

    isa::CodeBuilder p("main", 0);
    p.block(CodeBlock::kEx).movi(r(6), 3);
    p.block(CodeBlock::kPs)
        .fallocn(r(1), r(6), sum3)
        .movi(r(2), 10)
        .store(r(2), r(1), 0)
        .movi(r(3), 20)
        .store(r(3), r(1), 1)
        .movi(r(4), 30)
        .store(r(4), r(1), 2)
        .ffree()
        .stop();
    prog.entry = prog.add(std::move(p).build());

    core::Machine m(tiny_config(2), prog);
    m.launch({});
    (void)m.run();
    EXPECT_EQ(m.memory().read_u32(kOut), 60u);
}

TEST(Machine, IndexedFrameStoreAndLoad) {
    isa::Program prog;
    isa::CodeBuilder k("gather4", 4);
    k.block(CodeBlock::kPl)
        .movi(r(9), 2)
        .loadx(r(1), r(9), 0)   // frame[2]
        .loadx(r(2), r(9), 1);  // frame[3]
    k.block(CodeBlock::kEx)
        .add(r(3), r(1), r(2))
        .movi(r(4), kOut)
        .write(r(3), r(4), 0);
    k.block(CodeBlock::kPs).ffree().stop();
    const auto gather = prog.add(std::move(k).build());

    isa::CodeBuilder p("main", 0);
    p.block(CodeBlock::kEx).movi(r(6), 4);
    p.block(CodeBlock::kPs)
        .fallocn(r(1), r(6), gather)
        .movi(r(2), 5);
    // storex with a register index: words 0..3 get 5, 6, 7, 8.
    for (int i = 0; i < 4; ++i) {
        p.movi(r(3), i).storex(r(2), r(1), r(3), 0).addi(r(2), r(2), 1);
    }
    p.ffree().stop();
    prog.entry = prog.add(std::move(p).build());

    core::Machine m(tiny_config(1), prog);
    m.launch({});
    (void)m.run();
    EXPECT_EQ(m.memory().read_u32(kOut), 7u + 8u);
}

TEST(Machine, RunBeforeLaunchRejected) {
    core::Machine m(tiny_config(1), fanout_program(1));
    EXPECT_THROW((void)m.run(), sim::SimError);
}

TEST(Machine, DoubleLaunchRejected) {
    core::Machine m(tiny_config(1), fanout_program(1));
    m.launch({});
    EXPECT_THROW(m.launch({}), sim::SimError);
}

TEST(Machine, OverStoringFrameFaults) {
    isa::Program prog;
    isa::CodeBuilder w("leaf", 1);
    w.block(CodeBlock::kPl).load(r(1), 0);
    w.block(CodeBlock::kPs).ffree().stop();
    const auto leaf = prog.add(std::move(w).build());
    isa::CodeBuilder p("main", 0);
    p.block(CodeBlock::kPs)
        .falloc(r(1), leaf)
        .movi(r(2), 1)
        .store(r(2), r(1), 0)
        .store(r(2), r(1), 1)  // second store: SC is already 0
        .ffree()
        .stop();
    prog.entry = prog.add(std::move(p).build());
    core::Machine m(tiny_config(1), prog);
    m.launch({});
    EXPECT_THROW((void)m.run(), sim::SimError);
}

/// main FALLOCs more children than frames exist, and the children all wait
/// on stores main will never send: a frame-starved wedge on one SPE with
/// four frames (examples/programs/wedge.dta is the same program).
isa::Program wedge_program() {
    isa::Program prog;
    isa::CodeBuilder w("waiter", 1);
    w.block(CodeBlock::kPl).load(r(1), 0);
    w.block(CodeBlock::kPs).ffree().stop();
    const auto waiter = prog.add(std::move(w).build());
    isa::CodeBuilder p("main", 0);
    p.block(CodeBlock::kPs).movi(r(2), 0);
    for (int i = 0; i < 6; ++i) {
        p.falloc(r(3), waiter);  // handles overwritten; nothing ever stored
    }
    p.ffree().stop();
    prog.entry = prog.add(std::move(p).build());
    return prog;
}

MachineConfig wedge_config(bool use_wheel) {
    auto cfg = tiny_config(1);
    cfg.lse = sched::LseConfig::with(4, 512);
    cfg.no_progress_limit = 20'000;
    cfg.use_wheel = use_wheel;
    return cfg;
}

TEST(Machine, DeadlockDetectedWhenFramesExhausted) {
    core::Machine m(wedge_config(true), wedge_program());
    m.launch({});
    try {
        (void)m.run();
        FAIL() << "expected deadlock";
    } catch (const sim::SimError& e) {
        EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    }
}

TEST(Machine, HostThreadsOtherThanOneRejected) {
    // The simulator runs on one host thread; any other request fails at
    // construction with a single line, before any state is built.
    for (const std::uint32_t threads : {0u, 2u}) {
        auto cfg = tiny_config(2);
        cfg.nodes = 2;
        cfg.host_threads = threads;
        try {
            core::Machine m(cfg, fanout_program(2));
            FAIL() << "expected sim::SimError for host_threads=" << threads;
        } catch (const sim::SimError& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("host_threads must be 1"), std::string::npos)
                << msg;
            EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
        }
    }
}

/// Lines of \p path that contain \p needle.
std::vector<std::string> lines_with(const std::string& path,
                                    const std::string& needle) {
    std::vector<std::string> hits;
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
        return hits;
    }
    char buf[1024];
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
        if (std::string(buf).find(needle) != std::string::npos) {
            hits.emplace_back(buf);
        }
    }
    std::fclose(f);
    return hits;
}

TEST(Machine, DeadlockStreamsOneStallLineUnderBothLoops) {
    // The one stall trip path: the dense oracle reaches it through the
    // no-progress check, the wheel through its idle-forever test.  Either
    // way the telemetry stream gets exactly one stall line and the run
    // throws one line naming the stuck components and queue depths; once
    // a checkpoint exists, both carry the --restore replay command.
    for (const bool use_wheel : {true, false}) {
        for (const bool checkpoints : {false, true}) {
            SCOPED_TRACE(std::string(use_wheel ? "wheel" : "dense") +
                         (checkpoints ? " with checkpoints" : ""));
            auto cfg = wedge_config(use_wheel);
            const std::string stream =
                ::testing::TempDir() + "wedge_stall.ndjson";
            cfg.telemetry.enabled = true;
            cfg.telemetry.interval = 256;
            cfg.telemetry.stream_path = stream;
            // The wheel trips on its first quiet cycle, the dense loop
            // after no_progress_limit: checkpoint each well before that.
            const sim::Cycle every = use_wheel ? 8 : 4096;
            const std::string prefix = ::testing::TempDir() + "wedge";
            std::string what;
            sim::Cycle last_ckpt = 0;
            {
                core::Machine m(cfg, wedge_program());
                m.set_replay_hint("dta_run wedge.dta");
                if (checkpoints) {
                    m.set_checkpoints(every, prefix);
                }
                m.launch({});
                try {
                    (void)m.run();
                    ADD_FAILURE() << "expected deadlock";
                } catch (const sim::SimError& e) {
                    what = e.what();
                }
                last_ckpt = m.last_checkpoint_cycle();
            }  // closes the stream
            EXPECT_NE(what.find("deadlock at cycle "), std::string::npos)
                << what;
            EXPECT_EQ(what.find('\n'), std::string::npos) << what;
            EXPECT_NE(what.find("(stuck: dse0, pe0; "), std::string::npos)
                << what;
            EXPECT_NE(what.find("queues: mfc=0 mem=0 noc=0"),
                      std::string::npos)
                << what;
            const std::vector<std::string> stalls =
                lines_with(stream, "\"type\":\"stall\"");
            ASSERT_EQ(stalls.size(), 1u);
            EXPECT_NE(stalls[0].find("\"components\":\"dse0, pe0\""),
                      std::string::npos)
                << stalls[0];
            const std::string restore = "dta_run wedge.dta --restore " +
                                        prefix + ".c" +
                                        std::to_string(last_ckpt) +
                                        ".dtasnap";
            if (checkpoints) {
                EXPECT_GT(last_ckpt, 0u);
                EXPECT_NE(what.find("; replay: " + restore),
                          std::string::npos)
                    << what;
                EXPECT_NE(stalls[0].find(restore), std::string::npos)
                    << stalls[0];
            } else {
                EXPECT_EQ(what.find("--restore"), std::string::npos) << what;
            }
            for (sim::Cycle c = every; c <= last_ckpt; c += every) {
                std::remove(
                    (prefix + ".c" + std::to_string(c) + ".dtasnap").c_str());
            }
            std::remove(stream.c_str());
        }
    }
}

TEST(Machine, RunLongerThanNoProgressLimitCompletes) {
    // A live run many no-progress windows long completes under both loops:
    // the detector trips on a fingerprint frozen for no_progress_limit
    // cycles, never on run length, and it resets whenever progress
    // resumes.  Each READ's address depends on the previous READ's value
    // (always 0), so the 32 accesses serialise, 6000 cycles apart: longer
    // than the 4096-cycle check grid, so some checks see a frozen
    // fingerprint (replayed over the spans the wheel jumps), but shorter
    // than the limit.
    const auto prog = test::single_thread(
        [](isa::CodeBuilder& b) {
            b.movi(r(18), kOut).movi(r(1), 0).movi(r(20), 0);
            for (int i = 0; i < 32; ++i) {
                b.add(r(17), r(18), r(1))
                    .read(r(1), r(17), 0)
                    .add(r(20), r(20), r(1))
                    .addi(r(20), r(20), 1);
            }
        },
        1, kOut + 4);
    for (const bool use_wheel : {true, false}) {
        SCOPED_TRACE(use_wheel ? "wheel" : "dense");
        auto cfg = tiny_config(1);
        cfg.memory.latency = 6000;
        cfg.no_progress_limit = 0x2000;
        cfg.use_wheel = use_wheel;
        cfg.telemetry.enabled = true;
        cfg.telemetry.interval = 256;
        core::Machine m(cfg, prog);
        m.launch({});
        const RunResult res = m.run();
        EXPECT_GT(res.cycles, 16 * cfg.no_progress_limit);
        EXPECT_EQ(m.memory().read_u32(kOut + 4), 32u);
        if (use_wheel) {
            EXPECT_GT(m.cycles_fast_forwarded(), 0u);
        }
    }
}

TEST(Machine, StatsArePopulated) {
    core::Machine m(tiny_config(2), fanout_program(8));
    m.launch({});
    const auto res = m.run();
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.noc.packets_injected, 0u);
    EXPECT_EQ(res.noc.packets_injected, res.noc.packets_delivered);
    EXPECT_EQ(res.mem_writes, 8u);       // one WRITE per adder
    EXPECT_GT(res.dse_requests, 0u);
    EXPECT_GT(res.pipeline_usage(), 0.0);
    EXPECT_LE(res.slot_utilisation(), 1.0);
}

}  // namespace
}  // namespace dta::core
