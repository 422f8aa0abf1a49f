// The datapath's two value types: sim::Fifo, the ring buffer every
// component queue is, and sim::Payload, the 16-byte byte payload of
// packets, memory requests and local-store requests.  Also pins, byte for
// byte, the snapshot encodings that carry a payload (u64 length, then the
// bytes), so the snapshot format cannot drift under its version number.
#include "sim/fifo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/local_store.hpp"
#include "mem/main_memory.hpp"
#include "noc/packet.hpp"
#include "sim/payload.hpp"
#include "sim/snapshot.hpp"

namespace dta::sim {
namespace {

std::vector<int> contents(const Fifo<int>& f) {
    return std::vector<int>(f.begin(), f.end());
}

// ---- Fifo ------------------------------------------------------------------

TEST(Fifo, EmptyRingOwnsNoMemory) {
    const Fifo<int> f;
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.size(), 0u);
    EXPECT_EQ(f.capacity(), 0u);
    EXPECT_TRUE(f.begin() == f.end());
}

TEST(Fifo, IteratesOldestFirst) {
    Fifo<int> f;
    for (int i = 0; i < 5; ++i) {
        f.push_back(i);
    }
    EXPECT_EQ(contents(f), (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(f.front(), 0);
    f.pop_front();
    EXPECT_EQ(contents(f), (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(f.size(), 4u);
}

TEST(Fifo, WrapAroundThenGrowthKeepsOrder) {
    Fifo<int> f;
    for (int i = 0; i < 8; ++i) {
        f.push_back(i);
    }
    const std::size_t cap = f.capacity();
    ASSERT_EQ(cap, 8u);
    // Advance the head so the live range wraps past the buffer's end.
    for (int i = 0; i < 5; ++i) {
        f.pop_front();
    }
    for (int i = 8; i < 13; ++i) {
        f.push_back(i);
    }
    ASSERT_EQ(f.capacity(), cap);  // full again, wrapped, not grown yet
    EXPECT_EQ(contents(f), (std::vector<int>{5, 6, 7, 8, 9, 10, 11, 12}));
    // One more push grows: the wrapped elements move over in FIFO order.
    f.push_back(13);
    EXPECT_EQ(f.capacity(), 2 * cap);
    EXPECT_EQ(contents(f),
              (std::vector<int>{5, 6, 7, 8, 9, 10, 11, 12, 13}));
    for (int want = 5; want <= 13; ++want) {
        ASSERT_EQ(f.front(), want);
        f.pop_front();
    }
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, PushOfOwnElementSurvivesGrowth) {
    Fifo<std::vector<int>> f;
    for (int i = 0; i < 8; ++i) {
        f.push_back(std::vector<int>(3, i));
    }
    ASSERT_EQ(f.size(), f.capacity());
    f.push_back(f.front());  // the argument lives in the buffer that moves
    ASSERT_EQ(f.size(), 9u);
    std::vector<int> last;
    for (const auto& v : f) {
        last = v;
    }
    EXPECT_EQ(last, std::vector<int>(3, 0));
}

TEST(Fifo, HoldsMoveOnlyElements) {
    Fifo<std::unique_ptr<int>> f;
    for (int i = 0; i < 20; ++i) {
        f.push_back(std::make_unique<int>(i));
        if (i % 3 == 0) {
            f.pop_front();
        }
    }
    Fifo<std::unique_ptr<int>> moved = std::move(f);
    EXPECT_TRUE(f.empty());  // a moved-from ring is empty
    std::vector<int> got;
    for (const auto& p : moved) {
        got.push_back(*p);
    }
    EXPECT_EQ(got, (std::vector<int>{7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                                     18, 19}));
    std::unique_ptr<int> out = std::move(moved.front());
    moved.pop_front();
    EXPECT_EQ(*out, 7);
}

TEST(Fifo, ClearDestroysElementsAndKeepsCapacity) {
    auto token = std::make_shared<int>(0);
    Fifo<std::shared_ptr<int>> f;
    for (int i = 0; i < 11; ++i) {
        f.push_back(token);
    }
    EXPECT_EQ(token.use_count(), 12);
    const std::size_t cap = f.capacity();
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(f.capacity(), cap);
    // Reuse after clear: same order guarantees, no regrowth.
    Fifo<int> g;
    for (int i = 0; i < 6; ++i) {
        g.push_back(i);
    }
    g.pop_front();
    g.clear();
    for (int i = 10; i < 14; ++i) {
        g.push_back(i);
    }
    EXPECT_EQ(contents(g), (std::vector<int>{10, 11, 12, 13}));
    EXPECT_EQ(g.capacity(), 8u);
}

TEST(Fifo, SteadyPushPopNeverGrows) {
    Fifo<int> f;
    for (int i = 0; i < 5; ++i) {
        f.push_back(i);
    }
    const std::size_t cap = f.capacity();
    int next = 5;
    int expect = 0;
    for (int round = 0; round < 100'000; ++round) {
        f.push_back(next++);
        ASSERT_EQ(f.front(), expect++);
        f.pop_front();
    }
    EXPECT_EQ(f.capacity(), cap);
    EXPECT_EQ(f.size(), 5u);
}

TEST(Fifo, SnapshotBytesMatchAPlainSequence) {
    // save_seq/load_seq see a ring exactly as any sequence in queue order.
    Fifo<int> f;
    for (int i = 0; i < 12; ++i) {
        f.push_back(i * 3);
    }
    for (int i = 0; i < 7; ++i) {
        f.pop_front();
    }
    std::vector<int> plain(f.begin(), f.end());
    const auto put = [](StateSink& k, int v) {
        k.u32(static_cast<std::uint32_t>(v));
    };
    StateSink a;
    StateSink b;
    save_seq(a, f, put);
    save_seq(b, plain, put);
    EXPECT_EQ(a.data(), b.data());

    Fifo<int> back;
    StateSource src(a.data().data(), a.size());
    load_seq(src, back, [](StateSource& k, int& v) {
        v = static_cast<int>(k.u32());
    });
    src.finish();
    EXPECT_EQ(contents(back), plain);
}

// ---- Payload ---------------------------------------------------------------

Payload pattern(std::size_t n) {
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i) {
        bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    Payload p;
    p.assign(bytes.begin(), bytes.end());
    return p;
}

TEST(Payload, IsSixteenBytes) { EXPECT_LE(sizeof(Payload), 16u); }

TEST(Payload, SizesAcrossTheInlineLimit) {
    for (const std::size_t n : {0u, 8u, 9u, 128u}) {
        SCOPED_TRACE(n);
        const Payload p = pattern(n);
        ASSERT_EQ(p.size(), n);
        EXPECT_EQ(p.empty(), n == 0);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(p[i], static_cast<std::uint8_t>(i * 7 + 1));
        }
        EXPECT_EQ(static_cast<std::size_t>(p.end() - p.begin()), n);
    }
}

TEST(Payload, CopyAndMove) {
    for (const std::size_t n : {0u, 8u, 9u, 128u}) {
        SCOPED_TRACE(n);
        Payload a = pattern(n);
        const Payload b = a;  // copy
        EXPECT_EQ(a, b);
        if (n > 0) {
            a[0] ^= 0xff;  // copies do not share bytes
            EXPECT_NE(a[0], b[0]);
            a[0] ^= 0xff;
        }
        const std::uint8_t* bytes = a.data();
        Payload c = std::move(a);  // move
        EXPECT_EQ(c, b);
        EXPECT_TRUE(a.empty());  // a moved-from payload is empty
        if (n > Payload::kInlineBytes) {
            EXPECT_EQ(c.data(), bytes);  // the heap block moved, uncopied
        }
        Payload d;
        d = c;  // copy-assign
        EXPECT_EQ(d, b);
        Payload e = pattern(3);
        e = std::move(d);  // move-assign over an inline payload
        EXPECT_EQ(e, b);
        Payload f = pattern(100);
        f = e;  // copy-assign over a heap payload
        EXPECT_EQ(f, b);
    }
}

TEST(Payload, AssignmentForms) {
    Payload p;
    p = {1, 2, 3, 4};
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p[0], 1u);
    EXPECT_EQ(p[3], 4u);

    p.assign(128, 0x5a);
    ASSERT_EQ(p.size(), 128u);
    EXPECT_EQ(p[0], 0x5au);
    EXPECT_EQ(p[127], 0x5au);

    const std::vector<std::uint8_t> src = {9, 8, 7, 6, 5, 4, 3, 2, 1};
    p.assign(src.begin(), src.end());
    ASSERT_EQ(p.size(), 9u);
    EXPECT_TRUE(std::equal(p.begin(), p.end(), src.begin()));

    p.assign(src.begin(), src.begin() + 2);
    EXPECT_EQ(p, (Payload{9, 8}));
}

TEST(Payload, AssignAcrossTheInlineLimit) {
    Payload p = pattern(128);
    p.assign(4, 0x11);  // heap -> inline
    EXPECT_EQ(p, (Payload{0x11, 0x11, 0x11, 0x11}));
    p.assign(9, 0x22);  // inline -> heap
    ASSERT_EQ(p.size(), 9u);
    EXPECT_EQ(p[8], 0x22u);
    const std::uint8_t* block = p.data();
    p.assign(9, 0x33);  // same size: the heap block is reused
    EXPECT_EQ(p.data(), block);
    EXPECT_EQ(p[0], 0x33u);
    p.assign(0, 0);
    EXPECT_TRUE(p.empty());
}

// ---- snapshot encodings ----------------------------------------------------

/// Hand-built little-endian byte string, independent of StateSink.
struct Bytes {
    std::vector<std::uint8_t> v;
    Bytes& n(std::uint64_t x, int width) {
        for (int i = 0; i < width; ++i) {
            v.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
        }
        return *this;
    }
    Bytes& u8(std::uint64_t x) { return n(x, 1); }
    Bytes& u16(std::uint64_t x) { return n(x, 2); }
    Bytes& u32(std::uint64_t x) { return n(x, 4); }
    Bytes& u64(std::uint64_t x) { return n(x, 8); }
    /// A byte payload as snapshots encode it: u64 length + bytes.
    Bytes& payload(const std::vector<std::uint8_t>& b) {
        u64(b.size());
        v.insert(v.end(), b.begin(), b.end());
        return *this;
    }
};

std::vector<std::uint8_t> tail_of(const StateSink& s, std::size_t skip) {
    return std::vector<std::uint8_t>(s.data().begin() +
                                         static_cast<std::ptrdiff_t>(skip),
                                     s.data().end());
}

TEST(PayloadEncoding, PacketBytesArePinned) {
    for (const std::size_t n : {0u, 8u, 9u, 128u}) {
        SCOPED_TRACE(n);
        noc::Packet p;
        p.src = 1;
        p.dst = 2;
        p.dst_node = 3;
        p.dst_final = 4;
        p.kind = 5;
        p.size_bytes = 6;
        p.a = 0x1111;
        p.b = 0x2222;
        p.c = 0x3333;
        p.enq_at = 77;
        p.data = pattern(n);
        const std::vector<std::uint8_t> bytes(p.data.begin(), p.data.end());
        StateSink s;
        noc::save_packet(s, p);
        const Bytes want = Bytes{}
                               .u32(1)
                               .u32(2)
                               .u16(3)
                               .u32(4)
                               .u16(5)
                               .u32(6)
                               .u64(0x1111)
                               .u64(0x2222)
                               .u64(0x3333)
                               .u64(77)
                               .payload(bytes);
        EXPECT_EQ(s.data(), want.v);

        noc::Packet back;
        StateSource src(s.data().data(), s.size());
        noc::load_packet(src, back);
        src.finish();
        EXPECT_EQ(back.data, p.data);
        EXPECT_EQ(back.c, p.c);
    }
}

TEST(PayloadEncoding, LocalStoreRequestBytesArePinned) {
    mem::LocalStoreConfig cfg;
    cfg.size_bytes = 64;
    mem::LocalStore ls(cfg);
    mem::LsRequest rq;
    rq.id = 9;
    rq.is_write = true;
    rq.addr = 16;
    rq.size = 4;
    rq.data = {0xaa, 0xbb, 0xcc, 0xdd};
    rq.meta = 0x42;
    ls.enqueue(mem::LsClient::kLse, std::move(rq));
    StateSink s;
    ls.save_state(s);
    // Layout: the 64 LS bytes, then the SPU queue (empty), then the LSE
    // queue holding the request.
    const Bytes want = Bytes{}
                           .u64(0)  // SPU queue
                           .u64(1)  // LSE queue
                           .u64(9)
                           .u8(1)
                           .u32(16)
                           .u32(4)
                           .payload({0xaa, 0xbb, 0xcc, 0xdd})
                           .u64(0x42);
    const auto got = tail_of(s, 64);
    ASSERT_GE(got.size(), want.v.size());
    EXPECT_EQ(std::vector<std::uint8_t>(got.begin(),
                                        got.begin() + static_cast<std::ptrdiff_t>(
                                                          want.v.size())),
              want.v);

    mem::LocalStore back(cfg);
    StateSource src(s.data().data(), s.size());
    back.load_state(src);
    src.finish();
    StateSink again;
    back.save_state(again);
    EXPECT_EQ(again.data(), s.data());
}

TEST(PayloadEncoding, MemoryRequestBytesArePinned) {
    mem::MainMemoryConfig cfg;
    cfg.size_bytes = 1 << 20;
    mem::MainMemory mm(cfg);
    mem::MemRequest rq;
    rq.id = 3;
    rq.op = mem::MemOp::kWrite;
    rq.addr = 0x100;
    rq.size = 16;
    rq.data = pattern(16);
    rq.meta = 0x99;
    const std::vector<std::uint8_t> bytes(rq.data.begin(), rq.data.end());
    mm.enqueue(std::move(rq));
    StateSink s;
    mm.save_state(s);
    const Bytes want = Bytes{}
                           .u64(0)  // no backing page allocated yet
                           .u64(1)  // queued requests
                           .u64(3)
                           .u8(static_cast<std::uint8_t>(mem::MemOp::kWrite))
                           .u64(0x100)
                           .u32(16)
                           .payload(bytes)
                           .u64(0x99);
    ASSERT_GE(s.size(), want.v.size());
    EXPECT_EQ(std::vector<std::uint8_t>(
                  s.data().begin(),
                  s.data().begin() + static_cast<std::ptrdiff_t>(want.v.size())),
              want.v);

    mem::MainMemory back(cfg);
    StateSource src(s.data().data(), s.size());
    back.load_state(src);
    src.finish();
    StateSink again;
    back.save_state(again);
    EXPECT_EQ(again.data(), s.data());
}

}  // namespace
}  // namespace dta::sim
