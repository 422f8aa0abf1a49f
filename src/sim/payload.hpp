/// \file payload.hpp
/// \brief The byte payload carried by packets, memory requests and
///        local-store requests.
///
/// A `Payload` is 16 bytes: up to 8 bytes live inline (every SPU/LSE
/// local-store access and every scalar memory READ/WRITE), larger payloads
/// (DMA lines, up to 128 bytes) in one exactly-sized heap block.  It copies
/// like a byte vector, but a move never allocates, so a DMA line's bytes
/// are allocated once at memory and moved, not copied, through the fabric
/// into the local store.  Request structs stay small, which matters because
/// component queues never shrink (sim/fifo.hpp): the memory controller's
/// queue peaks in the thousands.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <utility>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace dta::sim {

class Payload {
public:
    /// Largest payload held without a heap block.
    static constexpr std::size_t kInlineBytes = 8;

    Payload() noexcept = default;
    Payload(std::initializer_list<std::uint8_t> bytes) : Payload() {
        assign(bytes.begin(), bytes.end());
    }
    Payload(const Payload& o) : Payload() {
        assign(o.begin(), o.end());
    }
    Payload(Payload&& o) noexcept : Payload() { steal(o); }
    Payload& operator=(const Payload& o) {
        if (this != &o) {
            assign(o.begin(), o.end());
        }
        return *this;
    }
    Payload& operator=(Payload&& o) noexcept {
        if (this != &o) {
            release();
            steal(o);
        }
        return *this;
    }
    ~Payload() { release(); }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::uint8_t* data() {
        return on_heap() ? u_.heap : u_.bytes;
    }
    [[nodiscard]] const std::uint8_t* data() const {
        return on_heap() ? u_.heap : u_.bytes;
    }
    [[nodiscard]] std::uint8_t* begin() { return data(); }
    [[nodiscard]] std::uint8_t* end() { return data() + size_; }
    [[nodiscard]] const std::uint8_t* begin() const { return data(); }
    [[nodiscard]] const std::uint8_t* end() const { return data() + size_; }
    [[nodiscard]] std::uint8_t& operator[](std::size_t i) { return data()[i]; }
    [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
        return data()[i];
    }

    /// \p n copies of \p v.
    void assign(std::size_t n, std::uint8_t v) {
        std::memset(reset_to(n), v, n);
    }
    /// The bytes of [first, last).
    template <std::forward_iterator It>
    void assign(It first, It last) {
        std::copy(first, last,
                  reset_to(static_cast<std::size_t>(std::distance(first, last))));
    }

    friend bool operator==(const Payload& x, const Payload& y) {
        return x.size_ == y.size_ &&
               std::equal(x.begin(), x.end(), y.begin());
    }

private:
    [[nodiscard]] bool on_heap() const { return size_ > kInlineBytes; }

    /// Size \p n with unspecified bytes (a heap block of that size is
    /// reused); returns where the \p n bytes go.
    std::uint8_t* reset_to(std::size_t n) {
        if (n != size_) {
            release();
            DTA_CHECK(n <= UINT32_MAX);
            if (n > kInlineBytes) {
                u_.heap = new std::uint8_t[n];
            }
            size_ = static_cast<std::uint32_t>(n);
        }
        return n > kInlineBytes ? u_.heap : u_.bytes;
    }
    void release() {
        if (on_heap()) {
            delete[] u_.heap;
        }
        u_.heap = nullptr;
        size_ = 0;
    }
    /// Takes \p o's bytes (this must be empty); leaves \p o empty.
    void steal(Payload& o) {
        u_ = o.u_;
        size_ = o.size_;
        o.u_.heap = nullptr;
        o.size_ = 0;
    }

    union Storage {
        std::uint8_t* heap;                 ///< size_ > kInlineBytes
        std::uint8_t bytes[kInlineBytes];   ///< size_ <= kInlineBytes
    };
    Storage u_{nullptr};
    std::uint32_t size_ = 0;
};

static_assert(sizeof(Payload) <= 16);

/// Snapshot encoding: u64 length, then the bytes — the byte-payload layout
/// of snapshot format versions 2 and 3, pinned by tests/sim/fifo_test.cpp.
inline void save_payload(StateSink& s, const Payload& p) {
    s.u64(p.size());
    s.blob(p.data(), p.size());
}

inline void load_payload(StateSource& s, Payload& p) {
    const std::uint64_t n = s.u64();
    DTA_SIM_REQUIRE(n <= s.remaining(),
                    "snapshot section truncated (payload of " +
                        std::to_string(n) + " bytes, " +
                        std::to_string(s.remaining()) + " left)");
    p.assign(static_cast<std::size_t>(n), 0);
    s.blob(p.data(), p.size());
}

}  // namespace dta::sim
