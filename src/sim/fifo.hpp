/// \file fifo.hpp
/// \brief The one queue type of component state: a contiguous ring buffer.
///
/// Every queue a component owns — ports, fabric injection queues and
/// inboxes, local-store and memory request/response queues, the MFC and
/// LSE/DSE work lists — is a `Fifo<T>`.  Unlike `std::deque`, which
/// allocates and frees a node every few pushes, a ring allocates only when
/// it grows past its peak occupancy:
///
///  * capacity is a power of two; a full ring doubles (moving its elements
///    into FIFO order at the start of the new buffer) and never shrinks;
///  * an empty, never-used ring owns no memory;
///  * `size()` is O(1) and iteration visits elements oldest first, so
///    `save_seq`/`load_seq` (sim/snapshot.hpp) serialise a ring in queue
///    order, as they do any sequence.
///
/// Growth moves elements, so a reference into a ring is invalidated by a
/// push onto that same ring.  push_back/emplace_back themselves accept an
/// argument that refers into the ring: the new element is constructed
/// before the old ones move.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>

#include "sim/check.hpp"

namespace dta::sim {

template <typename T>
class Fifo {
public:
    using value_type = T;

    /// Forward iterator over the elements, oldest first.
    class const_iterator {
    public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T*;
        using reference = const T&;

        const_iterator() = default;
        reference operator*() const { return f_->at(i_); }
        pointer operator->() const { return &f_->at(i_); }
        const_iterator& operator++() {
            ++i_;
            return *this;
        }
        const_iterator operator++(int) {
            const_iterator old = *this;
            ++i_;
            return old;
        }
        friend bool operator==(const const_iterator& x,
                               const const_iterator& y) {
            return x.i_ == y.i_;
        }

    private:
        friend class Fifo;
        const_iterator(const Fifo* f, std::size_t i) : f_(f), i_(i) {}
        const Fifo* f_ = nullptr;
        std::size_t i_ = 0;
    };

    Fifo() = default;
    Fifo(const Fifo&) = delete;
    Fifo& operator=(const Fifo&) = delete;
    Fifo(Fifo&& o) noexcept
        : buf_(std::exchange(o.buf_, nullptr)),
          mask_(std::exchange(o.mask_, 0)),
          head_(std::exchange(o.head_, 0)),
          size_(std::exchange(o.size_, 0)) {}
    Fifo& operator=(Fifo&& o) noexcept {
        swap(o);
        return *this;
    }
    ~Fifo() {
        clear();
        if (buf_ != nullptr) {
            std::allocator<T>().deallocate(buf_, capacity());
        }
    }

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    /// Slots allocated; 0 until the first push, then a power of two.
    [[nodiscard]] std::size_t capacity() const {
        return buf_ == nullptr ? 0 : mask_ + 1;
    }

    [[nodiscard]] T& front() {
        DTA_CHECK(size_ != 0);
        return buf_[head_];
    }
    [[nodiscard]] const T& front() const {
        DTA_CHECK(size_ != 0);
        return buf_[head_];
    }

    void push_back(const T& v) { emplace_back(v); }
    void push_back(T&& v) { emplace_back(std::move(v)); }

    template <typename... Args>
    T& emplace_back(Args&&... args) {
        if (size_ == capacity()) {
            return grow_emplace(std::forward<Args>(args)...);
        }
        T* slot = buf_ + ((head_ + size_) & mask_);
        std::construct_at(slot, std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    void pop_front() {
        DTA_CHECK(size_ != 0);
        std::destroy_at(buf_ + head_);
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /// Destroys every element; the capacity is kept for reuse.
    void clear() {
        while (size_ != 0) {
            pop_front();
        }
        head_ = 0;
    }

    [[nodiscard]] const_iterator begin() const { return {this, 0}; }
    [[nodiscard]] const_iterator end() const { return {this, size_}; }

private:
    static constexpr std::size_t kInitialCapacity = 8;

    void swap(Fifo& o) noexcept {
        std::swap(buf_, o.buf_);
        std::swap(mask_, o.mask_);
        std::swap(head_, o.head_);
        std::swap(size_, o.size_);
    }

    [[nodiscard]] T& at(std::size_t i) const {
        return buf_[(head_ + i) & mask_];
    }

    /// Full ring: allocate twice the capacity, construct the new element
    /// first (its arguments may refer into the old buffer), then move the
    /// old elements over in FIFO order.
    template <typename... Args>
    T& grow_emplace(Args&&... args) {
        const std::size_t old_cap = capacity();
        const std::size_t cap = old_cap == 0 ? kInitialCapacity : 2 * old_cap;
        T* fresh = std::allocator<T>().allocate(cap);
        T* slot = fresh + size_;
        std::construct_at(slot, std::forward<Args>(args)...);
        for (std::size_t i = 0; i < size_; ++i) {
            T& old = at(i);
            std::construct_at(fresh + i, std::move(old));
            std::destroy_at(&old);
        }
        if (buf_ != nullptr) {
            std::allocator<T>().deallocate(buf_, old_cap);
        }
        buf_ = fresh;
        mask_ = cap - 1;
        head_ = 0;
        ++size_;
        return *slot;
    }

    T* buf_ = nullptr;
    std::size_t mask_ = 0;  ///< capacity - 1 once allocated
    std::size_t head_ = 0;  ///< slot of the oldest element
    std::size_t size_ = 0;
};

}  // namespace dta::sim
