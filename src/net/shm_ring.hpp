// One band-direction of the shared-memory wire: a lock-free SPSC slot
// ring plus a payload arena, over memory the caller provides.
//
// The producer bump-allocates each frame in the arena and publishes a
// slot descriptor {offset, len} with a release-store of the head. A frame
// never spans the arena end: the producer skips to the start, and the
// consumer mirrors the skip when it retires the slot.
//
// The slot array and the head live in memory the peer writes. try_pop
// copies a descriptor and checks it before touching a byte it names; a
// slot outside the arena or past the frame bound, or a head more than a
// ring past the retired tail, is reported as corrupt and never consumed.
// Failover replay reads the producer's own slots through the same check.
//
// Retire window: popped frames may be released in any order and held for
// any time, but an SPSC tail must advance contiguously. retire() publishes
// the tail over the maximal released prefix, walking checked copies of
// the popped descriptors, so the producer never reclaims bytes a pinned
// frame still views.
//
// The ring never waits and makes no syscall. publish() and retire()
// report whether they claimed the other side's waiter registration; the
// caller owns the sleep (ShmTransport: a futex over a shm segment) and
// issues the wake. The ring test runs it over a heap buffer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace compadres::net {

namespace shm_detail {

/// One direction's control words, produced by exactly one side (SPSC).
/// Cache-line aligned so the two directions never false-share.
struct alignas(64) SegDir {
    /// Slots published (monotone; slot index = head & (capacity-1)).
    std::atomic<std::uint32_t> head;
    /// Slots consumed (monotone; written by the consumer).
    std::atomic<std::uint32_t> tail;
    /// Arena bytes retired by the consumer (monotone, includes wrap
    /// skips). The producer's free-space check is
    /// arena_bytes - (arena_head - arena_tail).
    std::atomic<std::uint64_t> arena_tail;
    /// Producer closed this direction (graceful close); consumer drains
    /// the remaining [tail, head) then treats the ring as ended.
    std::atomic<std::uint32_t> closed;
    /// Futex word + waiter count for "data available" (consumer sleeps,
    /// producer wakes only when waiters != 0).
    std::atomic<std::uint32_t> data_seq;
    std::atomic<std::uint32_t> data_waiters;
    /// Futex word + waiter count for "space available" (producer sleeps
    /// on a full ring or arena, consumer wakes only when waiters != 0).
    std::atomic<std::uint32_t> space_seq;
    std::atomic<std::uint32_t> space_waiters;
};

struct SegSlot {
    std::uint32_t offset; ///< payload start within the direction's arena
    std::uint32_t len;    ///< payload bytes
};

static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

/// Frame payloads are 8-byte aligned in the arena.
inline constexpr std::size_t align8(std::size_t n) noexcept {
    return (n + 7u) & ~std::size_t{7};
}

} // namespace shm_detail

/// The geometry one band-direction ring runs on, and the one rule set
/// both ends hold it to: ShmSegment::create clamps its options into these
/// bounds, and ShmSegment::attach refuses a peer-written header outside
/// them. A zero arena would divide by zero at the first reserve, and a
/// frame bound past half the arena could wait forever for space.
struct ShmRingGeometry {
    static constexpr std::uint32_t kMinCapacity = 2;
    /// A slot index must fit the 24 bits a borrowed frame's release token
    /// keeps for it (the band takes the top 8).
    static constexpr std::uint32_t kMaxCapacity = 1u << 20;
    static constexpr std::uint32_t kMinArenaBytes = 4096;
    static constexpr std::uint32_t kMinFrameBytes = 64;

    std::uint32_t capacity = 0;    ///< slots, a power of two
    std::uint32_t arena_bytes = 0; ///< payload bytes, a multiple of 8
    std::uint32_t max_frame = 0;   ///< at most half the arena, so a frame
                                   ///< plus a wrap skip always fits

    constexpr bool valid() const noexcept {
        return capacity >= kMinCapacity && capacity <= kMaxCapacity &&
               (capacity & (capacity - 1)) == 0 &&
               arena_bytes >= kMinArenaBytes && arena_bytes % 8 == 0 &&
               max_frame >= kMinFrameBytes && max_frame <= arena_bytes / 2;
    }

    /// A peer-written descriptor is usable only if it names bytes inside
    /// the arena and no more than the frame bound.
    constexpr bool holds(const shm_detail::SegSlot& slot) const noexcept {
        return slot.len <= max_frame &&
               std::uint64_t{slot.offset} + slot.len <= arena_bytes;
    }
};

/// The producing end. One thread at a time.
class ShmRingProducer {
public:
    ShmRingProducer() = default;
    /// `doorbell` holds the consumer's data-waiter registration. Several
    /// rings may share one, so that one consumer sleeps on all of them.
    ShmRingProducer(shm_detail::SegDir& dir, shm_detail::SegSlot* slots,
                    std::uint8_t* arena, const ShmRingGeometry& geometry,
                    shm_detail::SegDir& doorbell) noexcept
        : dir_(&dir), doorbell_(&doorbell), slots_(slots), arena_(arena),
          g_(geometry) {}

    /// Reserve the next slot and `len` (at most max_frame) arena bytes.
    /// Returns where to write the frame, which publish() must follow, or
    /// nullptr when the ring or the arena is full. Consumer positions are
    /// re-read only when the ring looks full, so a failed reserve leaves
    /// both fresh for consumer_moved().
    std::uint8_t* try_reserve(std::size_t len) noexcept {
        std::uint64_t skip = 0;
        if (!fits(len, skip)) {
            cached_tail_ = dir_->tail.load(std::memory_order_acquire);
            cached_arena_tail_ =
                dir_->arena_tail.load(std::memory_order_acquire);
            if (!fits(len, skip)) return nullptr;
        }
        arena_head_ += skip;
        reserved_ = static_cast<std::uint32_t>(arena_head_ % g_.arena_bytes);
        return arena_ + reserved_;
    }

    /// Publish the `len`-byte frame try_reserve just placed. True when it
    /// claimed the consumer's waiter registration: the caller then owes
    /// it a wake. The seq_cst fence pairs with the consumer's seq_cst
    /// registration before its head re-check (Dekker), and the exchange
    /// makes one wake per waiting episode; producers sharing a doorbell
    /// race on it and exactly one wins.
    bool publish(std::size_t len) noexcept {
        slots_[head_ & (g_.capacity - 1)] =
            shm_detail::SegSlot{reserved_, static_cast<std::uint32_t>(len)};
        arena_head_ += shm_detail::align8(len);
        ++head_;
        dir_->head.store(head_, std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        return doorbell_->data_waiters.exchange(
                   0, std::memory_order_seq_cst) != 0;
    }

    /// Checked read of our own published slot at position `pos`
    /// (failover replay). The slot array is peer-writable, so a
    /// descriptor read back is held to the bounds of an inbound one.
    bool read(std::uint32_t pos, shm_detail::SegSlot& out) const noexcept {
        out = slots_[pos & (g_.capacity - 1)];
        return g_.holds(out);
    }
    const std::uint8_t* bytes(const shm_detail::SegSlot& slot) const noexcept {
        return arena_ + slot.offset;
    }

    /// Slots published so far.
    std::uint32_t head() const noexcept { return head_; }
    /// Slots the consumer has retired (peer-written).
    std::uint32_t tail() const noexcept {
        return dir_->tail.load(std::memory_order_acquire);
    }
    /// The consumer retired something since the last failed try_reserve.
    bool consumer_moved() const noexcept {
        return dir_->tail.load(std::memory_order_acquire) != cached_tail_ ||
               dir_->arena_tail.load(std::memory_order_acquire) !=
                   cached_arena_tail_;
    }
    shm_detail::SegDir& dir() const noexcept { return *dir_; }
    const ShmRingGeometry& geometry() const noexcept { return g_; }

private:
    bool fits(std::size_t len, std::uint64_t& skip) const noexcept {
        const std::uint64_t room =
            g_.arena_bytes - arena_head_ % g_.arena_bytes;
        skip = room < len ? room : 0;
        return head_ - cached_tail_ < g_.capacity &&
               arena_head_ + skip + shm_detail::align8(len) -
                       cached_arena_tail_ <=
                   g_.arena_bytes;
    }

    shm_detail::SegDir* dir_ = nullptr;
    shm_detail::SegDir* doorbell_ = nullptr;
    shm_detail::SegSlot* slots_ = nullptr;
    std::uint8_t* arena_ = nullptr;
    ShmRingGeometry g_;
    std::uint32_t head_ = 0;
    std::uint32_t cached_tail_ = 0;
    std::uint64_t arena_head_ = 0;
    std::uint64_t cached_arena_tail_ = 0;
    std::uint32_t reserved_ = 0; ///< arena offset of the last reserve
};

/// The consuming end. try_pop and has_data belong to one consumer
/// thread; release and retire may run on any thread, serialized with each
/// other by the caller (a borrowed frame dies wherever it is dropped).
class ShmRingConsumer {
public:
    enum class Pop { kFrame, kEmpty, kCorrupt };

    /// A popped frame: a view into the arena, pinned until release().
    struct View {
        std::uint8_t* data = nullptr;
        std::uint32_t len = 0;
        std::uint32_t index = 0; ///< slot index to hand back to release()
    };

    ShmRingConsumer(shm_detail::SegDir& dir, const shm_detail::SegSlot* slots,
                    std::uint8_t* arena, const ShmRingGeometry& geometry)
        : dir_(&dir), slots_(slots), arena_(arena), g_(geometry),
          released_(std::make_unique<std::uint8_t[]>(geometry.capacity)),
          popped_(std::make_unique<shm_detail::SegSlot[]>(geometry.capacity)) {}

    /// Take the next published frame, checked. An honest producer never
    /// publishes more than a ring ahead of the tail we retired to; a head
    /// that does would alias slots still in the retire window. kCorrupt
    /// consumes nothing: every later pop reports the same entry again.
    Pop try_pop(View& out) noexcept {
        const std::uint32_t next = next_.load(std::memory_order_relaxed);
        const std::uint32_t head = dir_->head.load(std::memory_order_acquire);
        if (head == next) return Pop::kEmpty;
        const std::uint32_t retired = retired_.load(std::memory_order_acquire);
        const std::uint32_t index = next & (g_.capacity - 1);
        const shm_detail::SegSlot slot = slots_[index];
        const std::uint32_t ahead = head - retired;
        if (ahead > g_.capacity || ahead <= next - retired ||
            !g_.holds(slot)) {
            return Pop::kCorrupt;
        }
        // The retire walk reads this copy, never the peer-writable ring.
        popped_[index] = slot;
        next_.store(next + 1, std::memory_order_release);
        out = View{arena_ + slot.offset, slot.len, index};
        return Pop::kFrame;
    }

    /// Something is published past the delivery cursor (consumer thread).
    bool has_data() const noexcept {
        return dir_->head.load(std::memory_order_acquire) !=
               next_.load(std::memory_order_relaxed);
    }
    /// The producer closed this direction.
    bool closed() const noexcept {
        return dir_->closed.load(std::memory_order_acquire) != 0;
    }
    /// Popped but not yet retired: frames still pinned, plus released
    /// ones behind a pinned one. Always at most capacity.
    std::uint32_t pinned() const noexcept {
        return next_.load(std::memory_order_acquire) -
               retired_.load(std::memory_order_acquire);
    }

    /// Mark the popped slot `index` released; retire() reclaims it once
    /// every slot before it is released too.
    void release(std::uint32_t index) noexcept { released_[index] = 1; }

    /// Publish the tail over the maximal released prefix, mirroring the
    /// producer's wrap skip. True when it claimed the producer's space
    /// waiter registration (the caller owes it a wake), as publish() does.
    bool retire() noexcept {
        const std::uint32_t mask = g_.capacity - 1;
        std::uint32_t r = retired_.load(std::memory_order_relaxed);
        const std::uint32_t limit = next_.load(std::memory_order_acquire);
        if (r == limit || released_[r & mask] == 0) return false;
        do {
            released_[r & mask] = 0;
            const shm_detail::SegSlot slot = popped_[r & mask];
            // A slot that does not start at our retire position means the
            // producer skipped to the arena start.
            if (arena_retired_ % g_.arena_bytes != slot.offset) {
                arena_retired_ +=
                    g_.arena_bytes - arena_retired_ % g_.arena_bytes;
            }
            arena_retired_ += shm_detail::align8(slot.len);
            ++r;
        } while (r != limit && released_[r & mask] != 0);
        dir_->arena_tail.store(arena_retired_, std::memory_order_release);
        retired_.store(r, std::memory_order_release);
        dir_->tail.store(r, std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        return dir_->space_waiters.exchange(0, std::memory_order_seq_cst) !=
               0;
    }

    shm_detail::SegDir& dir() const noexcept { return *dir_; }

private:
    shm_detail::SegDir* dir_ = nullptr;
    const shm_detail::SegSlot* slots_ = nullptr;
    std::uint8_t* arena_ = nullptr;
    ShmRingGeometry g_;
    /// Delivery cursor, advanced by try_pop; retire() reads it.
    std::atomic<std::uint32_t> next_{0};
    /// Published tail; try_pop reads it for the head check.
    std::atomic<std::uint32_t> retired_{0};
    std::uint64_t arena_retired_ = 0;
    std::unique_ptr<std::uint8_t[]> released_;
    std::unique_ptr<shm_detail::SegSlot[]> popped_;
};

} // namespace compadres::net
