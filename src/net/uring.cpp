#include "net/uring.hpp"

#include "net/transport.hpp"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>

namespace compadres::net {

namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* p) noexcept {
    return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) noexcept {
    return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                      min_complete, flags, nullptr, 0));
}

int sys_io_uring_register(int fd, unsigned opcode, void* arg,
                          unsigned nr_args) noexcept {
    return static_cast<int>(
        ::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

// The ring head/tail words are shared with the kernel through the mmap,
// so they need the same acquire/release discipline liburing uses: the
// consumer side load-acquires the producer's index, the producer side
// store-releases its own after filling the slots.
unsigned load_acquire(const unsigned* p) noexcept {
    return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}

void store_release(unsigned* p, unsigned v) noexcept {
    __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

[[noreturn]] void fail(const std::string& what, int err) {
    throw TransportError("io_uring: " + what + ": " + std::strerror(err));
}

} // namespace

bool uring_available() noexcept {
    static const bool available = [] {
        io_uring_params p{};
        const int fd = sys_io_uring_setup(4, &p);
        if (fd < 0) return false;
        ::close(fd);
        return true;
    }();
    return available;
}

Uring::Uring(const Options& opts) {
    io_uring_params p{};
    // Deliberately no IORING_SETUP_CLAMP: a depth beyond IORING_MAX_ENTRIES
    // is rejected (EINVAL) instead of silently clamped, which is exactly
    // the forced-setup-failure seam the epoll-fallback tests lean on.
    ring_fd_ = sys_io_uring_setup(opts.entries, &p);
    if (ring_fd_ < 0) fail("setup", errno);

    sq_map_len_ = p.sq_off.array + p.sq_entries * sizeof(unsigned);
    std::size_t cq_len = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
    const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap && cq_len > sq_map_len_) sq_map_len_ = cq_len;

    sq_map_ = ::mmap(nullptr, sq_map_len_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_map_ == MAP_FAILED) {
        const int err = errno;
        sq_map_ = nullptr;
        ::close(ring_fd_);
        ring_fd_ = -1;
        fail("mmap(sq)", err);
    }
    if (single_mmap) {
        cq_map_ = sq_map_;
        cq_map_len_ = 0; // aliased: unmapped once, via sq_map_
    } else {
        cq_map_len_ = cq_len;
        cq_map_ = ::mmap(nullptr, cq_map_len_, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_POPULATE, ring_fd_,
                         IORING_OFF_CQ_RING);
        if (cq_map_ == MAP_FAILED) {
            const int err = errno;
            ::munmap(sq_map_, sq_map_len_);
            sq_map_ = nullptr;
            cq_map_ = nullptr;
            ::close(ring_fd_);
            ring_fd_ = -1;
            fail("mmap(cq)", err);
        }
    }
    sqes_len_ = p.sq_entries * sizeof(io_uring_sqe);
    sqes_ = static_cast<io_uring_sqe*>(
        ::mmap(nullptr, sqes_len_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
        const int err = errno;
        if (cq_map_ != nullptr && cq_map_ != sq_map_) {
            ::munmap(cq_map_, cq_map_len_);
        }
        ::munmap(sq_map_, sq_map_len_);
        sq_map_ = nullptr;
        cq_map_ = nullptr;
        sqes_ = nullptr;
        ::close(ring_fd_);
        ring_fd_ = -1;
        fail("mmap(sqes)", err);
    }

    auto* sq_base = static_cast<std::uint8_t*>(sq_map_);
    sq_khead_ = reinterpret_cast<unsigned*>(sq_base + p.sq_off.head);
    sq_ktail_ = reinterpret_cast<unsigned*>(sq_base + p.sq_off.tail);
    sq_mask_ = *reinterpret_cast<unsigned*>(sq_base + p.sq_off.ring_mask);
    sq_entry_count_ = p.sq_entries;
    // Identity-map the SQ index array once: slot i always submits sqes_[i],
    // so publishing is just a tail bump.
    auto* sq_array = reinterpret_cast<unsigned*>(sq_base + p.sq_off.array);
    for (unsigned i = 0; i < p.sq_entries; ++i) sq_array[i] = i;

    auto* cq_base = static_cast<std::uint8_t*>(cq_map_);
    cq_khead_ = reinterpret_cast<unsigned*>(cq_base + p.cq_off.head);
    cq_ktail_ = reinterpret_cast<unsigned*>(cq_base + p.cq_off.tail);
    cq_mask_ = *reinterpret_cast<unsigned*>(cq_base + p.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq_base + p.cq_off.cqes);

    sqe_tail_ = load_acquire(sq_ktail_);
    sqe_head_ = sqe_tail_;
}

Uring::~Uring() {
    if (buf_ring_ != nullptr) {
        io_uring_buf_reg reg{};
        reg.bgid = buf_group();
        sys_io_uring_register(ring_fd_, IORING_UNREGISTER_PBUF_RING, &reg, 1);
        ::munmap(buf_ring_, buf_ring_len_);
        buf_ring_ = nullptr;
    }
    if (sqes_ != nullptr) ::munmap(sqes_, sqes_len_);
    if (cq_map_ != nullptr && cq_map_ != sq_map_) {
        ::munmap(cq_map_, cq_map_len_);
    }
    if (sq_map_ != nullptr) ::munmap(sq_map_, sq_map_len_);
    // Closing the ring fd reaps every in-flight SQE (the kernel cancels
    // on final ring release), so teardown needs no quiesce handshake
    // beyond what the reactor already did per wire.
    if (ring_fd_ >= 0) ::close(ring_fd_);
}

io_uring_sqe* Uring::get_sqe() noexcept {
    const unsigned head = load_acquire(sq_khead_);
    if (sqe_tail_ - head >= sq_entry_count_) return nullptr; // SQ full
    io_uring_sqe* sqe = &sqes_[sqe_tail_ & sq_mask_];
    ++sqe_tail_;
    std::memset(sqe, 0, sizeof(*sqe));
    return sqe;
}

int Uring::enter(unsigned to_submit, unsigned min_complete,
                 unsigned flags) noexcept {
    for (;;) {
        const int r =
            sys_io_uring_enter(ring_fd_, to_submit, min_complete, flags);
        if (r >= 0) return r;
        if (errno == EINTR) continue;
        // EBUSY/EAGAIN: CQ overflow backpressure — the caller drains and
        // retries at its own pace.
        return -errno;
    }
}

int Uring::submit_and_wait(unsigned wait_nr, bool* entered) noexcept {
    if (entered != nullptr) *entered = false;
    const unsigned to_submit = sqe_tail_ - sqe_head_;
    if (to_submit > 0) {
        store_release(sq_ktail_, sqe_tail_);
        sqe_head_ = sqe_tail_;
    }
    if (to_submit == 0 && (wait_nr == 0 || cq_ready() >= wait_nr)) return 0;
    if (entered != nullptr) *entered = true;
    return enter(to_submit, wait_nr,
                 wait_nr > 0 ? IORING_ENTER_GETEVENTS : 0);
}

unsigned Uring::cq_ready() const noexcept {
    return load_acquire(cq_ktail_) - load_acquire(cq_khead_);
}

bool Uring::pop_cqe(io_uring_cqe* out) noexcept {
    const unsigned head = load_acquire(cq_khead_);
    if (head == load_acquire(cq_ktail_)) return false;
    *out = cqes_[head & cq_mask_];
    store_release(cq_khead_, head + 1);
    return true;
}

bool Uring::register_buf_ring(unsigned entries) noexcept {
    buf_ring_len_ = entries * sizeof(io_uring_buf);
    const long page = ::sysconf(_SC_PAGESIZE);
    const std::size_t ps = page > 0 ? static_cast<std::size_t>(page) : 4096;
    buf_ring_len_ = (buf_ring_len_ + ps - 1) & ~(ps - 1);
    void* mem = ::mmap(nullptr, buf_ring_len_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
        buf_ring_ = nullptr;
        return false;
    }
    io_uring_buf_reg reg{};
    reg.ring_addr = reinterpret_cast<std::uint64_t>(mem);
    reg.ring_entries = entries;
    reg.bgid = buf_group();
    if (sys_io_uring_register(ring_fd_, IORING_REGISTER_PBUF_RING, &reg, 1) <
        0) {
        ::munmap(mem, buf_ring_len_);
        buf_ring_ = nullptr;
        return false;
    }
    buf_ring_ = static_cast<io_uring_buf_ring*>(mem);
    buf_ring_mask_ = entries - 1;
    buf_ring_tail_ = 0;
    return true;
}

void Uring::buf_ring_push(void* addr, unsigned len,
                          std::uint16_t bid) noexcept {
    // Index slots from the ring base, NOT via buf_ring_->bufs: compiled as
    // C++, __DECLARE_FLEX_ARRAY wraps bufs in an anonymous struct whose
    // empty __empty_bufs member has sizeof 1, which alignment pads to 8 —
    // every bufs[i] access would land 8 bytes past where the kernel reads.
    io_uring_buf* slot = reinterpret_cast<io_uring_buf*>(buf_ring_) +
                         (buf_ring_tail_ & buf_ring_mask_);
    // Never touch slot->resv: slot 0's resv bytes ARE the ring tail (the
    // header union overlays them), which buf_ring_commit publishes.
    slot->addr = reinterpret_cast<std::uint64_t>(addr);
    slot->len = len;
    slot->bid = bid;
    ++buf_ring_tail_;
}

void Uring::buf_ring_commit() noexcept {
    __atomic_store_n(&buf_ring_->tail, buf_ring_tail_, __ATOMIC_RELEASE);
}

} // namespace compadres::net
