// Minimal io_uring shim — raw syscalls, no liburing.
//
// The reactor's UringBackend (net/reactor.cpp) needs exactly three things
// from io_uring: a submission queue it can batch SQEs into, a completion
// queue it can drain without syscalls, and a provided-buffer ring so
// multishot recv completes straight into pool-backed staging chunks.
// liburing is not a dependency of this repo, so this header carries a
// small self-contained wrapper over io_uring_setup(2)/io_uring_enter(2)/
// io_uring_register(2) and the mmap'd ring layout from
// <linux/io_uring.h>. Single-threaded by design: one Uring per reactor
// loop, touched only from that loop's thread (the SQ/CQ shadow indices
// are plain members, not atomics — the kernel-shared head/tail words get
// acquire/release accesses, nothing else is shared).
//
// Kernel-compat notes: the provided-buffer ring
// (IORING_REGISTER_PBUF_RING) needs >= 5.19 and multishot recv >= 6.0 —
// on older kernels, seccomp'd containers where io_uring_setup itself
// returns ENOSYS/EPERM, or a queue depth beyond IORING_MAX_ENTRIES (no
// IORING_SETUP_CLAMP), setup throws and the reactor falls back to epoll
// (counted in ReactorStats::uring_fallbacks).
#pragma once

#include <linux/io_uring.h>

#include <cstddef>
#include <cstdint>

namespace compadres::net {

/// One-time (cached) probe: can this process set up an io_uring at all?
/// False under seccomp filters that deny the syscall (EPERM), kernels
/// without it (ENOSYS), or resource exhaustion at probe time.
bool uring_available() noexcept;

class Uring {
public:
    struct Options {
        /// SQ/CQ depth request (kernel-clamped, power-of-two rounded).
        unsigned entries = 256;
    };

    /// Throws TransportError when the ring cannot be set up (ENOSYS,
    /// EPERM, EINVAL from an absurd depth, mmap failure). A throwing
    /// constructor leaks nothing.
    explicit Uring(const Options& opts);
    ~Uring();

    Uring(const Uring&) = delete;
    Uring& operator=(const Uring&) = delete;

    int ring_fd() const noexcept { return ring_fd_; }
    unsigned sq_entries() const noexcept { return sq_entry_count_; }

    /// Next free SQE, zero-initialized with user_data/fd/addr ready to
    /// fill. nullptr when the SQ is full — submit() first, then retry.
    io_uring_sqe* get_sqe() noexcept;

    /// Publish prepared SQEs and optionally wait for completions.
    /// Returns the number of SQEs the kernel consumed (>= 0) or -errno.
    /// `*entered` reports whether an io_uring_enter syscall was actually
    /// made — a call with nothing to submit whose wait is already
    /// satisfied from a populated CQ returns without entering.
    int submit_and_wait(unsigned wait_nr, bool* entered) noexcept;
    int submit(bool* entered) noexcept { return submit_and_wait(0, entered); }

    /// Copy out the oldest unseen CQE and advance the CQ head. False when
    /// the CQ is empty. Copying (16 bytes) lets callers process a
    /// completion while freely posting/draining more ring traffic —
    /// nothing dangles into ring storage mid-dispatch.
    bool pop_cqe(io_uring_cqe* out) noexcept;
    unsigned cq_ready() const noexcept;

    // -- Provided-buffer ring (one group per Uring, bgid 0) -------------
    //
    // Buffers themselves are caller-owned memory (the reactor hands in
    // FrameBufferPool-acquired chunks); this class owns only the ring of
    // descriptors the kernel picks from.

    /// Register a descriptor ring of `entries` (power-of-two) slots.
    /// False when the kernel lacks IORING_REGISTER_PBUF_RING.
    bool register_buf_ring(unsigned entries) noexcept;

    /// Hand one buffer (back) to the kernel. Must be followed by
    /// buf_ring_commit() before the kernel may see it.
    void buf_ring_push(void* addr, unsigned len, std::uint16_t bid) noexcept;

    /// Publish every pushed buffer (single release store of the tail).
    void buf_ring_commit() noexcept;

    /// Buffer-group id for IOSQE_BUFFER_SELECT SQEs.
    std::uint16_t buf_group() const noexcept { return 0; }

private:
    int enter(unsigned to_submit, unsigned min_complete,
              unsigned flags) noexcept;

    int ring_fd_ = -1;

    // SQ mapping.
    void* sq_map_ = nullptr;
    std::size_t sq_map_len_ = 0;
    io_uring_sqe* sqes_ = nullptr;
    std::size_t sqes_len_ = 0;
    unsigned* sq_khead_ = nullptr;
    unsigned* sq_ktail_ = nullptr;
    unsigned sq_mask_ = 0;
    unsigned sq_entry_count_ = 0;
    unsigned sqe_tail_ = 0; ///< local shadow: SQEs handed out, maybe unseen
    unsigned sqe_head_ = 0; ///< local shadow: SQEs already published

    // CQ mapping (may alias sq_map_ under IORING_FEAT_SINGLE_MMAP).
    void* cq_map_ = nullptr;
    std::size_t cq_map_len_ = 0;
    unsigned* cq_khead_ = nullptr;
    unsigned* cq_ktail_ = nullptr;
    io_uring_cqe* cqes_ = nullptr;
    unsigned cq_mask_ = 0;

    // Provided-buffer descriptor ring.
    io_uring_buf_ring* buf_ring_ = nullptr;
    std::size_t buf_ring_len_ = 0;
    unsigned buf_ring_mask_ = 0;
    unsigned short buf_ring_tail_ = 0; ///< local shadow of the ring tail
};

} // namespace compadres::net
