// Reactor: multiplex many wires onto a bounded event-loop pool.
//
// The thread-per-wire reader model (one blocking recv_frame loop per
// transport) costs a stack, a kernel thread, and scheduler churn per
// connection — heavy fan-in hits those walls long before the
// allocation-free wire path is the bottleneck. The reactor inverts it:
// a small pool of event-loop threads (default min(4, hw_concurrency),
// override with COMPADRES_REACTOR_THREADS or ReactorOptions::threads)
// owns every registered descriptor and drives both readiness directions.
//
// Each loop runs one of two interchangeable backends behind the
// LoopBackend seam (reactor.cpp):
//
//   * epoll (portable default) — edge-triggered reads that pump until
//     EAGAIN, assembling GIOP frames incrementally into pooled
//     FrameBuffers; the transport's coalescing writer parks its batch on
//     EAGAIN and the loop arms EPOLLOUT to resume it.
//   * io_uring (ReactorBackend::kUring, or default under a
//     COMPADRES_URING=ON build) — multishot recv completes straight into
//     pool-backed provided buffers (no read() syscalls), loop-thread
//     sends are gather-send SQEs completed in-ring (no sendmsg), and a
//     whole CQE batch of pumps plus their corked replies costs one
//     io_uring_enter. Setup failure
//     (ENOSYS/EPERM under seccomp, absurd queue depth) falls back to
//     epoll per loop, counted in ReactorStats::uring_fallbacks.
//
// Frame delivery, corking, command posting, and teardown semantics are
// identical across backends: on_frame on the loop thread, replies a pump
// produces coalesce into one flush at uncork, cross-thread operations
// post commands through an eventfd (bridged into the uring backend as a
// re-posted in-ring read chain), and deregistration flushes-or-drops
// deterministically. Wires are assigned round-robin or pinned by
// priority band (band % thread_count).
#pragma once

#include "net/transport.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace compadres::net {

/// Which event backend a reactor loop runs. kDefault resolves the
/// COMPADRES_REACTOR_BACKEND env var ("epoll"/"uring") if set, else the
/// compile-time default (epoll, unless built with -DCOMPADRES_URING=ON).
enum class ReactorBackend : std::uint8_t { kDefault = 0, kEpoll, kUring };

struct ReactorOptions {
    /// Event-loop threads. 0 = COMPADRES_REACTOR_THREADS env var if set,
    /// else min(4, hardware_concurrency).
    std::size_t threads = 0;
    /// Loop backend selection (see ReactorBackend). kUring still probes
    /// at runtime and falls back to epoll when the kernel denies io_uring.
    ReactorBackend backend = ReactorBackend::kDefault;
    /// io_uring SQ/CQ depth per loop (0 = 256). Values the kernel rejects
    /// (beyond IORING_MAX_ENTRIES, 32768) count as a setup failure and the
    /// loop falls back to epoll (the forced-failure test seam).
    unsigned uring_entries = 0;
    /// Provided receive buffers per loop (rounded up to a power of two;
    /// 0 = 64), each a 4 KiB chunk acquired from the loop's frame pool
    /// size classes. Exhaustion is safe — multishot recv re-arms after
    /// the loop recycles chunks, counted in recv_enobufs — but costs a
    /// rearm round trip, so size generously for many-wire loops.
    unsigned uring_buffers = 0;
};

/// Aggregated across all loops; monotonic over the reactor's lifetime.
struct ReactorStats {
    std::uint64_t frames_assembled = 0;   ///< complete frames handed out
    std::uint64_t writable_events = 0;    ///< write-ready deliveries handled
    std::uint64_t spurious_writables = 0; ///< write-ready with nothing armed
    std::uint64_t command_wakeups = 0;    ///< command-ring doorbell wakeups
    std::uint64_t wires_registered = 0;
    std::uint64_t wires_closed = 0;       ///< EOF/error-driven closes
    /// Registrations the backend could not accept (unusable descriptor);
    /// each also fired the wire's on_closed and counts in wires_closed.
    std::uint64_t wire_add_failures = 0;
    /// Loop blocking waits that entered the kernel: epoll_wait calls on
    /// the epoll backend, io_uring_enter calls on the uring backend.
    /// The numerator of the loop-side syscalls_per_frame metric.
    std::uint64_t wait_syscalls = 0;
    /// read() calls issued by the epoll read pump. Zero on the uring
    /// backend — receives complete in-ring into provided buffers.
    std::uint64_t read_syscalls = 0;
    /// Gather-send SQEs submitted on behalf of transports (uring). Each
    /// replaces what the epoll path would have paid as a sendmsg.
    std::uint64_t send_sqes = 0;
    /// Multishot recv terminated because the provided-buffer ring was
    /// empty; the loop recycles and re-arms (a latency blip, not a loss).
    std::uint64_t recv_enobufs = 0;
    /// Loops that requested the uring backend but fell back to epoll
    /// because io_uring setup failed (ENOSYS/EPERM/EINVAL).
    std::uint64_t uring_fallbacks = 0;
    /// Loops currently running the uring backend.
    std::uint64_t uring_loops = 0;

    /// Loop-side syscalls per assembled frame (waits + pump reads over
    /// frames). The write side lives in TransportStats::send_syscalls.
    double loop_syscalls_per_frame() const noexcept {
        if (frames_assembled == 0) return 0.0;
        return static_cast<double>(wait_syscalls + read_syscalls) /
               static_cast<double>(frames_assembled);
    }
};

class Reactor {
public:
    explicit Reactor(ReactorOptions options = {});
    ~Reactor(); ///< stop()s; pending wires are deregistered (flush/drop)

    Reactor(const Reactor&) = delete;
    Reactor& operator=(const Reactor&) = delete;

    /// Complete inbound frame, delivered on the owning loop thread. The
    /// handler must not block indefinitely: it stalls every wire on the
    /// same loop (that is the reactor bargain). send_frame from a handler
    /// is safe even under hard backpressure — a loop-thread sender never
    /// waits for intake space (it would be waiting on its own write-ready
    /// event); it resumes a parked batch inline when possible and
    /// otherwise drops the frame, counted in the transport's
    /// stats().frames_dropped.
    using FrameHandler = std::function<void(FrameBuffer)>;
    /// The wire hit EOF or a wire error and was removed from the loop.
    /// Runs once, on the loop thread, after backend deregistration.
    using ClosedHandler = std::function<void()>;

    /// Hand a transport's descriptor to the pool. The transport must
    /// expose a ReactorHook (Transport::reactor_hook() != nullptr) and is
    /// switched to non-blocking reactor mode here; recv_frame() on it
    /// becomes invalid. `band` < 0 assigns round-robin; `band` >= 0 pins
    /// to loop (band % thread_count) so callers can keep priority classes
    /// on separate threads. Returns a wire id for deregister/poke.
    std::uint64_t register_wire(Transport& transport, FrameHandler on_frame,
                                ClosedHandler on_closed = {}, int band = -1);

    /// Flush-then-remove (see shutdown ordering above). Blocks until the
    /// owning loop finished the removal; inline when called from that
    /// loop. Unknown/already-removed ids are a no-op.
    void deregister_wire(std::uint64_t wire_id);

    /// Stop every loop and join the threads. Registered wires are
    /// deregistered (flush/drop) first. Idempotent.
    void stop();

    std::size_t thread_count() const noexcept;

    ReactorStats stats() const;

    /// Backend actually running: "epoll", "uring", or "mixed" (some
    /// loops fell back). Stable for the reactor's lifetime.
    const char* backend_name() const noexcept;

    /// Test seam: deliver a write-ready event for a wire that parked
    /// nothing, producing the spurious wakeup the rearm path must
    /// tolerate (EPOLLOUT arm on epoll, POLL_ADD on uring).
    void poke_writable(std::uint64_t wire_id);

    /// Process-wide reactor for components that multiplex by default
    /// (RemoteBridge's kReactor reader model). Constructed on first use,
    /// intentionally never destroyed: wires are torn down by their owners,
    /// and leaking the loops sidesteps static-destruction-order races.
    static Reactor& shared();

    /// One event loop (implementation detail, defined in reactor.cpp).
    /// Public only so the LoopBackend implementations — internal-linkage
    /// classes in reactor.cpp — can name it in their signatures.
    class Loop;

private:
    std::vector<std::unique_ptr<Loop>> loops_;
    struct State;
    std::unique_ptr<State> state_;
};

} // namespace compadres::net
