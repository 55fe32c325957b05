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
// Each loop is one epoll instance. The wires are TCP connections
// (TcpTransport, net/tcp.hpp — the only transport with a pollable
// descriptor), driven through their concrete methods rather than an
// interface. Reads are edge-triggered and pump until the socket drains,
// assembling GIOP frames incrementally into pooled FrameBuffers; the
// wire's coalescing writer parks its batch on EAGAIN and the loop arms
// EPOLLOUT to resume it. on_frame runs on the loop thread, and replies a
// pump produces coalesce into one flush when the pump uncorks the writer.
// Cross-thread operations post commands through an eventfd, and
// deregistration flushes-or-drops deterministically. Wires are assigned
// round-robin or pinned by priority band (band % thread_count).
#pragma once

#include "net/transport.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace compadres::net {

struct ReactorOptions {
    /// Event-loop threads. 0 = COMPADRES_REACTOR_THREADS env var if set,
    /// else min(4, hardware_concurrency).
    std::size_t threads = 0;
};

/// Aggregated across all loops; monotonic over the reactor's lifetime.
struct ReactorStats {
    std::uint64_t frames_assembled = 0;   ///< complete frames handed out
    std::uint64_t writable_events = 0;    ///< write-ready deliveries handled
    std::uint64_t spurious_writables = 0; ///< write-ready with nothing armed
    std::uint64_t command_wakeups = 0;    ///< command-ring doorbell wakeups
    std::uint64_t wires_registered = 0;
    std::uint64_t wires_closed = 0;       ///< EOF/error-driven closes
    /// Registrations epoll could not accept (unusable descriptor); each
    /// also fired the wire's on_closed and counts in wires_closed.
    std::uint64_t wire_add_failures = 0;
    /// Loop epoll_wait calls: the numerator of the loop-side
    /// syscalls_per_frame metric.
    std::uint64_t wait_syscalls = 0;
    /// read() calls issued by the read pumps.
    std::uint64_t read_syscalls = 0;

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
    /// Runs once, on the loop thread, after the descriptor left epoll.
    using ClosedHandler = std::function<void()>;

    /// Hand a transport's descriptor to the pool. The transport must be
    /// a TCP wire (Transport::reactor_hook() != nullptr; anything else
    /// throws TransportError) and is switched to non-blocking reactor
    /// mode here; recv_frame() on it becomes invalid. `band` < 0 assigns
    /// round-robin; `band` >= 0 pins to loop (band % thread_count) so
    /// callers can keep priority classes on separate threads. Returns a
    /// wire id for deregister/poke.
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

    /// Always "epoll". Kept only because perfbench's host fingerprint
    /// records it.
    const char* backend_name() const noexcept;

    /// Test seam: deliver a write-ready event for a wire that parked
    /// nothing (an EPOLLOUT arm), producing the spurious wakeup the
    /// rearm path must tolerate.
    void poke_writable(std::uint64_t wire_id);

    /// Process-wide reactor for components that multiplex by default
    /// (RemoteBridge and ServerOrb use it whenever their wire is TCP,
    /// i.e. Transport::reactor_hook() is non-null). Constructed on first
    /// use, intentionally never destroyed: wires are torn down by their
    /// owners, and leaking the loops sidesteps static-destruction-order
    /// races.
    static Reactor& shared();

private:
    class Loop; ///< one event loop (reactor.cpp)
    std::vector<std::unique_ptr<Loop>> loops_;
    struct State;
    std::unique_ptr<State> state_;
};

} // namespace compadres::net
