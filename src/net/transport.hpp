// Frame transports.
//
// Both ORBs exchange self-contained GIOP frames. The evaluation (paper
// §3.3) ran client and server "on a single machine connected via loopback
// network"; we provide an in-process loopback transport for the benches,
// a real TCP transport (GIOP-aware framing, net/tcp.hpp) for distributed
// use, and a shared-memory wire for co-located peers
// (net/shm_transport.hpp). Each implements Transport directly; only the
// TCP wire is also driven by the epoll reactor (ReactorHook below).
//
// Frames travel as pooled FrameBuffers (net/frame_pool.hpp): a steady-state
// send or receive recycles storage instead of allocating it. The
// std::vector overload of send_frame is a compatibility shim that copies
// through the pool, for callers that still build frames as vectors.
#pragma once

#include "net/frame_pool.hpp"


#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace compadres::net {

class TransportError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Wire counters; all zero for transports that do not track them.
struct TransportStats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    /// Frames accepted by send_frame but dropped unsent — the coalescing
    /// writer's queue at close(), or a batch that failed mid-write.
    std::uint64_t frames_dropped = 0;
    std::uint64_t send_syscalls = 0;  ///< sendmsg/writev calls issued
    std::uint64_t send_batches = 0;   ///< coalesced flushes
    std::uint64_t max_batch_frames = 0; ///< largest single-flush batch
    /// Times a sender blocked waiting for intake space (the coalescing
    /// writer's queue was full) — per-lane stall visibility for the trace
    /// report; a non-reactor sender stalls, a reactor-thread sender drops.
    std::uint64_t send_stalls = 0;
    /// High-water mark of the coalescing intake depth — how close the
    /// lane came to stalling even when it never did.
    std::uint64_t intake_depth_hwm = 0;
};

/// What an epoll reactor (net/reactor.hpp) drives: the concrete TCP wire
/// (net/tcp.hpp), the only transport with a pollable descriptor. An alias,
/// not an interface — the reactor calls TcpTransport's methods directly.
/// The name stays because perfbench's TracedTransport forwards
/// Transport::reactor_hook() under it.
class TcpTransport;
using ReactorHook = TcpTransport;

/// Mark the calling thread as a reactor event-loop thread (one-way; the
/// reactor calls it once at loop start). Transports consult the mark to
/// keep backpressure from deadlocking the loop: under the reactor the
/// only thing that frees a full coalescer intake is the EPOLLOUT that
/// this very thread delivers, so a send_frame issued from a frame or
/// closed callback must never wait for intake space. A marked-thread
/// sender instead resumes a parked batch inline when it can and
/// otherwise drops the frame, counted in stats().frames_dropped.
void mark_reactor_loop_thread() noexcept;

/// Blocking, frame-oriented, bidirectional byte channel.
class Transport {
public:
    virtual ~Transport() = default;

    /// Ship one complete frame; ownership of the buffer passes to the
    /// transport (it returns to its pool once written). Throws
    /// TransportError if the peer is gone.
    virtual void send_frame(FrameBuffer frame) = 0;

    /// Block for the next frame; empty optional when the channel closed.
    /// The returned buffer is pooled — dropping it recycles the storage.
    virtual std::optional<FrameBuffer> recv_frame() = 0;

    /// Close both directions; unblocks any pending recv. Queued unsent
    /// frames are dropped deterministically and counted in
    /// stats().frames_dropped.
    virtual void close() = 0;

    virtual std::string peer_description() const = 0;

    virtual TransportStats stats() const { return {}; }

    /// Non-null when this transport can hand its descriptor to an epoll
    /// reactor: the TCP wire itself (see ReactorHook). Transports that
    /// cannot be multiplexed (the in-process loopback has no pollable
    /// descriptor) keep the default, and callers fall back to a blocking
    /// reader thread.
    virtual ReactorHook* reactor_hook() noexcept { return nullptr; }

    /// Phase 1 of a two-phase close: stop accepting new frames and flush
    /// what is already queued, WITHOUT sending FIN. Lane groups call this
    /// on every lane before close() on any, so the peer never sees one
    /// lane's FIN while another lane still holds undelivered frames.
    /// Default no-op; close() alone keeps its full contract.
    virtual void prepare_close() {}

    /// Pool this transport draws inbound frame storage from (the reactor
    /// assembles a TCP wire's inbound frames into it too). Lane wires
    /// return their per-lane pool so bands never share a pool ring.
    virtual FrameBufferPool& frame_pool() noexcept {
        return FrameBufferPool::global();
    }

    /// Re-point the transport at another pool. Only valid before any
    /// traffic flows (a lane group injects per-lane pools right after
    /// accept, before the wire is registered anywhere). Default no-op for
    /// transports without pooled receive storage.
    virtual void set_frame_pool(FrameBufferPool*) noexcept {}

    /// No-op with no caller in src/: every TCP wire has one writer (the
    /// coalescing drain, net/tcp.hpp), so there is nothing to switch.
    /// Kept only because perfbench's TracedTransport still overrides it.
    virtual void set_coalescing(bool) {}

    /// Number of underlying wires. 1 for plain transports; a LaneGroup
    /// reports its band count so callers (RemoteBridge) can register each
    /// lane with the reactor individually.
    virtual std::size_t lane_count() const noexcept { return 1; }

    /// The i-th underlying wire (i < lane_count()). Plain transports
    /// return themselves.
    virtual Transport& lane(std::size_t) noexcept { return *this; }

    /// Compat shim: copy a vector-built frame through the frame pool.
    void send_frame(const std::vector<std::uint8_t>& frame) {
        FrameBuffer buf = frame_pool().acquire(frame.size());
        if (!frame.empty()) std::memcpy(buf.data(), frame.data(), frame.size());
        send_frame(std::move(buf));
    }
};

/// In-process bidirectional pipe: two endpoints connected by bounded
/// queues. `queue_capacity` bounds in-flight frames per direction.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_loopback_pair(std::size_t queue_capacity = 64);

} // namespace compadres::net
