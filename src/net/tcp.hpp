// TCP transport with GIOP-aware framing and a coalescing send path.
//
// A frame on the wire is a GIOP message: the receiver reads the fixed
// 12-byte header, extracts message_size, and reads exactly that many more
// bytes (bounded by TcpOptions::max_frame_bytes so a corrupt or hostile
// header cannot drive an unbounded allocation). TCP_NODELAY is set —
// request/reply traffic at message sizes of 32-1024 B would otherwise
// serialize behind Nagle.
//
// Every wire has one writer: the coalescing drain. Senders enqueue into a
// bounded intake ring; whichever thread finds no writer active drains the
// ring with scatter-gather sendmsg calls (up to 16 iovecs per flush, so
// one busy sender cannot starve the wire of latency). Under bursts the
// drain combines frames from every sender, so syscalls per message drop
// below one; uncontended it is one enqueue plus an inline flush of a
// single frame — one syscall, no added latency.
//
// All writes use sendmsg(MSG_NOSIGNAL): a vanished peer surfaces as a
// TransportError on the sending thread, never as a SIGPIPE process kill.
//
// Reactor mode (net/reactor.hpp): the transport exposes a ReactorHook, so
// an epoll loop can own the read direction (recv_frame then throws) and
// resume EAGAIN-parked batches on EPOLLOUT. Entering reactor mode sets
// O_NONBLOCK; a batch the socket will not take parks in the writer's
// staging area until the loop resumes it.
#pragma once

#include "net/transport.hpp"

#include <cstdint>
#include <memory>
#include <string>

namespace compadres::net {

struct TcpOptions {
    /// Upper bound on GIOP header + body accepted by recv_frame.
    std::size_t max_frame_bytes = 16 * 1024 * 1024;
    /// Coalescer intake bound; a full intake blocks senders (backpressure),
    /// exactly like the blocking write it replaced.
    std::size_t intake_capacity = 64;
    /// SO_SNDBUF / SO_RCVBUF in bytes; 0 keeps the kernel's autotuned
    /// default. Real-time deployments clamp these so the latency a frame
    /// can accumulate inside kernel buffers is bounded, not whatever the
    /// autotuner grew to. (On an acceptor the receive bound is applied to
    /// the listening socket so accepted connections inherit it before the
    /// window is negotiated.)
    std::size_t send_buffer_bytes = 0;
    std::size_t recv_buffer_bytes = 0;
    /// Frame pool inbound storage is drawn from; nullptr uses the
    /// process-global pool. Lane groups hand each wire its own pool so
    /// bands never share a pool ring. Must outlive the transport.
    FrameBufferPool* pool = nullptr;
};

/// Connect to a listening acceptor. Throws TransportError on failure.
std::unique_ptr<Transport> tcp_connect(const std::string& host,
                                       std::uint16_t port,
                                       const TcpOptions& options = {});

/// Listening socket; accept() yields one Transport per connection.
class TcpAcceptor {
public:
    /// Binds and listens on 127.0.0.1:`port`; port 0 picks a free port
    /// (see bound_port()). `options` applies to every accepted transport.
    explicit TcpAcceptor(std::uint16_t port, const TcpOptions& options = {});
    ~TcpAcceptor();

    TcpAcceptor(const TcpAcceptor&) = delete;
    TcpAcceptor& operator=(const TcpAcceptor&) = delete;

    std::uint16_t bound_port() const noexcept { return port_; }

    /// Block for the next connection; nullptr after close().
    std::unique_ptr<Transport> accept();

    void close();

private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
    TcpOptions options_;
};

} // namespace compadres::net
