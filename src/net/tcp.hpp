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
// Reactor mode (net/reactor.hpp): TcpTransport is the only wire an epoll
// loop drives, so the reactor calls its reactor-surface methods directly
// (ReactorHook in net/transport.hpp is an alias of this class, not an
// interface). The loop owns the read direction (recv_frame then throws)
// and resumes EAGAIN-parked batches on EPOLLOUT. Entering reactor mode
// sets O_NONBLOCK; a batch the socket will not take parks in the writer's
// staging area until the loop resumes it.
#pragma once

#include "net/transport.hpp"

#include <sys/uio.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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

/// One TCP connection. Built by tcp_connect and TcpAcceptor::accept;
/// callers hold it as a Transport, the reactor through reactor_hook().
class TcpTransport final : public Transport {
public:
    TcpTransport(int fd, std::string peer, TcpOptions options);
    ~TcpTransport() override;

    void send_frame(FrameBuffer frame) override;
    std::optional<FrameBuffer> recv_frame() override;
    void close() override;
    void prepare_close() override;
    std::string peer_description() const override { return peer_; }
    TransportStats stats() const override;
    TcpTransport* reactor_hook() noexcept override { return this; }
    FrameBufferPool& frame_pool() noexcept override { return *pool_; }
    void set_frame_pool(FrameBufferPool* pool) noexcept override {
        pool_ = pool ? pool : &FrameBufferPool::global();
    }

    // ---- reactor surface (net/reactor.hpp) ----

    /// The pollable descriptor the reactor registers with epoll.
    int descriptor() const noexcept { return fd_; }

    /// Switch into non-blocking reactor mode. The descriptor is set
    /// O_NONBLOCK; recv_frame() becomes invalid (the reactor owns the read
    /// direction and assembles frames itself); send_frame keeps its
    /// blocking-backpressure contract but, instead of blocking in sendmsg
    /// when the socket backs up, parks the unwritten output and invokes
    /// `request_writable` (from any thread) so the reactor arms EPOLLOUT
    /// and resumes the flush when the socket drains.
    void enter_reactor_mode(std::function<void()> request_writable);

    /// Reactor-thread call on EPOLLOUT (or before deregistration):
    /// continue the coalescing drain without blocking. Returns true when
    /// EPOLLOUT interest can be dropped — nothing is parked, or another
    /// thread owns the drain and will re-invoke request_writable on its
    /// own EAGAIN.
    bool flush_pending_writes();

    /// Upper bound on header + body the reactor's frame assembly accepts
    /// (mirrors recv_frame's own bound).
    std::size_t max_frame_bytes() const noexcept {
        return opts_.max_frame_bytes;
    }

    /// Account a reactor-assembled frame in stats().
    void note_frame_received() noexcept;

    /// Reactor-thread hint bracketing one read pump: while corked,
    /// send_frame enqueues without flushing (unless the intake fills, to
    /// preserve the backpressure contract), so every reply a pump's frame
    /// callbacks produce leaves in one scatter-gather flush at uncork.
    void set_corked(bool on);

private:
    enum class WriteOutcome { kDone, kAgain, kError };

    // Helpers of the send and receive paths, defined in tcp.cpp (their
    // only caller). The small ones are inline so the compiler can fold
    // them into the per-frame send path instead of calling them.
    bool buffered_read(std::uint8_t* dst, std::size_t n);
    inline void throw_if_unwritable();
    inline void enqueue(FrameBuffer frame);
    inline FrameBuffer dequeue();
    inline void drop_queue_locked();
    void drop_parked_locked();
    bool drain(std::unique_lock<std::mutex>& lk);
    inline void stage_batch();
    inline WriteOutcome write_batch_step();

    int fd_;
    std::string peer_;
    TcpOptions opts_;
    /// Inbound frame storage source; swapped only before traffic flows.
    FrameBufferPool* pool_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<FrameBuffer> intake_; ///< fixed ring: slots never realloc
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    bool writer_active_ = false;
    bool closing_ = false;
    bool send_failed_ = false;
    /// prepare_close() ran: new sends throw, queued frames still flush.
    bool no_new_frames_ = false;
    /// Reactor mode: a batch hit EAGAIN mid-write and waits for EPOLLOUT.
    bool parked_ = false;
    // Reactor read-pump cork: replies staged in the intake flush together
    // at uncork instead of one sendmsg each (set_corked).
    bool corked_ = false;
    // recv_frame staging (reader thread only, untouched in reactor mode).
    std::vector<std::uint8_t> rbuf_;
    std::size_t rpos_ = 0;
    std::size_t rlen_ = 0;
    int send_errno_ = 0;
    std::atomic<bool> nonblocking_{false};
    std::function<void()> request_writable_;

    // Owned by whichever thread holds writer_active_ (or, while parked_,
    // by nobody — protected by mu_ until a resumer claims it).
    std::vector<FrameBuffer> batch_;
    std::vector<iovec> iov_;
    std::size_t iov_at_ = 0; ///< first iovec not yet fully written

    std::atomic<std::uint64_t> frames_sent_{0};
    std::atomic<std::uint64_t> frames_received_{0};
    std::atomic<std::uint64_t> frames_dropped_{0};
    std::atomic<std::uint64_t> send_syscalls_{0};
    std::atomic<std::uint64_t> send_batches_{0};
    std::atomic<std::uint64_t> max_batch_{0};
    std::atomic<std::uint64_t> send_stalls_{0};
    std::atomic<std::uint64_t> intake_hwm_{0};
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
