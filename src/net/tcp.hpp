// TCP transport with GIOP-aware framing and a coalescing send path.
//
// A frame on the wire is a GIOP message: the receiver reads the fixed
// 12-byte header, extracts message_size, and reads exactly that many more
// bytes (bounded by TcpOptions::max_frame_bytes so a corrupt or hostile
// header cannot drive an unbounded allocation). TCP_NODELAY is set —
// request/reply traffic at message sizes of 32-1024 B would otherwise
// serialize behind Nagle.
//
// Each wire has one frame assembler: a 16 KiB read-ahead buffer and one
// header/body state machine. Small frames are cut out of the buffer (a
// burst of queued replies costs one read() rather than two per frame);
// a body with at least a buffer-full outstanding is read straight into
// its pooled frame. Two drivers share the assembler: the blocking
// recv_frame, and the reactor's pump_frames. Bytes the first read ahead
// stay in the buffer when the wire moves to a reactor, and the reactor
// pumps once at registration, so no frame is lost in the handoff.
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
// interface). The loop owns the read direction (recv_frame then throws),
// pumps frames on read readiness and resumes EAGAIN-parked batches on
// EPOLLOUT. Entering reactor mode sets O_NONBLOCK; a batch the socket
// will not take parks in the writer's staging area until the loop
// resumes it.
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
    /// direction and drives pump_frames); send_frame keeps its
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

    /// Reactor-thread read pump on read readiness (and once at
    /// registration, for bytes a blocking recv_frame read ahead): hand
    /// every complete frame to `on_frame` until the socket drains. The
    /// writer is corked for the pump, so the replies its callbacks send
    /// leave in one scatter-gather flush. A short read means the kernel
    /// buffer is drained (epoll(7)) and ends the pump without a final
    /// EAGAIN read; `peer_closed` (the event carried RDHUP/ERR/HUP)
    /// disables that exit, since a FIN queued behind the data raises no
    /// further edge. Each read() that returns bytes counts in `reads`,
    /// and each frame in `frames` before `on_frame` sees it. Returns false
    /// when the wire must close: EOF (also mid-frame), a read error, a
    /// corrupt or oversize header, or a throwing handler.
    bool pump_frames(const std::function<void(FrameBuffer)>& on_frame,
                     bool peer_closed, std::atomic<std::uint64_t>& frames,
                     std::atomic<std::uint64_t>& reads);

private:
    enum class WriteOutcome { kDone, kAgain, kError };

    // Helpers of the send and receive paths, defined in tcp.cpp (their
    // only caller). The small ones are inline so the compiler can fold
    // them into the per-frame send path instead of calling them.
    std::optional<FrameBuffer> take_frame();
    ssize_t fill(std::size_t& want);
    void set_corked(bool on);
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

    // Frame assembler, touched by one reader at a time: the recv_frame
    // thread, then (after registration hands it over through the loop's
    // command queue) the reactor loop. Read-ahead bytes are
    // rbuf_[rpos_, rlen_); frame_total_ == 0 means a header is awaited,
    // otherwise frame_ holds frame_got_ of its frame_total_ bytes.
    std::vector<std::uint8_t> rbuf_;
    std::size_t rpos_ = 0;
    std::size_t rlen_ = 0;
    FrameBuffer frame_;
    std::size_t frame_got_ = 0;
    std::size_t frame_total_ = 0;

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
