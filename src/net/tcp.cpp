#include "net/tcp.hpp"

#include "cdr/giop.hpp"
#include "obs/flight_recorder.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>

namespace compadres::net {

namespace {

/// Set by mark_reactor_loop_thread(): this thread delivers EPOLLOUT for
/// the wires it owns, so it must never block waiting for the intake
/// space that only its own event handling can free.
thread_local bool t_reactor_loop_thread = false;

[[noreturn]] void fail_errno(const std::string& what) {
    throw TransportError(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Clamp kernel socket buffers when the options ask for a bound (0 keeps
/// the autotuned default). Best-effort: the kernel enforces its own floor.
void set_buffer_bounds(int fd, const TcpOptions& options) {
    if (options.send_buffer_bytes > 0) {
        const int bytes = static_cast<int>(options.send_buffer_bytes);
        setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    }
    if (options.recv_buffer_bytes > 0) {
        const int bytes = static_cast<int>(options.recv_buffer_bytes);
        setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    }
}

/// Read-ahead size: one read() pulls whatever the kernel has queued
/// (bursts of small frames) instead of two reads per frame (header, then
/// body). Small enough that a 64-wire fan-in stages ~1 MiB in total.
constexpr std::size_t kReadAheadBytes = 16 * 1024;

/// Frames per scatter-gather flush: the latency bound one drain imposes on
/// a frame queued behind a sustained burst.
constexpr std::size_t kMaxBatchFrames = 16;

} // namespace

TcpTransport::TcpTransport(int fd, std::string peer, TcpOptions options)
    : fd_(fd), peer_(std::move(peer)), opts_(options),
      pool_(opts_.pool ? opts_.pool : &FrameBufferPool::global()),
      intake_(opts_.intake_capacity ? opts_.intake_capacity : 1) {
    set_nodelay(fd_);
    set_buffer_bounds(fd_, opts_);
    // Writer-only scratch, sized once: drains never touch the heap.
    batch_.reserve(kMaxBatchFrames);
    iov_.reserve(kMaxBatchFrames);
}

TcpTransport::~TcpTransport() {
    close();
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void TcpTransport::send_frame(FrameBuffer frame) {
    obs::FlightRecorder::emit(
        obs::EventType::kFrameSend, frame.size(),
        frame.size() >= cdr::GiopHeader::kSize
            ? cdr::frame_band(frame.data())
            : 0);
    std::unique_lock lk(mu_);
    if (t_reactor_loop_thread && !closing_ && !send_failed_ &&
        count_ == intake_.size()) {
        // A loop-thread sender (frame/closed callback replying under
        // backpressure) must never wait for intake space: the only
        // drain that frees it is the EPOLLOUT this very thread
        // delivers, so the wait below would deadlock the loop — and
        // every wire it owns. One inline resume attempt either ships
        // the parked batch (freeing intake slots) or re-parks on
        // EAGAIN; if the intake is still full after it, a counted
        // drop beats a frozen loop.
        if (parked_ && !writer_active_) {
            writer_active_ = true;
            const bool want_writable = drain(lk);
            if (want_writable) {
                lk.unlock();
                cv_.notify_all();
                if (request_writable_) request_writable_();
                lk.lock();
            }
        }
        if (!closing_ && !send_failed_ && count_ == intake_.size()) {
            frames_dropped_.fetch_add(1, std::memory_order_relaxed);
            lk.unlock();
            frame.release();
            return;
        }
    }
    if (!closing_ && !send_failed_ && !no_new_frames_ &&
        count_ >= intake_.size()) {
        send_stalls_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.wait(lk, [&] {
        return closing_ || send_failed_ || no_new_frames_ ||
               count_ < intake_.size();
    });
    throw_if_unwritable();
    enqueue(std::move(frame));
    // A parked batch means the socket would not take more bytes the
    // last time anyone tried: attempting again from every sender would
    // burn a syscall per enqueue. The reactor's EPOLLOUT resumes it.
    if (writer_active_ || parked_) return;
    // Corked (mid read-pump): stage replies for one flush at uncork.
    // A full intake still drains here so corking never deadlocks a
    // sender against its own backpressure.
    if (corked_ && count_ < intake_.size()) return;
    writer_active_ = true;
    const bool want_writable = drain(lk);
    const bool failed = send_failed_;
    const int err = send_errno_;
    lk.unlock();
    cv_.notify_all();
    if (want_writable && request_writable_) request_writable_();
    if (failed) {
        throw TransportError(std::string("send: ") + std::strerror(err));
    }
}

std::optional<FrameBuffer> TcpTransport::recv_frame() {
    if (fd_ < 0) return std::nullopt;
    if (nonblocking_.load(std::memory_order_relaxed)) {
        throw TransportError(
            "recv_frame on a reactor-managed transport (the reactor "
            "owns the read direction)");
    }
    for (;;) {
        if (auto frame = take_frame()) return frame;
        std::size_t want = 0;
        const ssize_t r = fill(want);
        // EAGAIN: a registration switched the descriptor to O_NONBLOCK
        // under this reader, which must not spin on it.
        if (r < 0) fail_errno("read");
        if (r == 0) {
            if (frame_total_ == 0 && rpos_ == rlen_) return std::nullopt;
            throw TransportError("connection truncated mid-frame");
        }
    }
}

bool TcpTransport::pump_frames(
    const std::function<void(FrameBuffer)>& on_frame, bool peer_closed,
    std::atomic<std::uint64_t>& frames, std::atomic<std::uint64_t>& reads) {
    bool open = true;
    set_corked(true);
    try {
        bool drained = false;
        for (;;) {
            while (auto frame = take_frame()) {
                frames.fetch_add(1, std::memory_order_relaxed);
                if (on_frame) on_frame(std::move(*frame));
            }
            if (drained) break;
            std::size_t want = 0;
            const ssize_t r = fill(want);
            if (r < 0) break; // EAGAIN: drained
            if (r == 0) {     // EOF, at a boundary or mid-frame
                open = false;
                break;
            }
            reads.fetch_add(1, std::memory_order_relaxed);
            drained = static_cast<std::size_t>(r) < want && !peer_closed;
        }
    } catch (...) {
        open = false; // read error, bad header or throwing handler
    }
    set_corked(false);
    return open;
}

void TcpTransport::close() {
    {
        std::lock_guard lk(mu_);
        closing_ = true;
    }
    cv_.notify_all();
    // Unblocks a reader parked in read() and fails any in-flight
    // sendmsg. The fd itself stays open until destruction so no thread
    // can race a reused descriptor.
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return !writer_active_; });
    // A parked batch has no drainer to wake: drop it here along with
    // the queue, deterministically and counted.
    drop_parked_locked();
    drop_queue_locked();
}

void TcpTransport::prepare_close() {
    std::unique_lock lk(mu_);
    if (closing_ || send_failed_) return;
    // Phase 1 of the lane group's two-phase close: refuse new frames,
    // push what is already queued onto the wire, send NO FIN. Senders
    // blocked on intake space wake and throw as if close() ran.
    no_new_frames_ = true;
    cv_.notify_all();
    if (t_reactor_loop_thread) {
        // A loop thread cannot wait for a quiescing writer or a parked
        // batch — both may need this very thread's events to progress.
        // close() on this lane will drop whatever remains, counted.
        return;
    }
    cv_.wait(lk, [&] { return !writer_active_; });
    if (!closing_ && !send_failed_ && !parked_ && count_ > 0) {
        writer_active_ = true;
        const bool want_writable = drain(lk);
        if (want_writable) {
            lk.unlock();
            cv_.notify_all();
            if (request_writable_) request_writable_();
            lk.lock();
        }
    }
    // A parked batch (reactor mode, socket backed up) finishes via
    // EPOLLOUT: wait until it flushes or the connection dies, so every
    // frame accepted before this call is on the wire when we return.
    cv_.wait(lk, [&] {
        return closing_ || send_failed_ || (!parked_ && count_ == 0);
    });
}

TransportStats TcpTransport::stats() const {
    TransportStats s;
    s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    s.frames_received = frames_received_.load(std::memory_order_relaxed);
    s.frames_dropped = frames_dropped_.load(std::memory_order_relaxed);
    s.send_syscalls = send_syscalls_.load(std::memory_order_relaxed);
    s.send_batches = send_batches_.load(std::memory_order_relaxed);
    s.max_batch_frames = max_batch_.load(std::memory_order_relaxed);
    s.send_stalls = send_stalls_.load(std::memory_order_relaxed);
    s.intake_depth_hwm = intake_hwm_.load(std::memory_order_relaxed);
    return s;
}

void TcpTransport::enter_reactor_mode(
    std::function<void()> request_writable) {
    std::lock_guard lk(mu_);
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    request_writable_ = std::move(request_writable);
    nonblocking_.store(true, std::memory_order_relaxed);
}

bool TcpTransport::flush_pending_writes() {
    std::unique_lock lk(mu_);
    // An active drainer owns the socket; its own EAGAIN re-requests
    // writability, so there is nothing for the reactor to take over.
    if (writer_active_) return true;
    if (!parked_ && count_ == 0) return true; // spurious wake: no-op
    if (closing_ || send_failed_) {
        drop_parked_locked();
        drop_queue_locked();
        lk.unlock();
        cv_.notify_all();
        return true;
    }
    writer_active_ = true;
    const bool want_writable = drain(lk);
    lk.unlock();
    cv_.notify_all();
    if (want_writable && request_writable_) request_writable_();
    return !want_writable;
}

/// Bracket one read pump: while corked, send_frame enqueues without
/// flushing (unless the intake fills, to keep the backpressure contract),
/// so every reply the pump's callbacks produce leaves in one flush here.
void TcpTransport::set_corked(bool on) {
    std::unique_lock lk(mu_);
    corked_ = on;
    if (on) return;
    // Uncork: flush whatever the pump's callbacks staged. Skip if a
    // drainer already owns the socket or a parked batch awaits its
    // EPOLLOUT — both resume the queue on their own.
    if (writer_active_ || parked_ || count_ == 0) return;
    if (closing_ || send_failed_) return;
    writer_active_ = true;
    const bool want_writable = drain(lk);
    lk.unlock();
    cv_.notify_all();
    if (want_writable && request_writable_) request_writable_();
}

/// Cut the next complete frame out of the read-ahead bytes; nullopt when
/// more bytes are needed. The max-frame bound is checked before the frame
/// is drawn from the pool, so a corrupt or hostile header cannot drive an
/// unbounded allocation. Throws TransportError on a corrupt or oversize
/// header: the stream cannot be trusted past either.
std::optional<FrameBuffer> TcpTransport::take_frame() {
    constexpr std::size_t kHeader = cdr::GiopHeader::kSize;
    if (frame_total_ == 0) {
        if (rlen_ - rpos_ < kHeader) return std::nullopt;
        const std::uint8_t* head = rbuf_.data() + rpos_;
        std::size_t total = kHeader;
        try {
            total += cdr::decode_header(head, kHeader).message_size;
        } catch (const cdr::MarshalError& e) {
            throw TransportError(std::string("corrupt GIOP header: ") +
                                 e.what());
        }
        if (total > opts_.max_frame_bytes) {
            throw TransportError(
                "GIOP frame of " + std::to_string(total) +
                " bytes exceeds the max-frame limit (" +
                std::to_string(opts_.max_frame_bytes) + ")");
        }
        frame_ = pool_->acquire(total);
        std::memcpy(frame_.data(), head, kHeader);
        rpos_ += kHeader;
        frame_got_ = kHeader;
        frame_total_ = total;
    }
    const std::size_t take =
        std::min(frame_total_ - frame_got_, rlen_ - rpos_);
    if (take > 0) {
        std::memcpy(frame_.data() + frame_got_, rbuf_.data() + rpos_, take);
        rpos_ += take;
        frame_got_ += take;
    }
    if (frame_got_ < frame_total_) return std::nullopt;
    frame_total_ = 0;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::emit(obs::EventType::kFrameRecv, frame_got_,
                              cdr::frame_band(frame_.data()));
    return std::move(frame_);
}

/// One read() once take_frame has consumed what it can: straight into
/// the pending frame when at least a buffer-full of body remains (no copy
/// for large bodies), else into the read-ahead buffer behind the partial
/// header still there. `want` is the size asked for. Returns the bytes
/// read (0 on EOF), or -1 when a non-blocking socket has none; throws
/// TransportError on a read error.
ssize_t TcpTransport::fill(std::size_t& want) {
    if (rbuf_.empty()) rbuf_.resize(kReadAheadBytes);
    const bool direct =
        frame_total_ != 0 && frame_total_ - frame_got_ >= rbuf_.size();
    std::uint8_t* dst = nullptr;
    if (direct) {
        dst = frame_.data() + frame_got_;
        want = frame_total_ - frame_got_;
    } else {
        const std::size_t have = rlen_ - rpos_;
        if (have > 0) std::memmove(rbuf_.data(), rbuf_.data() + rpos_, have);
        rpos_ = 0;
        rlen_ = have;
        dst = rbuf_.data() + have;
        want = rbuf_.size() - have;
    }
    for (;;) {
        const ssize_t r = ::read(fd_, dst, want);
        if (r >= 0) {
            (direct ? frame_got_ : rlen_) += static_cast<std::size_t>(r);
            return r;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
        fail_errno("read");
    }
}

void TcpTransport::throw_if_unwritable() {
    if (closing_ || no_new_frames_) {
        throw TransportError("transport closed");
    }
    if (send_failed_) {
        throw TransportError(std::string("send: ") +
                             std::strerror(send_errno_));
    }
}

void TcpTransport::enqueue(FrameBuffer frame) {
    intake_[(head_ + count_) % intake_.size()] = std::move(frame);
    ++count_;
    // mu_ is held, so a plain load/store high-water update suffices
    // (the atomic is only for the lock-free read in stats()).
    if (count_ > intake_hwm_.load(std::memory_order_relaxed)) {
        intake_hwm_.store(count_, std::memory_order_relaxed);
    }
}

FrameBuffer TcpTransport::dequeue() {
    FrameBuffer out = std::move(intake_[head_]);
    head_ = (head_ + 1) % intake_.size();
    --count_;
    return out;
}

/// Drop every queued frame (storage returns to the pool) and account
/// for it. Called with mu_ held once the writer has quiesced.
void TcpTransport::drop_queue_locked() {
    if (count_ == 0) return;
    frames_dropped_.fetch_add(count_, std::memory_order_relaxed);
    while (count_ > 0) dequeue().release();
}

/// Drop a batch parked mid-write (the peer sees a truncated stream —
/// only reached when the connection is going down anyway). mu_ held.
void TcpTransport::drop_parked_locked() {
    if (batch_.empty()) return;
    frames_dropped_.fetch_add(batch_.size(), std::memory_order_relaxed);
    for (auto& b : batch_) b.release();
    batch_.clear();
    iov_.clear();
    iov_at_ = 0;
    parked_ = false;
}

/// Writer loop: repeatedly peel up to kMaxBatchFrames off the intake
/// (or resume a parked batch) and ship them with one scatter-gather
/// syscall each flush. Entered with mu_ held and writer_active_ set;
/// returns the same way with writer_active_ cleared. Returns true when
/// the batch parked on EAGAIN and the caller must invoke
/// request_writable_ (outside the lock) so the reactor resumes it.
bool TcpTransport::drain(std::unique_lock<std::mutex>& lk) {
    while (!closing_ && !send_failed_) {
        if (!parked_) {
            if (count_ == 0) break;
            const std::size_t n =
                count_ < kMaxBatchFrames ? count_ : kMaxBatchFrames;
            for (std::size_t i = 0; i < n; ++i) batch_.push_back(dequeue());
            stage_batch();
        } else {
            parked_ = false; // resume the saved iovec position
            obs::FlightRecorder::emit(obs::EventType::kWriterResume,
                                      static_cast<std::uint64_t>(fd_),
                                      static_cast<std::uint32_t>(
                                          batch_.size()));
        }
        lk.unlock();
        cv_.notify_all(); // intake space freed: admit blocked senders
        const WriteOutcome outcome = write_batch_step();
        if (outcome == WriteOutcome::kAgain) {
            obs::FlightRecorder::emit(obs::EventType::kWriterPark,
                                      static_cast<std::uint64_t>(fd_),
                                      static_cast<std::uint32_t>(
                                          batch_.size()));
            lk.lock();
            parked_ = true;
            writer_active_ = false;
            return true;
        }
        const std::size_t n = batch_.size();
        for (auto& b : batch_) b.release();
        batch_.clear();
        iov_.clear();
        iov_at_ = 0;
        lk.lock();
        if (outcome == WriteOutcome::kDone) {
            frames_sent_.fetch_add(n, std::memory_order_relaxed);
            obs::FlightRecorder::emit(obs::EventType::kCoalesceFlush,
                                      static_cast<std::uint64_t>(fd_),
                                      static_cast<std::uint32_t>(n));
        } else {
            send_failed_ = true;
            frames_dropped_.fetch_add(n, std::memory_order_relaxed);
        }
    }
    if (closing_ || send_failed_) {
        drop_parked_locked();
        drop_queue_locked();
    }
    writer_active_ = false;
    return false;
}

/// Build the iovec array for batch_ and account the flush attempt.
void TcpTransport::stage_batch() {
    iov_.clear();
    iov_at_ = 0;
    for (auto& b : batch_) {
        if (b.size() == 0) continue;
        iov_.push_back(iovec{b.data(), b.size()});
    }
    send_batches_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t prev = max_batch_.load(std::memory_order_relaxed);
    while (batch_.size() > prev &&
           !max_batch_.compare_exchange_weak(prev, batch_.size(),
                                             std::memory_order_relaxed)) {
    }
}

/// Ship the staged iovecs with sendmsg(MSG_NOSIGNAL), advancing across
/// partial writes. kAgain (non-blocking sockets only) keeps iov_at_ and
/// the partially-advanced iovecs so a later call resumes exactly where
/// the socket stopped accepting bytes.
TcpTransport::WriteOutcome TcpTransport::write_batch_step() {
    while (iov_at_ < iov_.size()) {
        msghdr mh{};
        mh.msg_iov = iov_.data() + iov_at_;
        mh.msg_iovlen = iov_.size() - iov_at_;
        const ssize_t w = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR) continue;
            if ((errno == EAGAIN || errno == EWOULDBLOCK) &&
                nonblocking_.load(std::memory_order_relaxed)) {
                return WriteOutcome::kAgain;
            }
            send_errno_ = errno;
            return WriteOutcome::kError;
        }
        send_syscalls_.fetch_add(1, std::memory_order_relaxed);
        std::size_t advanced = static_cast<std::size_t>(w);
        while (advanced > 0 && iov_at_ < iov_.size()) {
            if (advanced >= iov_[iov_at_].iov_len) {
                advanced -= iov_[iov_at_].iov_len;
                ++iov_at_;
            } else {
                iov_[iov_at_].iov_base =
                    static_cast<std::uint8_t*>(iov_[iov_at_].iov_base) +
                    advanced;
                iov_[iov_at_].iov_len -= advanced;
                advanced = 0;
            }
        }
    }
    return WriteOutcome::kDone;
}

void mark_reactor_loop_thread() noexcept { t_reactor_loop_thread = true; }

std::unique_ptr<Transport> tcp_connect(const std::string& host,
                                       std::uint16_t port,
                                       const TcpOptions& options) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail_errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw TransportError("bad IPv4 address: " + host);
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        fail_errno("connect to " + host + ":" + std::to_string(port));
    }
    return std::make_unique<TcpTransport>(
        fd, host + ":" + std::to_string(port), options);
}

TcpAcceptor::TcpAcceptor(std::uint16_t port, const TcpOptions& options)
    : options_(options) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) fail_errno("socket");
    int one = 1;
    setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    // SO_RCVBUF must be set on the listening socket so accepted
    // connections inherit the bound before the TCP window is negotiated.
    set_buffer_bounds(fd_, options_);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        fail_errno("bind");
    }
    if (::listen(fd_, 128) != 0) fail_errno("listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        fail_errno("getsockname");
    }
    port_ = ntohs(addr.sin_port);
}

TcpAcceptor::~TcpAcceptor() { close(); }

std::unique_ptr<Transport> TcpAcceptor::accept() {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd = ::accept(fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
        if (errno == EBADF || errno == EINVAL) return nullptr; // closed
        fail_errno("accept");
    }
    char buf[INET_ADDRSTRLEN] = {};
    inet_ntop(AF_INET, &peer.sin_addr, buf, sizeof(buf));
    return std::make_unique<TcpTransport>(
        fd, std::string(buf) + ":" + std::to_string(ntohs(peer.sin_port)),
        options_);
}

void TcpAcceptor::close() {
    if (fd_ >= 0) {
        ::shutdown(fd_, SHUT_RDWR);
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace compadres::net
