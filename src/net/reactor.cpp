#include "net/reactor.hpp"

#include "cdr/giop.hpp"
#include "net/uring.hpp"
#include "rt/thread.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

namespace compadres::net {

namespace {

std::size_t resolve_threads(std::size_t requested) {
    if (requested > 0) return requested;
    if (const char* env = std::getenv("COMPADRES_REACTOR_THREADS")) {
        const long v = std::atol(env);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t cap = hw == 0 ? 1 : hw;
    return cap < 4 ? cap : 4;
}

ReactorBackend resolve_backend(ReactorBackend requested) {
    if (requested != ReactorBackend::kDefault) return requested;
    if (const char* env = std::getenv("COMPADRES_REACTOR_BACKEND")) {
        if (std::strcmp(env, "uring") == 0) return ReactorBackend::kUring;
        if (std::strcmp(env, "epoll") == 0) return ReactorBackend::kEpoll;
    }
#ifdef COMPADRES_URING_DEFAULT
    return ReactorBackend::kUring;
#else
    return ReactorBackend::kEpoll;
#endif
}

/// One registered descriptor plus its incremental inbound-frame state.
/// Owned by exactly one loop; touched only on that loop's thread.
struct Wire {
    std::uint64_t id = 0;
    ReactorHook* hook = nullptr;
    Reactor::FrameHandler on_frame;
    Reactor::ClosedHandler on_closed;

    // Frame assembly: header bytes accumulate in `header`; once complete
    // the pooled frame is sized from message_size and body bytes stream
    // straight into it. frame_total == 0 means "still reading the header".
    std::uint8_t header[cdr::GiopHeader::kSize] = {};
    std::size_t header_got = 0;
    FrameBuffer frame;
    std::size_t frame_got = 0;   ///< bytes of `frame` filled (incl. header)
    std::size_t frame_total = 0; ///< header + body target size

    // Epoll read staging: each refill pulls up to a scratch-full in one
    // read() and the state machine consumes it in memory, so small frames
    // cost one syscall instead of header-read + body-read + EAGAIN-read.
    // Sized by EpollBackend::add; stays empty on the uring backend (its
    // staging is the loop's provided-buffer chunks).
    std::vector<std::uint8_t> scratch;

    bool want_writable = false; ///< write-ready armed and not yet delivered

    // Uring-only state, loop-thread owned.
    msghdr send_mh{};            ///< stable msghdr a gather-send SQE points at
    bool recv_armed = false;     ///< multishot recv SQE in flight
    bool send_inflight = false;  ///< gather-send SQE in flight
    bool pollout_inflight = false; ///< POLL_ADD(POLLOUT) SQE in flight
    bool cork_marked = false;    ///< corked for the current CQE cycle
};

/// Per-wire epoll read staging capacity. Big enough to swallow a typical
/// wakeup's worth of small frames in one syscall, small enough that a
/// 64-wire fan-in stages ~1 MiB total.
constexpr std::size_t kScratchBytes = 16 * 1024;

/// Uring provided-buffer chunk size: exactly the frame pool's 4 KiB size
/// class, so the loop's receive staging recycles through one pool ring.
constexpr std::size_t kUringChunkBytes = 4096;
constexpr unsigned kDefaultUringBuffers = 64;
constexpr unsigned kDefaultUringEntries = 256;

/// Read-side interest. EPOLLRDHUP rides along so an event that coalesced
/// data with the peer's FIN is distinguishable: the short-read fast exit
/// in pump_reads must not be taken then, or the already-queued EOF would
/// never produce another edge.
constexpr std::uint32_t kReadInterest = EPOLLIN | EPOLLRDHUP | EPOLLET;

/// Blocking handshake for cross-thread deregistration. The waiter owns
/// the storage (stack frame) and frees it the moment wait() returns, so
/// signal() must notify *under* the mutex: notifying after unlock races
/// the waiter's destruction of the condvar it is notifying.
struct Completion {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    void signal() {
        std::lock_guard lk(mu);
        done = true;
        cv.notify_all();
    }
    void wait() {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return done; });
    }
};

struct Command {
    enum class Kind : std::uint8_t { kAdd, kRemove, kArmWrite, kPoke, kStop };
    Kind kind = Kind::kStop;
    std::uint64_t id = 0;
    std::unique_ptr<Wire> wire;       ///< kAdd payload
    Completion* completion = nullptr; ///< kRemove handshake
};

/// The epoll-vs-uring split. One backend per loop, owned by the loop,
/// driven only on the loop's thread (run() IS the loop thread). The
/// backend owns descriptor-level readiness/completion plumbing; the Loop
/// keeps everything backend-neutral: the command queue and its eventfd
/// doorbell, the wire table, GIOP frame assembly, corking semantics, and
/// stats. The contract per method:
///
///   add        — attach the wire's descriptor; false = unusable
///                descriptor (the loop accounts a wire_add_failure and
///                fires on_closed).
///   remove     — flush-or-park the transport's pending output and fully
///                detach the descriptor; after return the backend holds
///                no reference to the wire (io_uring must cancel and
///                drain in-flight SQEs here, or the kernel's file refs
///                outlive the transport).
///   arm_write  — deliver exactly one write-ready notification once the
///                descriptor accepts bytes again (edge semantics).
///   poke       — manufacture a write-ready delivery without marking the
///                wire as wanting one (the spurious-wakeup test seam).
class LoopBackend {
public:
    virtual ~LoopBackend() = default;
    virtual const char* name() const noexcept = 0;
    virtual void run() = 0;
    virtual bool add(Wire& w) = 0;
    virtual void remove(Wire& w) = 0;
    virtual void arm_write(Wire& w) = 0;
    virtual void poke(Wire& w) = 0;
};

} // namespace

/// One event loop: the command ring (eventfd doorbell + queue), the wires
/// assigned to this thread, frame assembly, and a pluggable LoopBackend
/// that waits for readiness/completions. All descriptor mutations happen
/// on the loop thread itself (commands are posted, not applied in place),
/// so backend bookkeeping never races its wait call.
class Reactor::Loop {
public:
    enum class PumpResult { kIdle, kClosed };

    /// Throws TransportError when the eventfd/backend plumbing cannot be
    /// set up: a loop whose wait would fail on the first cycle silently
    /// accepts wires and never delivers a frame, so the failure must
    /// surface at construction, not as a dead pool. A kUring request
    /// whose io_uring setup fails is not fatal — it falls back to epoll,
    /// recorded in uring_fallbacks.
    Loop(std::size_t index, const ReactorOptions& options,
         ReactorBackend kind);
    ~Loop();

    void add_wire(std::unique_ptr<Wire> wire) {
        Command c;
        c.kind = Command::Kind::kAdd;
        c.wire = std::move(wire);
        post(std::move(c));
    }

    void remove_wire(std::uint64_t id) {
        if (t_current_loop == this) {
            // Called from this loop's own callback: apply inline; posting
            // and waiting would deadlock against ourselves.
            do_remove(id);
            return;
        }
        Completion done;
        Command c;
        c.kind = Command::Kind::kRemove;
        c.id = id;
        c.completion = &done;
        post(std::move(c));
        done.wait();
    }

    void arm_write(std::uint64_t id) {
        if (t_current_loop == this) {
            do_arm(id);
            return;
        }
        Command c;
        c.kind = Command::Kind::kArmWrite;
        c.id = id;
        post(std::move(c));
    }

    /// Test seam (Reactor::poke_writable): manufacture the spurious
    /// write-ready delivery the handler must tolerate.
    void poke(std::uint64_t id) {
        Command c;
        c.kind = Command::Kind::kPoke;
        c.id = id;
        post(std::move(c));
    }

    void request_stop() {
        Command c;
        c.kind = Command::Kind::kStop;
        post(std::move(c));
    }

    void join() {
        if (thread_->joinable()) thread_->join();
    }

    void accumulate(ReactorStats& out) const {
        out.frames_assembled += frames_assembled_.load(std::memory_order_relaxed);
        out.writable_events += writable_events_.load(std::memory_order_relaxed);
        out.spurious_writables +=
            spurious_writables_.load(std::memory_order_relaxed);
        out.command_wakeups += command_wakeups_.load(std::memory_order_relaxed);
        out.wires_closed += wires_closed_.load(std::memory_order_relaxed);
        out.wire_add_failures +=
            wire_add_failures_.load(std::memory_order_relaxed);
        out.wait_syscalls += wait_syscalls_.load(std::memory_order_relaxed);
        out.read_syscalls += read_syscalls_.load(std::memory_order_relaxed);
        out.send_sqes += send_sqes_.load(std::memory_order_relaxed);
        out.recv_enobufs += recv_enobufs_.load(std::memory_order_relaxed);
        if (uring_fallback_) ++out.uring_fallbacks;
        if (is_uring_) ++out.uring_loops;
    }

    bool is_uring() const noexcept { return is_uring_; }

    // ---- services the backends call (loop thread only) ----

    static Loop* current() noexcept { return t_current_loop; }

    int event_fd() const noexcept { return evfd_; }

    Wire* find_wire(std::uint64_t id) {
        auto it = wires_.find(id);
        return it == wires_.end() ? nullptr : it->second.get();
    }

    void drain_eventfd() {
        std::uint64_t counter = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(evfd_, &counter, sizeof(counter));
    }

    /// Returns true when a stop command was seen.
    bool process_commands() {
        {
            std::lock_guard lk(cmd_mu_);
            scratch_.swap(commands_);
        }
        bool saw_stop = false;
        for (Command& c : scratch_) {
            switch (c.kind) {
            case Command::Kind::kAdd:
                do_add(std::move(c.wire));
                break;
            case Command::Kind::kRemove:
                do_remove(c.id);
                if (c.completion != nullptr) c.completion->signal();
                break;
            case Command::Kind::kArmWrite:
                do_arm(c.id);
                break;
            case Command::Kind::kPoke: {
                auto it = wires_.find(c.id);
                if (it != wires_.end()) backend_->poke(*it->second);
                break;
            }
            case Command::Kind::kStop:
                saw_stop = true;
                break;
            }
        }
        scratch_.clear();
        if (saw_stop) {
            // Deterministic teardown: flush-or-drop every wire's intake
            // before its descriptor leaves the backend.
            while (!wires_.empty()) do_remove(wires_.begin()->first);
        }
        return saw_stop;
    }

    /// Account and hand off a completed frame; kClosed if the handler
    /// throws.
    PumpResult deliver_frame(Wire& w) {
        w.hook->note_frame_received();
        frames_assembled_.fetch_add(1, std::memory_order_relaxed);
        FrameBuffer complete = std::move(w.frame);
        w.frame_total = 0;
        w.frame_got = 0;
        w.header_got = 0;
        if (w.on_frame) {
            try {
                w.on_frame(std::move(complete));
            } catch (...) {
                return PumpResult::kClosed;
            }
        }
        return PumpResult::kIdle;
    }

    /// Run `len` inbound bytes through the header/body state machine,
    /// delivering every frame completed along the way. Backend-neutral:
    /// the epoll pump feeds it scratch refills, the uring backend feeds
    /// it provided-buffer chunks. kClosed on a corrupt/oversize header or
    /// a throwing frame handler.
    PumpResult consume(Wire& w, const std::uint8_t* data, std::size_t len) {
        std::size_t pos = 0;
        while (pos < len) {
            const std::size_t avail = len - pos;
            if (w.frame_total == 0) {
                const std::size_t take =
                    std::min(cdr::GiopHeader::kSize - w.header_got, avail);
                std::memcpy(w.header + w.header_got, data + pos, take);
                w.header_got += take;
                pos += take;
                if (w.header_got < cdr::GiopHeader::kSize) continue;
                std::size_t total = 0;
                try {
                    const cdr::GiopHeader header = cdr::decode_header(
                        w.header, cdr::GiopHeader::kSize);
                    total = cdr::GiopHeader::kSize +
                            static_cast<std::size_t>(header.message_size);
                } catch (...) {
                    return PumpResult::kClosed; // corrupt header
                }
                if (total > w.hook->max_frame_bytes()) {
                    return PumpResult::kClosed;
                }
                // Draw from the wire's own pool (per-lane for lane
                // groups) so bands never share a pool ring.
                w.frame = w.hook->frame_pool().acquire(total);
                std::memcpy(w.frame.data(), w.header, cdr::GiopHeader::kSize);
                w.frame_total = total;
                w.frame_got = cdr::GiopHeader::kSize;
            } else {
                const std::size_t take =
                    std::min(w.frame_total - w.frame_got, avail);
                std::memcpy(w.frame.data() + w.frame_got, data + pos, take);
                w.frame_got += take;
                pos += take;
                if (w.frame_got == w.frame_total &&
                    deliver_frame(w) == PumpResult::kClosed) {
                    return PumpResult::kClosed;
                }
            }
        }
        return PumpResult::kIdle;
    }

    /// Edge-triggered read pump (epoll backend): drain the socket,
    /// handing each completed frame to on_frame. kClosed on EOF
    /// (including EOF mid-frame), read error, oversize/corrupt header, or
    /// a throwing frame handler.
    ///
    /// Reads are staged: each refill pulls up to a scratch-full in one
    /// syscall and consume() eats it in memory. A short read on a stream
    /// socket means the kernel buffer is drained (epoll(7)), which
    /// satisfies the edge-triggered contract without a final EAGAIN read
    /// — the common case, a few small frames per wakeup, costs one
    /// syscall total instead of three per frame. Bodies with more than a
    /// scratch-full outstanding bypass the stage and read straight into
    /// the pooled frame (no copy).
    ///
    /// `peer_closed` (event carried EPOLLRDHUP/ERR/HUP) disables the
    /// short-read exit: a FIN queued behind the data produces no further
    /// edge, so this pump must read through to the EOF itself.
    PumpResult pump_reads(Wire& w, bool peer_closed) {
        const int fd = w.hook->descriptor();
        for (;;) {
            const bool direct =
                w.frame_total != 0 &&
                w.frame_total - w.frame_got >= w.scratch.size();
            std::uint8_t* dst =
                direct ? w.frame.data() + w.frame_got : w.scratch.data();
            const std::size_t want =
                direct ? w.frame_total - w.frame_got : w.scratch.size();
            const ssize_t r = ::read(fd, dst, want);
            if (r == 0) return PumpResult::kClosed; // EOF (incl. mid-frame)
            if (r < 0) {
                if (errno == EINTR) continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    return PumpResult::kIdle;
                }
                return PumpResult::kClosed;
            }
            read_syscalls_.fetch_add(1, std::memory_order_relaxed);
            const bool drained =
                static_cast<std::size_t>(r) < want && !peer_closed;
            if (direct) {
                w.frame_got += static_cast<std::size_t>(r);
                if (w.frame_got == w.frame_total &&
                    deliver_frame(w) == PumpResult::kClosed) {
                    return PumpResult::kClosed;
                }
            } else if (consume(w, w.scratch.data(),
                               static_cast<std::size_t>(r)) ==
                       PumpResult::kClosed) {
                return PumpResult::kClosed;
            }
            if (drained) return PumpResult::kIdle;
        }
    }

    /// EOF/error-driven close: detach from the backend, hand any final
    /// accounting to the transport via its own close later, then notify
    /// the owner.
    void close_wire(Wire& w) {
        backend_->remove(w);
        wires_closed_.fetch_add(1, std::memory_order_relaxed);
        Reactor::ClosedHandler on_closed = std::move(w.on_closed);
        wires_.erase(w.id); // frees `w`
        if (on_closed) on_closed();
    }

    void note_wakeup() {
        command_wakeups_.fetch_add(1, std::memory_order_relaxed);
    }
    void note_wait_syscall() {
        wait_syscalls_.fetch_add(1, std::memory_order_relaxed);
    }
    void note_send_sqe() {
        send_sqes_.fetch_add(1, std::memory_order_relaxed);
    }
    void note_recv_enobufs() {
        recv_enobufs_.fetch_add(1, std::memory_order_relaxed);
    }
    void note_writable(bool spurious) {
        writable_events_.fetch_add(1, std::memory_order_relaxed);
        if (spurious) {
            spurious_writables_.fetch_add(1, std::memory_order_relaxed);
        }
    }

private:
    void post(Command c) {
        bool enqueued = false;
        {
            std::lock_guard lk(cmd_mu_);
            if (!exited_) {
                commands_.push_back(std::move(c));
                enqueued = true;
            }
        }
        if (enqueued) {
            const std::uint64_t one = 1;
            [[maybe_unused]] const ssize_t w =
                ::write(evfd_, &one, sizeof(one));
            return;
        }
        // Loop already gone: every wire was removed during stop, so a
        // removal is trivially complete; other commands are moot.
        if (c.completion != nullptr) c.completion->signal();
    }

    void run() {
        t_current_loop = this;
        // Transports must see sends from this thread's callbacks as
        // loop-thread sends (never block on intake backpressure that only
        // this thread's write-ready handling could relieve).
        mark_reactor_loop_thread();
        // Batch-hint the loop thread: an event loop that wakeup-preempts
        // the very producers that feed it sees one frame per edge and
        // never gets to coalesce (EEVDF preempts on wake far more eagerly
        // than CFS did). SCHED_BATCH keeps the loop runnable but lets a
        // bursting sender finish its burst first, so a single cycle pumps
        // the whole burst and the corked writer folds the replies into
        // one flush. Unprivileged (it only ever lowers priority);
        // best-effort on kernels without it.
        struct sched_param sp {};
        (void)::sched_setscheduler(0, SCHED_BATCH, &sp);
        backend_->run();
        // Final drain under the same lock hold that publishes exited_:
        // a racing post() either lands before (drained here) or observes
        // exited_ and self-completes.
        std::lock_guard lk(cmd_mu_);
        scratch_.swap(commands_);
        for (Command& c : scratch_) {
            if (c.completion != nullptr) c.completion->signal();
        }
        scratch_.clear();
        exited_ = true;
        t_current_loop = nullptr;
    }

    void do_add(std::unique_ptr<Wire> wire) {
        Wire& w = *wire;
        auto [it, inserted] = wires_.emplace(w.id, std::move(wire));
        if (!backend_->add(w)) {
            // Unusable descriptor: surface as an immediate close.
            wire_add_failures_.fetch_add(1, std::memory_order_relaxed);
            wires_closed_.fetch_add(1, std::memory_order_relaxed);
            Reactor::ClosedHandler on_closed = std::move(w.on_closed);
            wires_.erase(it);
            if (on_closed) on_closed();
            return;
        }
        // The transport entered reactor mode before this command was
        // posted, so a concurrent send may already have parked on EAGAIN
        // and requested writability while the wire was unknown here —
        // that arm silently no-op'd. Re-flush now that the wire is
        // registered: a batch still parked re-requests from its own
        // EAGAIN, and this time do_arm (inline, same thread) sticks.
        w.hook->flush_pending_writes();
    }

    /// Deliberate removal (deregister/stop): the backend flushes the
    /// coalescing intake — EAGAIN'd output is dropped-and-counted by the
    /// transport's own close later — and detaches the descriptor; then
    /// the wire is freed (returning any half-assembled inbound frame to
    /// the pool). on_closed is NOT invoked: that callback means "the
    /// peer went away".
    void do_remove(std::uint64_t id) {
        auto it = wires_.find(id);
        if (it == wires_.end()) return;
        backend_->remove(*it->second);
        wires_.erase(it);
    }

    void do_arm(std::uint64_t id) {
        auto it = wires_.find(id);
        if (it == wires_.end()) return;
        backend_->arm_write(*it->second);
    }

    static thread_local Loop* t_current_loop;

    int evfd_ = -1;
    std::unordered_map<std::uint64_t, std::unique_ptr<Wire>> wires_;

    std::mutex cmd_mu_;
    std::vector<Command> commands_;
    std::vector<Command> scratch_; ///< swap target: drains without realloc
    bool exited_ = false;

    std::atomic<std::uint64_t> frames_assembled_{0};
    std::atomic<std::uint64_t> writable_events_{0};
    std::atomic<std::uint64_t> spurious_writables_{0};
    std::atomic<std::uint64_t> command_wakeups_{0};
    std::atomic<std::uint64_t> wires_closed_{0};
    std::atomic<std::uint64_t> wire_add_failures_{0};
    std::atomic<std::uint64_t> wait_syscalls_{0};
    std::atomic<std::uint64_t> read_syscalls_{0};
    std::atomic<std::uint64_t> send_sqes_{0};
    std::atomic<std::uint64_t> recv_enobufs_{0};

    bool is_uring_ = false;
    bool uring_fallback_ = false;

    std::unique_ptr<LoopBackend> backend_;
    std::unique_ptr<rt::RtThread> thread_; ///< started last in the ctor
};

thread_local Reactor::Loop* Reactor::Loop::t_current_loop = nullptr;

namespace {

// ---------------------------------------------------------------------
// Epoll backend: the portable default. Readiness-driven — edge-triggered
// read pumps, EPOLLOUT parked-writer resumption, the eventfd registered
// as interest id 0.
// ---------------------------------------------------------------------
class EpollBackend final : public LoopBackend {
public:
    explicit EpollBackend(Reactor::Loop& loop) : loop_(loop) {
        epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
        if (epfd_ < 0) {
            throw TransportError(std::string("epoll_create1: ") +
                                 std::strerror(errno));
        }
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = 0; // id 0 is reserved for the eventfd
        if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, loop_.event_fd(), &ev) != 0) {
            const int err = errno;
            ::close(epfd_);
            epfd_ = -1;
            throw TransportError(std::string("epoll_ctl(eventfd): ") +
                                 std::strerror(err));
        }
        events_.resize(64);
    }

    ~EpollBackend() override {
        if (epfd_ >= 0) ::close(epfd_);
    }

    const char* name() const noexcept override { return "epoll"; }

    void run() override {
        using PumpResult = Reactor::Loop::PumpResult;
        bool stop = false;
        while (!stop) {
            const int n = ::epoll_wait(epfd_, events_.data(),
                                       static_cast<int>(events_.size()), -1);
            if (n < 0) {
                if (errno == EINTR) continue;
                break;
            }
            loop_.note_wait_syscall();
            for (int i = 0; i < n; ++i) {
                const epoll_event& ev = events_[i];
                if (ev.data.u64 == 0) {
                    loop_.note_wakeup();
                    loop_.drain_eventfd();
                    stop = loop_.process_commands() || stop;
                    continue;
                }
                // Look up by id, never by cached pointer: a command
                // processed earlier in this same batch may have removed
                // (and freed) the wire this event refers to.
                Wire* w = loop_.find_wire(ev.data.u64);
                if (w == nullptr) continue;
                if (ev.events & EPOLLOUT) {
                    loop_.note_writable(!w->want_writable);
                    w->want_writable = false;
                    // Disarm before flushing: if the flush parks again the
                    // transport re-requests, and EPOLL_CTL_MOD re-edges a
                    // still-writable socket, so the wakeup cannot be lost.
                    mod_interest(*w, kReadInterest);
                    w->hook->flush_pending_writes();
                }
                if (ev.events &
                    (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP)) {
                    const bool peer_closed =
                        (ev.events & (EPOLLRDHUP | EPOLLERR | EPOLLHUP)) != 0;
                    // Cork the writer for the pump's duration: replies the
                    // frame callbacks send coalesce into one flush at
                    // uncork instead of a sendmsg per frame.
                    w->hook->set_corked(true);
                    const PumpResult pr = loop_.pump_reads(*w, peer_closed);
                    w->hook->set_corked(false);
                    if (pr == PumpResult::kClosed) loop_.close_wire(*w);
                }
            }
        }
    }

    bool add(Wire& w) override {
        // Size the read stage here, not at registration: only this
        // backend stages reads in the wire (one-time setup cost, off the
        // message path).
        w.scratch.resize(std::min(kScratchBytes, w.hook->max_frame_bytes()));
        epoll_event ev{};
        ev.events = kReadInterest;
        ev.data.u64 = w.id;
        return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, w.hook->descriptor(), &ev) ==
               0;
    }

    void remove(Wire& w) override {
        w.hook->flush_pending_writes(); // best effort; drops if peer is gone
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, w.hook->descriptor(), nullptr);
    }

    void arm_write(Wire& w) override {
        w.want_writable = true;
        mod_interest(w, kReadInterest | EPOLLOUT);
    }

    void poke(Wire& w) override {
        mod_interest(w, kReadInterest | EPOLLOUT);
    }

private:
    void mod_interest(Wire& w, std::uint32_t events) {
        epoll_event ev{};
        ev.events = events;
        ev.data.u64 = w.id;
        ::epoll_ctl(epfd_, EPOLL_CTL_MOD, w.hook->descriptor(), &ev);
    }

    Reactor::Loop& loop_;
    int epfd_ = -1;
    std::vector<epoll_event> events_; ///< preallocated epoll_wait batch
};

// ---------------------------------------------------------------------
// io_uring backend: completion-driven. Multishot recv per wire completes
// straight into pool-backed provided buffers (zero read syscalls);
// loop-thread sends are gather-sendmsg SQEs completed in-ring (zero
// sendmsg); the eventfd command ring is bridged as a re-posted in-ring
// read chain; non-loop-thread parks arm a one-shot POLL_ADD(POLLOUT).
// One io_uring_enter per cycle submits the whole cycle's SQE batch and
// waits — a corked pump's reply burst is one ring doorbell.
// ---------------------------------------------------------------------
class UringBackend final : public LoopBackend, public ReactorLoopSender {
public:
    UringBackend(Reactor::Loop& loop, const ReactorOptions& options)
        : loop_(loop), ring_(ring_options(options)) {
        unsigned want = options.uring_buffers ? options.uring_buffers
                                              : kDefaultUringBuffers;
        unsigned count = 1;
        while (count < want && count < 32768) count <<= 1;
        if (!ring_.register_buf_ring(count)) {
            throw TransportError(
                "io_uring: provided-buffer ring unsupported (needs kernel "
                ">= 5.19)");
        }
        // Receive staging: `count` chunks of the frame pool's 4 KiB size
        // class, held for the loop's lifetime and recycled through the
        // kernel's buffer ring. The global pool on purpose — this staging
        // is shared across every wire on the loop; per-wire/per-lane
        // pools still own the assembled-frame storage (consume() draws
        // from hook->frame_pool()).
        buf_count_ = count;
        chunks_.reserve(count);
        chunk_ptrs_.resize(count);
        FrameBufferPool& pool = FrameBufferPool::global();
        for (unsigned bid = 0; bid < count; ++bid) {
            FrameBuffer chunk = pool.acquire(kUringChunkBytes);
            chunk_ptrs_[bid] = chunk.data();
            ring_.buf_ring_push(chunk.data(), kUringChunkBytes,
                                static_cast<std::uint16_t>(bid));
            chunks_.push_back(std::move(chunk));
        }
        ring_.buf_ring_commit();
        deferred_.reserve(64);
        corked_.reserve(64);
    }

    const char* name() const noexcept override { return "uring"; }

    void run() override {
        post_cmd_read();
        bool stop = false;
        while (!stop) {
            bool entered = false;
            ring_.submit_and_wait(1, &entered);
            if (entered) loop_.note_wait_syscall();
            io_uring_cqe cqe;
            while (ring_.pop_cqe(&cqe)) {
                dispatch(cqe, stop);
                // A nested remove-drain (wire teardown inside a command)
                // stashes other wires' completions; replay them before
                // popping newer ones so per-wire byte order holds.
                flush_deferred(stop);
            }
            // End of cycle: uncork every wire this batch touched, so all
            // the replies its pumps produced leave as gather-send SQEs
            // submitted by the next cycle's single enter.
            uncork_all();
        }
        uncork_all();
    }

    bool add(Wire& w) override {
        // io_uring reports a bad descriptor asynchronously (first CQE);
        // registration wants the epoll-parity synchronous failure, so
        // probe the fd directly.
        if (::fcntl(w.hook->descriptor(), F_GETFL, 0) < 0) return false;
        w.hook->set_loop_sender(this, w.id);
        arm_recv(w);
        return true;
    }

    void remove(Wire& w) override {
        if (w.cork_marked) {
            w.cork_marked = false;
            w.hook->set_corked(false);
        }
        // Uninstall the sender first: any flush from here on (including
        // the transport's own completion continuation) takes the sendmsg
        // path instead of queueing new SQEs behind the cancels.
        w.hook->set_loop_sender(nullptr, 0);
        // Cancel in-flight SQEs and drain their terminal CQEs
        // synchronously. io_uring holds a file reference per in-flight
        // op; leaving one behind keeps the socket alive past the
        // transport's close (and a multishot recv would keep completing
        // into a freed wire).
        unsigned cancels = 0;
        if (w.recv_armed) {
            post_cancel(ud(w.id, kOpRecv));
            ++cancels;
        }
        if (w.send_inflight) {
            post_cancel(ud(w.id, kOpSend));
            ++cancels;
        }
        if (w.pollout_inflight) {
            post_cancel(ud(w.id, kOpPollOut));
            ++cancels;
        }
        while (w.recv_armed || w.send_inflight || w.pollout_inflight ||
               cancels > 0) {
            io_uring_cqe cqe;
            if (!ring_.pop_cqe(&cqe)) {
                bool entered = false;
                const int r = ring_.submit_and_wait(1, &entered);
                if (entered) loop_.note_wait_syscall();
                if (r < 0 && r != -EBUSY && r != -EAGAIN) break; // ring dead
                continue;
            }
            if ((cqe.user_data >> 3) != w.id) {
                // Someone else's completion: replay it after the removal
                // (flush_deferred) so its wire sees bytes in order.
                deferred_.push_back(cqe);
                continue;
            }
            switch (cqe.user_data & 7) {
            case kOpCancel:
                --cancels;
                break;
            case kOpRecv:
                // Data racing the teardown is abandoned (epoll drops it
                // the same way); the staging chunk goes straight back.
                recycle_cqe_buffer(cqe);
                if (!(cqe.flags & IORING_CQE_F_MORE)) w.recv_armed = false;
                break;
            case kOpSend:
                w.send_inflight = false;
                w.hook->complete_send(cqe.res);
                break;
            case kOpPollOut:
                w.pollout_inflight = false;
                break;
            default:
                break;
            }
        }
        w.hook->flush_pending_writes(); // best effort; sendmsg path now
    }

    void arm_write(Wire& w) override {
        w.want_writable = true;
        if (!w.pollout_inflight) post_pollout(w);
    }

    void poke(Wire& w) override {
        if (!w.pollout_inflight) post_pollout(w);
    }

    // ---- ReactorLoopSender ----

    bool on_loop_thread() const noexcept override {
        return Reactor::Loop::current() == &loop_;
    }

    bool submit_send(std::uint64_t wire_id, const iovec* iov,
                     std::size_t iovcnt) override {
        Wire* w = loop_.find_wire(wire_id);
        if (w == nullptr || w->send_inflight || iovcnt == 0) return false;
        io_uring_sqe* sqe = take_sqe();
        if (sqe == nullptr) return false; // SQ wedged: sendmsg fallback
        w->send_mh = msghdr{};
        w->send_mh.msg_iov = const_cast<iovec*>(iov);
        w->send_mh.msg_iovlen = iovcnt;
        sqe->opcode = IORING_OP_SENDMSG;
        sqe->fd = w->hook->descriptor();
        sqe->addr = reinterpret_cast<std::uint64_t>(&w->send_mh);
        sqe->msg_flags = MSG_NOSIGNAL;
        sqe->user_data = ud(wire_id, kOpSend);
        w->send_inflight = true;
        loop_.note_send_sqe();
        return true;
    }

private:
    // user_data = (wire id << 3) | op. Wire ids are monotonic and never
    // reused, so a stale completion can only miss the lookup, never hit
    // the wrong wire.
    enum : std::uint64_t {
        kOpCmd = 0,
        kOpRecv = 1,
        kOpSend = 2,
        kOpPollOut = 3,
        kOpCancel = 4,
    };

    static std::uint64_t ud(std::uint64_t id, std::uint64_t op) noexcept {
        return (id << 3) | op;
    }

    static Uring::Options ring_options(const ReactorOptions& options) {
        Uring::Options o;
        o.entries = options.uring_entries ? options.uring_entries
                                          : kDefaultUringEntries;
        return o;
    }

    /// Next SQE, flushing the SQ to the kernel once if it is full.
    io_uring_sqe* take_sqe() {
        io_uring_sqe* sqe = ring_.get_sqe();
        if (sqe != nullptr) return sqe;
        bool entered = false;
        ring_.submit(&entered);
        if (entered) loop_.note_wait_syscall();
        return ring_.get_sqe();
    }

    void post_cmd_read() {
        io_uring_sqe* sqe = take_sqe();
        if (sqe == nullptr) return; // ring dead; loop will stop via join
        sqe->opcode = IORING_OP_READ;
        sqe->fd = loop_.event_fd();
        sqe->addr = reinterpret_cast<std::uint64_t>(&cmd_buf_);
        sqe->len = sizeof(cmd_buf_);
        sqe->user_data = ud(0, kOpCmd);
    }

    void post_cancel(std::uint64_t target_ud) {
        io_uring_sqe* sqe = take_sqe();
        if (sqe == nullptr) return;
        sqe->opcode = IORING_OP_ASYNC_CANCEL;
        sqe->addr = target_ud;
        sqe->user_data = ud(target_ud >> 3, kOpCancel);
    }

    void post_pollout(Wire& w) {
        io_uring_sqe* sqe = take_sqe();
        if (sqe == nullptr) return;
        sqe->opcode = IORING_OP_POLL_ADD;
        sqe->fd = w.hook->descriptor();
        sqe->poll32_events = POLLOUT;
        sqe->user_data = ud(w.id, kOpPollOut);
        w.pollout_inflight = true;
    }

    void arm_recv(Wire& w) {
        io_uring_sqe* sqe = take_sqe();
        if (sqe == nullptr) {
            loop_.close_wire(w); // cannot receive again: surface as close
            return;
        }
        sqe->opcode = IORING_OP_RECV;
        sqe->fd = w.hook->descriptor();
        sqe->ioprio = IORING_RECV_MULTISHOT;
        sqe->flags = IOSQE_BUFFER_SELECT;
        sqe->buf_group = ring_.buf_group();
        sqe->user_data = ud(w.id, kOpRecv);
        w.recv_armed = true;
    }

    void recycle_cqe_buffer(const io_uring_cqe& cqe) {
        if (!(cqe.flags & IORING_CQE_F_BUFFER)) return;
        const std::uint16_t bid =
            static_cast<std::uint16_t>(cqe.flags >> IORING_CQE_BUFFER_SHIFT);
        if (bid >= buf_count_) return;
        ring_.buf_ring_push(chunk_ptrs_[bid], kUringChunkBytes, bid);
        ring_.buf_ring_commit();
    }

    void cork(Wire& w) {
        if (w.cork_marked) return;
        w.cork_marked = true;
        corked_.push_back(w.id);
        w.hook->set_corked(true);
    }

    void uncork_all() {
        for (std::uint64_t id : corked_) {
            Wire* w = loop_.find_wire(id);
            if (w == nullptr || !w->cork_marked) continue; // closed mid-cycle
            w->cork_marked = false;
            w->hook->set_corked(false);
        }
        corked_.clear();
    }

    void flush_deferred(bool& stop) {
        // Index loop: a replayed completion can close a wire, whose
        // removal defers more completions onto the back of this queue.
        for (std::size_t i = 0; i < deferred_.size(); ++i) {
            io_uring_cqe cqe = deferred_[i];
            dispatch(cqe, stop);
        }
        deferred_.clear();
    }

    void dispatch(const io_uring_cqe& cqe, bool& stop) {
        using PumpResult = Reactor::Loop::PumpResult;
        const std::uint64_t id = cqe.user_data >> 3;
        static const bool debug = std::getenv("COMPADRES_URING_DEBUG") != nullptr;
        if (debug) {
            std::fprintf(stderr, "[uring] cqe op=%llu id=%llu res=%d flags=%x\n",
                         (unsigned long long)(cqe.user_data & 7),
                         (unsigned long long)id, cqe.res, cqe.flags);
        }
        switch (cqe.user_data & 7) {
        case kOpCmd: {
            loop_.note_wakeup();
            stop = loop_.process_commands() || stop;
            if (!stop) post_cmd_read();
            break;
        }
        case kOpRecv: {
            Wire* w = loop_.find_wire(id);
            if (w != nullptr && !(cqe.flags & IORING_CQE_F_MORE)) {
                w->recv_armed = false;
            }
            if (cqe.res > 0) {
                if (w == nullptr) {
                    recycle_cqe_buffer(cqe); // stale data for a gone wire
                    break;
                }
                const std::uint16_t bid = static_cast<std::uint16_t>(
                    cqe.flags >> IORING_CQE_BUFFER_SHIFT);
                cork(*w);
                const PumpResult pr =
                    (cqe.flags & IORING_CQE_F_BUFFER) && bid < buf_count_
                        ? loop_.consume(*w, chunk_ptrs_[bid],
                                        static_cast<std::size_t>(cqe.res))
                        : PumpResult::kClosed;
                recycle_cqe_buffer(cqe);
                if (pr == PumpResult::kClosed) {
                    loop_.close_wire(*w);
                    break;
                }
            } else {
                recycle_cqe_buffer(cqe); // defensive: error CQEs carry none
                if (w == nullptr) break;
                if (cqe.res == -ENOBUFS) {
                    // The provided-buffer ring ran dry mid-burst; the
                    // chunks consumed earlier in this batch are already
                    // recycled, so re-arming below succeeds.
                    loop_.note_recv_enobufs();
                } else if (cqe.res == -ECANCELED) {
                    break; // teardown in progress; remove() owns the wire
                } else if (cqe.res == 0 || (cqe.res != -EAGAIN &&
                                            cqe.res != -EINTR)) {
                    loop_.close_wire(*w); // EOF or hard receive error
                    break;
                }
            }
            if (w != nullptr && !w->recv_armed) arm_recv(*w);
            break;
        }
        case kOpSend: {
            Wire* w = loop_.find_wire(id);
            if (w == nullptr) break; // removal already completed it
            w->send_inflight = false;
            w->hook->complete_send(cqe.res);
            break;
        }
        case kOpPollOut: {
            Wire* w = loop_.find_wire(id);
            if (w == nullptr) break;
            w->pollout_inflight = false;
            loop_.note_writable(!w->want_writable);
            w->want_writable = false;
            w->hook->flush_pending_writes();
            break;
        }
        default:
            break; // kOpCancel acks from a close that already finished
        }
    }

    Reactor::Loop& loop_;
    Uring ring_;
    unsigned buf_count_ = 0;
    std::vector<FrameBuffer> chunks_;     ///< pool-owned staging storage
    std::vector<std::uint8_t*> chunk_ptrs_; ///< bid -> chunk data
    std::vector<io_uring_cqe> deferred_;  ///< replay queue (see remove())
    std::vector<std::uint64_t> corked_;   ///< wires corked this cycle
    std::uint64_t cmd_buf_ = 0;           ///< eventfd read-chain landing pad
};

} // namespace

Reactor::Loop::Loop(std::size_t index, const ReactorOptions& options,
                    ReactorBackend kind) {
    evfd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (evfd_ < 0) {
        throw TransportError(std::string("eventfd: ") + std::strerror(errno));
    }
    try {
        if (kind == ReactorBackend::kUring) {
            try {
                backend_ = std::make_unique<UringBackend>(*this, options);
                is_uring_ = true;
            } catch (const TransportError&) {
                // Kernel or sandbox denied io_uring (ENOSYS/EPERM), or the
                // requested geometry was rejected: run this loop on epoll
                // instead and record the fallback.
                uring_fallback_ = true;
            }
        }
        if (backend_ == nullptr) {
            backend_ = std::make_unique<EpollBackend>(*this);
        }
        commands_.reserve(64);
        scratch_.reserve(64);
        thread_ = std::make_unique<rt::RtThread>(
            "reactor-" + std::to_string(index), rt::Priority{},
            [this] { run(); });
    } catch (...) {
        // A throwing constructor skips the destructor: release what we
        // acquired or it leaks.
        backend_.reset();
        ::close(evfd_);
        throw;
    }
}

Reactor::Loop::~Loop() {
    if (thread_->joinable()) {
        request_stop();
        thread_->join();
    }
    // The uring backend's in-flight eventfd read references both the ring
    // and the eventfd: destroy the backend (closing the ring reaps the
    // SQE) before the eventfd goes away.
    backend_.reset();
    if (evfd_ >= 0) ::close(evfd_);
}

struct Reactor::State {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Loop*> wire_loops;
    std::uint64_t next_id = 1; // 0 is the command-ring sentinel
    std::size_t next_loop = 0;
    bool stopped = false;
    std::atomic<std::uint64_t> wires_registered{0};
};

Reactor::Reactor(ReactorOptions options) : state_(std::make_unique<State>()) {
    const std::size_t n = resolve_threads(options.threads);
    const ReactorBackend kind = resolve_backend(options.backend);
    loops_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        loops_.push_back(std::make_unique<Loop>(i, options, kind));
    }
}

Reactor::~Reactor() { stop(); }

std::uint64_t Reactor::register_wire(Transport& transport,
                                     FrameHandler on_frame,
                                     ClosedHandler on_closed, int band) {
    ReactorHook* hook = transport.reactor_hook();
    if (hook == nullptr) {
        throw TransportError(
            "transport is not reactor-capable (no pollable descriptor)");
    }
    Loop* loop = nullptr;
    std::uint64_t id = 0;
    {
        std::lock_guard lk(state_->mu);
        if (state_->stopped) throw TransportError("reactor stopped");
        id = state_->next_id++;
        const std::size_t idx =
            band >= 0 ? static_cast<std::size_t>(band) % loops_.size()
                      : state_->next_loop++ % loops_.size();
        loop = loops_[idx].get();
        state_->wire_loops.emplace(id, loop);
    }
    state_->wires_registered.fetch_add(1, std::memory_order_relaxed);
    auto wire = std::make_unique<Wire>();
    wire->id = id;
    wire->hook = hook;
    wire->on_frame = std::move(on_frame);
    wire->on_closed = std::move(on_closed);
    // Non-blocking mode must be on before the descriptor joins the loop,
    // so the first read pump cannot block.
    hook->enter_reactor_mode([loop, id] { loop->arm_write(id); });
    loop->add_wire(std::move(wire));
    return id;
}

void Reactor::deregister_wire(std::uint64_t wire_id) {
    Loop* loop = nullptr;
    {
        std::lock_guard lk(state_->mu);
        auto it = state_->wire_loops.find(wire_id);
        if (it == state_->wire_loops.end()) return; // unknown or repeated
        loop = it->second;
        state_->wire_loops.erase(it);
        if (state_->stopped) return; // loops already drained every wire
    }
    loop->remove_wire(wire_id);
}

void Reactor::stop() {
    {
        std::lock_guard lk(state_->mu);
        if (state_->stopped) return;
        state_->stopped = true;
        state_->wire_loops.clear();
    }
    for (auto& loop : loops_) loop->request_stop();
    for (auto& loop : loops_) loop->join();
}

std::size_t Reactor::thread_count() const noexcept { return loops_.size(); }

ReactorStats Reactor::stats() const {
    ReactorStats out;
    out.wires_registered =
        state_->wires_registered.load(std::memory_order_relaxed);
    for (const auto& loop : loops_) loop->accumulate(out);
    return out;
}

const char* Reactor::backend_name() const noexcept {
    std::size_t uring = 0;
    for (const auto& loop : loops_) {
        if (loop->is_uring()) ++uring;
    }
    if (uring == 0) return "epoll";
    return uring == loops_.size() ? "uring" : "mixed";
}

void Reactor::poke_writable(std::uint64_t wire_id) {
    Loop* loop = nullptr;
    {
        std::lock_guard lk(state_->mu);
        auto it = state_->wire_loops.find(wire_id);
        if (it == state_->wire_loops.end() || state_->stopped) return;
        loop = it->second;
    }
    loop->poke(wire_id);
}

Reactor& Reactor::shared() {
    // Leaked on purpose (see header): loops outlive every static whose
    // destructor might otherwise race them at exit.
    static Reactor* instance = new Reactor();
    return *instance;
}

} // namespace compadres::net
