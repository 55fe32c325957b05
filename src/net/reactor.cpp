#include "net/reactor.hpp"

#include "net/tcp.hpp"
#include "rt/thread.hpp"

#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

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

/// One registered descriptor. Owned by exactly one loop; touched only on
/// that loop's thread. The wire assembles its own frames
/// (TcpTransport::pump_frames); the loop only drives readiness.
struct Wire {
    std::uint64_t id = 0;
    TcpTransport* tcp = nullptr; ///< must outlive its registration
    Reactor::FrameHandler on_frame;
    Reactor::ClosedHandler on_closed;
    bool want_writable = false; ///< EPOLLOUT armed and not yet delivered
};

/// Read-side interest. EPOLLRDHUP rides along so an event that coalesced
/// data with the peer's FIN is distinguishable: the pump's short-read
/// exit must not be taken then, or the already-queued EOF would never
/// produce another edge.
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

} // namespace

/// One event loop: an epoll instance, the command ring (eventfd doorbell
/// + queue, registered as interest id 0) and the wires assigned to this
/// thread. All descriptor mutations happen on the loop thread itself
/// (commands are posted, not applied in place), so interest changes never
/// race the epoll_wait.
class Reactor::Loop {
public:
    /// Throws TransportError when the eventfd/epoll plumbing cannot be
    /// set up: a loop whose wait would fail on the first cycle silently
    /// accepts wires and never delivers a frame, so the failure must
    /// surface at construction, not as a dead pool.
    explicit Loop(std::size_t index);
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
    }

private:
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
                if (it != wires_.end()) {
                    mod_interest(*it->second, kReadInterest | EPOLLOUT);
                }
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
            // before its descriptor leaves epoll.
            while (!wires_.empty()) do_remove(wires_.begin()->first);
        }
        return saw_stop;
    }

    /// Pump the wire's frames to its handler; closes the wire when the
    /// pump reports it must (EOF, read error, bad header, throwing
    /// handler).
    void pump(Wire& w, bool peer_closed) {
        if (!w.tcp->pump_frames(w.on_frame, peer_closed, frames_assembled_,
                                read_syscalls_)) {
            close_wire(w);
        }
    }

    /// EOF/error-driven close: detach from epoll, hand any final
    /// accounting to the transport via its own close later, then notify
    /// the owner.
    void close_wire(Wire& w) {
        detach(w);
        wires_closed_.fetch_add(1, std::memory_order_relaxed);
        Reactor::ClosedHandler on_closed = std::move(w.on_closed);
        wires_.erase(w.id); // frees `w`
        if (on_closed) on_closed();
    }

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
        bool stop = false;
        while (!stop) {
            const int n = ::epoll_wait(epfd_, events_.data(),
                                       static_cast<int>(events_.size()), -1);
            if (n < 0) {
                if (errno == EINTR) continue;
                break;
            }
            wait_syscalls_.fetch_add(1, std::memory_order_relaxed);
            for (int i = 0; i < n; ++i) {
                const epoll_event& ev = events_[i];
                if (ev.data.u64 == 0) {
                    command_wakeups_.fetch_add(1, std::memory_order_relaxed);
                    drain_eventfd();
                    stop = process_commands() || stop;
                    continue;
                }
                // Look up by id, never by cached pointer: a command
                // processed earlier in this same batch may have removed
                // (and freed) the wire this event refers to.
                Wire* w = find_wire(ev.data.u64);
                if (w == nullptr) continue;
                if (ev.events & EPOLLOUT) {
                    writable_events_.fetch_add(1, std::memory_order_relaxed);
                    if (!w->want_writable) {
                        spurious_writables_.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                    w->want_writable = false;
                    // Disarm before flushing: if the flush parks again the
                    // transport re-requests, and EPOLL_CTL_MOD re-edges a
                    // still-writable socket, so the wakeup cannot be lost.
                    mod_interest(*w, kReadInterest);
                    w->tcp->flush_pending_writes();
                }
                if (ev.events &
                    (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP)) {
                    pump(*w, (ev.events &
                              (EPOLLRDHUP | EPOLLERR | EPOLLHUP)) != 0);
                }
            }
        }
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
        epoll_event ev{};
        ev.events = kReadInterest;
        ev.data.u64 = w.id;
        if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, w.tcp->descriptor(), &ev) !=
            0) {
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
        w.tcp->flush_pending_writes();
        // Frames a blocking recv_frame read ahead before the handoff sit
        // in the wire's buffer, not the socket, so no edge announces
        // them: pump once now.
        pump(w, false);
    }

    /// Deliberate removal (deregister/stop): flush the coalescing intake
    /// — EAGAIN'd output is dropped-and-counted by the transport's own
    /// close later — and detach the descriptor; then the wire is freed.
    /// on_closed is NOT invoked: that callback means "the peer went
    /// away".
    void do_remove(std::uint64_t id) {
        auto it = wires_.find(id);
        if (it == wires_.end()) return;
        detach(*it->second);
        wires_.erase(it);
    }

    void detach(Wire& w) {
        w.tcp->flush_pending_writes(); // best effort; drops if peer is gone
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, w.tcp->descriptor(), nullptr);
    }

    /// Deliver exactly one EPOLLOUT once the descriptor accepts bytes
    /// again (edge semantics).
    void do_arm(std::uint64_t id) {
        auto it = wires_.find(id);
        if (it == wires_.end()) return;
        it->second->want_writable = true;
        mod_interest(*it->second, kReadInterest | EPOLLOUT);
    }

    void mod_interest(Wire& w, std::uint32_t events) {
        epoll_event ev{};
        ev.events = events;
        ev.data.u64 = w.id;
        ::epoll_ctl(epfd_, EPOLL_CTL_MOD, w.tcp->descriptor(), &ev);
    }

    static thread_local Loop* t_current_loop;

    int evfd_ = -1;
    int epfd_ = -1;
    std::vector<epoll_event> events_; ///< preallocated epoll_wait batch
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

    std::unique_ptr<rt::RtThread> thread_; ///< started last in the ctor
};

thread_local Reactor::Loop* Reactor::Loop::t_current_loop = nullptr;

Reactor::Loop::Loop(std::size_t index) {
    evfd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (evfd_ < 0) {
        throw TransportError(std::string("eventfd: ") + std::strerror(errno));
    }
    try {
        epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
        if (epfd_ < 0) {
            throw TransportError(std::string("epoll_create1: ") +
                                 std::strerror(errno));
        }
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = 0; // id 0 is reserved for the eventfd
        if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, evfd_, &ev) != 0) {
            throw TransportError(std::string("epoll_ctl(eventfd): ") +
                                 std::strerror(errno));
        }
        events_.resize(64);
        commands_.reserve(64);
        scratch_.reserve(64);
        thread_ = std::make_unique<rt::RtThread>(
            "reactor-" + std::to_string(index), rt::Priority{},
            [this] { run(); });
    } catch (...) {
        // A throwing constructor skips the destructor: release what we
        // acquired or it leaks.
        if (epfd_ >= 0) ::close(epfd_);
        ::close(evfd_);
        throw;
    }
}

Reactor::Loop::~Loop() {
    if (thread_->joinable()) {
        request_stop();
        thread_->join();
    }
    ::close(epfd_);
    ::close(evfd_);
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
    loops_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        loops_.push_back(std::make_unique<Loop>(i));
    }
}

Reactor::~Reactor() { stop(); }

std::uint64_t Reactor::register_wire(Transport& transport,
                                     FrameHandler on_frame,
                                     ClosedHandler on_closed, int band) {
    TcpTransport* tcp = transport.reactor_hook();
    if (tcp == nullptr) {
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
    wire->tcp = tcp;
    wire->on_frame = std::move(on_frame);
    wire->on_closed = std::move(on_closed);
    // Non-blocking mode must be on before the descriptor joins the loop,
    // so the first read pump cannot block.
    tcp->enter_reactor_mode([loop, id] { loop->arm_write(id); });
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

const char* Reactor::backend_name() const noexcept { return "epoll"; }

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
