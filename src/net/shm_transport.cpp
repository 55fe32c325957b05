#include "net/shm_transport.hpp"

#include "cdr/giop.hpp"
#include "net/lane_group.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <linux/futex.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

namespace compadres::net {

using shm_detail::SegDir;
using shm_detail::SegHeader;
using shm_detail::SegSlot;
using shm_detail::align8;

namespace {

// ---- futex plumbing -------------------------------------------------------
// Non-private futexes: the wait/wake address lives in a MAP_SHARED segment,
// so the kernel keys on the backing page and the two processes' different
// virtual addresses still name the same futex.

void futex_wait_us(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                   std::size_t timeout_us) {
    timespec ts;
    ts.tv_sec = static_cast<time_t>(timeout_us / 1000000);
    ts.tv_nsec = static_cast<long>((timeout_us % 1000000) * 1000);
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), FUTEX_WAIT,
            expected, &ts, nullptr, 0);
}

/// Advance the futex word, so a waiter about to sleep on the old value
/// returns at once, and wake every waiter already asleep on it.
void futex_wake_all(std::atomic<std::uint32_t>& word) {
    word.fetch_add(1, std::memory_order_release);
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), FUTEX_WAKE,
            INT_MAX, nullptr, nullptr, 0);
}

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    asm volatile("" ::: "memory");
#endif
}

std::uint64_t mint_generation() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (static_cast<std::uint64_t>(ts.tv_sec) << 32) ^
           static_cast<std::uint64_t>(ts.tv_nsec) ^
           (static_cast<std::uint64_t>(getpid()) << 16) ^
           counter.fetch_add(1, std::memory_order_relaxed);
}

/// Clamp options into the geometry ShmRingGeometry::valid() accepts (a
/// power-of-two ring, an arena big enough that the largest frame plus a
/// wrap skip always fits), and into the band count a segment carries.
ShmOptions normalize(ShmOptions o) {
    using G = ShmRingGeometry;
    o.ring_capacity = std::bit_ceil(std::clamp<std::size_t>(
        o.ring_capacity, G::kMinCapacity, G::kMaxCapacity));
    o.arena_bytes = align8(std::max<std::size_t>(o.arena_bytes, G::kMinArenaBytes));
    o.max_frame_bytes = std::clamp<std::size_t>(
        o.max_frame_bytes, G::kMinFrameBytes, o.arena_bytes / 2);
    o.bands = std::clamp<std::size_t>(o.bands, 1, shm_detail::kMaxShmBands);
    // Strictly below capacity: at pinned == capacity the slot index
    // (head & mask) of the next pop would collide with an unreleased
    // slot's released flag.
    if (o.max_pinned_slots == 0) o.max_pinned_slots = o.ring_capacity / 2;
    o.max_pinned_slots =
        std::min<std::size_t>(o.max_pinned_slots, o.ring_capacity - 1);
    return o;
}

/// The one geometry rule for a segment: ShmSegment::create holds its
/// clamped options to it, and ShmSegment::attach the peer's header.
bool segment_geometry_ok(std::size_t bands, const ShmRingGeometry& g) {
    return bands >= 1 && bands <= shm_detail::kMaxShmBands && g.valid();
}

bool pid_alive(pid_t pid) noexcept {
    return pid > 0 && (kill(pid, 0) == 0 || errno == EPERM);
}

void sweep_once_at_startup() {
    static std::once_flag flag;
    std::call_once(flag, [] { sweep_orphan_segments(); });
}

constexpr const char* kControlKey = "compadres.shm";

/// Consumer pause-spins before registering as a futex waiter. Kept small:
/// on a single-core host the producer cannot run while the consumer
/// spins, so a long spin only burns the quantum.
constexpr std::size_t kSpinBudget = 64;

bool is_control_bye(const FrameBuffer& f) noexcept {
    try {
        if (f.size() < cdr::GiopHeader::kSize) return false;
        const cdr::GiopHeader h = cdr::decode_header(f.data(), f.size());
        if (h.msg_type != cdr::GiopMsgType::kRequest) return false;
        const cdr::DecodedRequestView v =
            cdr::decode_request_view(f.data(), f.size());
        return v.header.object_key == kControlKey &&
               v.header.operation == "bye";
    } catch (...) {
        return false;
    }
}

/// The creator's segment-name buffer, NUL included: no segment this code
/// creates has a name of kNameBufBytes or more.
constexpr std::size_t kNameBufBytes = 96;

/// A hello may only name a segment ShmSegment::create could have made.
/// The peer picks the name, and an unchecked one would have the acceptor
/// open and map any shm object it can read.
bool creatable_segment_name(const std::string& name) {
    const std::size_t prefix_len = std::strlen(shm_detail::kNamePrefix);
    return name.size() > prefix_len && name.size() < kNameBufBytes &&
           name.compare(0, prefix_len, shm_detail::kNamePrefix) == 0 &&
           name.find('/', 1) == std::string::npos;
}

} // namespace

// ---- ShmSegment -----------------------------------------------------------

std::shared_ptr<ShmSegment> ShmSegment::create(const ShmOptions& options) {
    sweep_once_at_startup();
    const ShmOptions o = normalize(options);
    const ShmRingGeometry g{static_cast<std::uint32_t>(o.ring_capacity),
                           static_cast<std::uint32_t>(o.arena_bytes),
                           static_cast<std::uint32_t>(o.max_frame_bytes)};
    if (!segment_geometry_ok(o.bands, g)) {
        throw TransportError("shm options outside the segment geometry");
    }
    static std::atomic<std::uint32_t> seq{0};

    auto seg = std::shared_ptr<ShmSegment>(new ShmSegment());
    int fd = -1;
    for (int attempt = 0; attempt < 4 && fd < 0; ++attempt) {
        char buf[kNameBufBytes];
        std::snprintf(buf, sizeof buf, "%s%u.%u.%llx", shm_detail::kNamePrefix,
                      static_cast<unsigned>(getpid()),
                      seq.fetch_add(1, std::memory_order_relaxed),
                      static_cast<unsigned long long>(mint_generation() & 0xffffff));
        fd = shm_open(buf, O_CREAT | O_EXCL | O_RDWR, 0600);
        if (fd >= 0) seg->name_ = buf;
    }
    if (fd < 0) {
        throw TransportError(std::string("shm_open failed: ") +
                             std::strerror(errno));
    }
    const std::size_t total =
        shm_detail::segment_bytes(o.bands, o.ring_capacity, o.arena_bytes);
    if (ftruncate(fd, static_cast<off_t>(total)) != 0) {
        const int err = errno;
        ::close(fd);
        shm_unlink(seg->name_.c_str());
        throw TransportError(std::string("shm ftruncate failed: ") +
                             std::strerror(err));
    }
    void* base =
        mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
        shm_unlink(seg->name_.c_str());
        throw TransportError(std::string("shm mmap failed: ") +
                             std::strerror(errno));
    }
    seg->base_ = static_cast<std::uint8_t*>(base);
    seg->map_bytes_ = total;
    seg->side_ = 0;

    auto* h = new (base) SegHeader{};
    std::memcpy(h->magic, shm_detail::kMagic, sizeof h->magic);
    h->version = shm_detail::kVersion;
    h->ring_capacity = g.capacity;
    h->arena_bytes = g.arena_bytes;
    h->max_frame_bytes = g.max_frame;
    h->bands = static_cast<std::uint32_t>(o.bands);
    h->generation = mint_generation();
    new (seg->base_ + shm_detail::dirs_offset()) SegDir[2 * o.bands]{};
    h->pid[0].store(static_cast<std::uint32_t>(getpid()),
                    std::memory_order_relaxed);
    h->attached[0].store(1, std::memory_order_release);
    return seg;
}

std::shared_ptr<ShmSegment> ShmSegment::attach(const std::string& name,
                                               std::uint64_t generation) {
    sweep_once_at_startup();
    int fd = shm_open(name.c_str(), O_RDWR, 0);
    if (fd < 0) {
        throw TransportError("shm segment unavailable (cross-host peer or "
                             "cleaned segment): " +
                             name);
    }
    struct stat st{};
    if (fstat(fd, &st) != 0 ||
        static_cast<std::size_t>(st.st_size) < sizeof(SegHeader)) {
        ::close(fd);
        throw TransportError("shm segment truncated: " + name);
    }
    const std::size_t total = static_cast<std::size_t>(st.st_size);
    void* base =
        mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
        throw TransportError(std::string("shm mmap failed: ") +
                             std::strerror(errno));
    }
    // side_ stays unowned until the attached[1] claim below succeeds: a
    // rejected attach must not detach (or unlink) a segment it never held.
    auto seg = std::shared_ptr<ShmSegment>(new ShmSegment());
    seg->base_ = static_cast<std::uint8_t*>(base);
    seg->map_bytes_ = total;
    seg->name_ = name;

    SegHeader& h = seg->header();
    if (std::memcmp(h.magic, shm_detail::kMagic, sizeof h.magic) != 0) {
        throw TransportError("shm segment bad magic: " + name);
    }
    if (h.version != shm_detail::kVersion) {
        throw TransportError("shm version mismatch: segment v" +
                             std::to_string(h.version) + ", expected v" +
                             std::to_string(shm_detail::kVersion));
    }
    // The peer wrote this header: hold it to the rule create() holds its
    // own options to.
    if (!segment_geometry_ok(h.bands, ShmRingGeometry{h.ring_capacity,
                                                      h.arena_bytes,
                                                      h.max_frame_bytes}) ||
        shm_detail::segment_bytes(h.bands, h.ring_capacity, h.arena_bytes) !=
            total) {
        throw TransportError("shm segment geometry corrupt: " + name);
    }
    if (h.generation != generation) {
        throw TransportError("shm stale generation: segment holds " +
                             std::to_string(h.generation) + ", hello claims " +
                             std::to_string(generation));
    }
    std::uint32_t expect = 0;
    if (!h.attached[1].compare_exchange_strong(expect, 1,
                                               std::memory_order_acq_rel)) {
        throw TransportError("shm segment already attached: " + name);
    }
    seg->side_ = 1;
    h.pid[1].store(static_cast<std::uint32_t>(getpid()),
                   std::memory_order_release);
    return seg;
}

ShmSegment::~ShmSegment() {
    detach();
    if (side_ == 0) unlink();
    if (base_ != nullptr) munmap(base_, map_bytes_);
}

SegDir& ShmSegment::dir(int side, std::size_t band) const noexcept {
    auto* first = reinterpret_cast<SegDir*>(base_ + shm_detail::dirs_offset());
    return first[static_cast<std::size_t>(side) * header().bands + band];
}

SegSlot* ShmSegment::slots(int side, std::size_t band) const noexcept {
    auto* first = reinterpret_cast<SegSlot*>(
        base_ + shm_detail::slots_offset(header().bands));
    return first + (static_cast<std::size_t>(side) * header().bands + band) *
                       header().ring_capacity;
}

std::uint8_t* ShmSegment::arena(int side, std::size_t band) const noexcept {
    return base_ +
           shm_detail::arena_offset(header().bands, header().ring_capacity) +
           (static_cast<std::size_t>(side) * header().bands + band) *
               header().arena_bytes;
}

void ShmSegment::detach() noexcept {
    if (base_ != nullptr && side_ != kNoSide) {
        header().attached[side_].store(0, std::memory_order_release);
    }
}

void ShmSegment::unlink() noexcept {
    if (!unlinked_ && side_ != kNoSide && !name_.empty()) {
        unlinked_ = true;
        shm_unlink(name_.c_str());
    }
}

// ---- ShmTransport ---------------------------------------------------------

struct ShmTransport::Inbound {
    std::shared_ptr<ShmSegment> seg;
    std::array<std::optional<ShmRingConsumer>, shm_detail::kMaxShmBands>
        rings;
    std::mutex retire_mu; ///< every ring's release + retire
    /// Set by a failover freeze or a close: the tails stay where they are
    /// (a failover's replay window is pinned to the frozen tail, and a
    /// closed segment is no longer producing), so a release is only
    /// bookkeeping from then on.
    std::atomic<bool> frozen{false};
    std::atomic<std::uint64_t> space_wakeups{0};

    /// A popped frame died (any thread): release its slot and retire the
    /// released prefix, waking a space-starved producer if one is parked.
    void release(std::uint32_t token) noexcept {
        const std::size_t band = token >> 24;
        ShmRingConsumer& ring = *rings[band];
        std::lock_guard lk(retire_mu);
        ring.release(token & 0xffffffu);
        if (frozen.load(std::memory_order_acquire) || !ring.retire()) return;
        SegDir& d = ring.dir();
        futex_wake_all(d.space_seq);
        space_wakeups.fetch_add(1, std::memory_order_relaxed);
        obs::FlightRecorder::emit(obs::EventType::kShmWakeup, 0, 1);
    }
};

ShmTransport::ShmTransport(std::shared_ptr<ShmSegment> segment,
                           std::unique_ptr<Transport> tcp,
                           const ShmOptions& options, std::string label)
    : in_(std::make_shared<Inbound>()), seg_(*segment), tcp_(std::move(tcp)),
      label_(std::move(label)), side_(segment->side()),
      bands_(segment->bands()),
      max_frame_(segment->header().max_frame_bytes),
      wait_cycle_us_(options.wait_cycle_us) {
    const SegHeader& h = seg_.header();
    const ShmRingGeometry g{h.ring_capacity, h.arena_bytes, h.max_frame_bytes};
    // Re-clamp the pin budget against the header's capacity, which can
    // differ from the capacity in this side's options.
    max_pinned_ = static_cast<std::uint32_t>(std::clamp<std::size_t>(
        normalize(options).max_pinned_slots, 1, g.capacity - 1));
    for (std::size_t b = 0; b < bands_; ++b) {
        // All bands ring one side-level doorbell (band 0's dir), so the
        // peer's single receiver registers once for every band.
        tx_[b].ring = ShmRingProducer(seg_.dir(side_, b), seg_.slots(side_, b),
                                      seg_.arena(side_, b), g,
                                      seg_.dir(side_, 0));
        in_->rings[b].emplace(seg_.dir(1 - side_, b), seg_.slots(1 - side_, b),
                              seg_.arena(1 - side_, b), g);
    }
    in_->seg = std::move(segment);
    if (ReactorHook* hook = tcp_->reactor_hook()) {
        tcp_fd_ = hook->descriptor();
    }
}

ShmTransport::~ShmTransport() { close(); }

void ShmTransport::send_frame(FrameBuffer frame) {
    if (!ring_send(frame)) fallback_send(std::move(frame));
}

/// Push one frame into the ring its band selects. False, with the frame
/// untouched for the TCP fallback, when the shm path cannot take it:
/// oversize (which starts a failover), failed over, peer gone or closed.
bool ShmTransport::ring_send(FrameBuffer& frame) {
    if (!tx_up_.load(std::memory_order_acquire)) return false;
    const std::size_t len = frame.size();
    if (len > max_frame_) {
        // One route's frames must stay ordered, so an oversize frame
        // cannot simply take the other path: abandon shm first, then
        // everything (this frame included) rides TCP.
        abandon_shm("oversize frame");
        return false;
    }
    const std::size_t band = band_of(frame.data(), len);
    TxBand& tx = tx_[band];
    {
        std::lock_guard lk(tx.mu);
        Space space = Space::kOk;
        while (space == Space::kOk) {
            if (!tx_up_.load(std::memory_order_acquire)) return false;
            if (std::uint8_t* dst = tx.ring.try_reserve(len)) {
                std::memcpy(dst, frame.data(), len);
                if (tx.ring.publish(len)) wake_receiver(len, band);
                tx.sent.fetch_add(1, std::memory_order_relaxed);
                obs::FlightRecorder::emit(obs::EventType::kFrameSend, len,
                                          static_cast<std::uint32_t>(band));
                return true;
            }
            space = wait_tx_space_locked(tx);
        }
        if (space == Space::kDown) return false;
    }
    // Failure transitions take send_mu_ and then every band mutex, so
    // they run with the band mutex dropped.
    note_peer_dead();
    return false;
}

/// One bounded wait for the consumer to free space, holding only this
/// band's mutex. It reports peer death rather than handling it: the
/// transition takes send_mu_ then every band mutex. Transitions drop
/// tx_up_ and wake the space futexes first, so a waiter bails promptly.
ShmTransport::Space ShmTransport::wait_tx_space_locked(TxBand& tx) {
    if (!tx_up_.load(std::memory_order_acquire)) return Space::kDown;
    if (!peer_alive()) return Space::kPeerDead;
    SegDir& d = tx.ring.dir();
    tx.stalls.fetch_add(1, std::memory_order_relaxed);
    // SPSC per band dir: producers serialize on tx.mu, so at most one
    // registrar; the retirer claims with exchange(0).
    d.space_waiters.store(1, std::memory_order_seq_cst);
    const std::uint32_t seq = d.space_seq.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!tx.ring.consumer_moved() && tx_up_.load(std::memory_order_acquire)) {
        futex_wait_us(d.space_seq, seq, wait_cycle_us_);
        futex_waits_.fetch_add(1, std::memory_order_relaxed);
    }
    d.space_waiters.store(0, std::memory_order_release);
    return tx_up_.load(std::memory_order_acquire) ? Space::kOk : Space::kDown;
}

/// The publish claimed the peer receiver's registration: wake it.
void ShmTransport::wake_receiver(std::size_t len, std::size_t band) {
    futex_wake_all(seg_.dir(side_, 0).data_seq);
    tx_[band].wakeups.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::emit(obs::EventType::kShmWakeup, len, 0);
    // Priority handoff: a band-0 frame just woke a consumer that outranks
    // what this thread does next (typically bulk lanes). Without kernel
    // priority preemption the woken thread runs only when this one's
    // slice ends, so yield: one syscall per claimed wake, and only when
    // lanes exist to invert.
    if (bands_ > 1 && band == 0) std::this_thread::yield();
}

/// The ring refused the frame; carry it over TCP.
void ShmTransport::fallback_send(FrameBuffer frame) {
    std::lock_guard lk(send_mu_);
    if (closed_.load(std::memory_order_relaxed) ||
        !tcp_up_.load(std::memory_order_relaxed)) {
        throw TransportError(label_ + ": peer closed");
    }
    tcp_->send_frame(std::move(frame));
    tcp_sent_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<FrameBuffer> ShmTransport::recv_frame() {
    for (;;) {
        std::optional<FrameBuffer> f;
        switch (pop_or_wait(f)) {
        case RxPoll::kFrame:
            return f;
        case RxPoll::kEnded:
            // Down and drained: keep serving frames from the TCP wire.
            if (!tcp_up_.load(std::memory_order_relaxed) ||
                closed_.load(std::memory_order_relaxed)) {
                return std::nullopt;
            }
            f = pump_tcp();
            break;
        case RxPoll::kIdle: {
            // The rings waited a cycle with no data: poll the TCP channel
            // for control or fallback traffic, and now and then check
            // that the peer process still exists.
            if (closed_.load(std::memory_order_acquire)) return std::nullopt;
            pollfd p{tcp_fd_, POLLIN | POLLRDHUP, 0};
            if (tcp_fd_ >= 0 && tcp_up_.load(std::memory_order_relaxed) &&
                poll(&p, 1, 0) > 0) {
                f = pump_tcp();
            } else if (++liveness_tick_ % 8 == 0 && !peer_alive()) {
                note_peer_dead();
            }
            break;
        }
        }
        if (f.has_value()) return f;
    }
}

/// One bounded receive attempt: pop, spin, then at most one futex sleep
/// cycle, so the caller can poll the control channel and peer liveness
/// between cycles.
ShmTransport::RxPoll
ShmTransport::pop_or_wait(std::optional<FrameBuffer>& out) {
    const RxPoll r = try_pop(out);
    if (r != RxPoll::kIdle) return r;
    for (std::size_t i = 0; i < kSpinBudget; ++i) {
        if (rx_has_data()) {
            spins_.fetch_add(i, std::memory_order_relaxed);
            return try_pop(out);
        }
        cpu_relax();
    }
    spins_.fetch_add(kSpinBudget, std::memory_order_relaxed);
    // All bands share one side-level data futex (the producing side's
    // band-0 dir): the consumer registers once and whichever band's
    // producer publishes next claims and wakes it. We are the only
    // registrar and producers claim with exchange(0), so plain stores
    // keep the flag in {0, 1}. Every other reason to wake (a close, a
    // failover) stores its state and then advances this futex word, so
    // only the data needs re-checking here.
    SegDir& d = seg_.dir(1 - side_, 0);
    d.data_waiters.store(1, std::memory_order_seq_cst);
    const std::uint32_t seq = d.data_seq.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!rx_has_data()) {
        futex_wait_us(d.data_seq, seq, wait_cycle_us_);
        futex_waits_.fetch_add(1, std::memory_order_relaxed);
    }
    d.data_waiters.store(0, std::memory_order_release);
    return try_pop(out);
}

/// Non-blocking pop of our inbound rings, band 0 (most urgent) first.
ShmTransport::RxPoll ShmTransport::try_pop(std::optional<FrameBuffer>& out) {
    {
        std::lock_guard lk(recv_mu_);
        if (in_->frozen.load(std::memory_order_acquire) ||
            closed_.load(std::memory_order_acquire)) {
            return RxPoll::kEnded;
        }
        bool all_closed = true;
        bool corrupt = false;
        for (std::size_t b = 0; b < bands_ && !corrupt; ++b) {
            ShmRingConsumer& ring = *in_->rings[b];
            ShmRingConsumer::View view;
            switch (ring.try_pop(view)) {
            case ShmRingConsumer::Pop::kFrame:
                out = deliver(b, view);
                return RxPoll::kFrame;
            case ShmRingConsumer::Pop::kCorrupt:
                corrupt = true;
                break;
            case ShmRingConsumer::Pop::kEmpty:
                if (!ring.closed()) all_closed = false;
                break;
            }
        }
        if (!corrupt) {
            return all_closed || rx_peer_done_.load(std::memory_order_acquire)
                       ? RxPoll::kEnded
                       : RxPoll::kIdle;
        }
    }
    // The peer published a ring entry we cannot trust: stop reading the
    // ring. Abandon freezes the rx side (so no later pop reaches the bad
    // entry) and moves the route onto TCP; it takes send_mu_, hence
    // outside recv_mu_.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    abandon_shm("peer protocol error");
    return RxPoll::kEnded;
}

/// Hand out a popped frame. Zero-copy while the pin budget allows: the
/// frame views the arena slot, its release hook retires the slot when it
/// dies, and its keepalive holds the inbound rings and the mapping.
/// Otherwise copy out into a pooled buffer and release at once.
FrameBuffer ShmTransport::deliver(std::size_t band,
                                  const ShmRingConsumer::View& view) {
    const std::uint32_t token =
        (static_cast<std::uint32_t>(band) << 24) | view.index;
    FrameBuffer out;
    if (in_->rings[band]->pinned() <= max_pinned_) {
        out = FrameBuffer::borrow(
            view.data, view.len,
            [](void* in, std::uint32_t t) noexcept {
                static_cast<Inbound*>(in)->release(t);
            },
            in_.get(), token, in_);
        rx_[band].borrowed.fetch_add(1, std::memory_order_relaxed);
        FrameBufferPool::global().note_borrowed();
    } else {
        out = FrameBufferPool::global().acquire(view.len);
        std::memcpy(out.data(), view.data, view.len);
        rx_[band].copies.fetch_add(1, std::memory_order_relaxed);
        in_->release(token);
    }
    rx_[band].received.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::emit(obs::EventType::kFrameRecv, view.len,
                              static_cast<std::uint32_t>(band));
    return out;
}

bool ShmTransport::rx_has_data() const noexcept {
    for (std::size_t b = 0; b < bands_; ++b) {
        if (in_->rings[b]->has_data()) return true;
    }
    return false;
}

/// Read one TCP frame (blocking) and classify: shm control is handled
/// here, data frames are returned.
std::optional<FrameBuffer> ShmTransport::pump_tcp() {
    std::optional<FrameBuffer> f;
    try {
        f = tcp_->recv_frame();
    } catch (const TransportError&) {
        f.reset();
    }
    if (!f.has_value()) {
        // Peer's graceful close: its ring-closed flag (or death) ends the
        // segment side; the next attempt lets the rings report it.
        tcp_up_.store(false, std::memory_order_release);
        return std::nullopt;
    }
    if (is_control_bye(*f)) {
        handle_peer_bye();
        return std::nullopt;
    }
    // After we froze our rx side with delivered-but-unretired slots
    // outstanding, the peer's replay re-sends those frames (it can only
    // see the frozen tail). Drop exactly the per-band skip counts recorded
    // at the freeze; everything past them is new.
    if (in_->frozen.load(std::memory_order_acquire)) {
        auto& skip = rx_[band_of(f->data(), f->size())].skip_replay;
        const std::uint32_t left = skip.load(std::memory_order_acquire);
        if (left > 0) {
            skip.store(left - 1, std::memory_order_release);
            replay_skipped_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
    }
    tcp_recv_.fetch_add(1, std::memory_order_relaxed);
    return f;
}

/// Band selection mirrors LaneGroup: the GIOP flags octet names the band,
/// clamped into the configured lane count. Short frames and single-band
/// segments take band 0.
std::size_t ShmTransport::band_of(const std::uint8_t* data,
                                  std::size_t len) const noexcept {
    if (bands_ == 1 || len < cdr::GiopHeader::kSize) return 0;
    return LanePolicy::band_for_frame(data, bands_);
}

bool ShmTransport::peer_alive() const noexcept {
    const SegHeader& h = seg_.header();
    const int peer = 1 - side_;
    if (h.attached[peer].load(std::memory_order_acquire) == 0) {
        // Graceful detach (or not yet attached): not death. The ring
        // closed flag / TCP EOF covers the graceful path.
        return true;
    }
    return pid_alive(
        static_cast<pid_t>(h.pid[peer].load(std::memory_order_acquire)));
}

// -- failover state machine ---------------------------------------------

/// Stop our producers on every band (send_mu_ held). Dropping tx_up_
/// first turns away new pushes; the space wake sends a sender parked in a
/// wait back to re-check it, so it drops its band mutex. The returned
/// locks hold every band mutex: no ring publish of ours lands while they
/// are held, and none starts after.
ShmTransport::BandLocks ShmTransport::stop_producers_locked() {
    tx_up_.store(false, std::memory_order_release);
    BandLocks locks;
    for (std::size_t b = 0; b < bands_; ++b) {
        futex_wake_all(tx_[b].ring.dir().space_seq);
        locks[b] = std::unique_lock(tx_[b].mu);
    }
    return locks;
}

/// Stop popping and pin the rx tails where they are, recording per band
/// how many delivered-but-unretired slots it holds: after a failover the
/// peer's replay re-sends those, and pump_tcp skips exactly that many.
/// Pinned borrowed frames stay valid: the frozen tails keep the peer's
/// producer from ever reclaiming their arena bytes.
void ShmTransport::freeze_rx() {
    std::lock_guard rlk(recv_mu_);
    std::lock_guard tlk(in_->retire_mu);
    if (in_->frozen.exchange(true, std::memory_order_acq_rel)) return;
    for (std::size_t b = 0; b < bands_; ++b) {
        rx_[b].skip_replay.store(in_->rings[b]->pinned(),
                                 std::memory_order_release);
    }
}

void ShmTransport::abandon_shm(const char* reason) {
    (void)reason;
    std::lock_guard lk(send_mu_);
    if (bye_sent_.exchange(true, std::memory_order_acq_rel)) return;
    stop_producers_locked(); // returns once no publish is in flight
    freeze_rx();
    wake_own_receiver();
    if (tcp_up_.load(std::memory_order_relaxed)) {
        cdr::RequestHeader req;
        req.request_id = 0;
        req.response_expected = false;
        req.object_key = kControlKey;
        req.operation = "bye";
        try {
            tcp_->send_frame(cdr::encode_request(req, nullptr, 0));
        } catch (const TransportError&) {
            tcp_up_.store(false, std::memory_order_release);
        }
    }
    failovers_.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::emit(obs::EventType::kShmFailover, 1, 0);
}

/// Inbound bye (recv thread): the peer froze its rx tails and switched to
/// TCP. Stop our producers, replay exactly our unconsumed [tail, head)
/// outbound frames over TCP — band 0 first, and ahead of any newer sends,
/// which serialize behind send_mu_ — then treat the peer's production
/// side as finished. A second bye would replay the same window again, so
/// only the first counts.
void ShmTransport::handle_peer_bye() {
    std::lock_guard lk(send_mu_);
    if (bye_received_.exchange(true, std::memory_order_acq_rel)) return;
    {
        BandLocks locks = stop_producers_locked();
        for (std::size_t b = 0; b < bands_; ++b) {
            replay_band_locked(tx_[b].ring);
        }
    }
    end_peer_production(0);
}

/// Resend one band's unconsumed frames through the TCP wire's one writer.
/// Descriptors come through the ring's checked read: a slot outside the
/// arena is counted and dropped, never read. Pooled buffers are reserved
/// a batch at a time, so a 400-frame resend costs a handful of pool-lock
/// acquisitions.
void ShmTransport::replay_band_locked(ShmRingProducer& ring) {
    std::uint32_t t = ring.tail();
    if (ring.head() - t > ring.geometry().capacity) {
        // A tail the consumer could not have published: replay nothing
        // rather than walk billions of slots.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        t = ring.head();
    }
    constexpr std::size_t kReplayBatch = 32;
    while (t != ring.head()) {
        SegSlot slots[kReplayBatch];
        std::size_t n = 0;
        std::size_t max_len = 0;
        for (; t != ring.head() && n < kReplayBatch; ++t) {
            if (!ring.read(t, slots[n])) {
                protocol_errors_.fetch_add(1, std::memory_order_relaxed);
                dropped_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            max_len = std::max<std::size_t>(max_len, slots[n].len);
            ++n;
        }
        if (n == 0) continue;
        FrameBuffer bufs[kReplayBatch];
        if (tcp_up_.load(std::memory_order_relaxed)) {
            FrameBufferPool::global().acquire_batch(max_len, bufs, n);
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (!tcp_up_.load(std::memory_order_relaxed)) {
                dropped_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            bufs[i].resize(slots[i].len);
            std::memcpy(bufs[i].data(), ring.bytes(slots[i]), slots[i].len);
            try {
                tcp_->send_frame(std::move(bufs[i]));
                resent_.fetch_add(1, std::memory_order_relaxed);
            } catch (const TransportError&) {
                tcp_up_.store(false, std::memory_order_release);
                dropped_.fetch_add(1, std::memory_order_relaxed);
            }
        }
    }
}

/// Peer died without a bye. Our unconsumed outbound frames are moot
/// (their consumer is gone — counted, not resent); the peer's already
/// published inbound frames stay deliverable until the rings drain, and
/// already-pinned slots stay valid forever (a dead producer can never
/// reclaim them).
void ShmTransport::note_peer_dead() {
    std::lock_guard lk(send_mu_);
    if (peer_dead_.exchange(true, std::memory_order_acq_rel)) return;
    {
        BandLocks locks = stop_producers_locked();
        for (std::size_t b = 0; b < bands_; ++b) {
            dropped_.fetch_add(tx_[b].ring.head() - tx_[b].ring.tail(),
                               std::memory_order_relaxed);
        }
    }
    end_peer_production(2);
}

/// The peer produces nothing more (its bye, or its death): our receiver
/// drains what it already published and then reports the rings ended.
void ShmTransport::end_peer_production(std::uint32_t failover_kind) {
    rx_peer_done_.store(true, std::memory_order_release);
    wake_own_receiver();
    failovers_.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::emit(obs::EventType::kShmFailover, failover_kind, 0);
}

/// Wake our own receiver (asleep on the peer side's band-0 data futex) so
/// it re-checks state. Our senders were woken by stop_producers_locked.
void ShmTransport::wake_own_receiver() {
    futex_wake_all(seg_.dir(1 - side_, 0).data_seq);
}

void ShmTransport::close() {
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    {
        std::lock_guard lk(send_mu_);
        BandLocks locks = stop_producers_locked();
        for (std::size_t b = 0; b < bands_; ++b) {
            tx_[b].ring.dir().closed.store(1, std::memory_order_release);
        }
        std::atomic_thread_fence(std::memory_order_seq_cst);
        futex_wake_all(seg_.dir(side_, 0).data_seq); // peer's receiver
    }
    freeze_rx(); // no pop in flight past here
    wake_own_receiver();
    // The mapping itself stays alive while borrowed frames hold the
    // inbound rings; detach only drops our attached flag so the peer and
    // the orphan sweeper see us gone.
    seg_.detach();
    if (side_ == 0) seg_.unlink();
    tcp_->close();
}

TransportStats ShmTransport::stats() const {
    const ShmCounters c = counters();
    TransportStats s;
    s.frames_sent = c.shm_frames_sent + c.tcp_frames_sent;
    s.frames_received = c.shm_frames_received + c.tcp_frames_received;
    return s;
}

bool ShmTransport::shm_active() const {
    return tx_up_.load(std::memory_order_relaxed) &&
           !in_->frozen.load(std::memory_order_relaxed) &&
           !closed_.load(std::memory_order_relaxed);
}

ShmCounters ShmTransport::counters() const {
    ShmCounters c;
    c.tcp_frames_sent = tcp_sent_.load(std::memory_order_relaxed);
    c.tcp_frames_received = tcp_recv_.load(std::memory_order_relaxed);
    c.wakeups = in_->space_wakeups.load(std::memory_order_relaxed);
    c.futex_waits = futex_waits_.load(std::memory_order_relaxed);
    c.spins = spins_.load(std::memory_order_relaxed);
    c.failovers = failovers_.load(std::memory_order_relaxed);
    c.resent_frames = resent_.load(std::memory_order_relaxed);
    c.dropped_on_failover = dropped_.load(std::memory_order_relaxed);
    c.replay_skipped = replay_skipped_.load(std::memory_order_relaxed);
    c.peer_protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    c.bands = static_cast<std::uint32_t>(bands_);
    for (std::size_t b = 0; b < bands_; ++b) {
        const SegDir& dt = seg_.dir(side_, b);
        const SegDir& dr = seg_.dir(1 - side_, b);
        c.band_tx_depth[b] = dt.head.load(std::memory_order_relaxed) -
                             dt.tail.load(std::memory_order_relaxed);
        c.band_rx_depth[b] = dr.head.load(std::memory_order_relaxed) -
                             dr.tail.load(std::memory_order_relaxed);
        c.band_tx_stalls[b] = tx_[b].stalls.load(std::memory_order_relaxed);
        c.band_tx_frames[b] = tx_[b].sent.load(std::memory_order_relaxed);
        c.wakeups += tx_[b].wakeups.load(std::memory_order_relaxed);
        c.band_rx_frames[b] = rx_[b].received.load(std::memory_order_relaxed);
        c.shm_frames_sent += c.band_tx_frames[b];
        c.shm_frames_received += c.band_rx_frames[b];
        c.tx_depth += c.band_tx_depth[b];
        c.rx_depth += c.band_rx_depth[b];
        c.rx_pinned += in_->rings[b]->pinned();
        c.rx_borrowed += rx_[b].borrowed.load(std::memory_order_relaxed);
        c.rx_copies += rx_[b].copies.load(std::memory_order_relaxed);
    }
    c.rx_pin_stalls = c.rx_copies;
    c.shm_active = shm_active();
    return c;
}

// ---- handshake ------------------------------------------------------------

namespace {

constexpr std::uint32_t kHelloRequestId = 1;

std::vector<std::uint8_t> encode_hello(const std::string& segment_name,
                                       std::uint64_t generation) {
    cdr::OutputStream payload;
    payload.write_string(segment_name);
    payload.write_ulonglong(generation);
    payload.write_ulong(shm_detail::kVersion);
    cdr::RequestHeader req;
    req.request_id = kHelloRequestId;
    req.response_expected = true;
    req.object_key = kControlKey;
    req.operation = "hello";
    const std::vector<std::uint8_t> body = payload.take_buffer();
    return cdr::encode_request(req, body.data(), body.size());
}

std::vector<std::uint8_t> encode_hello_reply(bool ok,
                                             const std::string& detail) {
    cdr::OutputStream payload;
    payload.write_ulong(ok ? 1 : 0);
    payload.write_string(detail);
    cdr::ReplyHeader rep;
    rep.request_id = kHelloRequestId;
    rep.status = cdr::ReplyStatus::kNoException;
    const std::vector<std::uint8_t> body = payload.take_buffer();
    return cdr::encode_reply(rep, body.data(), body.size());
}

/// Plain transport wrapper that yields one already-read frame before
/// delegating — used when a ShmAcceptor's first inbound frame turns out
/// not to be a hello (a protocol-unaware client), so nothing is lost.
class StashedFrameTransport final : public Transport {
public:
    StashedFrameTransport(std::unique_ptr<Transport> inner, FrameBuffer first)
        : inner_(std::move(inner)), stash_(std::move(first)), have_(true) {}

    void send_frame(FrameBuffer frame) override {
        inner_->send_frame(std::move(frame));
    }
    std::optional<FrameBuffer> recv_frame() override {
        if (have_) {
            have_ = false;
            return std::move(stash_);
        }
        return inner_->recv_frame();
    }
    void close() override { inner_->close(); }
    std::string peer_description() const override {
        return inner_->peer_description();
    }
    TransportStats stats() const override { return inner_->stats(); }
    void prepare_close() override { inner_->prepare_close(); }
    FrameBufferPool& frame_pool() noexcept override {
        return inner_->frame_pool();
    }

private:
    std::unique_ptr<Transport> inner_;
    FrameBuffer stash_;
    bool have_;
};

} // namespace

ShmConnectResult shm_upgrade_connect(const std::string& host,
                                     std::uint16_t port,
                                     const ShmOptions& shm_options,
                                     const TcpOptions& tcp_options) {
    sweep_once_at_startup();
    std::unique_ptr<Transport> tcp = tcp_connect(host, port, tcp_options);

    std::shared_ptr<ShmSegment> seg;
    std::string create_fail;
    try {
        seg = ShmSegment::create(shm_options);
    } catch (const TransportError& e) {
        create_fail = e.what();
    }

    tcp->send_frame(encode_hello(seg ? seg->name() : std::string(),
                                 seg ? seg->generation() : 0));
    std::optional<FrameBuffer> reply = tcp->recv_frame();
    if (!reply.has_value()) {
        throw TransportError("shm handshake: peer closed before replying");
    }
    bool ok = false;
    std::string detail;
    try {
        const cdr::DecodedReply rep =
            cdr::decode_reply(reply->data(), reply->size());
        cdr::InputStream in(rep.payload, rep.payload_len,
                            cdr::decode_header(reply->data(), reply->size())
                                .byte_order);
        ok = in.read_ulong() != 0;
        detail = in.read_string();
    } catch (const std::exception& e) {
        throw TransportError(std::string("shm handshake: malformed reply: ") +
                             e.what());
    }

    if (ok && seg) {
        const std::string name = seg->name();
        return ShmConnectResult{
            std::make_unique<ShmTransport>(std::move(seg), std::move(tcp),
                                           shm_options, "shm-client:" + name),
            true, "segment " + name};
    }
    seg.reset(); // creator dtor unlinks the unused segment
    if (!create_fail.empty() && detail.empty()) detail = create_fail;
    return ShmConnectResult{std::move(tcp), false, detail};
}

ShmAcceptor::ShmAcceptor(std::uint16_t port, const ShmOptions& shm_options,
                         const TcpOptions& tcp_options)
    : tcp_(port, tcp_options), shm_options_(shm_options),
      metrics_source_(obs::MetricsRegistry::global().add_source(
          "net_shm_acceptor_" + std::to_string(tcp_.bound_port()),
          [this] {
              return std::vector<obs::SourceSample>{
                  {"handshakes_refused", handshakes_refused()}};
          })) {
    sweep_once_at_startup();
}

ShmAcceptor::~ShmAcceptor() {
    obs::MetricsRegistry::global().remove_source(metrics_source_);
}

ShmConnectResult ShmAcceptor::accept() {
    std::unique_ptr<Transport> tcp = tcp_.accept();
    if (!tcp) return ShmConnectResult{nullptr, false, "acceptor closed"};

    std::optional<FrameBuffer> first;
    try {
        first = tcp->recv_frame();
    } catch (const TransportError& e) {
        refused_.fetch_add(1, std::memory_order_relaxed);
        return ShmConnectResult{nullptr, false,
                                std::string("handshake read failed: ") +
                                    e.what()};
    }
    if (!first.has_value()) {
        return ShmConnectResult{nullptr, false,
                                "peer closed during handshake"};
    }

    std::string seg_name;
    std::uint64_t generation = 0;
    std::uint32_t version = 0;
    bool is_hello = false;
    try {
        const cdr::GiopHeader gh =
            cdr::decode_header(first->data(), first->size());
        if (gh.msg_type == cdr::GiopMsgType::kRequest) {
            const cdr::DecodedRequestView v =
                cdr::decode_request_view(first->data(), first->size());
            if (v.header.object_key == kControlKey &&
                v.header.operation == "hello") {
                is_hello = true;
                cdr::InputStream in(v.payload, v.payload_len, v.byte_order);
                seg_name = in.read_string();
                generation = in.read_ulonglong();
                version = in.read_ulong();
            }
        }
    } catch (...) {
        is_hello = false;
    }
    if (!is_hello) {
        // Protocol-unaware client: hand back plain TCP with the frame
        // re-queued so nothing is lost.
        return ShmConnectResult{std::make_unique<StashedFrameTransport>(
                                    std::move(tcp), std::move(*first)),
                                false, "peer sent no shm hello"};
    }

    std::string nack;
    std::shared_ptr<ShmSegment> seg;
    if (seg_name.empty()) {
        nack = "client could not create a segment";
    } else if (!creatable_segment_name(seg_name)) {
        nack = std::string("hello names a segment outside ") +
               shm_detail::kNamePrefix + "*: " +
               seg_name.substr(0, kNameBufBytes);
    } else if (version != shm_detail::kVersion) {
        nack = "version mismatch: hello v" + std::to_string(version) +
               ", expected v" + std::to_string(shm_detail::kVersion);
    } else {
        try {
            seg = ShmSegment::attach(seg_name, generation);
        } catch (const TransportError& e) {
            nack = e.what();
        }
    }
    if (!seg) refused_.fetch_add(1, std::memory_order_relaxed);

    try {
        tcp->send_frame(encode_hello_reply(seg != nullptr, nack));
    } catch (const TransportError& e) {
        return ShmConnectResult{nullptr, false,
                                std::string("handshake reply failed: ") +
                                    e.what()};
    }
    if (!seg) return ShmConnectResult{std::move(tcp), false, nack};

    const std::string name = seg->name();
    return ShmConnectResult{
        std::make_unique<ShmTransport>(std::move(seg), std::move(tcp),
                                       shm_options_, "shm-server:" + name),
        true, "segment " + name};
}

// ---- orphan sweep ---------------------------------------------------------

std::size_t sweep_orphan_segments() noexcept {
    std::size_t removed = 0;
    DIR* dir = opendir("/dev/shm");
    if (dir == nullptr) return 0;
    constexpr const char* kPrefix = "compadres."; // kNamePrefix sans '/'
    const std::size_t prefix_len = std::strlen(kPrefix);
    while (dirent* e = readdir(dir)) {
        if (std::strncmp(e->d_name, kPrefix, prefix_len) != 0) continue;
        // The name embeds the creator pid; a live creator means a segment
        // mid-handshake whose header may not be written yet — never sweep
        // those out from under it.
        const long name_pid = std::strtol(e->d_name + prefix_len, nullptr, 10);
        if (pid_alive(static_cast<pid_t>(name_pid))) continue;

        const std::string shm_name = std::string("/") + e->d_name;
        int fd = shm_open(shm_name.c_str(), O_RDONLY, 0);
        if (fd < 0) continue;
        bool drop = false;
        struct stat st{};
        if (fstat(fd, &st) != 0 ||
            static_cast<std::size_t>(st.st_size) < sizeof(SegHeader)) {
            drop = true;
        } else {
            void* p = mmap(nullptr, sizeof(SegHeader), PROT_READ, MAP_SHARED,
                           fd, 0);
            if (p != MAP_FAILED) {
                const auto* h = static_cast<const SegHeader*>(p);
                if (std::memcmp(h->magic, shm_detail::kMagic,
                                sizeof h->magic) != 0) {
                    drop = true;
                } else {
                    bool alive = false;
                    for (int s = 0; s < 2; ++s) {
                        if (h->attached[s].load(std::memory_order_acquire) !=
                                0 &&
                            pid_alive(static_cast<pid_t>(h->pid[s].load(
                                std::memory_order_acquire)))) {
                            alive = true;
                        }
                    }
                    drop = !alive;
                }
                munmap(p, sizeof(SegHeader));
            }
        }
        ::close(fd);
        if (drop && shm_unlink(shm_name.c_str()) == 0) ++removed;
    }
    closedir(dir);
    return removed;
}

} // namespace compadres::net
