#include "net/shm_transport.hpp"

#include "cdr/giop.hpp"
#include "net/lane_group.hpp"
#include "obs/flight_recorder.hpp"

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

#include <array>
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

void futex_wake_all(std::atomic<std::uint32_t>& word) {
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

std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

/// Clamp options into a self-consistent geometry (pow2 ring, arena big
/// enough that the largest frame plus a wrap skip always fits).
ShmOptions normalize(ShmOptions o) {
    o.ring_capacity = round_up_pow2(o.ring_capacity ? o.ring_capacity : 2);
    if (o.ring_capacity < 2) o.ring_capacity = 2;
    // Bounded so a slot index always fits the 24 bits a borrowed frame's
    // release token reserves for it (the band takes the top 8).
    if (o.ring_capacity > (1u << 20)) o.ring_capacity = 1u << 20;
    if (o.arena_bytes < 4096) o.arena_bytes = 4096;
    o.arena_bytes = align8(o.arena_bytes);
    if (o.max_frame_bytes > o.arena_bytes / 2) {
        o.max_frame_bytes = o.arena_bytes / 2;
    }
    if (o.max_frame_bytes < 64) o.max_frame_bytes = 64;
    if (o.bands < 1) o.bands = 1;
    if (o.bands > shm_detail::kMaxShmBands) o.bands = shm_detail::kMaxShmBands;
    if (o.max_pinned_slots == 0) o.max_pinned_slots = o.ring_capacity / 2;
    // Strictly below capacity: at pinned == capacity the slot index
    // (head & mask) of the next pop would collide with an unreleased
    // slot's bitmap bit.
    if (o.max_pinned_slots > o.ring_capacity - 1) {
        o.max_pinned_slots = o.ring_capacity - 1;
    }
    return o;
}

bool pid_alive(pid_t pid) noexcept {
    return pid > 0 && (kill(pid, 0) == 0 || errno == EPERM);
}

void sweep_once_at_startup() {
    static std::once_flag flag;
    std::call_once(flag, [] { sweep_orphan_segments(); });
}

constexpr const char* kControlKey = "compadres.shm";

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
    h->ring_capacity = static_cast<std::uint32_t>(o.ring_capacity);
    h->arena_bytes = static_cast<std::uint32_t>(o.arena_bytes);
    h->max_frame_bytes = static_cast<std::uint32_t>(o.max_frame_bytes);
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
    // The peer wrote this header: hold it to the bounds normalize() gives
    // the creator. A zero arena would divide by zero at the first send,
    // and a frame bound past half the arena could wait forever for space.
    if (h.bands < 1 || h.bands > shm_detail::kMaxShmBands ||
        shm_detail::segment_bytes(h.bands, h.ring_capacity, h.arena_bytes) !=
            total ||
        (h.ring_capacity & (h.ring_capacity - 1)) != 0 ||
        h.ring_capacity < 2 || h.ring_capacity > (1u << 20) ||
        h.arena_bytes < 4096 || h.arena_bytes % 8 != 0 ||
        h.max_frame_bytes < 64 || h.max_frame_bytes > h.arena_bytes / 2) {
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

// ---- ShmSession -----------------------------------------------------------

namespace {

/// Result of one bounded receive attempt on the session. Exactly one of:
/// frame set; closed true; neither (idle — the ring waited its bounded
/// interval without data, so ShmTransport::recv_frame runs idle_poll
/// before retrying).
struct RingRecv {
    std::optional<FrameBuffer> frame;
    bool closed = false;

    static RingRecv ended() {
        RingRecv r;
        r.closed = true;
        return r;
    }
};

} // namespace

/// The engine behind ShmTransport: per-band SPSC ring producer/consumer
/// over the segment, plus the TCP control/fallback channel and the
/// failover state machine.
///
/// Locking. Producers serialize per band (TxBand::mu), so a bulk band
/// parked in a space wait never stalls an urgent send. send_mu_ guards
/// the failover state machine (bye in either direction, peer death,
/// close) and TCP fallback ordering; a state transition takes send_mu_
/// first, then every band mutex in index order — never the reverse, so a
/// producer holding its band mutex must not take send_mu_ (failure
/// handling runs after the band mutex is dropped). recv_mu_ serializes
/// pops against the rx freeze and is held only for the duration of a pop
/// — never across a futex wait — so an abandoner freezing the rx tails
/// cannot deadlock against a sleeping receiver. retire_mu_ guards the
/// released bitmaps and published tails (taken after recv_mu_ where both
/// are needed, never before). recv_frame is single-consumer (one bridge
/// reader thread), like every transport in this repo; send_frame is
/// any-thread. enable_shared_from_this: every borrowed frame keeps the
/// session (and therefore the segment mapping) alive until it dies.
class ShmSession : public std::enable_shared_from_this<ShmSession> {
public:
    ShmSession(std::shared_ptr<ShmSegment> seg, std::unique_ptr<Transport> tcp,
               const ShmOptions& opts)
        : seg_(std::move(seg)), tcp_(std::move(tcp)), opts_(normalize(opts)),
          side_(seg_->side()) {
        SegHeader& h = seg_->header();
        capacity_ = h.ring_capacity;
        mask_ = capacity_ - 1;
        arena_bytes_ = h.arena_bytes;
        max_frame_ = h.max_frame_bytes;
        bands_ = h.bands;
        // Geometry (bands included) comes from the header so both sides
        // agree; only local knobs come from opts_. Re-clamp the pin
        // budget against the header's capacity, which can differ from
        // the capacity in this side's options.
        max_pinned_ = opts_.max_pinned_slots;
        if (max_pinned_ > capacity_ - 1) max_pinned_ = capacity_ - 1;
        if (max_pinned_ < 1) max_pinned_ = 1;
        for (std::size_t b = 0; b < bands_; ++b) {
            tx_[b].slots = seg_->slots(side_, b);
            tx_[b].arena = seg_->arena(side_, b);
            rx_[b].slots = seg_->slots(1 - side_, b);
            rx_[b].arena = seg_->arena(1 - side_, b);
            rx_[b].released =
                std::make_unique<std::atomic<std::uint8_t>[]>(capacity_);
            rx_[b].popped = std::make_unique<SegSlot[]>(capacity_);
            for (std::uint32_t i = 0; i < capacity_; ++i) {
                rx_[b].released[i].store(0, std::memory_order_relaxed);
            }
        }
        if (ReactorHook* hook = tcp_->reactor_hook()) {
            tcp_fd_ = hook->descriptor();
        }
    }

    ~ShmSession() { close_all(); }

    // -- ring surface -------------------------------------------------------

    /// Push one frame into the ring its band selects. False (frame
    /// untouched) when the shm path cannot take it — oversize (triggers
    /// orderly failover), peer gone, bye exchanged, or closed — and the
    /// caller reroutes to TCP.
    bool ring_send(FrameBuffer& frame) {
        if (bye_pending_.load(std::memory_order_acquire)) {
            std::lock_guard lk(send_mu_);
            complete_peer_bye_locked();
        }
        if (!tx_up_.load(std::memory_order_acquire)) return false;
        const std::size_t len = frame.size();
        const std::size_t band = band_of(frame.data(), len);
        TxBand& tx = tx_[band];
        bool peer_died = false;
        if (len <= max_frame_) {
            std::lock_guard lk(tx.mu);
            if (!tx_up_.load(std::memory_order_acquire)) return false;
            std::size_t pos = 0;
            switch (acquire_tx_space_locked(tx, band, len, pos)) {
            case kSpaceDown:
                return false;
            case kSpacePeerDead:
                peer_died = true;
                break;
            case kSpaceOk:
                std::memcpy(tx.arena + pos, frame.data(), len);
                tx.slots[tx.head & mask_] =
                    SegSlot{static_cast<std::uint32_t>(pos),
                            static_cast<std::uint32_t>(len)};
                tx.arena_head += align8(len);
                ++tx.head;
                tx_dir(band).head.store(tx.head, std::memory_order_release);
                wake_data_waiter(len, band);
                tx.sent.fetch_add(1, std::memory_order_relaxed);
                shm_sent_.fetch_add(1, std::memory_order_relaxed);
                obs::FlightRecorder::emit(obs::EventType::kFrameSend, len,
                                          static_cast<std::uint32_t>(band));
                return true;
            }
        }
        // Failure transitions run with the band mutex dropped: both take
        // send_mu_ and then every band mutex.
        if (peer_died) {
            note_peer_dead();
            return false;
        }
        // One route's frames must stay ordered, so an oversize frame
        // cannot simply take the other path: abandon shm first, then
        // everything (this frame included) rides TCP.
        abandon("oversize frame");
        return false;
    }

    /// One bounded receive attempt: spin, then at most one futex sleep
    /// cycle, then report idle so the transport can poll the control
    /// channel and peer liveness between cycles.
    RingRecv ring_recv() {
        RingRecv r = try_pop();
        if (r.frame.has_value() || r.closed) return r;
        for (std::size_t i = 0; i < opts_.spin_budget; ++i) {
            if (rx_ring_has_data()) return try_pop();
            cpu_relax();
            spins_.fetch_add(1, std::memory_order_relaxed);
        }
        // All bands share one side-level data futex (the producing side's
        // band-0 dir): the consumer registers once and whichever band's
        // producer publishes next claims + wakes it. SPSC per
        // registration: we are the only registrar, producers claim with
        // exchange(0), so plain stores keep the flag in {0, 1}.
        SegDir& d = rx_dir(0);
        d.data_waiters.store(1, std::memory_order_seq_cst);
        const std::uint32_t seq = d.data_seq.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const bool wake_worthy =
            rx_ring_has_data() || rx_rings_closed() ||
            rx_peer_done_.load(std::memory_order_acquire) ||
            rx_frozen_.load(std::memory_order_acquire) ||
            closed_.load(std::memory_order_acquire);
        if (!wake_worthy) {
            futex_wait_us(d.data_seq, seq, opts_.wait_cycle_us);
            futex_waits_.fetch_add(1, std::memory_order_relaxed);
        }
        d.data_waiters.store(0, std::memory_order_release);
        return try_pop();
    }

    std::size_t bands() const noexcept { return bands_; }

    // -- TCP fallback and control -----------------------------------------

    /// The ring refused the frame; carry it over TCP (after finishing any
    /// failover handshake that refusal was part of).
    void fallback_send(FrameBuffer frame) {
        std::lock_guard lk(send_mu_);
        if (bye_pending_.load(std::memory_order_acquire)) {
            complete_peer_bye_locked();
        }
        if (closed_.load(std::memory_order_relaxed) ||
            !tcp_up_.load(std::memory_order_relaxed)) {
            throw TransportError(label() + ": peer closed");
        }
        tcp_->send_frame(std::move(frame));
        tcp_sent_.fetch_add(1, std::memory_order_relaxed);
    }

    /// The ring waited one cycle with no data. Poll the TCP channel for
    /// control/fallback traffic, and periodically check that the peer
    /// process still exists.
    RingRecv idle_poll() {
        if (closed_.load(std::memory_order_acquire)) {
            return RingRecv::ended();
        }
        if (tcp_fd_ >= 0 && tcp_up_.load(std::memory_order_relaxed)) {
            pollfd p{tcp_fd_, POLLIN | POLLRDHUP, 0};
            if (poll(&p, 1, 0) > 0) return pump_tcp();
        }
        if (++liveness_tick_ % 8 == 0 && !peer_alive()) {
            note_peer_dead();
        }
        return RingRecv{};
    }

    /// The segment is drained and done (graceful close, failover, or peer
    /// death); keep receiving from the TCP wire.
    RingRecv tcp_recv_blocking() {
        if (!tcp_up_.load(std::memory_order_relaxed) ||
            closed_.load(std::memory_order_relaxed)) {
            return RingRecv::ended();
        }
        return pump_tcp();
    }

    /// Orderly reroute-to-TCP. Freezes our rx tail, stops our tx, tells
    /// the peer (which replays our unconsumed inbound frames over TCP).
    void abandon(const char* reason) {
        std::lock_guard lk(send_mu_);
        if (bye_pending_.load(std::memory_order_acquire)) {
            complete_peer_bye_locked();
        }
        abandon_locked(reason);
    }

    void close_all() {
        if (close_done_.exchange(true)) return;
        {
            std::lock_guard lk(send_mu_);
            if (bye_pending_.load(std::memory_order_acquire)) {
                complete_peer_bye_locked();
            }
            closed_.store(true, std::memory_order_release);
            // Wake senders parked in a space wait so they drop their band
            // mutex (they re-check closed_), letting us take every band.
            wake_space_waiters();
            std::array<std::unique_lock<std::mutex>, shm_detail::kMaxShmBands>
                band_locks;
            for (std::size_t b = 0; b < bands_; ++b) {
                band_locks[b] = std::unique_lock(tx_[b].mu);
            }
            tx_up_.store(false, std::memory_order_release);
            for (std::size_t b = 0; b < bands_; ++b) {
                tx_dir(b).closed.store(1, std::memory_order_release);
            }
            std::atomic_thread_fence(std::memory_order_seq_cst);
            SegDir& d0 = tx_dir(0);
            d0.data_seq.fetch_add(1, std::memory_order_release);
            futex_wake_all(d0.data_seq); // peer's receiver
        }
        { std::lock_guard rlk(recv_mu_); } // no pop in flight past here
        wake_local_waiters();
        // The mapping itself stays alive while borrowed frames hold the
        // session (each one keeps a shared_ptr); detach only drops our
        // attached flag so the peer and the orphan sweeper see us gone.
        seg_->detach();
        if (side_ == 0) seg_->unlink();
        tcp_->close();
    }

    // -- introspection ------------------------------------------------------

    ShmCounters counters() const {
        ShmCounters c;
        c.shm_frames_sent = shm_sent_.load(std::memory_order_relaxed);
        c.shm_frames_received = shm_recv_.load(std::memory_order_relaxed);
        c.tcp_frames_sent = tcp_sent_.load(std::memory_order_relaxed);
        c.tcp_frames_received = tcp_recv_.load(std::memory_order_relaxed);
        c.wakeups = wakeups_.load(std::memory_order_relaxed);
        c.futex_waits = futex_waits_.load(std::memory_order_relaxed);
        c.spins = spins_.load(std::memory_order_relaxed);
        c.failovers = failovers_.load(std::memory_order_relaxed);
        c.resent_frames = resent_.load(std::memory_order_relaxed);
        c.dropped_on_failover = dropped_.load(std::memory_order_relaxed);
        c.replay_skipped = replay_skipped_.load(std::memory_order_relaxed);
        c.peer_protocol_errors =
            protocol_errors_.load(std::memory_order_relaxed);
        c.bands = static_cast<std::uint32_t>(bands_);
        std::uint64_t txd = 0;
        std::uint64_t rxd = 0;
        for (std::size_t b = 0; b < bands_; ++b) {
            const SegDir& dt = seg_->dir(side_, b);
            const SegDir& dr = seg_->dir(1 - side_, b);
            c.band_tx_depth[b] = dt.head.load(std::memory_order_relaxed) -
                                 dt.tail.load(std::memory_order_relaxed);
            c.band_rx_depth[b] = dr.head.load(std::memory_order_relaxed) -
                                 dr.tail.load(std::memory_order_relaxed);
            c.band_tx_stalls[b] = tx_[b].stalls.load(std::memory_order_relaxed);
            c.band_tx_frames[b] = tx_[b].sent.load(std::memory_order_relaxed);
            c.band_rx_frames[b] =
                rx_[b].received.load(std::memory_order_relaxed);
            txd += c.band_tx_depth[b];
            rxd += c.band_rx_depth[b];
            c.rx_borrowed += rx_[b].borrowed.load(std::memory_order_relaxed);
            c.rx_copies += rx_[b].copies.load(std::memory_order_relaxed);
            c.rx_pin_stalls +=
                rx_[b].pin_stalls.load(std::memory_order_relaxed);
            c.rx_pinned += rx_[b].next.load(std::memory_order_relaxed) -
                           rx_[b].retired.load(std::memory_order_relaxed);
        }
        c.tx_depth = txd;
        c.rx_depth = rxd;
        c.shm_active = shm_active();
        return c;
    }

    bool shm_active() const {
        return tx_up_.load(std::memory_order_relaxed) &&
               !rx_frozen_.load(std::memory_order_relaxed) &&
               !closed_.load(std::memory_order_relaxed);
    }

    const std::string& segment_name() const { return seg_->name(); }
    std::uint64_t generation() const { return seg_->generation(); }
    std::string label() const { return "shm:" + seg_->name(); }

    FrameBufferPool& pool() noexcept {
        return opts_.pool != nullptr ? *opts_.pool : FrameBufferPool::global();
    }

private:
    /// Per-band producer state, guarded by its own mutex so a bulk band's
    /// space wait never blocks an urgent send. Cached consumer positions
    /// avoid re-reading the shared line until the ring looks full.
    struct TxBand {
        std::mutex mu;
        std::uint32_t head = 0;
        std::uint32_t cached_tail = 0;
        std::uint64_t arena_head = 0;
        std::uint64_t cached_arena_tail = 0;
        SegSlot* slots = nullptr;
        std::uint8_t* arena = nullptr;
        std::atomic<std::uint64_t> sent{0};
        std::atomic<std::uint64_t> stalls{0};
    };

    /// Per-band consumer state. `next` (the delivery cursor) is advanced
    /// by the recv thread under recv_mu_; the retire window — `retired`,
    /// `arena_retired`, the released bitmap — belongs to retire_mu_,
    /// because release hooks run on whatever thread drops a borrowed
    /// frame. `head_hint` is the recv thread's lock-free spin mirror.
    struct RxBand {
        std::atomic<std::uint32_t> next{0};
        std::uint32_t head_hint = 0;
        std::atomic<std::uint32_t> retired{0};
        std::uint64_t arena_retired = 0;
        std::atomic<std::uint32_t> skip_replay{0};
        std::unique_ptr<std::atomic<std::uint8_t>[]> released;
        /// Bounds-checked copy of each popped slot's descriptor; the
        /// retire walk reads these, never the peer-writable ring.
        std::unique_ptr<SegSlot[]> popped;
        SegSlot* slots = nullptr;
        std::uint8_t* arena = nullptr;
        std::atomic<std::uint64_t> received{0};
        std::atomic<std::uint64_t> borrowed{0};
        std::atomic<std::uint64_t> copies{0};
        std::atomic<std::uint64_t> pin_stalls{0};
    };

    enum SpaceResult { kSpaceOk, kSpaceDown, kSpacePeerDead };

    SegDir& tx_dir(std::size_t band) noexcept {
        return seg_->dir(side_, band);
    }
    SegDir& rx_dir(std::size_t band) noexcept {
        return seg_->dir(1 - side_, band);
    }

    /// Band selection mirrors LaneGroup: the GIOP flags octet names the
    /// band, clamped into the configured lane count. Short frames and
    /// single-band segments take band 0.
    std::size_t band_of(const std::uint8_t* data,
                        std::size_t len) const noexcept {
        if (bands_ == 1 || len < cdr::GiopHeader::kSize) return 0;
        return LanePolicy::band_for_frame(data, bands_);
    }

    bool rx_ring_has_data() noexcept {
        for (std::size_t b = 0; b < bands_; ++b) {
            if (rx_dir(b).head.load(std::memory_order_acquire) !=
                rx_[b].head_hint) {
                return true;
            }
        }
        return false;
    }

    bool rx_rings_closed() noexcept {
        for (std::size_t b = 0; b < bands_; ++b) {
            if (rx_dir(b).closed.load(std::memory_order_acquire) == 0) {
                return false;
            }
        }
        return true;
    }

    /// Anything that should abort an in-flight send attempt.
    bool tx_interrupted() const noexcept {
        return bye_pending_.load(std::memory_order_acquire) ||
               bye_sent_.load(std::memory_order_acquire) ||
               peer_dead_.load(std::memory_order_acquire) ||
               closed_.load(std::memory_order_acquire) ||
               !tx_up_.load(std::memory_order_acquire);
    }

    /// Only-if-waiters wake of the consumer's side-level data futex
    /// (Dekker with the consumer's registration: the seq_cst fence orders
    /// our head publish before the waiters exchange; the consumer's
    /// seq_cst registration orders before its head re-check, so one of us
    /// always sees the other). The exchange CLAIMS the registration: a
    /// woken-but-not-yet-scheduled consumer costs one wake per waiting
    /// episode, not one per push — on a single core the consumer can stay
    /// registered across a whole batch of sends. All bands funnel through
    /// band 0's dir; concurrent producers race on the exchange and
    /// exactly one wins.
    void wake_data_waiter(std::size_t len, std::size_t band) {
        SegDir& d0 = tx_dir(0);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (d0.data_waiters.exchange(0, std::memory_order_seq_cst) != 0) {
            d0.data_seq.fetch_add(1, std::memory_order_release);
            futex_wake_all(d0.data_seq);
            wakeups_.fetch_add(1, std::memory_order_relaxed);
            obs::FlightRecorder::emit(obs::EventType::kShmWakeup, len, 0);
            // Priority handoff: on a banded segment, a band-0 frame just
            // woke a consumer that outranks whatever this thread does next
            // (typically draining bulk lanes). Without kernel priority
            // preemption (SCHED_FIFO is rarely available in containers) the
            // woken thread only runs when this one exhausts its slice, so
            // an urgent frame sits decoded-but-undelivered behind bulk
            // work. Yielding here is the uniprocessor stand-in for a
            // priority-based dispatch: it costs one syscall per *claimed*
            // wake (rare — the exchange above already dedups), and only
            // when lanes exist to invert.
            if (bands_ > 1 && band == 0) {
                std::this_thread::yield();
            }
        }
    }

    /// Nudge every band's space futex so parked senders re-check state
    /// (and drop their band mutex when a transition is in flight).
    void wake_space_waiters() {
        for (std::size_t b = 0; b < bands_; ++b) {
            SegDir& d = tx_dir(b);
            d.space_seq.fetch_add(1, std::memory_order_release);
            futex_wake_all(d.space_seq);
        }
    }

    /// Reserve a slot + `len` arena bytes in one band, applying the wrap
    /// skip. Blocks (bounded futex cycles with liveness/bye checks) under
    /// backpressure.
    SpaceResult acquire_tx_space_locked(TxBand& tx, std::size_t band,
                                        std::size_t len,
                                        std::size_t& pos_out) {
        SegDir& d = tx_dir(band);
        for (;;) {
            if (tx.head - tx.cached_tail >= capacity_) {
                tx.cached_tail = d.tail.load(std::memory_order_acquire);
            }
            const std::uint64_t pos = tx.arena_head % arena_bytes_;
            const std::uint64_t skip =
                (arena_bytes_ - pos < len) ? (arena_bytes_ - pos) : 0;
            const std::uint64_t need = skip + align8(len);
            if (tx.arena_head + need - tx.cached_arena_tail > arena_bytes_) {
                tx.cached_arena_tail =
                    d.arena_tail.load(std::memory_order_acquire);
            }
            if (tx.head - tx.cached_tail < capacity_ &&
                tx.arena_head + need - tx.cached_arena_tail <= arena_bytes_) {
                tx.arena_head += skip;
                pos_out =
                    static_cast<std::size_t>(tx.arena_head % arena_bytes_);
                return kSpaceOk;
            }
            const SpaceResult w = wait_tx_space_locked(tx, band);
            if (w != kSpaceOk) return w;
        }
    }

    /// One bounded wait for the consumer to free space, holding only this
    /// band's mutex. Never completes a bye or peer-death transition here —
    /// those take send_mu_ then every band mutex, the wrong order from
    /// under a band mutex — it just reports the condition and the caller
    /// finishes it after unlocking. Transitions wake the space futexes
    /// before taking band mutexes, so a parked waiter re-checks promptly.
    SpaceResult wait_tx_space_locked(TxBand& tx, std::size_t band) {
        if (tx_interrupted()) return kSpaceDown;
        if (!peer_alive()) return kSpacePeerDead;
        SegDir& d = tx_dir(band);
        const std::uint32_t seen_tail = tx.cached_tail;
        const std::uint64_t seen_arena_tail = tx.cached_arena_tail;
        tx.stalls.fetch_add(1, std::memory_order_relaxed);
        // SPSC per band dir: producers serialize on tx.mu, so at most one
        // registrar; the retirer claims with exchange(0).
        d.space_waiters.store(1, std::memory_order_seq_cst);
        const std::uint32_t seq = d.space_seq.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const bool progressed =
            d.tail.load(std::memory_order_acquire) != seen_tail ||
            d.arena_tail.load(std::memory_order_acquire) != seen_arena_tail ||
            tx_interrupted();
        if (!progressed) {
            futex_wait_us(d.space_seq, seq, opts_.wait_cycle_us);
            futex_waits_.fetch_add(1, std::memory_order_relaxed);
        }
        d.space_waiters.store(0, std::memory_order_release);
        if (tx_interrupted()) return kSpaceDown;
        return kSpaceOk;
    }

    /// Non-blocking pop of our inbound rings, band 0 (most urgent) first.
    /// Exactly one of: frame; closed (rings down AND drained); idle.
    RingRecv try_pop() {
        {
            std::lock_guard lk(recv_mu_);
            if (rx_frozen_.load(std::memory_order_acquire) ||
                closed_.load(std::memory_order_acquire)) {
                return RingRecv::ended();
            }
            bool all_closed = true;
            bool corrupt = false;
            for (std::size_t b = 0; b < bands_ && !corrupt; ++b) {
                SegDir& d = rx_dir(b);
                const std::uint32_t next =
                    rx_[b].next.load(std::memory_order_relaxed);
                const std::uint32_t head =
                    d.head.load(std::memory_order_acquire);
                if (head != next) {
                    // One copy of the peer-written descriptor, checked
                    // before any byte it names is touched. An honest
                    // producer never publishes more than a ring ahead of
                    // the tail we retired to; a head that does would
                    // alias slots still in the retire window.
                    const SegSlot slot = rx_[b].slots[next & mask_];
                    const std::uint32_t ahead =
                        head - rx_[b].retired.load(std::memory_order_acquire);
                    if (ahead > capacity_ || !slot_in_bounds(slot)) {
                        corrupt = true;
                        break;
                    }
                    return pop_band_locked(b, next, slot);
                }
                if (d.closed.load(std::memory_order_acquire) == 0) {
                    all_closed = false;
                }
            }
            if (!corrupt) {
                const bool done =
                    rx_peer_done_.load(std::memory_order_acquire) ||
                    all_closed || peer_dead_.load(std::memory_order_acquire);
                return done ? RingRecv::ended() : RingRecv{};
            }
        }
        // The peer published a ring entry we cannot trust: stop reading
        // the ring. Abandon freezes the rx side (so no later pop reaches
        // the bad entry) and moves the route onto TCP; it takes send_mu_,
        // hence outside recv_mu_.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        abandon("peer protocol error");
        return RingRecv::ended();
    }

    /// A peer-written descriptor is usable only if it names bytes inside
    /// the arena and no more than the negotiated frame bound.
    bool slot_in_bounds(const SegSlot& slot) const noexcept {
        return slot.len <= max_frame_ &&
               std::uint64_t{slot.offset} + slot.len <= arena_bytes_;
    }

    /// Deliver the frame at `next` in band `b`. Zero-copy while the pin
    /// budget allows: the frame is a view of the arena
    /// slot, the release hook retires it when the frame dies, and the
    /// keepalive pins this session (and the mapping) underneath it.
    /// Otherwise copy out into a pooled buffer and retire immediately.
    /// `slot` is the descriptor try_pop copied and bounds-checked.
    RingRecv pop_band_locked(std::size_t b, std::uint32_t next,
                             const SegSlot& slot) {
        RxBand& rx = rx_[b];
        const std::uint32_t idx = next & mask_;
        rx.popped[idx] = slot;
        std::uint8_t* src = rx.arena + slot.offset;
        // Delivered-but-unretired slots. Capping below capacity keeps
        // bitmap indices collision-free (at pinned == capacity the next
        // pop would reuse a still-pinned slot's bit).
        const std::uint32_t pinned =
            next - rx.retired.load(std::memory_order_acquire);
        FrameBuffer out;
        bool copied = false;
        if (pinned < max_pinned_) {
            out = FrameBuffer::borrow(
                src, slot.len, &ShmSession::release_hook, this,
                (static_cast<std::uint32_t>(b) << 24) | idx,
                shared_from_this());
            rx.borrowed.fetch_add(1, std::memory_order_relaxed);
            pool().note_borrowed();
        } else {
            rx.pin_stalls.fetch_add(1, std::memory_order_relaxed);
            out = pool().acquire(slot.len);
            std::memcpy(out.data(), src, slot.len);
            rx.copies.fetch_add(1, std::memory_order_relaxed);
            copied = true;
        }
        rx.next.store(next + 1, std::memory_order_release);
        rx.head_hint = next + 1;
        rx.received.fetch_add(1, std::memory_order_relaxed);
        shm_recv_.fetch_add(1, std::memory_order_relaxed);
        obs::FlightRecorder::emit(obs::EventType::kFrameRecv, slot.len,
                                  static_cast<std::uint32_t>(b));
        if (copied) release_slot(b, idx);
        return RingRecv{.frame = std::move(out)};
    }

    static void release_hook(void* ctx, std::uint32_t token) noexcept {
        static_cast<ShmSession*>(ctx)->release_slot(token >> 24,
                                                    token & 0xffffffu);
    }

    /// Borrowed-frame death (any thread): mark the slot released, then
    /// advance the published tail over the maximal released prefix. The
    /// tail never moves while the rx side is frozen or closed — a
    /// failover's replay window is pinned to the frozen tail (see
    /// abandon_locked), and a closed segment is no longer producing.
    void release_slot(std::size_t band, std::uint32_t idx) noexcept {
        RxBand& rx = rx_[band];
        std::lock_guard lk(retire_mu_);
        rx.released[idx].store(1, std::memory_order_relaxed);
        if (rx_frozen_.load(std::memory_order_acquire) ||
            closed_.load(std::memory_order_acquire)) {
            return; // bookkeeping only; the tail stays frozen
        }
        retire_band_locked(band);
    }

    /// Advance retired/tail over every contiguously released slot,
    /// mirroring the producer's wrap skip on the arena position, then
    /// wake a space-starved producer if one is parked.
    void retire_band_locked(std::size_t band) noexcept {
        RxBand& rx = rx_[band];
        SegDir& d = rx_dir(band);
        std::uint32_t r = rx.retired.load(std::memory_order_relaxed);
        const std::uint32_t limit = rx.next.load(std::memory_order_acquire);
        bool advanced = false;
        while (r != limit &&
               rx.released[r & mask_].load(std::memory_order_relaxed) != 0) {
            rx.released[r & mask_].store(0, std::memory_order_relaxed);
            const SegSlot slot = rx.popped[r & mask_];
            // A slot that does not start at our retire position means the
            // producer jumped to the arena boundary.
            if (rx.arena_retired % arena_bytes_ != slot.offset) {
                rx.arena_retired +=
                    arena_bytes_ - (rx.arena_retired % arena_bytes_);
            }
            rx.arena_retired += align8(slot.len);
            ++r;
            advanced = true;
        }
        if (!advanced) return;
        d.arena_tail.store(rx.arena_retired, std::memory_order_release);
        rx.retired.store(r, std::memory_order_release);
        d.tail.store(r, std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (d.space_waiters.exchange(0, std::memory_order_seq_cst) != 0) {
            d.space_seq.fetch_add(1, std::memory_order_release);
            futex_wake_all(d.space_seq);
            wakeups_.fetch_add(1, std::memory_order_relaxed);
            obs::FlightRecorder::emit(obs::EventType::kShmWakeup, 0, 1);
        }
    }

    /// Read one TCP frame (blocking) and classify: shm control is handled
    /// here, data frames are delivered to the caller.
    RingRecv pump_tcp() {
        std::optional<FrameBuffer> f;
        try {
            f = tcp_->recv_frame();
        } catch (const TransportError&) {
            f.reset();
        }
        if (!f.has_value()) {
            tcp_up_.store(false, std::memory_order_release);
            // Peer's graceful close: its ring-closed flag (or death) ends
            // the segment side; retry lets the ring report it.
            return RingRecv{};
        }
        if (is_control_bye(*f)) {
            handle_peer_bye();
            return RingRecv{};
        }
        // After we froze our rx side with delivered-but-unretired slots
        // outstanding, the peer's replay re-sends those frames (it can
        // only see the frozen tail). Drop exactly the per-band skip
        // counts recorded at the freeze; everything past them is new.
        if (rx_frozen_.load(std::memory_order_acquire)) {
            const std::size_t band = band_of(f->data(), f->size());
            auto& skip = rx_[band].skip_replay;
            const std::uint32_t left = skip.load(std::memory_order_acquire);
            if (left > 0) {
                skip.store(left - 1, std::memory_order_release);
                replay_skipped_.fetch_add(1, std::memory_order_relaxed);
                return RingRecv{};
            }
        }
        tcp_recv_.fetch_add(1, std::memory_order_relaxed);
        return RingRecv{.frame = std::move(*f)};
    }

    static bool is_control_bye(const FrameBuffer& f) noexcept {
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

    /// Inbound bye (recv thread). Flag it, wake any sender blocked inside
    /// a space wait (it aborts and falls through to the completion — see
    /// wait_tx_space_locked), then complete under send_mu_.
    void handle_peer_bye() {
        bye_pending_.store(true, std::memory_order_release);
        wake_space_waiters();
        std::lock_guard lk(send_mu_);
        complete_peer_bye_locked();
    }

    /// The peer froze its rx tails and switched to TCP. Take every band
    /// mutex (stopping the producers), replay exactly our unconsumed
    /// [tail, head) outbound frames over TCP — band 0 first, and ahead of
    /// any newer sends, which serialize behind send_mu_ — then treat the
    /// peer's production side as finished. The replay batch-reserves
    /// pooled buffers, so a 400-frame resend costs a handful of pool-lock
    /// acquisitions; each frame then goes through the TCP wire's one
    /// writer like any other send.
    void complete_peer_bye_locked() {
        if (!bye_pending_.exchange(false, std::memory_order_acq_rel)) return;
        std::array<std::unique_lock<std::mutex>, shm_detail::kMaxShmBands>
            band_locks;
        for (std::size_t b = 0; b < bands_; ++b) {
            band_locks[b] = std::unique_lock(tx_[b].mu);
        }
        tx_up_.store(false, std::memory_order_release);
        for (std::size_t b = 0; b < bands_; ++b) {
            replay_band_locked(tx_[b], tx_dir(b));
        }
        rx_peer_done_.store(true, std::memory_order_release);
        wake_local_waiters();
        failovers_.fetch_add(1, std::memory_order_relaxed);
        obs::FlightRecorder::emit(obs::EventType::kShmFailover, 0, 0);
    }

    /// The slot ring lives in the shared segment, so a replayed
    /// descriptor is checked like an inbound one: a slot outside the
    /// arena is counted and dropped, never read.
    void replay_band_locked(TxBand& tx, SegDir& d) {
        std::uint32_t t = d.tail.load(std::memory_order_acquire);
        constexpr std::size_t kReplayBatch = 32;
        FrameBuffer bufs[kReplayBatch];
        while (t != tx.head) {
            // Window of up to kReplayBatch pending slots, sized by the
            // largest frame among them so one batch-acquire covers all of
            // them (the per-frame resize down never reallocates).
            std::size_t n = 0;
            std::size_t max_len = 0;
            for (std::uint32_t w = t; w != tx.head && n < kReplayBatch;
                 ++w, ++n) {
                const SegSlot slot = tx.slots[w & mask_];
                if (slot_in_bounds(slot) && slot.len > max_len) {
                    max_len = slot.len;
                }
            }
            if (tcp_up_.load(std::memory_order_relaxed)) {
                pool().acquire_batch(max_len, bufs, n);
            }
            for (std::size_t i = 0; i < n; ++i) {
                // Re-read after the sizing scan, so check it again: the
                // buffer holds max_len bytes.
                const SegSlot slot = tx.slots[t & mask_];
                ++t;
                if (!slot_in_bounds(slot) || slot.len > max_len) {
                    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
                    dropped_.fetch_add(1, std::memory_order_relaxed);
                    bufs[i].release();
                    continue;
                }
                if (!tcp_up_.load(std::memory_order_relaxed)) {
                    dropped_.fetch_add(1, std::memory_order_relaxed);
                    bufs[i].release();
                    continue;
                }
                bufs[i].resize(slot.len);
                std::memcpy(bufs[i].data(), tx.arena + slot.offset, slot.len);
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

    /// Orderly reroute-to-TCP. Stops our producers (all bands), freezes
    /// our rx tails recording how many delivered-but-unretired slots each
    /// band holds — the peer's replay will re-send those, and pump_tcp
    /// skips exactly that many — then tells the peer. Pinned borrowed
    /// frames stay valid across the switch: the frozen tails keep the
    /// peer's producer from ever reclaiming their arena bytes, and it
    /// stops producing once the bye lands anyway.
    void abandon_locked(const char* reason) {
        if (bye_sent_.exchange(true, std::memory_order_acq_rel)) return;
        (void)reason;
        // Senders parked in a space wait hold their band mutex; they
        // re-check bye_sent_ on wake and bail, letting us take it.
        wake_space_waiters();
        {
            std::array<std::unique_lock<std::mutex>, shm_detail::kMaxShmBands>
                band_locks;
            for (std::size_t b = 0; b < bands_; ++b) {
                band_locks[b] = std::unique_lock(tx_[b].mu);
            }
            tx_up_.store(false, std::memory_order_release);
        } // no ring publish of ours can land past this point
        {
            std::lock_guard rlk(recv_mu_);
            std::lock_guard tlk(retire_mu_);
            rx_frozen_.store(true, std::memory_order_release);
            for (std::size_t b = 0; b < bands_; ++b) {
                rx_[b].skip_replay.store(
                    rx_[b].next.load(std::memory_order_relaxed) -
                        rx_[b].retired.load(std::memory_order_relaxed),
                    std::memory_order_release);
            }
        }
        wake_local_waiters();
        if (tcp_up_.load(std::memory_order_relaxed)) {
            try {
                send_control_locked("bye");
            } catch (const TransportError&) {
                tcp_up_.store(false, std::memory_order_release);
            }
        }
        failovers_.fetch_add(1, std::memory_order_relaxed);
        obs::FlightRecorder::emit(obs::EventType::kShmFailover, 1, 0);
    }

    void note_peer_dead() {
        std::lock_guard lk(send_mu_);
        note_peer_dead_locked();
    }

    /// Peer died without a bye. Our unconsumed outbound frames are moot
    /// (their consumer is gone — counted, not resent); the peer's already
    /// published inbound frames stay deliverable until the rings drain,
    /// and already-pinned slots stay valid forever (a dead producer can
    /// never reclaim them).
    void note_peer_dead_locked() {
        if (peer_dead_.exchange(true, std::memory_order_acq_rel)) return;
        wake_space_waiters();
        {
            std::array<std::unique_lock<std::mutex>, shm_detail::kMaxShmBands>
                band_locks;
            for (std::size_t b = 0; b < bands_; ++b) {
                band_locks[b] = std::unique_lock(tx_[b].mu);
            }
            tx_up_.store(false, std::memory_order_release);
            for (std::size_t b = 0; b < bands_; ++b) {
                dropped_.fetch_add(
                    tx_[b].head -
                        tx_dir(b).tail.load(std::memory_order_acquire),
                    std::memory_order_relaxed);
            }
        }
        rx_peer_done_.store(true, std::memory_order_release);
        wake_local_waiters();
        failovers_.fetch_add(1, std::memory_order_relaxed);
        obs::FlightRecorder::emit(obs::EventType::kShmFailover, 2, 0);
    }

    bool peer_alive() noexcept {
        const SegHeader& h = seg_->header();
        const int peer = 1 - side_;
        if (h.attached[peer].load(std::memory_order_acquire) == 0) {
            // Graceful detach (or not yet attached): not death. The ring
            // closed flag / TCP EOF covers the graceful path.
            return true;
        }
        return pid_alive(static_cast<pid_t>(
            h.pid[peer].load(std::memory_order_acquire)));
    }

    /// Wake our own receiver (sleeping on the peer side's band-0 data
    /// futex) and our own senders (sleeping on our per-band space
    /// futexes) so they re-check state.
    void wake_local_waiters() {
        SegDir& rd = rx_dir(0);
        rd.data_seq.fetch_add(1, std::memory_order_release);
        futex_wake_all(rd.data_seq);
        wake_space_waiters();
    }

    void send_control_locked(const char* op) {
        cdr::RequestHeader req;
        req.request_id = 0;
        req.response_expected = false;
        req.object_key = kControlKey;
        req.operation = op;
        tcp_->send_frame(cdr::encode_request(req, nullptr, 0));
    }

    std::shared_ptr<ShmSegment> seg_;
    std::unique_ptr<Transport> tcp_;
    const ShmOptions opts_;
    const int side_;
    std::uint32_t capacity_ = 0;
    std::uint32_t mask_ = 0;
    std::uint64_t arena_bytes_ = 0;
    std::size_t max_frame_ = 0;
    std::size_t bands_ = 1;
    std::uint32_t max_pinned_ = 1;
    int tcp_fd_ = -1;

    std::mutex send_mu_;   ///< failover state machine + TCP send ordering
    std::mutex recv_mu_;   ///< pop vs rx-freeze (never held across a wait)
    std::mutex retire_mu_; ///< released bitmaps + published tails

    std::array<TxBand, shm_detail::kMaxShmBands> tx_;
    std::array<RxBand, shm_detail::kMaxShmBands> rx_;

    std::uint64_t liveness_tick_ = 0; ///< recv-thread-only

    std::atomic<bool> tx_up_{true};
    std::atomic<bool> rx_frozen_{false};
    std::atomic<bool> rx_peer_done_{false};
    std::atomic<bool> bye_pending_{false};
    std::atomic<bool> bye_sent_{false};
    std::atomic<bool> peer_dead_{false};
    std::atomic<bool> closed_{false};
    std::atomic<bool> close_done_{false};
    std::atomic<bool> tcp_up_{true};

    std::atomic<std::uint64_t> protocol_errors_{0};
    std::atomic<std::uint64_t> shm_sent_{0};
    std::atomic<std::uint64_t> shm_recv_{0};
    std::atomic<std::uint64_t> tcp_sent_{0};
    std::atomic<std::uint64_t> tcp_recv_{0};
    std::atomic<std::uint64_t> wakeups_{0};
    std::atomic<std::uint64_t> futex_waits_{0};
    std::atomic<std::uint64_t> spins_{0};
    std::atomic<std::uint64_t> failovers_{0};
    std::atomic<std::uint64_t> resent_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> replay_skipped_{0};
};

// ---- ShmTransport ---------------------------------------------------------

ShmTransport::ShmTransport(std::shared_ptr<ShmSession> session,
                           std::string label)
    : session_(std::move(session)), label_(std::move(label)) {}

ShmTransport::~ShmTransport() { close(); }

void ShmTransport::send_frame(FrameBuffer frame) {
    // ring_send leaves the frame intact when it refuses it, so the TCP
    // fallback carries the same bytes.
    if (!session_->ring_send(frame)) session_->fallback_send(std::move(frame));
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<FrameBuffer> ShmTransport::recv_frame() {
    for (;;) {
        RingRecv r = session_->ring_recv();
        if (!r.frame.has_value()) {
            // Down-and-drained keeps serving frames from the TCP wire;
            // idle polls the control channel and peer liveness.
            r = r.closed ? session_->tcp_recv_blocking()
                         : session_->idle_poll();
        }
        if (r.frame.has_value()) {
            frames_received_.fetch_add(1, std::memory_order_relaxed);
            return std::move(r.frame);
        }
        if (r.closed) return std::nullopt;
    }
}

void ShmTransport::close() { session_->close_all(); }

TransportStats ShmTransport::stats() const {
    TransportStats s;
    s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    s.frames_received = frames_received_.load(std::memory_order_relaxed);
    return s;
}

FrameBufferPool& ShmTransport::frame_pool() noexcept {
    return session_->pool();
}
ShmCounters ShmTransport::counters() const { return session_->counters(); }
bool ShmTransport::shm_active() const { return session_->shm_active(); }
std::size_t ShmTransport::bands() const { return session_->bands(); }
const std::string& ShmTransport::segment_name() const {
    return session_->segment_name();
}
std::uint64_t ShmTransport::generation() const {
    return session_->generation();
}
void ShmTransport::abandon_shm(const char* reason) {
    session_->abandon(reason);
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
        auto session = std::make_shared<ShmSession>(seg, std::move(tcp),
                                                    shm_options);
        return ShmConnectResult{
            std::make_unique<ShmTransport>(std::move(session),
                                           "shm-client:" + name),
            true, "segment " + name};
    }
    seg.reset(); // creator dtor unlinks the unused segment
    if (!create_fail.empty() && detail.empty()) detail = create_fail;
    return ShmConnectResult{std::move(tcp), false, detail};
}

ShmAcceptor::ShmAcceptor(std::uint16_t port, const ShmOptions& shm_options,
                         const TcpOptions& tcp_options)
    : tcp_(port, tcp_options), shm_options_(shm_options) {
    sweep_once_at_startup();
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

    ShmOptions opts = shm_options_;
    // Geometry lives in the segment header; only the local knobs (spin
    // budget, wait cadence, pool) come from the acceptor's options.
    const std::string name = seg->name();
    auto session = std::make_shared<ShmSession>(seg, std::move(tcp), opts);
    return ShmConnectResult{
        std::make_unique<ShmTransport>(std::move(session),
                                       "shm-server:" + name),
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
