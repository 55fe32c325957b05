// Shared-memory zero-copy wire for co-located endpoints.
//
// ShmTransport keeps the Transport pooled-frame contract but moves the
// bytes through one POSIX shared-memory segment instead of the kernel:
// per priority band, one ring per direction (net/shm_ring.hpp: the SPSC
// slot ring, its payload arena and the consumer's retire window). A
// steady-path send is one memcpy into the arena and a release-store of
// the head; a receive hands out a borrowed FrameBuffer viewing the arena
// in place, retired when it dies, and falls back to a counted copy only
// when the app pins more slots than its budget. Receivers spin briefly,
// then sleep on a non-private futex that a producer touches only when a
// consumer registered as waiting, so a busy pipeline pays no wake.
//
// Bands mirror LaneGroup's lanes: the GIOP flags octet picks the ring,
// each band has its own arena and space futex (a bulk band blocked on
// backpressure never stalls an urgent send), and the receiver drains
// band 0 first.
//
// The zircon split (control channel / bulk shared segment) is the model:
// a plain TCP connection stays open next to the segment, carries the
// `compadres.shm` hello and the `bye` that starts a failover, and is the
// whole wire whenever shared memory cannot be used (peer on another host,
// no /dev/shm, version or generation mismatch, oversize frame, peer
// death). Failover never loses or duplicates a frame: the abandoning side
// freezes its inbound tails and sends `bye`; the peer resends exactly its
// unconsumed [tail, head) frames over TCP ahead of newer traffic. A dead
// peer (pid liveness) leaves its published frames deliverable until the
// survivor's rings drain. The segment layout is in shm_detail below (see
// DESIGN.md §13).
#pragma once

#include "net/shm_ring.hpp"
#include "net/tcp.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

namespace compadres::net {

struct ShmOptions {
    /// Slots per band per direction (rounded up to a power of two).
    /// Bounds frames in flight exactly like a FrameRing's capacity.
    std::size_t ring_capacity = 256;
    /// Payload arena bytes per band per direction. Frames are
    /// bump-allocated here; a frame never spans the wrap boundary (the
    /// producer skips to the start instead, and the consumer mirrors the
    /// skip deterministically).
    std::size_t arena_bytes = 1 * 1024 * 1024;
    /// Largest frame carried through the segment (clamped to arena/2).
    /// A larger frame triggers an orderly failover to the TCP wire —
    /// frames on one route must stay ordered, so the transport cannot
    /// split traffic across both paths.
    std::size_t max_frame_bytes = 256 * 1024;
    /// Direction pairs in the segment, one per priority band (1..8,
    /// creator-side; the attacher reads the count from the header). The
    /// GIOP flags-octet band picks the ring, clamped LaneGroup-style to
    /// bands-1.
    std::size_t bands = 1;
    /// Futex sleep per wait cycle, µs. Doubles as the cadence at which a
    /// blocked receiver polls the TCP control channel and peer liveness.
    std::size_t wait_cycle_us = 10 * 1000;
    /// Pinned-slot backpressure budget. Inbound frames are handed out as
    /// borrowed views into the rx arena (zero-copy); this is the most rx
    /// slots (per band) the app may hold via undropped borrowed frames
    /// before recv falls back to copy-out (counted in shm_rx_copies /
    /// shm_rx_pin_stalls). 0 means ring_capacity / 2; always clamped to
    /// ring_capacity - 1.
    std::size_t max_pinned_slots = 0;
};

namespace shm_detail {

inline constexpr char kMagic[8] = {'C', 'P', 'D', 'S', 'H', 'M', '0', '1'};
/// v2: banded segments — the header grew a `bands` count and the
/// direction blocks moved out of the header into a per-(side, band)
/// array. v1 peers nack the hello and both sides stay on TCP.
inline constexpr std::uint32_t kVersion = 2;
/// Direction pairs one segment can carry (the GIOP flags octet caps the
/// band at 7, mirroring LaneGroup::kMaxLanes).
inline constexpr std::size_t kMaxShmBands = 8;
/// shm_open name prefix; in /dev/shm the leading '/' is stripped.
inline constexpr const char* kNamePrefix = "/compadres.";

/// Versioned segment header. Sides: 0 = creator (connector), 1 = attacher
/// (acceptor). The header is followed by a SegDir array indexed
/// (side * bands + band) — the dirs for side i carry frames produced by
/// side i — then the slot rings and arenas in the same order.
struct SegHeader {
    char magic[8];
    std::uint32_t version;
    std::uint32_t ring_capacity;   ///< power of two, per band-direction
    std::uint32_t arena_bytes;     ///< per band-direction
    std::uint32_t max_frame_bytes; ///< enforced by both producers
    std::uint32_t bands;           ///< direction pairs per side (1..8)
    std::uint32_t reserved;
    /// Creator-minted instance id. The hello carries it and the attacher
    /// cross-checks against the mapped header, so a handshake can never
    /// bind to a stale same-named segment left by an earlier process.
    std::uint64_t generation;
    /// Per-side liveness: pid recorded at create/attach, attached flag
    /// cleared on graceful close. A peer whose pid no longer exists while
    /// its attached flag is still set died without saying goodbye.
    std::atomic<std::uint32_t> pid[2];
    std::atomic<std::uint32_t> attached[2];
};

/// SegDir is cache-line aligned; the dir array keeps that alignment.
inline constexpr std::size_t align64(std::size_t n) noexcept {
    return (n + 63u) & ~std::size_t{63};
}

inline constexpr std::size_t dirs_offset() noexcept {
    return align64(sizeof(SegHeader));
}
inline constexpr std::size_t slots_offset(std::size_t bands) noexcept {
    return align8(dirs_offset() + 2 * bands * sizeof(SegDir));
}
inline constexpr std::size_t arena_offset(std::size_t bands,
                                          std::size_t ring_capacity) noexcept {
    return align8(slots_offset(bands) +
                  2 * bands * ring_capacity * sizeof(SegSlot));
}
inline constexpr std::size_t segment_bytes(std::size_t bands,
                                           std::size_t ring_capacity,
                                           std::size_t arena_bytes) noexcept {
    return arena_offset(bands, ring_capacity) + 2 * bands * arena_bytes;
}

} // namespace shm_detail

/// A created-or-attached mapping of one segment. Exposed (rather than
/// buried in the .cpp) so the test suite can exercise create/attach,
/// version and generation validation, and the orphan sweep directly.
class ShmSegment {
public:
    /// Create a fresh segment (O_CREAT|O_EXCL) sized for `options` and
    /// initialize its header. Throws TransportError on failure (e.g. no
    /// /dev/shm) — callers fall back to plain TCP.
    static std::shared_ptr<ShmSegment> create(const ShmOptions& options);

    /// Attach to an existing segment by name, validating magic, version,
    /// geometry, generation, and that side 1 is not already taken.
    /// Throws TransportError with a reason usable as a nack detail.
    static std::shared_ptr<ShmSegment> attach(const std::string& name,
                                              std::uint64_t generation);

    ~ShmSegment();
    ShmSegment(const ShmSegment&) = delete;
    ShmSegment& operator=(const ShmSegment&) = delete;

    const std::string& name() const noexcept { return name_; }
    std::uint64_t generation() const noexcept { return header().generation; }
    int side() const noexcept { return side_; }
    std::uint32_t bands() const noexcept { return header().bands; }

    shm_detail::SegHeader& header() const noexcept {
        return *reinterpret_cast<shm_detail::SegHeader*>(base_);
    }
    /// Control words for the ring carrying frames side `side` produces on
    /// band `band`.
    shm_detail::SegDir& dir(int side, std::size_t band) const noexcept;
    shm_detail::SegSlot* slots(int side, std::size_t band) const noexcept;
    std::uint8_t* arena(int side, std::size_t band) const noexcept;

    /// Mark this side detached (graceful) so the peer and the orphan
    /// sweep stop considering our pid. Idempotent.
    void detach() noexcept;

    /// Unlink the segment name (creator side, once the peer has attached
    /// or the handshake failed). The mapping stays valid until unmapped.
    void unlink() noexcept;

private:
    /// side_ of a mapping that has not claimed a side (yet): detach() and
    /// unlink() leave such a segment alone.
    static constexpr int kNoSide = -1;

    ShmSegment() = default;
    std::string name_;
    std::uint8_t* base_ = nullptr;
    std::size_t map_bytes_ = 0;
    int side_ = kNoSide;
    bool unlinked_ = false;
};

/// Counters specific to the shm wire, surfaced through the bridge's
/// counter source as shm_* gauges next to the TransportStats counters.
struct ShmCounters {
    std::uint64_t shm_frames_sent = 0;
    std::uint64_t shm_frames_received = 0;
    std::uint64_t tcp_frames_sent = 0;     ///< via the fallback wire
    std::uint64_t tcp_frames_received = 0; ///< via the fallback wire
    std::uint64_t wakeups = 0;     ///< futex wake syscalls issued
    std::uint64_t futex_waits = 0; ///< futex wait syscalls issued
    std::uint64_t spins = 0;       ///< pause-spin iterations
    std::uint64_t failovers = 0;   ///< shm abandoned for the TCP wire
    std::uint64_t resent_frames = 0;  ///< ring frames replayed over TCP
    std::uint64_t dropped_on_failover = 0; ///< undeliverable (peer died)
    std::uint64_t tx_depth = 0; ///< instantaneous frames in our TX rings
    std::uint64_t rx_depth = 0; ///< instantaneous frames in our RX rings
    bool shm_active = false;    ///< still moving frames through the segment

    // Zero-copy receive path.
    std::uint64_t rx_borrowed = 0;   ///< frames handed out as arena views
    std::uint64_t rx_copies = 0;     ///< frames copied out instead
    std::uint64_t rx_pinned = 0;     ///< instantaneous undropped borrowed
                                     ///< slots (sum over bands)
    std::uint64_t rx_pin_stalls = 0; ///< pops forced to copy by the pin
                                     ///< budget (every copy is one)
    std::uint64_t replay_skipped = 0; ///< replayed frames deduped after a
                                      ///< failover with delivered-but-
                                      ///< unretired slots outstanding
    /// Peer-written ring entries rejected: a slot naming bytes outside
    /// the arena or beyond the frame bound, or a head published more
    /// than a ring past our retired tail. Inbound, one fails the ring
    /// over to TCP; a bad slot met during failover replay is dropped.
    std::uint64_t peer_protocol_errors = 0;

    // Banded lanes (first `bands` entries are meaningful).
    std::uint32_t bands = 1;
    std::uint64_t band_tx_depth[shm_detail::kMaxShmBands] = {};
    std::uint64_t band_rx_depth[shm_detail::kMaxShmBands] = {};
    std::uint64_t band_tx_stalls[shm_detail::kMaxShmBands] = {};   ///< space
                                                                   ///< waits
    std::uint64_t band_tx_frames[shm_detail::kMaxShmBands] = {};
    std::uint64_t band_rx_frames[shm_detail::kMaxShmBands] = {};
};

/// The shared-memory transport. Not constructed directly — use
/// shm_upgrade_connect / ShmAcceptor, which run the handshake and fall
/// back to plain TCP when the segment cannot be shared. Per band it runs
/// one ShmRingProducer over its outbound direction and one
/// ShmRingConsumer over its inbound one; around them it owns the futex
/// waits, the TCP control channel and fallback wire, and the failover
/// state machine. A frame the ring refuses (oversize, failover, peer
/// gone) rides the TCP wire; stats() counts frames over both paths.
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
/// cannot deadlock against a sleeping receiver. Inbound::retire_mu
/// guards the retire windows (taken after recv_mu_ where both are
/// needed, never before). recv_frame is single-consumer (one bridge
/// reader thread), like every transport in this repo; send_frame is
/// any-thread.
class ShmTransport final : public Transport {
public:
    /// Run the wire over an attached segment and the TCP connection its
    /// handshake used. Geometry comes from the segment header; only the
    /// local knobs (wait cycle, pin budget) come from `options`.
    ShmTransport(std::shared_ptr<ShmSegment> segment,
                 std::unique_ptr<Transport> tcp, const ShmOptions& options,
                 std::string label);
    ~ShmTransport() override;

    using Transport::send_frame; // keep the copying vector shim visible
    void send_frame(FrameBuffer frame) override;
    std::optional<FrameBuffer> recv_frame() override;
    void close() override;
    std::string peer_description() const override { return label_; }
    TransportStats stats() const override;
    FrameBufferPool& frame_pool() noexcept override {
        return FrameBufferPool::global();
    }

    ShmCounters counters() const;
    bool shm_active() const;
    const std::string& segment_name() const { return seg_.name(); }
    std::uint64_t generation() const { return seg_.generation(); }
    std::size_t bands() const { return bands_; }

    /// Orderly reroute-to-TCP (the path peer death and oversize frames
    /// take), exposed so tests and the bench can trigger a mid-burst
    /// failover deterministically. Freezes our rx tails, stops our
    /// producers and tells the peer, which replays our unconsumed inbound
    /// frames over TCP. Safe to call at any time; idempotent.
    void abandon_shm(const char* reason = "forced");

private:
    /// What a borrowed frame keeps alive until it dies: the inbound rings
    /// with their retire windows, the frozen flag, and the segment
    /// mapping. Everything else (the TCP wire included) dies with the
    /// transport.
    struct Inbound;

    /// Cache-line aligned: a sender locks its band on every frame, and no
    /// receiver-side word may share that line.
    struct alignas(64) TxBand {
        std::mutex mu;
        ShmRingProducer ring;
        std::atomic<std::uint64_t> sent{0};
        std::atomic<std::uint64_t> stalls{0};
        std::atomic<std::uint64_t> wakeups{0}; ///< data wakes it claimed
    };
    struct RxBand {
        std::atomic<std::uint64_t> received{0};
        std::atomic<std::uint64_t> borrowed{0};
        std::atomic<std::uint64_t> copies{0}; ///< each forced by the pin budget
        std::atomic<std::uint32_t> skip_replay{0};
    };
    /// One bounded receive attempt on the rings: a frame, nothing yet, or
    /// rings down and drained (keep serving the TCP wire).
    enum class RxPoll { kFrame, kIdle, kEnded };
    enum class Space { kOk, kDown, kPeerDead };
    using BandLocks =
        std::array<std::unique_lock<std::mutex>, shm_detail::kMaxShmBands>;

    bool ring_send(FrameBuffer& frame);
    Space wait_tx_space_locked(TxBand& tx);
    void wake_receiver(std::size_t len, std::size_t band);
    void fallback_send(FrameBuffer frame);
    RxPoll pop_or_wait(std::optional<FrameBuffer>& out);
    RxPoll try_pop(std::optional<FrameBuffer>& out);
    FrameBuffer deliver(std::size_t band, const ShmRingConsumer::View& view);
    bool rx_has_data() const noexcept;
    std::optional<FrameBuffer> pump_tcp();
    std::size_t band_of(const std::uint8_t* data,
                        std::size_t len) const noexcept;
    bool peer_alive() const noexcept;

    BandLocks stop_producers_locked();
    void freeze_rx();
    void handle_peer_bye();
    void replay_band_locked(ShmRingProducer& ring);
    void note_peer_dead();
    void end_peer_production(std::uint32_t failover_kind);
    void wake_own_receiver();

    std::shared_ptr<Inbound> in_;
    ShmSegment& seg_; ///< owned through in_
    std::unique_ptr<Transport> tcp_;
    const std::string label_;
    const int side_;
    const std::size_t bands_;
    const std::size_t max_frame_;
    const std::size_t wait_cycle_us_;
    std::uint32_t max_pinned_ = 1;
    int tcp_fd_ = -1;

    std::atomic<bool> tx_up_{true};
    std::atomic<bool> rx_peer_done_{false};
    std::atomic<bool> bye_received_{false};
    std::atomic<bool> bye_sent_{false};
    std::atomic<bool> peer_dead_{false};
    std::atomic<bool> closed_{false};
    std::atomic<bool> tcp_up_{true};

    std::atomic<std::uint64_t> protocol_errors_{0};
    std::atomic<std::uint64_t> tcp_sent_{0};
    std::atomic<std::uint64_t> tcp_recv_{0};
    std::atomic<std::uint64_t> failovers_{0};
    std::atomic<std::uint64_t> resent_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> replay_skipped_{0};

    std::mutex send_mu_; ///< failover state machine + TCP send ordering

    // Written per frame by the senders (a band per line), then by the
    // receiver: neither shares a line with the flags both sides read.
    std::array<TxBand, shm_detail::kMaxShmBands> tx_;
    alignas(64) std::mutex recv_mu_; ///< pop vs rx-freeze (never held
                                     ///< across a wait)
    std::array<RxBand, shm_detail::kMaxShmBands> rx_;
    std::uint64_t liveness_tick_ = 0; ///< recv-thread-only
    std::atomic<std::uint64_t> spins_{0};
    /// Receiver data waits, plus the senders' rarer space waits.
    std::atomic<std::uint64_t> futex_waits_{0};
};

/// Outcome of a connect/accept that tried the shm upgrade. `transport`
/// is a ShmTransport when `shm` is true, a plain TCP transport (with the
/// handshake already consumed) otherwise; `detail` says why.
struct ShmConnectResult {
    std::unique_ptr<Transport> transport;
    bool shm = false;
    std::string detail;
};

/// Connect to a ShmAcceptor and negotiate the segment: TCP connect,
/// create a segment, send the `compadres.shm` hello (segment name +
/// generation + geometry), and upgrade on ack. Any failure — segment
/// creation, peer nack (cross-host, version mismatch, stale generation) —
/// degrades to the already-open TCP connection. Throws TransportError
/// only when TCP itself cannot connect.
ShmConnectResult shm_upgrade_connect(const std::string& host,
                                     std::uint16_t port,
                                     const ShmOptions& shm_options = {},
                                     const TcpOptions& tcp_options = {});

/// Accepting side of the upgrade. Wraps a TcpAcceptor; every accepted
/// connection must open with a `compadres.shm` hello (shm_upgrade_connect
/// always sends one, with an empty segment name when it could not create
/// a segment). Attach success acks and yields a ShmTransport; any
/// validation failure nacks with a reason and yields the plain TCP wire.
class ShmAcceptor {
public:
    /// Registers handshakes_refused() on obs::MetricsRegistry::global()
    /// as net_shm_acceptor_<port>_handshakes_refused until destroyed.
    explicit ShmAcceptor(std::uint16_t port, const ShmOptions& shm_options = {},
                         const TcpOptions& tcp_options = {});
    ~ShmAcceptor();

    std::uint16_t bound_port() const noexcept { return tcp_.bound_port(); }

    /// Next negotiated connection; transport is nullptr after close().
    ShmConnectResult accept();

    /// Handshakes refused: a first frame that could not be read, or a
    /// hello answered with a nack (bad segment name, version mismatch,
    /// failed attach). A peer that sends no hello keeps plain TCP and is
    /// not counted.
    std::uint64_t handshakes_refused() const noexcept {
        return refused_.load(std::memory_order_relaxed);
    }

    void close() { tcp_.close(); }

private:
    TcpAcceptor tcp_;
    ShmOptions shm_options_;
    std::atomic<std::uint64_t> refused_{0};
    std::uint64_t metrics_source_;
};

/// Unlink /dev/shm/compadres.* segments whose recorded pids are all gone
/// (crashed runs). Called at transport startup and by the bench; returns
/// the number of segments removed. Never throws.
std::size_t sweep_orphan_segments() noexcept;

} // namespace compadres::net
