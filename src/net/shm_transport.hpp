// Shared-memory zero-copy wire for co-located endpoints.
//
// Every route used to ride TCP through the kernel even when both ends
// share a host — the dominant deployment in the paper's own co-located
// evaluation. ShmTransport keeps the Transport pooled-frame contract but
// moves the bytes through a POSIX shared-memory segment instead: per
// priority band, a pair of fixed-capacity lock-free SPSC slot rings plus
// one payload arena per direction, all inside one `shm_open` + `mmap`
// mapping. A steady-path send is a bump-allocate in the band's arena,
// one memcpy of the frame bytes, and a release-store publishing the slot
// index — zero syscalls, zero kernel copies. The receive path is
// zero-copy: recv hands out a borrowed FrameBuffer viewing the arena
// slot in place, and the slot is retired only when that frame dies (see
// "retire window" below). Receivers spin briefly, then sleep on a
// (non-private) futex with the same only-if-waiters discipline FrameRing
// uses for its condvars: a producer touches the futex word only when a
// consumer has registered as waiting, so a busy pipeline never pays a
// wake syscall.
//
// Retire window: an SPSC ring tail must advance contiguously, but the
// app can drop borrowed frames in any order (or hold one for a long
// time). The consumer therefore tracks a per-slot released bitmap and
// publishes the tail over the maximal released prefix; when the app pins
// more slots than the configured budget, recv falls back to copying the
// frame out (counted — shm_rx_copies stays 0 in a steady state that
// drops frames promptly) so the producer is never wedged by a leak.
//
// Bands: one segment carries `bands` direction pairs, mirroring
// LaneGroup's priority-banded lanes — the band in the GIOP flags octet
// picks the ring, each band has its own arena and space futex (so a bulk
// band blocked on backpressure never stalls an urgent send), the single
// receive thread drains band 0 first, and per-band depth/stall counters
// feed trace_report. Failover (oversize frame, abandon, peer death)
// reroutes all bands onto the one TCP wire at once, keeping per-band
// frame order.
//
// The zircon split (control channel / bulk shared segment) is the model:
// a plain TCP connection stays open next to the segment and carries the
// small control messages — the `compadres.shm` hello handshake that
// exchanges segment name + generation, the `bye` that starts an orderly
// failover — and doubles as the full fallback wire whenever shared
// memory cannot be used (peer on another host, /dev/shm unavailable,
// version or generation mismatch, oversize frame, peer death).
//
// Failover never loses or duplicates a frame. The abandoning side stops
// consuming its inbound ring at a frozen tail and sends `bye`; the peer
// reads the frozen tail, resends exactly the unconsumed [tail, head)
// frames over TCP ahead of any newer traffic, and drains its own inbound
// ring (the abandoner stopped producing before `bye`, and the TCP stream
// orders `bye` ahead of all post-abandon frames). Peer *death* is
// detected by pid liveness + attach generation: published frames still
// in the survivor's inbound ring are delivered before the transport
// reports closed.
//
// Segment layout, versioned header, and liveness words are in shm_detail
// below so tests (and DESIGN.md §13) can reason about them directly.
#pragma once

#include "net/tcp.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
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
    /// Consumer pause-spins before registering as a futex waiter. Kept
    /// deliberately small: on a single-core host the producer cannot run
    /// while the consumer spins, so a long spin only burns the quantum.
    std::size_t spin_budget = 64;
    /// Futex sleep per wait cycle, µs. Doubles as the cadence at which a
    /// blocked receiver polls the TCP control channel and peer liveness.
    std::size_t wait_cycle_us = 10 * 1000;
    /// Pinned-slot backpressure budget. Inbound frames are handed out as
    /// borrowed views into the rx arena (zero-copy); this is the most rx
    /// slots (per band) the app may hold via undropped borrowed frames
    /// before recv falls back
    /// to copy-out (counted in shm_rx_copies / shm_rx_pin_stalls). 0
    /// means ring_capacity / 2; always clamped to ring_capacity - 1.
    std::size_t max_pinned_slots = 0;
    /// Pool inbound frames are copied out into when the pin budget is
    /// exhausted; nullptr = process global.
    FrameBufferPool* pool = nullptr;
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

/// One direction's control words, produced by exactly one side (SPSC).
/// Cache-line aligned so the two directions never false-share.
struct alignas(64) SegDir {
    /// Slots published (monotone; slot index = head & (capacity-1)).
    std::atomic<std::uint32_t> head;
    /// Slots consumed (monotone; written by the consumer).
    std::atomic<std::uint32_t> tail;
    /// Arena bytes retired by the consumer (monotone, includes wrap
    /// skips). The producer's free-space check is
    /// arena_bytes - (arena_head - arena_tail).
    std::atomic<std::uint64_t> arena_tail;
    /// Producer closed this direction (graceful close); consumer drains
    /// the remaining [tail, head) then treats the ring as ended.
    std::atomic<std::uint32_t> closed;
    /// Futex word + waiter count for "data available" (consumer sleeps,
    /// producer wakes only when waiters != 0).
    std::atomic<std::uint32_t> data_seq;
    std::atomic<std::uint32_t> data_waiters;
    /// Futex word + waiter count for "space available" (producer sleeps
    /// on a full ring or arena, consumer wakes only when waiters != 0).
    std::atomic<std::uint32_t> space_seq;
    std::atomic<std::uint32_t> space_waiters;
};

struct SegSlot {
    std::uint32_t offset; ///< payload start within the direction's arena
    std::uint32_t len;    ///< payload bytes
};

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

static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

/// Frame payloads are 8-byte aligned in the arena.
inline constexpr std::size_t align8(std::size_t n) noexcept {
    return (n + 7u) & ~std::size_t{7};
}
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
    std::uint64_t rx_copies = 0;     ///< frames copied out instead (pin
                                     ///< budget hit or borrowing disabled)
    std::uint64_t rx_pinned = 0;     ///< instantaneous undropped borrowed
                                     ///< slots (sum over bands)
    std::uint64_t rx_pin_stalls = 0; ///< pops forced to copy by the budget
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

class ShmSession;

/// The shared-memory transport. Not constructed directly — use
/// shm_upgrade_connect / ShmAcceptor, which run the handshake and fall
/// back to plain TCP when the segment cannot be shared. A frame the ring
/// refuses (oversize, failover, peer gone) rides the session's TCP wire;
/// stats() counts frames over both paths.
class ShmTransport final : public Transport {
public:
    ShmTransport(std::shared_ptr<ShmSession> session, std::string label);
    ~ShmTransport() override;

    using Transport::send_frame; // keep the copying vector shim visible
    void send_frame(FrameBuffer frame) override;
    std::optional<FrameBuffer> recv_frame() override;
    void close() override;
    std::string peer_description() const override { return label_; }
    TransportStats stats() const override;
    FrameBufferPool& frame_pool() noexcept override;

    ShmCounters counters() const;
    bool shm_active() const;
    const std::string& segment_name() const;
    std::uint64_t generation() const;
    std::size_t bands() const;

    /// Orderly reroute-to-TCP (the path peer death and oversize frames
    /// take), exposed so tests and the bench can trigger a mid-burst
    /// failover deterministically. Safe to call at any time; idempotent.
    void abandon_shm(const char* reason = "forced");

private:
    std::shared_ptr<ShmSession> session_;
    std::string label_;
    std::atomic<std::uint64_t> frames_sent_{0};
    std::atomic<std::uint64_t> frames_received_{0};
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
    explicit ShmAcceptor(std::uint16_t port, const ShmOptions& shm_options = {},
                         const TcpOptions& tcp_options = {});

    std::uint16_t bound_port() const noexcept { return tcp_.bound_port(); }

    /// Next negotiated connection; transport is nullptr after close().
    ShmConnectResult accept();

    void close() { tcp_.close(); }

private:
    TcpAcceptor tcp_;
    ShmOptions shm_options_;
};

/// Unlink /dev/shm/compadres.* segments whose recorded pids are all gone
/// (crashed runs). Called at transport startup and by the bench; returns
/// the number of segments removed. Never throws.
std::size_t sweep_orphan_segments() noexcept;

} // namespace compadres::net
