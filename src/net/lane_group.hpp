// Priority-banded connection lanes.
//
// Compadres preserves priority end to end — per-In-port priority thread
// pools, bounded buffers — yet a single TCP connection re-serializes every
// band: a 1024 B bulk burst sits in front of a 32 B urgent frame in the
// coalescing writer's batch and again in the kernel's socket buffer. A
// LaneGroup is RT-CORBA's priority-banded connection applied to this
// repo's frame transports: one logical route sharded across N TCP wires
// (one per priority band), so bulk traffic can never head-of-line-block
// urgent frames. Each lane keeps its own coalescing writer, its own
// kernel socket buffers, and — via an injected per-lane FrameBufferPool —
// its own frame-pool thread-cache rings, so bands share no queue at any
// layer of the send path.
//
// Classification: every frame carries its band in the GIOP flags octet
// (cdr::frame_band; band 0 frames are byte-identical to stock GIOP 1.0).
// Band 0 is the most urgent and rides lane 0; bands beyond the group's
// lane count clamp to the last (least urgent) lane, so a frame stamped
// for a wider group still flows on a narrower one.
//
// Handshake: the connecting side opens N connections and sends one
// "hello" frame on each — a GIOP Request to object key "compadres.lane"
// carrying [group id, lane index, lane count]. The accepting side
// (LaneAcceptor) binds connections with the same group id into one
// logical LaneGroup, however the N connects interleave with other
// groups'. Route-id cache semantics are untouched: lanes multiplex the
// same routes, the hello frames never reach the bridge.
//
// Failure: a dying lane (ECONNRESET mid-send) degrades the group — the
// band reroutes to the nearest surviving lane and the event is counted in
// lane_failovers() — instead of poisoning the whole route. Only when
// every lane is dead does send_frame throw.
//
// Close: deterministic two-phase. close() first runs prepare_close() on
// every lane (stop intake, flush queued frames, NO FIN), then close() on
// every lane — so the peer never sees FIN on one lane while another lane
// still holds undelivered frames of the same logical route.
#pragma once

#include "net/tcp.hpp"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace compadres::net {

/// Hard ceiling on lanes per group: the GIOP flags octet carries the band
/// in 3 bits (cdr::GiopHeader::kBandMask).
constexpr std::size_t kMaxLanes = 8;

struct LaneGroupOptions {
    /// Number of priority bands = TCP wires per logical route. Band 0 is
    /// the most urgent. Default 2: urgent / bulk.
    std::size_t bands = 2;
    /// Per-wire TCP options. The pool field is overridden per lane: each
    /// lane gets its own FrameBufferPool (thread-cached, depths below) so
    /// bands never share a pool ring.
    TcpOptions tcp;
    /// Per-size-class TLS ring depths for the per-lane pools.
    std::size_t tls_depth[4] = {16, 16, 2, 1};
};

/// Maps messages to bands. Static per-route bands come from the CCL
/// compiler's <Bands> element; dynamic per-message bands ride the GIOP
/// flags octet (stamped at encode via cdr::set_frame_band).
struct LanePolicy {
    /// Messages at or above this Compadres priority ride band 0 when the
    /// route has no explicit band (matches the repo's "urgent" convention
    /// in the benches).
    int urgent_priority = 10;

    /// Band already stamped in an encoded frame, clamped to the group.
    static std::size_t band_for_frame(const std::uint8_t* frame,
                                      std::size_t lanes) noexcept;

    /// Default band for a message priority on an N-lane group: urgent
    /// priorities ride lane 0, everything else the last (bulk) lane.
    std::size_t band_for_priority(int priority,
                                  std::size_t lanes) const noexcept {
        if (lanes <= 1) return 0;
        return priority >= urgent_priority ? 0 : lanes - 1;
    }
};

/// N per-band TCP wires behind the single-wire Transport API.
class LaneGroup final : public Transport {
public:
    /// Takes ownership of the connected lanes (lane i = band i) and the
    /// per-lane pools backing them (a missing or null entry means the lane
    /// uses the global pool). Use lane_connect()/LaneAcceptor::accept()
    /// rather than building groups by hand.
    LaneGroup(std::vector<std::unique_ptr<Transport>> lanes,
              std::vector<std::unique_ptr<FrameBufferPool>> pools,
              std::uint64_t group_id);
    ~LaneGroup() override;

    using Transport::send_frame; // keep the copying vector shim visible

    /// Classify by the frame's stamped band and forward to that band's
    /// lane. A lane failing mid-send degrades the group (see header
    /// comment); the frame that hit the failure is dropped and counted by
    /// its lane. Throws only when no lane survives (or after close()).
    void send_frame(FrameBuffer frame) override;

    /// Pops from a ring fed by per-lane reader threads (started lazily on
    /// first call). NOTE: merging lanes into one ring re-serializes
    /// bands — latency-sensitive receivers (the bridge's reactor path)
    /// read each lane() individually instead.
    std::optional<FrameBuffer> recv_frame() override;

    /// Two-phase deterministic close across all lanes (header comment).
    void close() override;

    /// Phase 1 only, for nesting groups under a larger close scope.
    void prepare_close() override;

    std::string peer_description() const override;

    /// Sum of all lane stats.
    TransportStats stats() const override;

    std::size_t lane_count() const noexcept override { return lanes_.size(); }
    Transport& lane(std::size_t i) noexcept override { return *lanes_[i]; }

    TransportStats lane_stats(std::size_t i) const { return lanes_[i]->stats(); }
    /// The pool backing band i's lane (the global pool for a lane built
    /// without one). Encoders acquire outbound storage here so the
    /// whole band round-trip stays inside one pool.
    FrameBufferPool& pool_for_band(std::size_t i) noexcept;
    /// Count of lane-death reroute events (satellite: counted failover).
    std::uint64_t lane_failovers() const noexcept {
        return failovers_.load(std::memory_order_relaxed);
    }
    bool lane_alive(std::size_t i) const noexcept {
        return alive_[i].load(std::memory_order_acquire);
    }
    std::uint64_t group_id() const noexcept { return group_id_; }

private:
    void note_lane_failure(std::size_t idx) noexcept;
    void start_readers_locked();

    /// Declared before lanes_ so the pools outlive the lanes drawing from
    /// them: a lane still holds a half-assembled inbound frame until it
    /// is destroyed.
    std::vector<std::unique_ptr<FrameBufferPool>> pools_;
    std::vector<std::unique_ptr<Transport>> lanes_;
    const std::uint64_t group_id_;

    /// route_[band] = lane currently carrying that band (== band until a
    /// failover reroutes it); kNoLane when every lane is dead.
    static constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);
    std::vector<std::atomic<std::size_t>> route_;
    std::vector<std::atomic<bool>> alive_;
    std::atomic<std::uint64_t> failovers_{0};

    std::mutex mu_; ///< failover bookkeeping + reader/close lifecycle
    bool closed_ = false;
    bool readers_started_ = false;
    FrameRing recv_ring_{256};
    std::atomic<std::size_t> readers_live_{0};
    std::vector<std::thread> readers_;
};

/// Open one lane per band to a LaneAcceptor and run the hello handshake.
/// Returns the assembled group (band i on lane i).
std::unique_ptr<LaneGroup> lane_connect(const std::string& host,
                                        std::uint16_t port,
                                        const LaneGroupOptions& options = {});

/// Accepts lane-group connections: reads each incoming connection's hello
/// frame and assembles connections sharing a group id into LaneGroups.
class LaneAcceptor {
public:
    /// `options.bands` is advisory here — the accepted group's width
    /// comes from the client's hello (capped at kMaxLanes); pool and TCP
    /// options apply to every accepted lane.
    explicit LaneAcceptor(std::uint16_t port,
                          const LaneGroupOptions& options = {});

    std::uint16_t bound_port() const noexcept { return acceptor_.bound_port(); }

    /// Block until one whole group's lanes have arrived (interleaved
    /// groups are kept apart by group id); nullptr after close().
    std::unique_ptr<LaneGroup> accept();

    /// Connections dropped for a bad handshake: a first frame that does
    /// not read as a lane hello, or a hello that contradicts its group's
    /// earlier lanes. A peer that closes before any hello is not counted.
    std::uint64_t handshakes_refused() const noexcept {
        return refused_.load(std::memory_order_relaxed);
    }

    void close() { acceptor_.close(); }

private:
    struct PendingGroup {
        std::vector<std::unique_ptr<Transport>> lanes;
        std::size_t present = 0;
    };

    TcpAcceptor acceptor_;
    LaneGroupOptions options_;
    std::map<std::uint64_t, PendingGroup> pending_;
    std::atomic<std::uint64_t> refused_{0};
};

} // namespace compadres::net
