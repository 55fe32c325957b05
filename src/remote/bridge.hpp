// RemoteBridge — transparent remote port connections.
//
// Paper §5 (future work): "code generation for transparently handling
// remote communication over a network." A RemoteBridge pairs two
// applications (usually on different hosts) over one frame transport:
//
//   host A                                   host B
//   sensor.out ──connect──▶ [bridge:export] ~~~wire~~~ [bridge:import] ──▶ fusion.in
//
// Each side owns an immortal "bridge" component inside its application.
// Exported routes get a type-erased In port whose handler serializes the
// message (via the SerializerRegistry) and ships a frame; imported routes
// get a type-erased Out port that the reader thread feeds from incoming
// frames. Both directions can share one wire. Components on either side
// are completely unaware of the network, exactly as the paper envisioned.
//
// Wire format: GIOP Request frames (interoperable with the repository's
// TCP framing): object_key "compadres.bridge", operation = route name,
// response_expected = false, payload = CDR [ulong priority, encoded msg].
#pragma once

#include "core/application.hpp"
#include "core/recompose.hpp"
#include "core/transmission_policy.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "remote/route_cache.hpp"
#include "remote/serializer.hpp"
#include "rt/thread.hpp"

#include <atomic>
#include <map>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace compadres::remote {

class BridgeError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class RemoteBridge {
public:
    /// Creates the bridge component inside `app` (immortal memory) and
    /// adopts the wire. Call export_route/import_route, then start().
    RemoteBridge(core::Application& app, std::unique_ptr<net::Transport> wire,
                 std::string name = "RemoteBridge");
    ~RemoteBridge();

    RemoteBridge(const RemoteBridge&) = delete;
    RemoteBridge& operator=(const RemoteBridge&) = delete;

    /// Ship everything `local_out` sends to the peer under `route`.
    /// The message type must have a registered serializer. The route's
    /// TransmissionPolicy drives both of its knobs at once:
    ///   * overflow — the export In port's admission policy (block the
    ///     sender vs ring-overwrite the oldest queued message);
    ///   * band — the priority-banded lane the route's frames ride when
    ///     the wire is a net::LaneGroup (stamped once into the route's
    ///     header template); band < 0 derives it from the port's default
    ///     priority via net::LanePolicy on a multi-lane wire, and leaves
    ///     single-wire frames byte-identical to stock GIOP.
    /// Write batching is not per-route: every TCP wire's one writer
    /// coalesces (net/tcp.hpp).
    void export_route(core::OutPortBase& local_out, const std::string& route,
                      core::TransmissionPolicy policy = {});

    /// Deliver frames arriving under `route` into `local_in`. Messages are
    /// drawn from the connection's pool and sent at `priority` (or, when
    /// priority < 0, at the priority carried in the frame).
    void import_route(const std::string& route, core::InPortBase& local_in,
                      int priority = -1);

    /// Start receiving: register each lane with the shared reactor when
    /// the wire has a pollable descriptor (net::Transport::reactor_hook),
    /// otherwise spawn one blocking reader thread per lane.
    /// Routes may not be added after start().
    void start();

    /// Swap an exported route's TransmissionPolicy on the RUNNING bridge —
    /// the one route mutation allowed after start(). The export In port's
    /// credit window closes, in-flight sends drain, the policy (overflow
    /// admission, header-template band, lane pool) swaps atomically, and
    /// the window reopens: senders stall for the pause,
    /// no frame is dropped or reordered. Returns the quiesce→resume pause
    /// in nanoseconds. Throws BridgeError for unknown routes or bands
    /// beyond the wire limit.
    std::uint64_t repolicy_route(const std::string& route,
                                 core::TransmissionPolicy policy);

    /// An exported route's current policy (throws for unknown routes).
    core::TransmissionPolicy export_policy(const std::string& route) const;

    /// True when frames are delivered by a reactor loop rather than a
    /// dedicated reader thread (resolved at start()).
    bool using_reactor() const noexcept { return reactor_attached_; }

    /// Close the wire and join the reader. Idempotent.
    void shutdown();

    std::uint64_t frames_sent() const noexcept { return sent_.load(); }
    std::uint64_t frames_received() const noexcept { return received_.load(); }
    /// Frames dropped anywhere between send and delivery: unknown route,
    /// decode failure, or frames the transport accepted but dropped unsent
    /// (a coalescer queue discarded at close, a batch that failed
    /// mid-write).
    std::uint64_t frames_dropped() const noexcept {
        std::uint64_t n = dropped_.load();
        if (wire_ != nullptr) n += wire_->stats().frames_dropped;
        return n;
    }

private:
    struct ImportRoute {
        core::OutPortBase* out = nullptr;
        /// Codec resolved once at import_route: dispatching a frame is a
        /// plain indirect call, no registry lookup and no virtual hop.
        Serializer::DecodeFn decode_fn = nullptr;
        const void* decode_ctx = nullptr;
        std::shared_ptr<const void> decode_state; ///< keepalive for ctx
        int priority = -1;
    };

    class ExportHandler;

    /// Live registry of exported routes — the repolicy seam. Map nodes are
    /// stable, so repolicy_route can work on a pointer outside mu_.
    struct ExportRoute {
        core::InPortBase* in = nullptr;
        ExportHandler* handler = nullptr; ///< lives in immortal memory
        core::TransmissionPolicy policy;
    };

    void reader_loop(std::size_t lane);
    void handle_frame(const std::uint8_t* frame, std::size_t size);

    core::Application* app_;
    std::string name_;
    core::Component* component_ = nullptr; // lives in the app's immortal
    std::unique_ptr<net::Transport> wire_;
    mutable std::mutex mu_; ///< guards imports_ (frozen after start()) and
                            ///< exports_ (mutable policy, stable nodes)
    std::map<std::string, ImportRoute, std::less<>> imports_;
    std::map<std::string, ExportRoute, std::less<>> exports_;
    /// Request-id route cache, sized at start(). The peer stamps each
    /// export route's id into the GIOP request_id field (untagged frames
    /// leave it 0); repeat traffic resolves with an array index and one
    /// name check instead of a map lookup. Lock-free publish/lookup so
    /// reactor loop threads and reader threads can share it — see
    /// remote/route_cache.hpp for the memory-order argument.
    RouteIdCache<ImportRoute> id_cache_;
    std::uint32_t next_export_id_ = 0; ///< ids start at 1; 0 = untagged
    /// One blocking reader per lane when the wire has no reactor hook; one
    /// entry on a plain single-wire transport.
    std::vector<std::unique_ptr<rt::RtThread>> readers_;
    net::Reactor* reactor_ = nullptr;  ///< resolved at start()
    /// Reactor wire ids, one per lane, each pinned to the loop of its
    /// band so urgent lanes never share a loop thread with bulk lanes.
    std::vector<std::uint64_t> reactor_wires_;
    bool reactor_attached_ = false;
    std::uint64_t counter_token_ = 0;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<std::uint64_t> sent_{0};
    std::atomic<std::uint64_t> received_{0};
    std::atomic<std::uint64_t> dropped_{0};
    /// Lanes the reactor closed on EOF/error while the group stayed up —
    /// the counted failover event on the receive side.
    std::atomic<std::uint64_t> lanes_down_{0};
    int next_port_id_ = 0;
};

/// Adapter for core::RecomposeOptions::remote_applier: routes a plan's
/// remote repolicies to `bridge.repolicy_route`. A process talking to
/// several peers composes its own dispatcher over the remote_name field;
/// this covers the common one-bridge case.
std::function<std::uint64_t(const core::RecomposeRepolicy&)>
recompose_applier(RemoteBridge& bridge);

} // namespace compadres::remote
