#include "remote/bridge.hpp"

#include "cdr/giop.hpp"
#include "net/lane_group.hpp"
#include "net/shm_transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_context.hpp"


namespace compadres::remote {

namespace {
constexpr const char* kBridgeObjectKey = "compadres.bridge";
} // namespace

/// Type-erased handler on an export route's In port: serialize and ship.
///
/// Fast path: encodes headers and body straight into pooled storage — one
/// stream, no intermediate payload buffer, no header-string copies — and
/// hands the filled buffer to the transport without copying. Everything up
/// to the payload-length field is invariant per route, so the constructor
/// renders it once and each message starts with a single memcpy instead of
/// a dozen field writes. The scratch hint remembers the largest frame this
/// route has produced, so after the first message the pooled storage is
/// always big enough and encoding never grows the buffer.
class RemoteBridge::ExportHandler final : public core::MessageHandlerBase {
public:
    ExportHandler(RemoteBridge& bridge, const Serializer& serializer,
                  std::string route, std::uint32_t route_id, int priority,
                  const core::TransmissionPolicy& policy)
        : bridge_(&bridge), encode_fn_(serializer.encode_fn),
          encode_ctx_(serializer.encode_ctx), encode_state_(serializer.state),
          route_(std::move(route)), priority_(priority) {
        cdr::OutputStream prefix;
        // The route id rides in the (otherwise unused) GIOP request_id
        // field, rendered into the template for free; the receiving bridge
        // uses it to skip the per-message route-map lookup.
        len_offset_ = cdr::begin_request_payload(
            prefix, route_id, /*response_expected=*/false, kBridgeObjectKey,
            route_);
        header_template_ = prefix.take_buffer();
        apply_policy(policy);
    }

    void process_raw(void* msg, core::Smm&) override {
        cdr::OutputStream out(pool_->acquire_storage(
            scratch_hint_.load(std::memory_order_relaxed)));
        out.write_raw(header_template_.data(), header_template_.size());
        out.rebase(); // body alignment is payload-relative, as on the wire
        out.write_ulong(static_cast<std::uint32_t>(priority_));
        encode_fn_(encode_ctx_, msg, out);
        cdr::finish_payload(out, len_offset_);
        // Wire trace propagation: when the sampler elects this message (or
        // the exporting thread already carries a context from an upstream
        // hop), a 16-byte trailer rides after the payload. Frames without a
        // context stay byte-identical to stock GIOP 1.0 — untraced traffic
        // pays one relaxed load here.
        if (obs::Tracer::active()) {
            const obs::TraceContext ctx = obs::Tracer::on_send();
            if (ctx) {
                cdr::append_trace_trailer(out, ctx.trace_id, ctx.span_id);
                obs::FlightRecorder::emit(obs::EventType::kSpanSend,
                                          ctx.trace_id, ctx.span_id);
            }
        }
        if (out.size() > scratch_hint_.load(std::memory_order_relaxed)) {
            scratch_hint_.store(out.size(), std::memory_order_relaxed);
        }
        bridge_->wire_->send_frame(pool_->adopt(out.take_buffer()));
        bridge_->sent_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Re-resolve what the route's band drives: the band stamped into the
    /// header template (every frame classifies for free) and the lane
    /// pool outbound storage is drawn from (a route's whole send path
    /// stays inside one pool ring). Called at construction and by
    /// repolicy_route — the latter only while the export In port's credit
    /// window is closed and drained, so no concurrent process_raw can
    /// observe the mutation half-applied.
    void apply_policy(const core::TransmissionPolicy& policy) {
        const std::size_t lanes = bridge_->wire_->lane_count();
        int band = policy.band;
        if (band < 0 && lanes > 1) {
            // No explicit band: derive one from the port's default
            // priority, the same composition-time mapping the CCL
            // compiler performs.
            band = static_cast<int>(
                net::LanePolicy{}.band_for_priority(priority_, lanes));
        }
        pool_ = &bridge_->wire_->frame_pool();
        if (band >= 0 && lanes > 1) {
            cdr::set_frame_band(header_template_.data(),
                                static_cast<std::uint8_t>(band));
            const std::size_t lane = net::LanePolicy::band_for_frame(
                header_template_.data(), lanes);
            pool_ = &bridge_->wire_->lane(lane).frame_pool();
        }
    }

private:
    RemoteBridge* bridge_;
    Serializer::EncodeFn encode_fn_;
    const void* encode_ctx_;
    std::shared_ptr<const void> encode_state_;
    std::string route_;
    int priority_;
    /// The band lane's pool (or the wire's default pool): outbound frame
    /// storage is acquired from and recycles back into it.
    net::FrameBufferPool* pool_ = nullptr;
    /// GIOP + request header bytes, rendered once; only the two length
    /// fields (message_size, payload length) get patched per message.
    std::vector<std::uint8_t> header_template_;
    std::size_t len_offset_ = 0; ///< payload-length field within the template
    /// Largest frame produced so far — the pooled-storage size hint.
    std::atomic<std::size_t> scratch_hint_{256};
};

RemoteBridge::RemoteBridge(core::Application& app,
                           std::unique_ptr<net::Transport> wire,
                           std::string name)
    : app_(&app), name_(std::move(name)), wire_(std::move(wire)) {
    register_builtin_serializers();
    component_ = &app_->create_immortal<core::Component>(name_);
    // Surface the wire and frame-pool health next to the delivery-fabric
    // counters; removed in shutdown() before the wire can die.
    counter_token_ = app_->add_counter_source([this] {
        core::CounterGroup g;
        g.source = "bridge:" + name_;
        const net::TransportStats wire_stats = wire_->stats();
        const net::FrameBufferPool::Stats pool =
            net::FrameBufferPool::global().stats();
        g.counters = {
            {"frames_sent", frames_sent()},
            {"frames_received", frames_received()},
            {"frames_dropped", frames_dropped()},
            {"send_syscalls", wire_stats.send_syscalls},
            {"send_batches", wire_stats.send_batches},
            {"pool_hits", pool.hits},
            {"pool_tls_hits", pool.tls_hits},
            {"pool_misses", pool.allocations},
            {"pool_borrowed", pool.borrowed},
        };
        // Lane-group wires: per-lane depth/stall/drop visibility plus the
        // failover counters, so lane starvation is observable in
        // trace_report instead of inferred from end-to-end latency.
        if (auto* group = dynamic_cast<net::LaneGroup*>(wire_.get())) {
            g.counters.emplace_back("lane_failovers",
                                    group->lane_failovers());
            g.counters.emplace_back("lanes_down", lanes_down_.load());
            for (std::size_t i = 0; i < group->lane_count(); ++i) {
                const net::TransportStats ls = group->lane_stats(i);
                const std::string p = "lane" + std::to_string(i) + "_";
                g.counters.emplace_back(p + "frames_sent", ls.frames_sent);
                g.counters.emplace_back(p + "frames_dropped",
                                        ls.frames_dropped);
                g.counters.emplace_back(p + "send_stalls", ls.send_stalls);
                g.counters.emplace_back(p + "intake_depth_hwm",
                                        ls.intake_depth_hwm);
            }
        }
        // Shared-memory wires: ring depth, wakeup/spin discipline, and the
        // failover path. shm_active flips to 0 when the wire degrades to
        // its TCP fallback (peer death, oversize frame, forced abandon).
        if (auto* shm = dynamic_cast<net::ShmTransport*>(wire_.get())) {
            const net::ShmCounters c = shm->counters();
            g.counters.emplace_back("shm_active", shm->shm_active() ? 1 : 0);
            g.counters.emplace_back("shm_frames_sent", c.shm_frames_sent);
            g.counters.emplace_back("shm_frames_received",
                                    c.shm_frames_received);
            g.counters.emplace_back("shm_tcp_frames_sent", c.tcp_frames_sent);
            g.counters.emplace_back("shm_tcp_frames_received",
                                    c.tcp_frames_received);
            g.counters.emplace_back("shm_tx_depth", c.tx_depth);
            g.counters.emplace_back("shm_rx_depth", c.rx_depth);
            g.counters.emplace_back("shm_wakeups", c.wakeups);
            g.counters.emplace_back("shm_futex_waits", c.futex_waits);
            g.counters.emplace_back("shm_spins", c.spins);
            g.counters.emplace_back("shm_failovers", c.failovers);
            g.counters.emplace_back("shm_resent_frames", c.resent_frames);
            g.counters.emplace_back("shm_dropped_on_failover",
                                    c.dropped_on_failover);
            g.counters.emplace_back("shm_replay_skipped", c.replay_skipped);
            g.counters.emplace_back("shm_peer_protocol_errors",
                                    c.peer_protocol_errors);
            // Zero-copy receive health: borrowed is the steady state,
            // copies should stay 0 (a nonzero value means the pin budget
            // forced copy-out fallbacks, visible in pin_stalls too).
            g.counters.emplace_back("shm_rx_borrowed", c.rx_borrowed);
            g.counters.emplace_back("shm_rx_copies", c.rx_copies);
            g.counters.emplace_back("shm_rx_pinned", c.rx_pinned);
            g.counters.emplace_back("shm_rx_pin_stalls", c.rx_pin_stalls);
            g.counters.emplace_back("shm_bands", c.bands);
            if (c.bands > 1) {
                for (std::uint32_t b = 0; b < c.bands; ++b) {
                    const std::string p = "shm_band" + std::to_string(b) + "_";
                    g.counters.emplace_back(p + "tx_depth",
                                            c.band_tx_depth[b]);
                    g.counters.emplace_back(p + "rx_depth",
                                            c.band_rx_depth[b]);
                    g.counters.emplace_back(p + "tx_stalls",
                                            c.band_tx_stalls[b]);
                    g.counters.emplace_back(p + "tx_frames",
                                            c.band_tx_frames[b]);
                    g.counters.emplace_back(p + "rx_frames",
                                            c.band_rx_frames[b]);
                }
            }
        }
        if (reactor_ != nullptr) {
            const net::ReactorStats rs = reactor_->stats();
            g.counters.emplace_back("reactor_wire_add_failures",
                                    rs.wire_add_failures);
            // Loop-side syscall economics: waits + pump reads over
            // assembled frames. Published as a per-1k-frames integer
            // (counters are integral).
            g.counters.emplace_back("reactor_wait_syscalls",
                                    rs.wait_syscalls);
            g.counters.emplace_back("reactor_read_syscalls",
                                    rs.read_syscalls);
            g.counters.emplace_back(
                "reactor_syscalls_per_1k_frames",
                static_cast<std::uint64_t>(rs.loop_syscalls_per_frame() *
                                           1000.0));
        }
        return g;
    });
}

RemoteBridge::~RemoteBridge() { shutdown(); }

void RemoteBridge::export_route(core::OutPortBase& local_out,
                                const std::string& route,
                                core::TransmissionPolicy policy) {
    if (started_.load()) {
        throw BridgeError("cannot add routes after start()");
    }
    const Serializer& serializer =
        SerializerRegistry::global().find(local_out.type());
    if (policy.band >= static_cast<int>(net::kMaxLanes)) {
        throw BridgeError("route '" + route + "': band " +
                          std::to_string(policy.band) +
                          " exceeds the wire limit (" +
                          std::to_string(net::kMaxLanes - 1) + ")");
    }
    {
        std::lock_guard lk(mu_);
        if (exports_.count(route) != 0) {
            throw BridgeError("route '" + route + "' already exported");
        }
    }
    // A sync In port on the bridge component: the sending component's
    // thread serializes and writes the frame (natural backpressure). The
    // route's policy IS the port's policy — overflow admission included.
    core::InPortConfig cfg;
    cfg.buffer_size = 16;
    cfg.min_threads = cfg.max_threads = 0;
    cfg.policy = policy;
    auto* handler = component_->region().make<ExportHandler>(
        *this, serializer, route, ++next_export_id_,
        local_out.default_priority(), policy);
    core::InPortBase& in = component_->add_in_port_erased(
        "exp" + std::to_string(next_port_id_++) + ":" + route,
        local_out.type(), local_out.type_name(), cfg, *handler);
    app_->connect(local_out, in);
    std::lock_guard lk(mu_);
    exports_.emplace(route, ExportRoute{&in, handler, policy});
}

std::uint64_t RemoteBridge::repolicy_route(const std::string& route,
                                           core::TransmissionPolicy policy) {
    if (policy.band >= static_cast<int>(net::kMaxLanes)) {
        throw BridgeError("route '" + route + "': band " +
                          std::to_string(policy.band) +
                          " exceeds the wire limit (" +
                          std::to_string(net::kMaxLanes - 1) + ")");
    }
    if (stopped_.load()) {
        throw BridgeError("cannot repolicy after shutdown()");
    }
    ExportRoute* exp = nullptr;
    {
        std::lock_guard lk(mu_);
        auto it = exports_.find(route);
        if (it == exports_.end()) {
            throw BridgeError("route '" + route + "' is not exported");
        }
        exp = &it->second;
    }
    // Quiesce-reroute-resume on the export In port: new senders park at
    // the closed credit window, in-flight serializations drain, and the
    // swap mutates both the port's admission policy and the handler's
    // wire-side state (band stamp, lane pool) while nothing
    // can observe them.
    const std::uint64_t pause = core::quiesced_swap(*exp->in, [&] {
        exp->in->set_policy(policy);
        exp->handler->apply_policy(policy);
    });
    std::lock_guard lk(mu_);
    exp->policy = policy;
    return pause;
}

core::TransmissionPolicy
RemoteBridge::export_policy(const std::string& route) const {
    std::lock_guard lk(mu_);
    auto it = exports_.find(route);
    if (it == exports_.end()) {
        throw BridgeError("route '" + route + "' is not exported");
    }
    return it->second.policy;
}

void RemoteBridge::import_route(const std::string& route,
                                core::InPortBase& local_in, int priority) {
    if (started_.load()) {
        throw BridgeError("cannot add routes after start()");
    }
    std::lock_guard lk(mu_);
    if (imports_.count(route) != 0) {
        throw BridgeError("route '" + route + "' already imported");
    }
    const Serializer& serializer =
        SerializerRegistry::global().find(local_in.type());
    core::OutPortBase& out = component_->add_out_port_erased(
        "imp" + std::to_string(next_port_id_++) + ":" + route, local_in.type(),
        local_in.type_name());
    app_->connect(out, local_in);
    // Every message this pool hands out is completely overwritten by the
    // in-place decode before any handler sees it, so the release-time
    // scrub (a full-object write per message) buys nothing here.
    out.pool()->set_scrub_on_release(false);
    ImportRoute r;
    r.out = &out;
    r.decode_fn = serializer.decode_fn;
    r.decode_ctx = serializer.decode_ctx;
    r.decode_state = serializer.state;
    r.priority = priority;
    imports_.emplace(route, std::move(r));
}

void RemoteBridge::start() {
    if (started_.exchange(true)) return;
    // Fixed-size id cache, allocated before any reader exists so the hot
    // path never grows it. Ids above the bound just take the map path.
    id_cache_.reset(64);
    const std::size_t lanes = wire_->lane_count();
    if (wire_->lane(0).reactor_hook() != nullptr) {
        reactor_ = &net::Reactor::shared();
        // Each lane registers individually, pinned to the reactor loop of
        // its band (lane i = band i), so an urgent lane never shares a
        // loop thread with a bulk lane. All lanes share handle_frame —
        // routes multiplex across lanes, route-id cache included.
        reactor_wires_.reserve(lanes);
        for (std::size_t i = 0; i < lanes; ++i) {
            const int band = lanes > 1 ? static_cast<int>(i) : -1;
            net::Reactor::ClosedHandler on_closed;
            if (lanes > 1) {
                // A lane dying under a live group is a counted failover
                // event on the receive side, not a route teardown.
                on_closed = [this] {
                    lanes_down_.fetch_add(1, std::memory_order_relaxed);
                };
            }
            reactor_wires_.push_back(reactor_->register_wire(
                wire_->lane(i),
                [this](net::FrameBuffer frame) {
                    // In-place decode on the resident buffer; the pooled
                    // storage recycles when `frame` dies on return.
                    handle_frame(frame.data(), frame.size());
                },
                std::move(on_closed), band));
        }
        reactor_attached_ = true;
        return;
    }
    readers_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
        const std::string suffix =
            lanes > 1 ? "-reader" + std::to_string(i) : "-reader";
        readers_.push_back(std::make_unique<rt::RtThread>(
            name_ + suffix, rt::Priority{}, [this, i] { reader_loop(i); }));
    }
}

void RemoteBridge::reader_loop(std::size_t lane) {
    net::Transport& wire = wire_->lane(lane);
    for (;;) {
        std::optional<net::FrameBuffer> frame;
        try {
            frame = wire.recv_frame();
        } catch (const std::exception&) {
            if (wire_->lane_count() > 1) {
                lanes_down_.fetch_add(1, std::memory_order_relaxed);
            }
            return;
        }
        if (!frame.has_value()) return;
        // Decode happens in place on the resident receive buffer; the
        // buffer recycles into the pool when `frame` dies at loop bottom.
        handle_frame(frame->data(), frame->size());
    }
}

void RemoteBridge::handle_frame(const std::uint8_t* frame, std::size_t size) {
    received_.fetch_add(1, std::memory_order_relaxed);
    try {
        const cdr::DecodedRequestView req = cdr::decode_request_view(frame, size);
        if (req.header.object_key != kBridgeObjectKey) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        // Routes are frozen at start(), so imports_ needs no lock here.
        // Repeat traffic resolves through the lock-free request-id cache
        // (array index + one name check — ids are peer-assigned and
        // untrusted; see route_cache.hpp for why concurrent readers are
        // safe); the map — found by string_view thanks to std::less<>, no
        // temporary std::string — is only walked for untagged or
        // first-seen ids.
        const std::uint32_t id = req.header.request_id;
        const ImportRoute* found = id_cache_.lookup(id, req.header.operation);
        if (found == nullptr) {
            auto it = imports_.find(req.header.operation);
            if (it == imports_.end()) {
                dropped_.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            found = &it->second;
            if (id != 0) id_cache_.publish(id, found, it->first);
        }
        const ImportRoute& route = *found;
        cdr::InputStream body(req.payload, req.payload_len, req.byte_order);
        const auto carried_priority = static_cast<int>(body.read_ulong());
        void* msg = route.out->get_message_raw();
        try {
            route.decode_fn(route.decode_ctx, msg, body);
        } catch (...) {
            route.out->pool()->release_raw(msg);
            throw;
        }
        // Stitch: a trace trailer on the frame re-installs the sender's
        // context around the local fan-out, so both processes' hops share
        // one trace id. The no-trailer path is one flag test on the header.
        std::uint64_t trace_id = 0;
        std::uint32_t span_id = 0;
        if (cdr::read_trace_trailer(frame, size, trace_id, span_id)) {
            obs::FlightRecorder::emit(obs::EventType::kSpanRecv, trace_id,
                                      span_id);
        }
        const obs::ScopedTraceContext trace_scope(
            obs::TraceContext{trace_id, span_id});
        route.out->send_raw(msg, route.priority >= 0 ? route.priority
                                                     : carried_priority);
    } catch (const std::exception&) {
        // Counted in dropped_ (trace_report), not logged: this runs on
        // the reactor loop, where a stderr write per bad frame stalls
        // every wire the loop owns.
        dropped_.fetch_add(1, std::memory_order_relaxed);
    }
}

void RemoteBridge::shutdown() {
    if (stopped_.exchange(true)) return;
    // Deterministic teardown order: (1) deregister from the reactor —
    // this flushes the coalescing intake on the loop thread before the
    // descriptor leaves epoll, so no frame handler runs past this line;
    // (2) close the wire, which drops-and-counts anything still unsent;
    // (3) join the blocking reader, if this bridge ran one; (4) retire
    // the counter source so trace_report can never touch a dead wire.
    if (reactor_attached_) {
        for (const std::uint64_t id : reactor_wires_) {
            reactor_->deregister_wire(id);
        }
        reactor_attached_ = false;
    }
    if (wire_ != nullptr) wire_->close();
    for (auto& reader : readers_) {
        if (reader != nullptr) reader->join();
    }
    if (counter_token_ != 0) {
        app_->remove_counter_source(counter_token_);
        counter_token_ = 0;
    }
}

std::function<std::uint64_t(const core::RecomposeRepolicy&)>
recompose_applier(RemoteBridge& bridge) {
    return [&bridge](const core::RecomposeRepolicy& r) {
        return bridge.repolicy_route(r.route, r.to);
    };
}

} // namespace compadres::remote
