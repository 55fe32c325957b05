#include "net/lane_group.hpp"

#include "cdr/giop.hpp"
#include "obs/flight_recorder.hpp"

#include <unistd.h>

#include <cstring>

namespace compadres::net {

namespace {

/// Object key of the lane-negotiation hello. Consumed by LaneAcceptor
/// before the wire reaches the bridge, so it can never collide with
/// "compadres.bridge" route traffic.
constexpr const char* kLaneObjectKey = "compadres.lane";
constexpr const char* kLaneHelloOp = "hello";

std::uint64_t next_group_id() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    // Process id in the high bits keeps ids from independent client
    // processes hitting one acceptor distinct; the counter keeps groups
    // within a process distinct.
    return (static_cast<std::uint64_t>(::getpid()) << 32) ^
           (counter.fetch_add(1, std::memory_order_relaxed) + 1);
}

std::vector<std::uint8_t> encode_hello(std::uint64_t group_id,
                                       std::uint32_t lane_index,
                                       std::uint32_t lane_count) {
    cdr::OutputStream payload;
    payload.write_ulonglong(group_id);
    payload.write_ulong(lane_index);
    payload.write_ulong(lane_count);
    cdr::RequestHeader req;
    req.request_id = 0;
    req.response_expected = false;
    req.object_key = kLaneObjectKey;
    req.operation = kLaneHelloOp;
    const std::vector<std::uint8_t> body = payload.take_buffer();
    return cdr::encode_request(req, body.data(), body.size());
}

struct LaneHello {
    std::uint64_t group_id = 0;
    std::uint32_t lane_index = 0;
    std::uint32_t lane_count = 0;
};

LaneHello decode_hello(const FrameBuffer& frame) {
    const cdr::DecodedRequestView view =
        cdr::decode_request_view(frame.data(), frame.size());
    if (view.header.object_key != kLaneObjectKey ||
        view.header.operation != kLaneHelloOp) {
        throw TransportError("lane handshake: first frame is not a hello");
    }
    cdr::InputStream in(view.payload, view.payload_len, view.byte_order);
    LaneHello hello;
    hello.group_id = in.read_ulonglong();
    hello.lane_index = in.read_ulong();
    hello.lane_count = in.read_ulong();
    if (hello.lane_count == 0 || hello.lane_count > kMaxLanes ||
        hello.lane_index >= hello.lane_count) {
        throw TransportError("lane handshake: bad lane geometry (" +
                             std::to_string(hello.lane_index) + "/" +
                             std::to_string(hello.lane_count) + ")");
    }
    return hello;
}

std::vector<std::unique_ptr<FrameBufferPool>>
make_lane_pools(const LaneGroupOptions& options, std::size_t lanes) {
    std::vector<std::unique_ptr<FrameBufferPool>> pools(lanes);
    FramePoolOptions po;
    po.thread_cache = true;
    for (std::size_t c = 0; c < 4; ++c) po.tls_depth[c] = options.tls_depth[c];
    for (auto& p : pools) p = std::make_unique<FrameBufferPool>(po);
    return pools;
}

} // namespace

std::size_t LanePolicy::band_for_frame(const std::uint8_t* frame,
                                       std::size_t lanes) noexcept {
    const std::size_t band = cdr::frame_band(frame);
    return band < lanes ? band : (lanes ? lanes - 1 : 0);
}

LaneGroup::LaneGroup(std::vector<std::unique_ptr<Transport>> lanes,
                     std::vector<std::unique_ptr<FrameBufferPool>> pools,
                     std::uint64_t group_id)
    : pools_(std::move(pools)), lanes_(std::move(lanes)), group_id_(group_id),
      route_(lanes_.size()), alive_(lanes_.size()) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        route_[i].store(i, std::memory_order_relaxed);
        alive_[i].store(true, std::memory_order_relaxed);
    }
}

LaneGroup::~LaneGroup() { close(); }

FrameBufferPool& LaneGroup::pool_for_band(std::size_t i) noexcept {
    if (i >= lanes_.size()) i = lanes_.empty() ? 0 : lanes_.size() - 1;
    if (i < pools_.size() && pools_[i]) return *pools_[i];
    return FrameBufferPool::global();
}

void LaneGroup::send_frame(FrameBuffer frame) {
    const std::size_t band =
        LanePolicy::band_for_frame(frame.data(), lanes_.size());
    const std::size_t idx = route_[band].load(std::memory_order_acquire);
    if (idx == kNoLane) throw TransportError("lane group: all lanes failed");
    try {
        lanes_[idx]->send_frame(std::move(frame));
    } catch (const TransportError&) {
        // The frame was consumed (ownership passed into the lane, which
        // counted it dropped). Deliberate close keeps throwing; a lane
        // dying underneath live traffic degrades the group instead:
        // reroute the band and let callers keep sending on the survivors.
        {
            std::lock_guard lk(mu_);
            if (closed_) throw;
        }
        note_lane_failure(idx);
        if (route_[band].load(std::memory_order_acquire) == kNoLane) throw;
    }
}

void LaneGroup::note_lane_failure(std::size_t idx) noexcept {
    std::lock_guard lk(mu_);
    if (!alive_[idx].load(std::memory_order_relaxed)) return; // already seen
    alive_[idx].store(false, std::memory_order_release);
    failovers_.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::emit(obs::EventType::kLaneFailover, idx,
                              static_cast<std::uint32_t>(lanes_.size()));
    // Reroute every band currently mapped to the dead lane onto the
    // nearest surviving lane (ties break toward the more urgent side).
    for (std::size_t band = 0; band < route_.size(); ++band) {
        const std::size_t cur = route_[band].load(std::memory_order_relaxed);
        if (cur != idx && cur != kNoLane &&
            alive_[cur].load(std::memory_order_relaxed)) {
            continue;
        }
        std::size_t best = kNoLane;
        std::size_t best_dist = lanes_.size() + 1;
        for (std::size_t i = 0; i < lanes_.size(); ++i) {
            if (!alive_[i].load(std::memory_order_relaxed)) continue;
            const std::size_t dist = i > band ? i - band : band - i;
            if (dist < best_dist) {
                best = i;
                best_dist = dist;
            }
        }
        route_[band].store(best, std::memory_order_release);
    }
}

std::optional<FrameBuffer> LaneGroup::recv_frame() {
    {
        std::lock_guard lk(mu_);
        if (!closed_ && !readers_started_) start_readers_locked();
    }
    return recv_ring_.pop();
}

void LaneGroup::start_readers_locked() {
    readers_started_ = true;
    readers_live_.store(lanes_.size(), std::memory_order_relaxed);
    readers_.reserve(lanes_.size());
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        readers_.emplace_back([this, i] {
            try {
                while (auto frame = lanes_[i]->recv_frame()) {
                    if (!recv_ring_.push(std::move(*frame))) break;
                }
            } catch (const TransportError&) {
                // Lane died mid-read: degrade the group; surviving lanes
                // keep feeding the ring.
                note_lane_failure(i);
            }
            if (readers_live_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                recv_ring_.close(); // last lane done: drain, then EOF
            }
        });
    }
}

void LaneGroup::prepare_close() {
    for (auto& lane : lanes_) {
        try {
            lane->prepare_close();
        } catch (const TransportError&) {
            // A dead lane has nothing left to flush.
        }
    }
}

void LaneGroup::close() {
    std::vector<std::thread> readers;
    {
        std::lock_guard lk(mu_);
        if (closed_) return;
        closed_ = true;
        readers.swap(readers_);
    }
    // Two-phase: every lane flushes its queue before any lane sends FIN,
    // so the peer never sees one lane end while another still holds
    // undelivered frames of the same logical route.
    prepare_close();
    for (auto& lane : lanes_) lane->close();
    recv_ring_.close();
    for (auto& r : readers) r.join();
}

std::string LaneGroup::peer_description() const {
    std::string desc = "lanes[" + std::to_string(lanes_.size()) + "]";
    if (!lanes_.empty()) desc += "@" + lanes_.front()->peer_description();
    return desc;
}

TransportStats LaneGroup::stats() const {
    TransportStats sum;
    for (const auto& lane : lanes_) {
        const TransportStats s = lane->stats();
        sum.frames_sent += s.frames_sent;
        sum.frames_received += s.frames_received;
        sum.frames_dropped += s.frames_dropped;
        sum.send_syscalls += s.send_syscalls;
        sum.send_batches += s.send_batches;
        sum.send_stalls += s.send_stalls;
        if (s.max_batch_frames > sum.max_batch_frames) {
            sum.max_batch_frames = s.max_batch_frames;
        }
        if (s.intake_depth_hwm > sum.intake_depth_hwm) {
            sum.intake_depth_hwm = s.intake_depth_hwm;
        }
    }
    return sum;
}

std::unique_ptr<LaneGroup> lane_connect(const std::string& host,
                                        std::uint16_t port,
                                        const LaneGroupOptions& options) {
    const std::size_t bands =
        options.bands == 0 ? 1 : (options.bands > kMaxLanes ? kMaxLanes
                                                            : options.bands);
    const std::uint64_t group_id = next_group_id();
    auto pools = make_lane_pools(options, bands);
    std::vector<std::unique_ptr<Transport>> lanes;
    lanes.reserve(bands);
    for (std::size_t i = 0; i < bands; ++i) {
        TcpOptions tcp = options.tcp;
        tcp.pool = pools[i].get();
        auto lane = tcp_connect(host, port, tcp);
        lane->send_frame(encode_hello(group_id, static_cast<std::uint32_t>(i),
                                      static_cast<std::uint32_t>(bands)));
        lanes.push_back(std::move(lane));
    }
    return std::make_unique<LaneGroup>(std::move(lanes), std::move(pools),
                                       group_id);
}

LaneAcceptor::LaneAcceptor(std::uint16_t port, const LaneGroupOptions& options)
    : acceptor_(port, options.tcp), options_(options) {}

std::unique_ptr<LaneGroup> LaneAcceptor::accept() {
    for (;;) {
        std::unique_ptr<Transport> conn = acceptor_.accept();
        if (!conn) return nullptr;
        LaneHello hello;
        try {
            auto frame = conn->recv_frame();
            if (!frame) continue; // peer vanished before its hello
            hello = decode_hello(*frame);
        } catch (const std::exception&) {
            refused_.fetch_add(1, std::memory_order_relaxed);
            continue; // not a lane client; drop the connection
        }
        PendingGroup& group = pending_[hello.group_id];
        if (group.lanes.empty()) group.lanes.resize(hello.lane_count);
        if (hello.lane_count != group.lanes.size() ||
            group.lanes[hello.lane_index] != nullptr) {
            pending_.erase(hello.group_id); // inconsistent peer: start over
            refused_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        group.lanes[hello.lane_index] = std::move(conn);
        if (++group.present < group.lanes.size()) continue;

        std::vector<std::unique_ptr<Transport>> lanes =
            std::move(group.lanes);
        pending_.erase(hello.group_id);
        auto pools = make_lane_pools(options_, lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            // Injected before the wire is registered with any reactor or
            // reader, which is the documented window for set_frame_pool.
            lanes[i]->set_frame_pool(pools[i].get());
        }
        return std::make_unique<LaneGroup>(std::move(lanes), std::move(pools),
                                           hello.group_id);
    }
}

} // namespace compadres::net
