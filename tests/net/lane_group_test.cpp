// Priority-banded connection lanes: handshake assembly, band routing,
// per-lane pool injection, deterministic close, and lane failover.
#include "cdr/giop.hpp"
#include "net/frame_pool.hpp"
#include "net/lane_group.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

using namespace compadres;

namespace {

std::vector<std::uint8_t> make_frame(std::uint32_t request_id,
                                     std::size_t payload_size,
                                     std::uint8_t band) {
    cdr::RequestHeader req;
    req.request_id = request_id;
    req.object_key = "K";
    req.operation = "op";
    std::vector<std::uint8_t> payload(payload_size, 0x5A);
    std::vector<std::uint8_t> frame =
        cdr::encode_request(req, payload.data(), payload.size());
    cdr::set_frame_band(frame.data(), band);
    return frame;
}

/// Connected client/server group pair through one acceptor.
struct GroupPair {
    std::unique_ptr<net::LaneGroup> client;
    std::unique_ptr<net::LaneGroup> server;

    explicit GroupPair(const net::LaneGroupOptions& options = {}) {
        net::LaneAcceptor acceptor(0, options);
        std::thread accept_thread([&] { server = acceptor.accept(); });
        client =
            net::lane_connect("127.0.0.1", acceptor.bound_port(), options);
        accept_thread.join();
    }
};

} // namespace

TEST(LanePolicy, PriorityMapsUrgentToLaneZeroAndBulkToLast) {
    net::LanePolicy policy;
    EXPECT_EQ(policy.band_for_priority(10, 2), 0u);
    EXPECT_EQ(policy.band_for_priority(36, 2), 0u);
    EXPECT_EQ(policy.band_for_priority(9, 2), 1u);
    EXPECT_EQ(policy.band_for_priority(0, 4), 3u);
    // Single-lane groups have nowhere else to go.
    EXPECT_EQ(policy.band_for_priority(0, 1), 0u);
    EXPECT_EQ(policy.band_for_priority(99, 1), 0u);
}

TEST(LanePolicy, FrameBandClampsToGroupWidth) {
    const auto frame = make_frame(1, 8, 5);
    EXPECT_EQ(net::LanePolicy::band_for_frame(frame.data(), 8), 5u);
    // A frame stamped for a wider group still flows on a narrower one,
    // on its least-urgent lane.
    EXPECT_EQ(net::LanePolicy::band_for_frame(frame.data(), 2), 1u);
    EXPECT_EQ(net::LanePolicy::band_for_frame(frame.data(), 1), 0u);
}

TEST(LaneGroup, HandshakeAssemblesMatchingGroups) {
    GroupPair pair;
    ASSERT_NE(pair.client, nullptr);
    ASSERT_NE(pair.server, nullptr);
    EXPECT_EQ(pair.client->lane_count(), 2u);
    EXPECT_EQ(pair.server->lane_count(), 2u);
    EXPECT_EQ(pair.client->group_id(), pair.server->group_id());
    pair.client->close();
    pair.server->close();
}

TEST(LaneGroup, FramesRouteToTheirBandsLane) {
    GroupPair pair;
    pair.client->send_frame(make_frame(1, 16, 0));
    pair.client->send_frame(make_frame(2, 16, 1));

    // The hello never reaches the application: the first frame on each
    // lane is payload, and band i's frame arrives on lane i.
    const auto on_lane0 = pair.server->lane(0).recv_frame();
    const auto on_lane1 = pair.server->lane(1).recv_frame();
    ASSERT_TRUE(on_lane0.has_value());
    ASSERT_TRUE(on_lane1.has_value());
    EXPECT_EQ(cdr::frame_band(on_lane0->data()), 0u);
    EXPECT_EQ(cdr::frame_band(on_lane1->data()), 1u);
    EXPECT_EQ(
        cdr::decode_request(on_lane0->data(), on_lane0->size()).header.request_id,
        1u);
    EXPECT_EQ(
        cdr::decode_request(on_lane1->data(), on_lane1->size()).header.request_id,
        2u);
    pair.client->close();
    pair.server->close();
}

TEST(LaneGroup, MergedRecvDeliversBothBands) {
    GroupPair pair;
    pair.client->send_frame(make_frame(7, 16, 0));
    pair.client->send_frame(make_frame(8, 16, 1));

    std::set<std::uint32_t> ids;
    for (int i = 0; i < 2; ++i) {
        const auto frame = pair.server->recv_frame();
        ASSERT_TRUE(frame.has_value());
        ids.insert(
            cdr::decode_request(frame->data(), frame->size()).header.request_id);
    }
    EXPECT_EQ(ids, (std::set<std::uint32_t>{7, 8}));
    pair.client->close();
    pair.server->close();
}

TEST(LaneGroup, InterleavedConnectsAssembleSeparateGroups) {
    net::LaneGroupOptions options;
    net::LaneAcceptor acceptor(0, options);
    std::unique_ptr<net::LaneGroup> server_a;
    std::unique_ptr<net::LaneGroup> server_b;
    std::thread accept_thread([&] {
        server_a = acceptor.accept();
        server_b = acceptor.accept();
    });
    // Two clients race their lane connects through the same acceptor; the
    // group ids in the hellos keep the interleaved lanes apart.
    std::unique_ptr<net::LaneGroup> client_a;
    std::unique_ptr<net::LaneGroup> client_b;
    std::thread connect_a([&] {
        client_a = net::lane_connect("127.0.0.1", acceptor.bound_port());
    });
    std::thread connect_b([&] {
        client_b = net::lane_connect("127.0.0.1", acceptor.bound_port());
    });
    connect_a.join();
    connect_b.join();
    accept_thread.join();
    ASSERT_NE(server_a, nullptr);
    ASSERT_NE(server_b, nullptr);

    const std::set<std::uint64_t> client_ids{client_a->group_id(),
                                             client_b->group_id()};
    const std::set<std::uint64_t> server_ids{server_a->group_id(),
                                             server_b->group_id()};
    EXPECT_EQ(client_ids, server_ids);
    EXPECT_EQ(client_ids.size(), 2u);

    // Traffic stays within its own group.
    net::LaneGroup& peer_of_a =
        server_a->group_id() == client_a->group_id() ? *server_a : *server_b;
    client_a->send_frame(make_frame(42, 8, 0));
    const auto got = peer_of_a.lane(0).recv_frame();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(cdr::decode_request(got->data(), got->size()).header.request_id,
              42u);

    client_a->close();
    client_b->close();
    server_a->close();
    server_b->close();
}

TEST(LaneGroup, StrayConnectionDoesNotPoisonTheAcceptor) {
    net::LaneAcceptor acceptor(0);
    std::unique_ptr<net::LaneGroup> server;
    std::thread accept_thread([&] { server = acceptor.accept(); });

    // A connection that dies before sending any hello is skipped; one
    // whose first frame is not a lane hello is refused and counted.
    net::tcp_connect("127.0.0.1", acceptor.bound_port())->close();
    auto stray = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    stray->send_frame(make_frame(7, 16, 0));

    auto client = net::lane_connect("127.0.0.1", acceptor.bound_port());
    accept_thread.join();
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->group_id(), client->group_id());
    EXPECT_EQ(acceptor.handshakes_refused(), 1u);
    stray->close();
    client->close();
    server->close();
}

TEST(LaneGroup, PerLanePoolsAreDistinctAndServeInboundFrames) {
    GroupPair pair;
    EXPECT_NE(&pair.server->pool_for_band(0), &pair.server->pool_for_band(1));
    EXPECT_NE(&pair.server->pool_for_band(0), &net::FrameBufferPool::global());
    EXPECT_NE(&pair.server->pool_for_band(1), &net::FrameBufferPool::global());

    const std::uint64_t before0 = pair.server->pool_for_band(0).stats().acquires;
    const std::uint64_t before1 = pair.server->pool_for_band(1).stats().acquires;
    pair.client->send_frame(make_frame(1, 64, 0));
    pair.client->send_frame(make_frame(2, 64, 1));
    ASSERT_TRUE(pair.server->lane(0).recv_frame().has_value());
    ASSERT_TRUE(pair.server->lane(1).recv_frame().has_value());
    EXPECT_GT(pair.server->pool_for_band(0).stats().acquires, before0);
    EXPECT_GT(pair.server->pool_for_band(1).stats().acquires, before1);
    pair.client->close();
    pair.server->close();
}

// The deterministic-close regression: frames queued on a backed-up lane
// must be delivered — not dropped by the close — and only then may the
// peer see any lane's FIN. Small socket buffers and a reader that starts
// late guarantee a deep queue exists at close() time.
TEST(LaneGroup, CloseFlushesQueuedFramesBeforeFin) {
    net::LaneGroupOptions options;
    options.tcp.send_buffer_bytes = 16 * 1024;
    options.tcp.recv_buffer_bytes = 16 * 1024;
    GroupPair pair(options);

    constexpr int kFrames = 200;
    constexpr std::size_t kPayload = 3072;
    std::atomic<int> received{0};
    std::atomic<bool> lane0_eof_before_flush{false};
    std::thread bulk_reader([&] {
        // Let the send side back up first.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        while (pair.server->lane(1).recv_frame().has_value()) ++received;
    });
    std::thread urgent_reader([&] {
        // Lane 0 carries nothing; its recv returns only at EOF — which
        // close() must withhold until lane 1's queue has flushed.
        EXPECT_FALSE(pair.server->lane(0).recv_frame().has_value());
        if (received.load() < kFrames) lane0_eof_before_flush = true;
    });

    for (int i = 0; i < kFrames; ++i) {
        pair.client->send_frame(make_frame(static_cast<std::uint32_t>(i),
                                           kPayload, 1));
    }
    pair.client->close(); // blocks until every lane's queue is on the wire

    bulk_reader.join();
    urgent_reader.join();
    EXPECT_EQ(received.load(), kFrames);

    const net::TransportStats lane1 = pair.client->lane_stats(1);
    EXPECT_EQ(lane1.frames_dropped, 0u);
    // Every frame accepted by send_frame is accounted sent (the +1 is the
    // lane handshake hello).
    EXPECT_EQ(lane1.frames_sent, static_cast<std::uint64_t>(kFrames) + 1);
    pair.server->close();
}

TEST(LaneGroup, DeadLaneFailsOverWithCountedEventNotRoutePoisoning) {
    GroupPair pair;
    EXPECT_EQ(pair.client->lane_failovers(), 0u);
    EXPECT_TRUE(pair.client->lane_alive(1));

    // Kill the bulk lane server-side; the client discovers the death on a
    // subsequent send (RST surfaces asynchronously, so keep sending).
    pair.server->lane(1).close();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (pair.client->lane_failovers() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        pair.client->send_frame(make_frame(9, 16, 1)); // must not throw
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(pair.client->lane_failovers(), 1u);
    EXPECT_FALSE(pair.client->lane_alive(1));
    EXPECT_TRUE(pair.client->lane_alive(0));

    // Band 1 now rides the surviving lane 0 — the route is degraded, not
    // poisoned: the frame still carries its stamped band.
    pair.client->send_frame(make_frame(10, 16, 1));
    std::optional<net::FrameBuffer> got;
    do {
        got = pair.server->lane(0).recv_frame();
        ASSERT_TRUE(got.has_value());
    } while (cdr::decode_request(got->data(), got->size()).header.request_id !=
             10u);
    EXPECT_EQ(cdr::frame_band(got->data()), 1u);

    pair.client->close();
    pair.server->close();
}

TEST(LaneGroup, SendAfterCloseThrows) {
    GroupPair pair;
    pair.client->close();
    EXPECT_THROW(pair.client->send_frame(make_frame(1, 8, 0)),
                 net::TransportError);
    pair.server->close();
}

TEST(LaneGroup, StatsSumAcrossLanes) {
    GroupPair pair;
    pair.client->send_frame(make_frame(1, 16, 0));
    pair.client->send_frame(make_frame(2, 16, 1));
    ASSERT_TRUE(pair.server->lane(0).recv_frame().has_value());
    ASSERT_TRUE(pair.server->lane(1).recv_frame().has_value());
    // 2 payload frames + 2 handshake hellos (the acceptor reads the
    // hellos through the same lane transports, so both sides count them).
    EXPECT_EQ(pair.client->stats().frames_sent, 4u);
    EXPECT_EQ(pair.server->stats().frames_received, 4u);
    pair.client->close();
    pair.server->close();
}

TEST(LaneGroup, FramesSentBeforeAcceptReachTheReactor) {
    // lane_connect sends its hellos without waiting for a reply, so a
    // client may stream frames before the server accepts. Reading lane 1's
    // hello then reads those frames ahead into the lane's buffer; the
    // reactor the lanes are handed to must still deliver every one.
    net::LaneAcceptor acceptor(0);
    auto client = net::lane_connect("127.0.0.1", acceptor.bound_port());
    constexpr std::uint32_t kFrames = 50;
    for (std::uint32_t i = 0; i < kFrames; ++i) {
        client->send_frame(make_frame(i, 32, 1));
    }
    auto server = acceptor.accept();
    ASSERT_NE(server, nullptr);

    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::uint32_t> ids;
    net::Reactor reactor(net::ReactorOptions{1});
    for (std::size_t lane = 0; lane < server->lane_count(); ++lane) {
        reactor.register_wire(server->lane(lane), [&](net::FrameBuffer f) {
            const std::uint32_t id =
                cdr::decode_request(f.data(), f.size()).header.request_id;
            std::lock_guard<std::mutex> lk(mu);
            ids.push_back(id);
            cv.notify_all();
        });
    }
    {
        std::unique_lock<std::mutex> lk(mu);
        EXPECT_TRUE(cv.wait_for(lk, std::chrono::seconds(5),
                                [&] { return ids.size() >= kFrames; }))
            << ids.size() << " of " << kFrames << " frames arrived";
        for (std::uint32_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
    }
    reactor.stop();
    client->close();
    server->close();
}
