// Live repolicy of remote routes: RemoteBridge::repolicy_route swaps a
// route's TransmissionPolicy (overflow, band) on a RUNNING
// bridge mid-burst — zero messages lost or duplicated, frames_dropped
// flat, and new frames ride the new lane.
#include "remote/bridge.hpp"

#include "core/messages.hpp"
#include "core/recompose.hpp"
#include "net/lane_group.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace compadres;

namespace {

core::InPortConfig sync_port() {
    core::InPortConfig cfg;
    cfg.min_threads = cfg.max_threads = 0;
    return cfg;
}

struct IntSink {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<int> values;

    void add(int v) {
        std::lock_guard lk(mu);
        values.push_back(v);
        cv.notify_all();
    }
    bool wait_for(std::size_t n, std::chrono::milliseconds timeout =
                                     std::chrono::milliseconds(10000)) {
        std::unique_lock lk(mu);
        return cv.wait_for(lk, timeout, [&] { return values.size() >= n; });
    }
};

struct LanePair {
    net::LaneGroup* client = nullptr;
    net::LaneGroup* server = nullptr;
    std::unique_ptr<net::Transport> client_wire;
    std::unique_ptr<net::Transport> server_wire;

    explicit LanePair(std::size_t bands = 2) {
        net::LaneGroupOptions opts;
        opts.bands = bands;
        net::LaneAcceptor acceptor(0, opts);
        std::unique_ptr<net::LaneGroup> srv;
        std::thread accept_thread([&] { srv = acceptor.accept(); });
        auto cli = net::lane_connect("127.0.0.1", acceptor.bound_port(), opts);
        accept_thread.join();
        client = cli.get();
        server = srv.get();
        client_wire = std::move(cli);
        server_wire = std::move(srv);
    }
};

class RemoteRecomposeTest : public ::testing::Test {
protected:
    void SetUp() override {
        core::register_builtin_message_types();
        remote::register_builtin_serializers();
    }
};

} // namespace

TEST_F(RemoteRecomposeTest, RepolicyMidBurstLosesAndDuplicatesNothing) {
    LanePair wires;
    net::LaneGroup* client_group = wires.client;
    core::Application app_a("a"), app_b("b");
    remote::RemoteBridge bridge_a(app_a, std::move(wires.client_wire));
    remote::RemoteBridge bridge_b(app_b, std::move(wires.server_wire));

    auto& producer = app_a.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    core::TransmissionPolicy initial;
    initial.band = 1; // bulk lane
    bridge_a.export_route(out, "telemetry", initial);

    IntSink sink;
    auto& consumer = app_b.create_immortal<core::Component>("C");
    auto& in = consumer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink.add(m.value); });
    bridge_b.import_route("telemetry", in);
    bridge_a.start();
    bridge_b.start();
    app_a.start();
    app_b.start();

    constexpr int kMessages = 3000;
    std::thread sender([&] {
        for (int i = 0; i < kMessages; ++i) {
            core::MyInteger* msg = out.get_message();
            msg->value = i;
            out.send(msg, 5);
        }
    });

    // Repolicy the live route repeatedly while the burst is in flight:
    // Block<->Ring, band 1<->0.
    core::TransmissionPolicy urgent;
    urgent.overflow = core::OverflowPolicy::kRingOverwrite;
    urgent.band = 0;
    core::TransmissionPolicy bulk = initial;
    for (int flip = 0; flip < 10; ++flip) {
        const core::TransmissionPolicy& next = flip % 2 == 0 ? urgent : bulk;
        const std::uint64_t pause =
            bridge_a.repolicy_route("telemetry", next);
        EXPECT_GT(pause, 0u);
        EXPECT_EQ(bridge_a.export_policy("telemetry"), next);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    sender.join();

    ASSERT_TRUE(sink.wait_for(kMessages));
    // Exactly once: nothing lost, nothing duplicated, frames_dropped flat.
    std::set<int> unique(sink.values.begin(), sink.values.end());
    EXPECT_EQ(unique.size(), static_cast<std::size_t>(kMessages));
    EXPECT_EQ(sink.values.size(), static_cast<std::size_t>(kMessages));
    EXPECT_EQ(bridge_a.frames_sent(), static_cast<std::uint64_t>(kMessages));
    EXPECT_EQ(bridge_b.frames_received(),
              static_cast<std::uint64_t>(kMessages));
    EXPECT_EQ(bridge_a.frames_dropped(), 0u);
    EXPECT_EQ(bridge_b.frames_dropped(), 0u);
    // Both lanes carried part of the burst: the repolicy really moved the
    // route between bands.
    EXPECT_GT(client_group->lane_stats(0).frames_sent, 0u);
    EXPECT_GT(client_group->lane_stats(1).frames_sent, 0u);

    bridge_a.shutdown();
    bridge_b.shutdown();
    app_a.stop();
    app_b.stop();
}

TEST_F(RemoteRecomposeTest, BandRepolicyMovesNewFramesToTheNewLane) {
    LanePair wires;
    net::LaneGroup* client_group = wires.client;
    core::Application app_a("a"), app_b("b");
    remote::RemoteBridge bridge_a(app_a, std::move(wires.client_wire));
    remote::RemoteBridge bridge_b(app_b, std::move(wires.server_wire));

    auto& producer = app_a.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    core::TransmissionPolicy bulk;
    bulk.band = 1;
    bridge_a.export_route(out, "r", bulk);

    IntSink sink;
    auto& consumer = app_b.create_immortal<core::Component>("C");
    auto& in = consumer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink.add(m.value); });
    bridge_b.import_route("r", in);
    bridge_a.start();
    bridge_b.start();

    for (int i = 0; i < 4; ++i) {
        core::MyInteger* msg = out.get_message();
        msg->value = i;
        out.send(msg, 5);
    }
    ASSERT_TRUE(sink.wait_for(4));
    const std::uint64_t lane0_mid = client_group->lane_stats(0).frames_sent;
    const std::uint64_t lane1_mid = client_group->lane_stats(1).frames_sent;
    EXPECT_GE(lane1_mid, 4u);

    core::TransmissionPolicy urgent;
    urgent.band = 0;
    bridge_a.repolicy_route("r", urgent);
    for (int i = 4; i < 8; ++i) {
        core::MyInteger* msg = out.get_message();
        msg->value = i;
        out.send(msg, 5);
    }
    ASSERT_TRUE(sink.wait_for(8));
    // All post-repolicy frames rode lane 0; lane 1 saw nothing new.
    EXPECT_EQ(client_group->lane_stats(1).frames_sent, lane1_mid);
    EXPECT_GE(client_group->lane_stats(0).frames_sent, lane0_mid + 4);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(sink.values[i], i);
}

TEST_F(RemoteRecomposeTest, RepolicyValidatesRouteAndBand) {
    core::Application app_a("a"), app_b("b");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge_a(app_a, std::move(wire_a));
    remote::RemoteBridge bridge_b(app_b, std::move(wire_b));

    auto& producer = app_a.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    bridge_a.export_route(out, "r");
    EXPECT_THROW(bridge_a.export_route(out, "r"), remote::BridgeError);

    EXPECT_THROW(bridge_a.repolicy_route("ghost", {}), remote::BridgeError);
    core::TransmissionPolicy wild;
    wild.band = static_cast<int>(net::kMaxLanes);
    EXPECT_THROW(bridge_a.repolicy_route("r", wild), remote::BridgeError);
    EXPECT_THROW(bridge_a.export_policy("ghost"), remote::BridgeError);

    // Repolicy works before AND after start() — the route registry is not
    // frozen the way route addition is.
    core::TransmissionPolicy ring;
    ring.overflow = core::OverflowPolicy::kRingOverwrite;
    bridge_a.repolicy_route("r", ring);
    bridge_a.start();
    ring.overflow = core::OverflowPolicy::kBlock;
    bridge_a.repolicy_route("r", ring);
    EXPECT_EQ(bridge_a.export_policy("r"), ring);

    bridge_a.shutdown();
    EXPECT_THROW(bridge_a.repolicy_route("r", {}), remote::BridgeError);
}

TEST_F(RemoteRecomposeTest, ApplyRecomposeDrivesRemoteRepolicyViaApplier) {
    LanePair wires;
    core::Application app_a("a"), app_b("b");
    remote::RemoteBridge bridge_a(app_a, std::move(wires.client_wire));
    remote::RemoteBridge bridge_b(app_b, std::move(wires.server_wire));

    auto& producer = app_a.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    core::TransmissionPolicy bulk;
    bulk.band = 1;
    bridge_a.export_route(out, "telemetry", bulk);

    IntSink sink;
    auto& consumer = app_b.create_immortal<core::Component>("C");
    auto& in = consumer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink.add(m.value); });
    bridge_b.import_route("telemetry", in);
    bridge_a.start();
    bridge_b.start();
    app_a.start();

    core::RecomposePlan plan;
    plan.application = "a";
    core::RecomposeRepolicy rep;
    rep.remote = true;
    rep.remote_name = "peer";
    rep.route = "telemetry";
    rep.from = bulk;
    rep.to.band = 0;
    plan.repolicies.push_back(rep);

    core::RecomposeOptions opts;
    opts.remote_applier = remote::recompose_applier(bridge_a);
    const core::RecomposeStats stats = apply_recompose(app_a, plan, opts);
    EXPECT_EQ(stats.routes_repoliced, 1u);
    ASSERT_EQ(stats.pause_ns.size(), 1u);
    EXPECT_GT(stats.pause_ns[0], 0u);
    EXPECT_EQ(bridge_a.export_policy("telemetry").band, 0);

    core::MyInteger* msg = out.get_message();
    msg->value = 42;
    out.send(msg, 5);
    ASSERT_TRUE(sink.wait_for(1));
    EXPECT_EQ(sink.values[0], 42);
    EXPECT_EQ(bridge_a.frames_dropped(), 0u);
}
