// RemoteBridge: transparent remote port connections between two
// applications (the paper's future-work feature, implemented).
#include "remote/bridge.hpp"

#include "cdr/giop.hpp"
#include "compiler/validator.hpp"
#include "core/messages.hpp"
#include "net/lane_group.hpp"
#include "net/tcp.hpp"
#include "obs/trace_context.hpp"
#include "remote/remote_plan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

using namespace compadres;

namespace {

core::InPortConfig sync_port() {
    core::InPortConfig cfg;
    cfg.min_threads = cfg.max_threads = 0;
    return cfg;
}

/// Collects ints delivered to an In port across threads.
struct IntSink {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<int> values;

    void add(int v) {
        // Notify under the mutex: the waiter owns this stack-allocated sink
        // and tears it down the moment wait_for returns, so notifying after
        // unlock races the destruction of the condvar being notified.
        std::lock_guard lk(mu);
        values.push_back(v);
        cv.notify_all();
    }
    bool wait_for(std::size_t n) {
        std::unique_lock lk(mu);
        return cv.wait_for(lk, std::chrono::milliseconds(3000),
                           [&] { return values.size() >= n; });
    }
};

class BridgeTest : public ::testing::Test {
protected:
    void SetUp() override {
        core::register_builtin_message_types();
        remote::register_builtin_serializers();
    }
};

} // namespace

TEST_F(BridgeTest, MessageCrossesBetweenApplications) {
    core::Application sender_app("sender");
    core::Application receiver_app("receiver");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge_a(sender_app, std::move(wire_a));
    remote::RemoteBridge bridge_b(receiver_app, std::move(wire_b));

    auto& producer = sender_app.create_immortal<core::Component>("Producer");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    bridge_a.export_route(out, "telemetry");

    IntSink sink;
    auto& consumer = receiver_app.create_immortal<core::Component>("Consumer");
    auto& in = consumer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink.add(m.value); });
    bridge_b.import_route("telemetry", in);

    bridge_a.start();
    bridge_b.start();
    sender_app.start();
    receiver_app.start();

    for (int i = 0; i < 10; ++i) {
        core::MyInteger* msg = out.get_message();
        msg->value = i * 11;
        out.send(msg, 5);
    }
    ASSERT_TRUE(sink.wait_for(10));
    for (int i = 0; i < 10; ++i) EXPECT_EQ(sink.values[i], i * 11);
    EXPECT_EQ(bridge_a.frames_sent(), 10u);
    EXPECT_EQ(bridge_b.frames_received(), 10u);
    EXPECT_EQ(bridge_b.frames_dropped(), 0u);
}

TEST_F(BridgeTest, BidirectionalOverOneWire) {
    core::Application app_a("a"), app_b("b");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge_a(app_a, std::move(wire_a));
    remote::RemoteBridge bridge_b(app_b, std::move(wire_b));

    IntSink sink_a, sink_b;
    auto& comp_a = app_a.create_immortal<core::Component>("A");
    auto& comp_b = app_b.create_immortal<core::Component>("B");
    auto& out_a = comp_a.add_out_port<core::MyInteger>("out", "MyInteger");
    auto& in_a = comp_a.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink_a.add(m.value); });
    auto& out_b = comp_b.add_out_port<core::MyInteger>("out", "MyInteger");
    auto& in_b = comp_b.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink_b.add(m.value); });

    bridge_a.export_route(out_a, "a-to-b");
    bridge_a.import_route("b-to-a", in_a);
    bridge_b.export_route(out_b, "b-to-a");
    bridge_b.import_route("a-to-b", in_b);
    bridge_a.start();
    bridge_b.start();

    core::MyInteger* ma = out_a.get_message();
    ma->value = 1;
    out_a.send(ma, 5);
    core::MyInteger* mb = out_b.get_message();
    mb->value = 2;
    out_b.send(mb, 5);
    ASSERT_TRUE(sink_b.wait_for(1));
    ASSERT_TRUE(sink_a.wait_for(1));
    EXPECT_EQ(sink_b.values[0], 1);
    EXPECT_EQ(sink_a.values[0], 2);
}

TEST_F(BridgeTest, OctetSeqShipsOnlyFilledPrefix) {
    core::Application app_a("a"), app_b("b");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge_a(app_a, std::move(wire_a));
    remote::RemoteBridge bridge_b(app_b, std::move(wire_b));

    auto& producer = app_a.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::OctetSeq>("out", "OctetSeq");
    bridge_a.export_route(out, "bytes");

    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::uint8_t> got;
    auto& consumer = app_b.create_immortal<core::Component>("C");
    auto& in = consumer.add_in_port<core::OctetSeq>(
        "in", "OctetSeq", sync_port(), [&](core::OctetSeq& m, core::Smm&) {
            std::lock_guard lk(mu);
            got.assign(m.data.begin(),
                       m.data.begin() + static_cast<long>(m.length));
            cv.notify_all();
        });
    bridge_b.import_route("bytes", in);
    bridge_a.start();
    bridge_b.start();

    core::OctetSeq* msg = out.get_message();
    const std::uint8_t payload[] = {1, 2, 3, 4, 5};
    msg->assign(payload, sizeof(payload));
    out.send(msg, 5);

    std::unique_lock lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::milliseconds(2000),
                            [&] { return !got.empty(); }));
    EXPECT_EQ(got, std::vector<std::uint8_t>({1, 2, 3, 4, 5}));
}

TEST_F(BridgeTest, UnknownRouteCountedAsDropped) {
    core::Application app_a("a"), app_b("b");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge_a(app_a, std::move(wire_a));
    remote::RemoteBridge bridge_b(app_b, std::move(wire_b));

    auto& producer = app_a.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    bridge_a.export_route(out, "nobody-listens");
    bridge_a.start();
    bridge_b.start();

    core::MyInteger* msg = out.get_message();
    out.send(msg, 5);
    // Drops are asynchronous; poll briefly.
    for (int i = 0; i < 100 && bridge_b.frames_dropped() == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(bridge_b.frames_dropped(), 1u);
}

TEST_F(BridgeTest, DuplicateImportRouteRejected) {
    core::Application app("a");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge(app, std::move(wire_a));
    auto& comp = app.create_immortal<core::Component>("C");
    auto& in1 = comp.add_in_port<core::MyInteger>(
        "in1", "MyInteger", sync_port(), [](core::MyInteger&, core::Smm&) {});
    auto& in2 = comp.add_in_port<core::MyInteger>(
        "in2", "MyInteger", sync_port(), [](core::MyInteger&, core::Smm&) {});
    bridge.import_route("r", in1);
    EXPECT_THROW(bridge.import_route("r", in2), remote::BridgeError);
}

TEST_F(BridgeTest, RoutesFrozenAfterStart) {
    core::Application app("a");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge(app, std::move(wire_a));
    auto& comp = app.create_immortal<core::Component>("C");
    auto& out = comp.add_out_port<core::MyInteger>("out", "MyInteger");
    auto& in = comp.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(), [](core::MyInteger&, core::Smm&) {});
    bridge.start();
    EXPECT_THROW(bridge.export_route(out, "late"), remote::BridgeError);
    EXPECT_THROW(bridge.import_route("late", in), remote::BridgeError);
}

TEST_F(BridgeTest, WorksOverRealTcp) {
    net::TcpAcceptor acceptor(0);
    core::Application app_a("a"), app_b("b");

    std::unique_ptr<net::Transport> server_wire;
    std::thread accept_thread([&] { server_wire = acceptor.accept(); });
    auto client_wire = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    accept_thread.join();

    remote::RemoteBridge bridge_a(app_a, std::move(client_wire));
    remote::RemoteBridge bridge_b(app_b, std::move(server_wire));

    auto& producer = app_a.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::SensorSample>("out", "SensorSample");
    bridge_a.export_route(out, "samples");

    std::mutex mu;
    std::condition_variable cv;
    int received = 0;
    double last = 0;
    auto& consumer = app_b.create_immortal<core::Component>("C");
    auto& in = consumer.add_in_port<core::SensorSample>(
        "in", "SensorSample", sync_port(),
        [&](core::SensorSample& s, core::Smm&) {
            std::lock_guard lk(mu);
            ++received;
            last = s.value;
            cv.notify_all();
        });
    bridge_b.import_route("samples", in);
    bridge_a.start();
    bridge_b.start();

    for (int i = 0; i < 50; ++i) {
        core::SensorSample* s = out.get_message();
        s->sensor_id = i;
        s->value = i * 0.5;
        out.send(s, 5);
    }
    std::unique_lock lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::milliseconds(3000),
                            [&] { return received >= 50; }));
    EXPECT_EQ(last, 49 * 0.5);
}

TEST_F(BridgeTest, ImportPriorityOverrideApplies) {
    // With an override, the bridge sends at the configured priority; we
    // can at least verify traffic still flows with the override set.
    core::Application app_a("a"), app_b("b");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge_a(app_a, std::move(wire_a));
    remote::RemoteBridge bridge_b(app_b, std::move(wire_b));

    auto& producer = app_a.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    bridge_a.export_route(out, "r");

    IntSink sink;
    auto& consumer = app_b.create_immortal<core::Component>("C");
    auto& in = consumer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink.add(m.value); });
    bridge_b.import_route("r", in, /*priority=*/77);
    bridge_a.start();
    bridge_b.start();

    core::MyInteger* msg = out.get_message();
    msg->value = 7;
    out.send(msg, 5);
    ASSERT_TRUE(sink.wait_for(1));
    EXPECT_EQ(sink.values[0], 7);
}

namespace {

/// Hand-build a bridge wire frame: GIOP Request to "compadres.bridge"
/// carrying [ulong priority, body bytes] under `route`.
std::vector<std::uint8_t> make_bridge_frame(const std::string& route,
                                            const std::uint8_t* body,
                                            std::size_t body_len,
                                            std::uint32_t priority = 5) {
    cdr::OutputStream payload;
    payload.write_ulong(priority);
    payload.write_octet_seq(body, body_len);
    cdr::RequestHeader header;
    header.response_expected = false;
    header.object_key = "compadres.bridge";
    header.operation = route;
    return cdr::encode_request(header, payload.buffer().data(),
                               payload.buffer().size());
}

} // namespace

TEST_F(BridgeTest, DecodeFailureCountedAndReaderSurvives) {
    core::Application app("a");
    auto [wire_raw, wire_bridge] = net::make_loopback_pair();
    remote::RemoteBridge bridge(app, std::move(wire_bridge));

    IntSink sink;
    auto& consumer = app.create_immortal<core::Component>("C");
    auto& in = consumer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink.add(m.value); });
    bridge.import_route("ints", in);
    bridge.start();

    // A frame whose body is 3 bytes where sizeof(MyInteger) is expected:
    // the POD codec must reject it and the reader must keep going.
    const std::uint8_t garbage[3] = {0xDE, 0xAD, 0xBE};
    wire_raw->send_frame(make_bridge_frame("ints", garbage, sizeof(garbage)));
    for (int i = 0; i < 200 && bridge.frames_dropped() == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(bridge.frames_dropped(), 1u);

    // The reader thread survived: a well-formed frame still delivers.
    core::MyInteger good{};
    good.value = 42;
    wire_raw->send_frame(make_bridge_frame(
        "ints", reinterpret_cast<const std::uint8_t*>(&good), sizeof(good)));
    ASSERT_TRUE(sink.wait_for(1));
    EXPECT_EQ(sink.values[0], 42);
    EXPECT_EQ(bridge.frames_received(), 2u);
}

TEST_F(BridgeTest, MalformedFrameCountedAndReaderSurvives) {
    core::Application app("a");
    auto [wire_raw, wire_bridge] = net::make_loopback_pair();
    remote::RemoteBridge bridge(app, std::move(wire_bridge));

    IntSink sink;
    auto& consumer = app.create_immortal<core::Component>("C");
    auto& in = consumer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink.add(m.value); });
    bridge.import_route("ints", in);
    bridge.start();

    // Valid GIOP header, truncated request body: decode throws, frame is
    // counted dropped, reader lives on.
    std::vector<std::uint8_t> bogus = {'G', 'I', 'O', 'P', 1, 0,
                                       0,   0,   4,   0,   0, 0};
    bogus.resize(16, 0x00);
    wire_raw->send_frame(bogus);
    for (int i = 0; i < 200 && bridge.frames_dropped() == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(bridge.frames_dropped(), 1u);

    core::MyInteger good{};
    good.value = 7;
    wire_raw->send_frame(make_bridge_frame(
        "ints", reinterpret_cast<const std::uint8_t*>(&good), sizeof(good)));
    ASSERT_TRUE(sink.wait_for(1));
    EXPECT_EQ(sink.values[0], 7);
}

TEST_F(BridgeTest, FastPathFramesDecodeWithGenericGiop) {
    // The export fast path renders its header from a per-route template
    // and encodes straight into pooled storage; the frame it ships must
    // still be a stock GIOP Request the generic reference decoder reads.
    core::Application app("a");
    auto [wire_bridge, wire_raw] = net::make_loopback_pair();
    remote::RemoteBridge bridge(app, std::move(wire_bridge));

    auto& producer = app.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    bridge.export_route(out, "ints");

    core::MyInteger* msg = out.get_message();
    msg->value = 4242;
    out.send(msg, 5);

    const auto frame = wire_raw->recv_frame();
    ASSERT_TRUE(frame.has_value());
    const cdr::DecodedRequest req =
        cdr::decode_request(frame->data(), frame->size());
    EXPECT_EQ(req.header.object_key, "compadres.bridge");
    EXPECT_EQ(req.header.operation, "ints");
    EXPECT_FALSE(req.header.response_expected);
    EXPECT_GE(req.header.request_id, 1u); // the export route's id

    cdr::InputStream body(req.payload, req.payload_len);
    // Carried priority: the exporting port's default priority.
    EXPECT_EQ(body.read_ulong(),
              static_cast<std::uint32_t>(out.default_priority()));
    const auto [data, len] = body.read_octet_seq_view();
    ASSERT_EQ(len, sizeof(core::MyInteger));
    core::MyInteger decoded{};
    std::memcpy(&decoded, data, len);
    EXPECT_EQ(decoded.value, 4242);
    EXPECT_EQ(bridge.frames_sent(), 1u);
}

TEST_F(BridgeTest, ShutdownWithQueuedFramesReportsDropped) {
    // Flood a TCP wire nobody reads: the coalescer's queue is still full
    // when shutdown() closes the wire, and those frames must be dropped
    // deterministically (no hang) and reported via frames_dropped().
    //
    // Socket buffers are clamped small on both ends: shutdown flushes
    // whatever the kernel will still accept before dropping the rest, and
    // with default (multi-megabyte, autotuned) buffers the entire backlog
    // can fit — flushing everything and legitimately reporting zero drops.
    // Bounded buffers guarantee an unflushable remainder to count.
    net::TcpOptions opts;
    opts.send_buffer_bytes = 32 * 1024;
    opts.recv_buffer_bytes = 32 * 1024;
    net::TcpAcceptor acceptor(0, opts);
    core::Application app("a");
    std::unique_ptr<net::Transport> server_wire;
    std::thread accept_thread([&] { server_wire = acceptor.accept(); });
    auto client_wire = net::tcp_connect("127.0.0.1", acceptor.bound_port(), opts);
    accept_thread.join();

    remote::RemoteBridge bridge(app, std::move(client_wire));
    auto& producer = app.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::OctetSeq>("out", "OctetSeq");
    bridge.export_route(out, "bulk");
    bridge.start();

    std::atomic<bool> stop{false};
    std::vector<std::thread> senders;
    for (int t = 0; t < 2; ++t) {
        senders.emplace_back([&] {
            while (!stop.load()) {
                core::OctetSeq* msg = out.get_message();
                msg->length = core::OctetSeq::kCapacity; // 4 KiB frames
                out.send(msg, 5); // send errors are swallowed by the port
            }
        });
    }
    // Let the socket buffer fill and the senders pile into the coalescer.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    bridge.shutdown(); // must return promptly, not hang on the full queue
    for (auto& s : senders) s.join();

    EXPECT_GT(bridge.frames_dropped(), 0u);
}

TEST_F(BridgeTest, ShutdownStopsReaderCleanly) {
    core::Application app_a("a"), app_b("b");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge_a(app_a, std::move(wire_a));
    remote::RemoteBridge bridge_b(app_b, std::move(wire_b));
    bridge_a.start();
    bridge_b.start();
    bridge_a.shutdown();
    bridge_a.shutdown(); // idempotent
    bridge_b.shutdown();
}

// --- Priority-banded lane groups under the bridge -----------------------

namespace {

/// A connected LaneGroup pair plus keepalive handles; bands=2.
struct LanePair {
    net::LaneGroup* client = nullptr; // observed before ownership moves
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

} // namespace

TEST_F(BridgeTest, BandedExportRidesItsOwnLane) {
    LanePair wires;
    net::LaneGroup* client_group = wires.client;
    core::Application app_a("a"), app_b("b");
    remote::RemoteBridge bridge_a(app_a, std::move(wires.client_wire));
    remote::RemoteBridge bridge_b(app_b, std::move(wires.server_wire));

    auto& producer = app_a.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    bridge_a.export_route(out, "bulk", {core::OverflowPolicy::kBlock, /*band=*/1});

    IntSink sink;
    auto& consumer = app_b.create_immortal<core::Component>("C");
    auto& in = consumer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink.add(m.value); });
    bridge_b.import_route("bulk", in);
    bridge_a.start();
    bridge_b.start();

    const std::uint64_t lane0_before = client_group->lane_stats(0).frames_sent;
    for (int i = 0; i < 8; ++i) {
        core::MyInteger* msg = out.get_message();
        msg->value = i;
        out.send(msg, 5);
    }
    ASSERT_TRUE(sink.wait_for(8));
    for (int i = 0; i < 8; ++i) EXPECT_EQ(sink.values[i], i);
    // Every exported frame rode lane 1; lane 0 saw nothing new.
    EXPECT_EQ(client_group->lane_stats(0).frames_sent, lane0_before);
    EXPECT_GE(client_group->lane_stats(1).frames_sent, 8u);
}

TEST_F(BridgeTest, TraceReportCarriesLaneCounters) {
    LanePair wires;
    core::Application app_a("a"), app_b("b");
    remote::RemoteBridge bridge_a(app_a, std::move(wires.client_wire),
                                  "uplink");
    remote::RemoteBridge bridge_b(app_b, std::move(wires.server_wire));

    auto& producer = app_a.create_immortal<core::Component>("P");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    bridge_a.export_route(out, "r", {core::OverflowPolicy::kBlock, /*band=*/0});

    IntSink sink;
    auto& consumer = app_b.create_immortal<core::Component>("C");
    auto& in = consumer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink.add(m.value); });
    bridge_b.import_route("r", in);
    bridge_a.start();
    bridge_b.start();

    core::MyInteger* msg = out.get_message();
    msg->value = 1;
    out.send(msg, 5);
    ASSERT_TRUE(sink.wait_for(1));

    const core::TraceReport report = app_a.trace_report();
    const core::CounterGroup* bridge_group = nullptr;
    for (const core::CounterGroup& g : report.counters) {
        if (g.source == "bridge:uplink") bridge_group = &g;
    }
    ASSERT_NE(bridge_group, nullptr);
    auto value_of = [&](const std::string& name) -> std::optional<std::uint64_t> {
        for (const auto& [k, v] : bridge_group->counters) {
            if (k == name) return v;
        }
        return std::nullopt;
    };
    // Satellite counters: drops, per-lane depth/stall, failover and
    // reactor registration visibility.
    EXPECT_TRUE(value_of("frames_dropped").has_value());
    EXPECT_EQ(value_of("lane_failovers"), std::uint64_t{0});
    EXPECT_EQ(value_of("lanes_down"), std::uint64_t{0});
    EXPECT_TRUE(value_of("lane0_frames_sent").has_value());
    EXPECT_TRUE(value_of("lane0_send_stalls").has_value());
    EXPECT_TRUE(value_of("lane0_intake_depth_hwm").has_value());
    EXPECT_TRUE(value_of("lane1_frames_sent").has_value());
    EXPECT_TRUE(value_of("lane1_frames_dropped").has_value());
    if (bridge_a.using_reactor()) {
        EXPECT_EQ(value_of("reactor_wire_add_failures"), std::uint64_t{0});
        // Loop-side syscall economics flow through the trace report.
        EXPECT_TRUE(value_of("reactor_wait_syscalls").has_value());
        EXPECT_TRUE(value_of("reactor_read_syscalls").has_value());
        EXPECT_TRUE(value_of("reactor_syscalls_per_1k_frames").has_value());
    }
    // The counters also surface in the rendered report.
    const std::string text = report.to_string();
    EXPECT_NE(text.find("lane_failovers"), std::string::npos);
    EXPECT_NE(text.find("lane1_frames_sent"), std::string::npos);
}

TEST_F(BridgeTest, ApplyRemotePlanWiresBandedRoutes) {
    const auto cdl = compiler::parse_cdl_string(R"(
<CDL>
 <Component>
  <ComponentName>Node</ComponentName>
  <Port><PortName>out</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
  <Port><PortName>in</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
 </Component>
</CDL>)");
    const auto ccl = compiler::parse_ccl_string(R"(
<Application>
 <ApplicationName>App</ApplicationName>
 <Component>
  <InstanceName>N1</InstanceName><ClassName>Node</ClassName>
  <ComponentType>Immortal</ComponentType>
 </Component>
 <Remote>
  <RemoteName>uplink</RemoteName>
  <Bands>2</Bands>
  <Export><Component>N1</Component><Port>out</Port><Route>up</Route><Band>1</Band></Export>
  <Import><Component>N1</Component><Port>in</Port><Route>down</Route></Import>
 </Remote>
</Application>)");
    const compiler::AssemblyPlan plan = compiler::validate_and_plan(cdl, ccl);

    core::Application app_a("a"), app_b("b");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge_a(app_a, std::move(wire_a));
    remote::RemoteBridge bridge_b(app_b, std::move(wire_b));

    // Assemble the application shape the plan names, then let the plan do
    // the wiring: no hand-written export_route/import_route calls.
    IntSink sink_a;
    auto& node = app_a.create_immortal<core::Component>("N1");
    auto& out = node.add_out_port<core::MyInteger>("out", "MyInteger");
    node.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink_a.add(m.value); });

    EXPECT_THROW(
        remote::apply_remote_plan(plan, "no-such-remote", app_a, bridge_a),
        remote::BridgeError);
    remote::apply_remote_plan(plan, "uplink", app_a, bridge_a);

    IntSink sink_b;
    auto& peer = app_b.create_immortal<core::Component>("Peer");
    auto& peer_out = peer.add_out_port<core::MyInteger>("out", "MyInteger");
    auto& peer_in = peer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(),
        [&](core::MyInteger& m, core::Smm&) { sink_b.add(m.value); });
    bridge_b.import_route("up", peer_in);
    bridge_b.export_route(peer_out, "down");
    bridge_a.start();
    bridge_b.start();

    core::MyInteger* m1 = out.get_message();
    m1->value = 41;
    out.send(m1, 5);
    core::MyInteger* m2 = peer_out.get_message();
    m2->value = 42;
    peer_out.send(m2, 5);
    ASSERT_TRUE(sink_b.wait_for(1));
    ASSERT_TRUE(sink_a.wait_for(1));
    EXPECT_EQ(sink_b.values[0], 41);
    EXPECT_EQ(sink_a.values[0], 42);
}

// ---- wire trace-context propagation (observability plane) ----

TEST_F(BridgeTest, TraceContextCrossesTheWire) {
    // Shift 0: every export is sampled. The handler on the receiving side
    // must observe the same trace id the sender minted, re-installed from
    // the frame's 16-byte trailer.
    obs::Tracer::configure(0);
    obs::Tracer::clear_current();

    core::Application sender_app("t-sender");
    core::Application receiver_app("t-receiver");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge_a(sender_app, std::move(wire_a));
    remote::RemoteBridge bridge_b(receiver_app, std::move(wire_b));

    auto& producer = sender_app.create_immortal<core::Component>("Producer");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    bridge_a.export_route(out, "traced");

    IntSink sink;
    std::mutex ctx_mu;
    std::vector<obs::TraceContext> seen;
    auto& consumer = receiver_app.create_immortal<core::Component>("Consumer");
    auto& in = consumer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(), [&](core::MyInteger& m, core::Smm&) {
            {
                std::lock_guard lk(ctx_mu);
                seen.push_back(obs::Tracer::current());
            }
            sink.add(m.value);
        });
    bridge_b.import_route("traced", in);

    bridge_a.start();
    bridge_b.start();
    sender_app.start();
    receiver_app.start();

    constexpr int kMsgs = 8;
    for (int i = 0; i < kMsgs; ++i) {
        obs::Tracer::clear_current();
        core::MyInteger* msg = out.get_message();
        msg->value = i;
        out.send(msg, 5);
    }
    ASSERT_TRUE(sink.wait_for(kMsgs));
    obs::Tracer::configure(-1);
    obs::Tracer::clear_current();

    std::lock_guard lk(ctx_mu);
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kMsgs));
    std::set<std::uint64_t> ids;
    for (const obs::TraceContext& ctx : seen) {
        EXPECT_TRUE(static_cast<bool>(ctx)) << "handler ran untraced";
        EXPECT_NE(ctx.span_id, 0u);
        ids.insert(ctx.trace_id);
    }
    // Each send started a fresh trace; each crossed intact.
    EXPECT_EQ(ids.size(), static_cast<std::size_t>(kMsgs));
}

TEST_F(BridgeTest, UntracedTrafficCarriesNoContext) {
    obs::Tracer::configure(-1); // tracing off: frames must stay stock GIOP
    core::Application sender_app("u-sender");
    core::Application receiver_app("u-receiver");
    auto [wire_a, wire_b] = net::make_loopback_pair();
    remote::RemoteBridge bridge_a(sender_app, std::move(wire_a));
    remote::RemoteBridge bridge_b(receiver_app, std::move(wire_b));

    auto& producer = sender_app.create_immortal<core::Component>("Producer");
    auto& out = producer.add_out_port<core::MyInteger>("out", "MyInteger");
    bridge_a.export_route(out, "plain");

    IntSink sink;
    std::atomic<std::uint64_t> traced{0};
    auto& consumer = receiver_app.create_immortal<core::Component>("Consumer");
    auto& in = consumer.add_in_port<core::MyInteger>(
        "in", "MyInteger", sync_port(), [&](core::MyInteger& m, core::Smm&) {
            if (obs::Tracer::current()) traced.fetch_add(1);
            sink.add(m.value);
        });
    bridge_b.import_route("plain", in);

    bridge_a.start();
    bridge_b.start();
    sender_app.start();
    receiver_app.start();

    for (int i = 0; i < 5; ++i) {
        core::MyInteger* msg = out.get_message();
        msg->value = i;
        out.send(msg, 5);
    }
    ASSERT_TRUE(sink.wait_for(5));
    EXPECT_EQ(traced.load(), 0u);
    EXPECT_EQ(bridge_b.frames_dropped(), 0u);
}
