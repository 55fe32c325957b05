// Compadres ORB end-to-end: the Fig. 10 component structure carrying real
// GIOP traffic over loopback and TCP.
#include "orb/client_orb.hpp"
#include "orb/server_orb.hpp"

#include "cdr/giop.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace compadres;

namespace {

orb::Servant echo_servant() {
    return [](const std::string&, const std::uint8_t* payload, std::size_t len,
              std::vector<std::uint8_t>& reply) {
        reply.assign(payload, payload + len);
        return true;
    };
}

/// Wires a ServerOrb and ClientOrb across an in-process loopback.
struct LoopbackPair {
    orb::ServerOrb server;
    std::unique_ptr<orb::ClientOrb> client;

    LoopbackPair() {
        auto [client_wire, server_wire] = net::make_loopback_pair();
        server.attach(std::move(server_wire));
        client = std::make_unique<orb::ClientOrb>(std::move(client_wire));
    }
};

/// Reads one request frame off a hand-driven server wire; returns its id.
std::uint32_t read_request_id(net::Transport& server_wire) {
    const auto frame = server_wire.recv_frame();
    if (!frame.has_value()) throw std::runtime_error("request wire closed");
    return cdr::decode_request(frame->data(), frame->size()).header.request_id;
}

/// Sends a NO_EXCEPTION Reply for `id` carrying `payload`.
void send_reply(net::Transport& server_wire, std::uint32_t id,
                std::vector<std::uint8_t> payload) {
    cdr::ReplyHeader header;
    header.request_id = id;
    server_wire.send_frame(
        cdr::encode_reply(header, payload.data(), payload.size()));
}

} // namespace

TEST(CompadresOrb, EchoRoundTrip) {
    LoopbackPair pair;
    pair.server.register_servant("Echo", echo_servant());
    const std::uint8_t payload[] = {10, 20, 30};
    const auto reply =
        pair.client->invoke("Echo", "echo", payload, sizeof(payload));
    EXPECT_EQ(reply, std::vector<std::uint8_t>({10, 20, 30}));
}

TEST(CompadresOrb, ComponentStructureMatchesFig10) {
    LoopbackPair pair;
    // Client: Orb (immortal) > Transport (L1) > MessageProcessing (L2).
    auto& capp = pair.client->application();
    EXPECT_EQ(capp.component("Orb").level(), 0);
    EXPECT_EQ(capp.component("Transport").level(), 1);
    EXPECT_EQ(capp.component("MessageProcessing").level(), 2);
    EXPECT_EQ(capp.component("Transport").parent(), &capp.component("Orb"));
    EXPECT_EQ(capp.component("MessageProcessing").parent(),
              &capp.component("Transport"));
    // Server: Orb > POA (L1) > Transport (L2) > RequestProcessing (L3).
    auto& sapp = pair.server.application();
    EXPECT_EQ(sapp.component("Poa").level(), 1);
    EXPECT_EQ(sapp.component("ServerTransport").level(), 2);
    EXPECT_EQ(sapp.component("RequestProcessing").level(), 3);
}

TEST(CompadresOrb, CalculatorServantDispatchesByOperation) {
    LoopbackPair pair;
    pair.server.register_servant(
        "Calc", [](const std::string& op, const std::uint8_t* payload,
                   std::size_t len, std::vector<std::uint8_t>& reply) {
            if (len != 2) return false;
            std::uint8_t result = 0;
            if (op == "add") result = payload[0] + payload[1];
            else if (op == "mul") result = payload[0] * payload[1];
            else return false;
            reply.push_back(result);
            return true;
        });
    const std::uint8_t args[] = {6, 7};
    EXPECT_EQ(pair.client->invoke("Calc", "add", args, 2).at(0), 13);
    EXPECT_EQ(pair.client->invoke("Calc", "mul", args, 2).at(0), 42);
}

TEST(CompadresOrb, UnknownObjectKeyRaisesOrbError) {
    LoopbackPair pair;
    const std::uint8_t payload[] = {1};
    EXPECT_THROW(pair.client->invoke("NoSuchObject", "op", payload, 1),
                 orb::OrbError);
}

TEST(CompadresOrb, UserExceptionSurfacesAsOrbError) {
    LoopbackPair pair;
    pair.server.register_servant(
        "Failing", [](const std::string&, const std::uint8_t*, std::size_t,
                      std::vector<std::uint8_t>&) { return false; });
    const std::uint8_t payload[] = {1};
    EXPECT_THROW(pair.client->invoke("Failing", "op", payload, 1),
                 orb::OrbError);
}

TEST(CompadresOrb, OrbRecoversAfterFailedInvocation) {
    LoopbackPair pair;
    pair.server.register_servant("Echo", echo_servant());
    const std::uint8_t payload[] = {5};
    EXPECT_THROW(pair.client->invoke("Ghost", "op", payload, 1), orb::OrbError);
    EXPECT_EQ(pair.client->invoke("Echo", "echo", payload, 1).at(0), 5);
}

TEST(CompadresOrb, SequentialRequestsKeepCorrelation) {
    LoopbackPair pair;
    pair.server.register_servant("Echo", echo_servant());
    for (std::uint8_t i = 0; i < 100; ++i) {
        const std::uint8_t payload[] = {i};
        const auto reply = pair.client->invoke("Echo", "echo", payload, 1);
        ASSERT_EQ(reply.at(0), i);
    }
}

TEST(CompadresOrb, PayloadSizesUpToFig11Maximum) {
    LoopbackPair pair;
    pair.server.register_servant("Echo", echo_servant());
    for (const std::size_t size : {32u, 64u, 128u, 256u, 512u, 1024u}) {
        std::vector<std::uint8_t> payload(size);
        for (std::size_t i = 0; i < size; ++i) {
            payload[i] = static_cast<std::uint8_t>(i * 7);
        }
        const auto reply =
            pair.client->invoke("Echo", "echo", payload.data(), size);
        ASSERT_EQ(reply, payload) << "size " << size;
    }
}

TEST(CompadresOrb, OversizedPayloadRejectedClientSide) {
    LoopbackPair pair;
    std::vector<std::uint8_t> huge(orb::OrbRequest::kPayloadCapacity + 1);
    EXPECT_THROW(pair.client->invoke("Echo", "echo", huge.data(), huge.size()),
                 orb::OrbError);
}

TEST(CompadresOrb, WorksOverRealTcp) {
    net::TcpAcceptor acceptor(0);
    orb::ServerOrb server;
    server.register_servant("Echo", echo_servant());
    std::thread accept_thread([&] {
        auto conn = acceptor.accept();
        ASSERT_NE(conn, nullptr);
        server.attach(std::move(conn));
    });
    auto wire = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    accept_thread.join();
    orb::ClientOrb client(std::move(wire));
    const std::uint8_t payload[] = {0xAA, 0xBB};
    EXPECT_EQ(client.invoke("Echo", "echo", payload, 2),
              std::vector<std::uint8_t>({0xAA, 0xBB}));
}

TEST(CompadresOrb, TwoClientsOneServer) {
    orb::ServerOrb server;
    server.register_servant("Echo", echo_servant());
    auto [wire_a_client, wire_a_server] = net::make_loopback_pair();
    auto [wire_b_client, wire_b_server] = net::make_loopback_pair();
    server.attach(std::move(wire_a_server));
    server.attach(std::move(wire_b_server));
    orb::ClientOrb client_a(std::move(wire_a_client));
    orb::ClientOrb client_b(std::move(wire_b_client));
    for (std::uint8_t i = 0; i < 20; ++i) {
        const std::uint8_t pa[] = {static_cast<std::uint8_t>(i)};
        const std::uint8_t pb[] = {static_cast<std::uint8_t>(100 + i)};
        ASSERT_EQ(client_a.invoke("Echo", "echo", pa, 1).at(0), i);
        ASSERT_EQ(client_b.invoke("Echo", "echo", pb, 1).at(0), 100 + i);
    }
}

TEST(CompadresOrb, CleanShutdownWhileIdle) {
    LoopbackPair pair;
    pair.server.register_servant("Echo", echo_servant());
    const std::uint8_t payload[] = {1};
    pair.client->invoke("Echo", "echo", payload, 1);
    pair.server.shutdown(); // must not hang or crash
}

TEST(CompadresOrb, OnewayInvocationDeliversWithoutReply) {
    LoopbackPair pair;
    std::mutex mu;
    std::condition_variable cv;
    int calls = 0;
    pair.server.register_servant(
        "Logger", [&](const std::string&, const std::uint8_t*, std::size_t,
                      std::vector<std::uint8_t>&) {
            // Notify under the mutex: the waiting test body owns mu/cv on
            // its stack and may destroy them as soon as it sees the count.
            std::lock_guard lk(mu);
            ++calls;
            cv.notify_all();
            return true;
        });
    const std::uint8_t payload[] = {1, 2};
    for (int i = 0; i < 5; ++i) {
        pair.client->invoke_oneway("Logger", "log", payload, 2);
    }
    std::unique_lock lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::milliseconds(2000),
                            [&] { return calls >= 5; }));
    EXPECT_EQ(calls, 5);
}

TEST(CompadresOrb, OnewayThenTwowayStaysCorrelated) {
    LoopbackPair pair;
    pair.server.register_servant("Echo", echo_servant());
    pair.server.register_servant(
        "Sink", [](const std::string&, const std::uint8_t*, std::size_t,
                   std::vector<std::uint8_t>&) { return true; });
    const std::uint8_t payload[] = {42};
    pair.client->invoke_oneway("Sink", "drop", payload, 1);
    // The two-way call right after must get ITS reply, not confusion from
    // the oneway (which produced no reply frame at all).
    EXPECT_EQ(pair.client->invoke("Echo", "echo", payload, 1).at(0), 42);
}

TEST(CompadresOrb, InvokeWithinMeetsDeadlineNormally) {
    LoopbackPair pair;
    pair.server.register_servant("Echo", echo_servant());
    const std::uint8_t payload[] = {7};
    const auto reply = pair.client->invoke_within(
        "Echo", "echo", payload, 1, std::chrono::milliseconds(2000));
    EXPECT_EQ(reply.at(0), 7);
}

TEST(CompadresOrb, InvokeWithinTimesOutWhenNoServer) {
    // A wire whose peer never reads or replies: the deadline must fire and
    // surface as OrbTimeout, and teardown must stay clean.
    auto [client_wire, server_wire] = net::make_loopback_pair();
    orb::ClientOrb client(std::move(client_wire));
    const std::uint8_t payload[] = {1};
    EXPECT_THROW(client.invoke_within("Echo", "echo", payload, 1,
                                      std::chrono::milliseconds(100)),
                 orb::OrbTimeout);
    server_wire->close(); // unblocks the pipeline's pending recv
}

TEST(CompadresOrb, LateReplyAfterTimeoutIsAbsorbed) {
    // Server replies slower than the deadline; the late reply must not
    // corrupt the next invocation.
    LoopbackPair pair;
    pair.server.register_servant(
        "Slow", [](const std::string&, const std::uint8_t* p, std::size_t n,
                   std::vector<std::uint8_t>& reply) {
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            reply.assign(p, p + n);
            return true;
        });
    pair.server.register_servant("Echo", echo_servant());
    const std::uint8_t payload[] = {9};
    EXPECT_THROW(pair.client->invoke_within("Slow", "op", payload, 1,
                                            std::chrono::milliseconds(50)),
                 orb::OrbTimeout);
    // After the slow reply drains, a normal call works and is correlated.
    const auto reply = pair.client->invoke("Echo", "echo", payload, 1);
    EXPECT_EQ(reply.at(0), 9);
}

TEST(CompadresOrb, DestructionWithStuckRequestDoesNotHang) {
    auto [client_wire, server_wire] = net::make_loopback_pair();
    {
        orb::ClientOrb client(std::move(client_wire));
        const std::uint8_t payload[] = {1};
        EXPECT_THROW(client.invoke_within("Echo", "echo", payload, 1,
                                          std::chrono::milliseconds(50)),
                     orb::OrbTimeout);
        // The client is destroyed with the request still unanswered; its
        // destructor must close the wire and tear down without hanging.
    }
    SUCCEED();
}

TEST(CompadresOrb, PingReportsObjectPresence) {
    LoopbackPair pair;
    pair.server.register_servant("Echo", echo_servant());
    EXPECT_TRUE(pair.client->ping("Echo"));
    EXPECT_FALSE(pair.client->ping("Ghost"));
    // Invocations still work after probes (correlation intact).
    const std::uint8_t payload[] = {4};
    EXPECT_EQ(pair.client->invoke("Echo", "echo", payload, 1).at(0), 4);
}

TEST(CompadresOrb, StrayReplyDoesNotCompleteTheWrongCall) {
    // The peer first answers a request id nobody sent; the reader drops
    // that reply and the caller gets the one carrying its own id.
    auto [client_wire, server_wire] = net::make_loopback_pair();
    orb::ClientOrb client(std::move(client_wire));
    std::thread peer([&wire = *server_wire] {
        const std::uint32_t id = read_request_id(wire);
        send_reply(wire, id + 1000, {0xEE});
        send_reply(wire, id, {0x11});
    });
    const std::uint8_t payload[] = {0x11};
    std::vector<std::uint8_t> reply;
    EXPECT_NO_THROW(reply = client.invoke("Echo", "echo", payload, 1));
    peer.join();
    EXPECT_EQ(reply, std::vector<std::uint8_t>({0x11}));
    // The connection stays usable: the next call is correlated too.
    std::thread peer2([&wire = *server_wire] {
        send_reply(wire, read_request_id(wire), {0x22});
    });
    EXPECT_NO_THROW(reply = client.invoke("Echo", "echo", payload, 1));
    peer2.join();
    EXPECT_EQ(reply, std::vector<std::uint8_t>({0x22}));
}

TEST(CompadresOrb, PeerCloseFailsInvokeWithoutDeadline) {
    // The peer reads the request and hangs up: invoke() with no deadline
    // must surface the closed connection instead of waiting forever, and
    // later calls fail at once.
    auto [client_wire, server_wire] = net::make_loopback_pair();
    orb::ClientOrb client(std::move(client_wire));
    std::thread peer([&wire = *server_wire] {
        read_request_id(wire);
        wire.close();
    });
    const std::uint8_t payload[] = {1};
    EXPECT_THROW(client.invoke("Echo", "echo", payload, 1), orb::OrbError);
    peer.join();
    EXPECT_THROW(client.invoke("Echo", "echo", payload, 1), orb::OrbError);
    EXPECT_THROW(client.ping("Echo"), orb::OrbError);
}

TEST(CompadresOrb, LateRepliesBeyondPendingCapacityAreDropped) {
    // More timed-out calls than the pending table holds: the oldest
    // entries are evicted, every late reply (evicted or not) is absorbed,
    // and a normal call afterwards still gets its own reply.
    auto [client_wire, server_wire] = net::make_loopback_pair();
    orb::ClientOrb client(std::move(client_wire));
    constexpr int kTimeouts = 40;
    const std::uint8_t payload[] = {3};
    for (int i = 0; i < kTimeouts; ++i) {
        EXPECT_THROW(client.invoke_within("Echo", "echo", payload, 1,
                                          std::chrono::milliseconds(1)),
                     orb::OrbTimeout);
    }
    std::thread peer([&wire = *server_wire] {
        std::vector<std::uint32_t> ids;
        for (int i = 0; i < kTimeouts; ++i) ids.push_back(read_request_id(wire));
        for (const std::uint32_t id : ids) send_reply(wire, id, {0xEE});
        send_reply(wire, read_request_id(wire), {0x33});
    });
    std::vector<std::uint8_t> reply;
    EXPECT_NO_THROW(reply = client.invoke("Echo", "echo", payload, 1));
    peer.join();
    EXPECT_EQ(reply, std::vector<std::uint8_t>({0x33}));
}

TEST(CompadresOrb, RequestPathPortsRunOnTheCallersThread) {
    // Client Transport.fromOrb, MessageProcessing.request and server
    // RequestProcessing.request are synchronous (pool size 0); the
    // POA -> ServerTransport hop keeps its worker so servants never run
    // on the reactor loop.
    LoopbackPair pair;
    auto& capp = pair.client->application();
    auto& sapp = pair.server.application();
    EXPECT_EQ(capp.component("Transport").find_in_port("fromOrb")->dispatcher(),
              nullptr);
    EXPECT_EQ(
        capp.component("MessageProcessing").find_in_port("request")->dispatcher(),
        nullptr);
    EXPECT_EQ(
        sapp.component("RequestProcessing").find_in_port("request")->dispatcher(),
        nullptr);
    EXPECT_NE(
        sapp.component("ServerTransport").find_in_port("fromPoa")->dispatcher(),
        nullptr);
}

TEST(CompadresOrb, ClientWireIsNotRegisteredWithTheReactor) {
    // The client's reply reader owns the wire's receive side; registering
    // the wire with the reactor would move replies off recv_frame.
    net::TcpAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] { server_side = acceptor.accept(); });
    auto wire = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    accept_thread.join();
    ASSERT_NE(server_side, nullptr);
    const std::uint64_t before = net::Reactor::shared().stats().wires_registered;
    {
        orb::ClientOrb client(std::move(wire));
        EXPECT_EQ(net::Reactor::shared().stats().wires_registered, before);
    }
    EXPECT_EQ(net::Reactor::shared().stats().wires_registered, before);
}
