// Transports: loopback pair and TCP with GIOP framing.
#include "cdr/giop.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace compadres;

namespace {
std::vector<std::uint8_t> make_frame(std::uint32_t request_id,
                                     std::size_t payload_size) {
    cdr::RequestHeader req;
    req.request_id = request_id;
    req.object_key = "K";
    req.operation = "op";
    std::vector<std::uint8_t> payload(payload_size, 0x5A);
    return cdr::encode_request(req, payload.data(), payload.size());
}
} // namespace

TEST(Loopback, FramesCrossInBothDirections) {
    auto [a, b] = net::make_loopback_pair();
    a->send_frame(make_frame(1, 8));
    b->send_frame(make_frame(2, 8));
    const auto at_b = b->recv_frame();
    const auto at_a = a->recv_frame();
    ASSERT_TRUE(at_b.has_value());
    ASSERT_TRUE(at_a.has_value());
    EXPECT_EQ(cdr::decode_request(at_b->data(), at_b->size()).header.request_id,
              1u);
    EXPECT_EQ(cdr::decode_request(at_a->data(), at_a->size()).header.request_id,
              2u);
}

TEST(Loopback, PreservesFrameBoundariesAndOrder) {
    auto [a, b] = net::make_loopback_pair();
    for (std::uint32_t i = 0; i < 10; ++i) a->send_frame(make_frame(i, 16 + i));
    for (std::uint32_t i = 0; i < 10; ++i) {
        const auto frame = b->recv_frame();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(
            cdr::decode_request(frame->data(), frame->size()).header.request_id,
            i);
    }
}

TEST(Loopback, CloseUnblocksReceiver) {
    auto [a, b] = net::make_loopback_pair();
    std::thread closer([&a = a] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        a->close();
    });
    EXPECT_FALSE(b->recv_frame().has_value());
    closer.join();
}

TEST(Loopback, SendAfterCloseThrows) {
    auto [a, b] = net::make_loopback_pair();
    b->close();
    EXPECT_THROW(a->send_frame(make_frame(1, 4)), net::TransportError);
}

TEST(Loopback, StatsCountFramesBothWaysAndPeerCloseThrows) {
    auto [a, b] = net::make_loopback_pair();
    for (std::uint32_t i = 0; i < 3; ++i) a->send_frame(make_frame(i, 8));
    for (std::uint32_t i = 0; i < 2; ++i) b->send_frame(make_frame(i, 8));
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(b->recv_frame().has_value());
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(a->recv_frame().has_value());

    EXPECT_EQ(a->stats().frames_sent, 3u);
    EXPECT_EQ(a->stats().frames_received, 2u);
    EXPECT_EQ(b->stats().frames_sent, 2u);
    EXPECT_EQ(b->stats().frames_received, 3u);

    b->close();
    try {
        a->send_frame(make_frame(9, 8));
        ADD_FAILURE() << "send after the peer closed did not throw";
    } catch (const net::TransportError& e) {
        EXPECT_STREQ(e.what(), "loopback peer closed");
    }
    // A refused frame is not counted as sent.
    EXPECT_EQ(a->stats().frames_sent, 3u);
}

TEST(Tcp, AcceptorPicksFreePort) {
    net::TcpAcceptor acceptor(0);
    EXPECT_GT(acceptor.bound_port(), 0);
}

TEST(Tcp, ConnectSendReceive) {
    net::TcpAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread(
        [&] { server_side = acceptor.accept(); });
    auto client = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    accept_thread.join();
    ASSERT_NE(server_side, nullptr);

    client->send_frame(make_frame(77, 100));
    const auto got = server_side->recv_frame();
    ASSERT_TRUE(got.has_value());
    const auto decoded = cdr::decode_request(got->data(), got->size());
    EXPECT_EQ(decoded.header.request_id, 77u);
    EXPECT_EQ(decoded.payload_len, 100u);

    // And back.
    cdr::ReplyHeader rep;
    rep.request_id = 77;
    server_side->send_frame(cdr::encode_reply(rep, nullptr, 0));
    const auto reply = client->recv_frame();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(cdr::decode_reply(reply->data(), reply->size()).header.request_id,
              77u);
}

TEST(Tcp, LargeFrameCrossesIntact) {
    net::TcpAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] { server_side = acceptor.accept(); });
    auto client = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    accept_thread.join();

    std::vector<std::uint8_t> payload(512 * 1024);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i);
    }
    cdr::RequestHeader req;
    req.object_key = "big";
    req.operation = "op";
    client->send_frame(cdr::encode_request(req, payload.data(), payload.size()));
    const auto got = server_side->recv_frame();
    ASSERT_TRUE(got.has_value());
    const auto decoded = cdr::decode_request(got->data(), got->size());
    ASSERT_EQ(decoded.payload_len, payload.size());
    EXPECT_EQ(std::memcmp(decoded.payload, payload.data(), payload.size()), 0);
}

TEST(Tcp, PeerCloseYieldsNullopt) {
    net::TcpAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] { server_side = acceptor.accept(); });
    auto client = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    accept_thread.join();
    client->close();
    EXPECT_FALSE(server_side->recv_frame().has_value());
}

TEST(Tcp, ConnectToClosedPortThrows) {
    // Bind-then-close to find a port that is (very likely) not listening.
    std::uint16_t dead_port;
    {
        net::TcpAcceptor a(0);
        dead_port = a.bound_port();
    }
    EXPECT_THROW(net::tcp_connect("127.0.0.1", dead_port), net::TransportError);
}

TEST(Tcp, BadAddressThrows) {
    EXPECT_THROW(net::tcp_connect("not-an-ip", 1234), net::TransportError);
}

TEST(Tcp, ManySequentialRoundTrips) {
    net::TcpAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] { server_side = acceptor.accept(); });
    auto client = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    accept_thread.join();

    std::thread echo([&] {
        for (;;) {
            auto frame = server_side->recv_frame();
            if (!frame.has_value()) return;
            server_side->send_frame(std::move(*frame));
        }
    });
    for (std::uint32_t i = 0; i < 200; ++i) {
        client->send_frame(make_frame(i, 64));
        const auto back = client->recv_frame();
        ASSERT_TRUE(back.has_value());
        ASSERT_EQ(
            cdr::decode_request(back->data(), back->size()).header.request_id,
            i);
    }
    client->close();
    echo.join();
}

namespace {

/// accept() one connection while a client connects; returns both ends.
std::pair<std::unique_ptr<net::Transport>, std::unique_ptr<net::Transport>>
tcp_pair(net::TcpAcceptor& acceptor, const net::TcpOptions& client_options = {}) {
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] { server_side = acceptor.accept(); });
    auto client =
        net::tcp_connect("127.0.0.1", acceptor.bound_port(), client_options);
    accept_thread.join();
    return {std::move(client), std::move(server_side)};
}

} // namespace

TEST(Tcp, OversizedFrameRejectedBeforeAllocation) {
    net::TcpOptions server_options;
    server_options.max_frame_bytes = 1024; // applies to accepted transports
    net::TcpAcceptor acceptor(0, server_options);
    auto [client, server_side] = tcp_pair(acceptor);

    client->send_frame(make_frame(1, 4096));
    EXPECT_THROW(server_side->recv_frame(), net::TransportError);
}

TEST(Tcp, TruncatedMidFrameThrows) {
    net::TcpAcceptor acceptor(0);
    auto [client, server_side] = tcp_pair(acceptor);

    // A header that promises a 100-byte body followed by only 10 bytes;
    // closing the connection leaves the receiver mid-frame.
    cdr::OutputStream out;
    out.write_raw(cdr::GiopHeader::kMagic, 4);
    out.write_octet(1);
    out.write_octet(0);
    out.write_octet(static_cast<std::uint8_t>(cdr::native_order()));
    out.write_octet(static_cast<std::uint8_t>(cdr::GiopMsgType::kRequest));
    out.write_ulong(100);
    for (int i = 0; i < 10; ++i) out.write_octet(0xAB);
    client->send_frame(out.buffer());
    client->close();
    EXPECT_THROW(server_side->recv_frame(), net::TransportError);
}

TEST(Tcp, SendToVanishedPeerThrowsInsteadOfSigpipe) {
    net::TcpAcceptor acceptor(0);
    auto [client, server_side] = tcp_pair(acceptor);

    server_side.reset(); // peer gone; the fd is closed with data unread
    // The first sends land in the socket buffer; once the RST arrives a
    // send must surface as TransportError on this thread. Under the old
    // raw write() path the process would die on SIGPIPE here.
    bool threw = false;
    try {
        for (int i = 0; i < 1000 && !threw; ++i) {
            client->send_frame(make_frame(static_cast<std::uint32_t>(i),
                                          16 * 1024));
        }
    } catch (const net::TransportError&) {
        threw = true;
    }
    EXPECT_TRUE(threw);
}

TEST(Tcp, CoalescerBatchesUnderBurst) {
    // Clamp kernel buffering on both ends: with autotuned buffers the whole
    // burst can vanish into the kernel without any sendmsg ever blocking,
    // and an unblocked coalescer legitimately flushes one frame at a time.
    net::TcpOptions bounded;
    bounded.send_buffer_bytes = 16 * 1024;
    bounded.recv_buffer_bytes = 16 * 1024;
    net::TcpAcceptor acceptor(0, bounded);
    auto [client, server_side] = tcp_pair(acceptor, bounded);

    constexpr int kSenders = 4;
    constexpr int kPerSender = 200;
    constexpr std::size_t kPayload = 4096;
    std::vector<std::thread> senders;
    for (int t = 0; t < kSenders; ++t) {
        senders.emplace_back([&client] {
            for (int i = 0; i < kPerSender; ++i) {
                client->send_frame(make_frame(static_cast<std::uint32_t>(i),
                                              kPayload));
            }
        });
    }
    // A delayed reader lets the socket buffer fill, so senders pile into
    // the intake and drains flush multi-frame batches.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (int i = 0; i < kSenders * kPerSender; ++i) {
        ASSERT_TRUE(server_side->recv_frame().has_value());
    }
    for (auto& s : senders) s.join();

    const net::TransportStats stats = client->stats();
    EXPECT_EQ(stats.frames_sent, static_cast<std::uint64_t>(kSenders) *
                                     kPerSender);
    EXPECT_GE(stats.max_batch_frames, 2u);
    EXPECT_LT(stats.send_syscalls, stats.frames_sent);
    EXPECT_EQ(stats.frames_dropped, 0u);
}

TEST(Tcp, CloseDropsQueuedFramesDeterministically) {
    net::TcpAcceptor acceptor(0);
    auto [client, server_side] = tcp_pair(acceptor);

    // Two senders against a reader that never reads: the first blocks in
    // sendmsg once the socket buffer fills, the second fills the intake.
    std::vector<std::thread> senders;
    for (int t = 0; t < 2; ++t) {
        senders.emplace_back([&client] {
            try {
                for (int i = 0; i < 10'000; ++i) {
                    client->send_frame(
                        make_frame(static_cast<std::uint32_t>(i), 64 * 1024));
                }
            } catch (const net::TransportError&) {
                // expected: close() below fails the in-flight sends
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    client->close(); // must flush-or-drop, never hang
    for (auto& s : senders) s.join();

    const net::TransportStats stats = client->stats();
    EXPECT_GT(stats.frames_dropped, 0u);
}

TEST(Tcp, WriterSurvivesReactorFlipMidSend) {
    // enter_reactor_mode can flip the fd to O_NONBLOCK while a drain is
    // blocked in sendmsg: the next partial-write step then sees EAGAIN.
    // That must park the batch for EPOLLOUT resumption (here stood in for
    // by a polling flusher thread), never poison the transport as a hard
    // send failure.
    net::TcpOptions small;
    small.send_buffer_bytes = 16 * 1024;
    small.recv_buffer_bytes = 16 * 1024;
    net::TcpAcceptor acceptor(0, small);
    auto [client, server_side] = tcp_pair(acceptor, small);

    constexpr int kFrames = 32;
    std::thread sender([&client] {
        for (int i = 0; i < kFrames; ++i) {
            client->send_frame(
                make_frame(static_cast<std::uint32_t>(i), 32 * 1024));
        }
    });
    // Let the sender fill the socket and block inside sendmsg, then flip.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    net::ReactorHook* hook = client->reactor_hook();
    ASSERT_NE(hook, nullptr);
    hook->enter_reactor_mode([] {}); // writability requests polled below
    std::atomic<bool> done{false};
    std::thread flusher([&] {
        while (!done.load()) {
            hook->flush_pending_writes();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });
    for (int i = 0; i < kFrames; ++i) {
        ASSERT_TRUE(server_side->recv_frame().has_value());
    }
    sender.join();
    done.store(true);
    flusher.join();

    // Sent-counter accounting trails the last byte reaching the peer
    // (the flusher bumps it after its sendmsg returns). Poll briefly.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (client->stats().frames_sent <
               static_cast<std::uint64_t>(kFrames) &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const net::TransportStats stats = client->stats();
    EXPECT_EQ(stats.frames_sent, static_cast<std::uint64_t>(kFrames));
    EXPECT_EQ(stats.frames_dropped, 0u);
}
