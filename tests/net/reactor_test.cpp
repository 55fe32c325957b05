// Epoll reactor: frame assembly, EPOLLOUT resumption, fan-in, shutdown.
//
// The reactor's contract lives at the edges: a frame split across TCP
// segments must assemble exactly once, a parked coalescer batch must
// resume on EPOLLOUT without a lost wakeup, EOF mid-frame must close the
// wire (never deliver a partial frame), and deregistration must flush or
// drop-and-count deterministically. Each test drives one edge through
// real sockets.
#include "cdr/giop.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

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

/// accept() one connection while a client connects; returns both ends.
std::pair<std::unique_ptr<net::Transport>, std::unique_ptr<net::Transport>>
tcp_pair(net::TcpAcceptor& acceptor,
         const net::TcpOptions& client_options = {}) {
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] { server_side = acceptor.accept(); });
    auto client =
        net::tcp_connect("127.0.0.1", acceptor.bound_port(), client_options);
    accept_thread.join();
    return {std::move(client), std::move(server_side)};
}

/// Raw O_CLOEXEC-less client socket, for byte-level wire control the
/// Transport API deliberately doesn't expose (partial frames, one-byte
/// trickles).
int raw_connect(std::uint16_t port) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    return fd;
}

/// Counts frames delivered by the reactor and wakes waiters; with
/// `keep` set it also copies out every frame's bytes, in arrival order.
struct FrameSink {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t frames = 0;
    std::size_t bytes = 0;
    bool closed = false;
    bool keep = false;
    std::vector<std::vector<std::uint8_t>> kept;

    net::Reactor::FrameHandler on_frame() {
        return [this](net::FrameBuffer frame) {
            std::lock_guard<std::mutex> lk(mu);
            ++frames;
            bytes += frame.size();
            if (keep) {
                kept.emplace_back(frame.data(), frame.data() + frame.size());
            }
            cv.notify_all();
        };
    }

    net::Reactor::ClosedHandler on_closed() {
        return [this] {
            std::lock_guard<std::mutex> lk(mu);
            closed = true;
            cv.notify_all();
        };
    }

    bool wait_frames(std::size_t n, std::chrono::seconds budget =
                                        std::chrono::seconds(20)) {
        std::unique_lock<std::mutex> lk(mu);
        return cv.wait_for(lk, budget, [&] { return frames >= n; });
    }

    bool wait_closed(std::chrono::seconds budget = std::chrono::seconds(20)) {
        std::unique_lock<std::mutex> lk(mu);
        return cv.wait_for(lk, budget, [&] { return closed; });
    }
};

} // namespace

TEST(Reactor, ThreadCountFromOptionsAndEnv) {
    {
        net::Reactor r(net::ReactorOptions{3});
        EXPECT_EQ(r.thread_count(), 3u);
    }
    ::setenv("COMPADRES_REACTOR_THREADS", "2", 1);
    {
        net::Reactor r; // options.threads == 0 defers to the env var
        EXPECT_EQ(r.thread_count(), 2u);
    }
    ::unsetenv("COMPADRES_REACTOR_THREADS");
    {
        net::Reactor r;
        EXPECT_GE(r.thread_count(), 1u);
        EXPECT_LE(r.thread_count(), 4u);
    }
}

TEST(Reactor, AssemblesFramesFromRegisteredWire) {
    net::TcpAcceptor acceptor(0);
    auto [client, server_side] = tcp_pair(acceptor);

    net::Reactor reactor(net::ReactorOptions{1});
    FrameSink sink;
    reactor.register_wire(*server_side, sink.on_frame(), sink.on_closed());

    for (std::uint32_t i = 0; i < 50; ++i) client->send_frame(make_frame(i, 256));
    ASSERT_TRUE(sink.wait_frames(50));
    EXPECT_EQ(reactor.stats().frames_assembled, 50u);
    EXPECT_EQ(server_side->stats().frames_received, 50u);
}

TEST(Reactor, RoundTripsFramesAndReportsBackend) {
    net::TcpAcceptor acceptor(0);
    auto [client, server_side] = tcp_pair(acceptor);

    net::Reactor reactor(net::ReactorOptions{1});
    EXPECT_STREQ(reactor.backend_name(), "epoll");

    FrameSink sink;
    reactor.register_wire(*server_side, sink.on_frame(), sink.on_closed());
    for (std::uint32_t i = 0; i < 50; ++i) {
        client->send_frame(make_frame(i, 256));
    }
    ASSERT_TRUE(sink.wait_frames(50));

    const net::ReactorStats rs = reactor.stats();
    EXPECT_EQ(rs.frames_assembled, 50u);
    EXPECT_GT(rs.read_syscalls, 0u);
}

TEST(Reactor, LoopThreadEchoRepliesArrive) {
    // The frame handler replies from the loop thread through the corked
    // writer; every echo must come back, in order, through a normal
    // blocking reader.
    net::TcpAcceptor acceptor(0);
    auto [client, server_side] = tcp_pair(acceptor);

    net::Reactor reactor(net::ReactorOptions{1});
    FrameSink sink;
    net::Transport* server = server_side.get();
    reactor.register_wire(
        *server_side,
        [&](net::FrameBuffer frame) {
            {
                std::lock_guard<std::mutex> lk(sink.mu);
                ++sink.frames;
                sink.cv.notify_all();
            }
            server->send_frame(
                std::vector<std::uint8_t>(frame.data(),
                                          frame.data() + frame.size()));
        },
        sink.on_closed());

    constexpr std::uint32_t kFrames = 64;
    for (std::uint32_t i = 0; i < kFrames; ++i) {
        client->send_frame(make_frame(i, 128));
    }
    std::uint32_t next = 0;
    for (std::uint32_t i = 0; i < kFrames; ++i) {
        auto echo = client->recv_frame();
        ASSERT_TRUE(echo.has_value());
        EXPECT_EQ(
            cdr::decode_request(echo->data(), echo->size()).header.request_id,
            next++);
    }
    ASSERT_TRUE(sink.wait_frames(kFrames));
}

TEST(Reactor, AssemblesFrameTrickledOneByteAtATime) {
    // Worst-case segmentation: every recv() returns one byte, so the
    // incremental header/body state machine crosses each boundary.
    net::TcpAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] { server_side = acceptor.accept(); });
    int fd = raw_connect(acceptor.bound_port());
    accept_thread.join();

    net::Reactor reactor(net::ReactorOptions{1});
    FrameSink sink;
    reactor.register_wire(*server_side, sink.on_frame(), sink.on_closed());

    const std::vector<std::uint8_t> frame = make_frame(9, 64);
    for (std::uint8_t byte : frame) {
        ASSERT_EQ(::send(fd, &byte, 1, 0), 1);
    }
    ASSERT_TRUE(sink.wait_frames(1));
    EXPECT_EQ(sink.bytes, frame.size());
    ::close(fd);
    EXPECT_TRUE(sink.wait_closed());
}

TEST(Reactor, EofMidFrameClosesWireWithoutDelivering) {
    net::TcpAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] { server_side = acceptor.accept(); });
    int fd = raw_connect(acceptor.bound_port());
    accept_thread.join();

    net::Reactor reactor(net::ReactorOptions{1});
    FrameSink sink;
    reactor.register_wire(*server_side, sink.on_frame(), sink.on_closed());

    // One complete frame, then a header promising 100 body bytes of which
    // only 10 arrive before EOF.
    const std::vector<std::uint8_t> whole = make_frame(1, 32);
    ASSERT_EQ(::send(fd, whole.data(), whole.size(), 0),
              static_cast<ssize_t>(whole.size()));
    const std::vector<std::uint8_t> partial = make_frame(2, 100);
    ASSERT_EQ(::send(fd, partial.data(), partial.size() - 90, 0),
              static_cast<ssize_t>(partial.size() - 90));
    ::close(fd);

    ASSERT_TRUE(sink.wait_closed());
    EXPECT_EQ(sink.frames, 1u); // the partial never surfaced
    EXPECT_EQ(reactor.stats().wires_closed, 1u);
}

TEST(Reactor, OversizedFrameClosesWire) {
    net::TcpOptions server_options;
    server_options.max_frame_bytes = 1024;
    net::TcpAcceptor acceptor(0, server_options);
    auto [client, server_side] = tcp_pair(acceptor);

    net::Reactor reactor(net::ReactorOptions{1});
    FrameSink sink;
    reactor.register_wire(*server_side, sink.on_frame(), sink.on_closed());

    client->send_frame(make_frame(1, 4096));
    ASSERT_TRUE(sink.wait_closed());
    EXPECT_EQ(sink.frames, 0u);
}

TEST(Reactor, ParkedWriterResumesOnWritable) {
    // Bounded socket buffers + a slow reader force the registered client's
    // coalescer to hit EAGAIN, park, and resume via EPOLLOUT. Every frame
    // must still arrive, in order, and the resumption must be visible in
    // the reactor's writable counter.
    net::TcpOptions bounded;
    bounded.send_buffer_bytes = 16 * 1024;
    bounded.recv_buffer_bytes = 16 * 1024;
    net::TcpAcceptor acceptor(0, bounded);
    auto [client, server_side] = tcp_pair(acceptor, bounded);

    net::Reactor reactor(net::ReactorOptions{1});
    FrameSink sink;
    const std::uint64_t wire =
        reactor.register_wire(*client, sink.on_frame(), sink.on_closed());
    (void)wire;

    constexpr std::uint32_t kFrames = 400;
    constexpr std::size_t kPayload = 4096;
    std::thread sender([&client] {
        for (std::uint32_t i = 0; i < kFrames; ++i) {
            client->send_frame(make_frame(i, kPayload));
        }
    });

    std::uint32_t next = 0;
    for (std::uint32_t i = 0; i < kFrames; ++i) {
        // A sluggish reader early on guarantees the send side backs up.
        if (i < 8) std::this_thread::sleep_for(std::chrono::milliseconds(10));
        auto frame = server_side->recv_frame();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(
            cdr::decode_request(frame->data(), frame->size()).header.request_id,
            next++);
    }
    sender.join();

    // The peer holding all 400 frames does not mean the sent-counter is
    // final: the loop thread bumps it after the batch's sendmsg returns,
    // which can trail the last byte hitting the peer. Poll briefly.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (client->stats().frames_sent < kFrames &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const net::TransportStats stats = client->stats();
    EXPECT_EQ(stats.frames_sent, kFrames);
    EXPECT_EQ(stats.frames_dropped, 0u);
    EXPECT_GE(reactor.stats().writable_events, 1u);
}

TEST(Reactor, LoopThreadReplyUnderBackpressureNeverFreezesTheLoop) {
    // The echo shape against a client that never reads its replies: the
    // handler sends on the same wire it receives from. Once the socket
    // buffer, the parked batch, and the coalescer intake all fill, a
    // loop-thread send that waited for intake space would be waiting on
    // the EPOLLOUT only this very thread can deliver — freezing the loop
    // and every wire on it, forever. The contract instead: the loop keeps
    // pumping inbound frames and un-sendable replies are dropped and
    // counted (stats().frames_dropped).
    net::TcpOptions bounded;
    bounded.send_buffer_bytes = 8 * 1024;
    bounded.recv_buffer_bytes = 8 * 1024;
    bounded.intake_capacity = 4;
    net::TcpAcceptor acceptor(0, bounded);
    auto [client, server_side] = tcp_pair(acceptor, bounded);

    net::Reactor reactor(net::ReactorOptions{1});
    FrameSink sink;
    net::Transport* server = server_side.get();
    const std::uint64_t wire = reactor.register_wire(
        *server_side,
        [&](net::FrameBuffer) {
            {
                std::lock_guard<std::mutex> lk(sink.mu);
                ++sink.frames;
                sink.cv.notify_all();
            }
            server->send_frame(make_frame(0, 4096)); // peer never reads it
        },
        sink.on_closed());

    constexpr std::uint32_t kFrames = 200;
    for (std::uint32_t i = 0; i < kFrames; ++i) {
        client->send_frame(make_frame(i, 64));
    }
    // Pre-fix this deadlocks after a handful of frames and times out.
    ASSERT_TRUE(sink.wait_frames(kFrames));
    EXPECT_GT(server->stats().frames_dropped, 0u);
    reactor.deregister_wire(wire);
}

TEST(Reactor, SpuriousWritableIsCountedAndHarmless) {
    net::TcpAcceptor acceptor(0);
    auto [client, server_side] = tcp_pair(acceptor);

    net::Reactor reactor(net::ReactorOptions{1});
    FrameSink sink;
    const std::uint64_t wire =
        reactor.register_wire(*client, sink.on_frame(), sink.on_closed());

    reactor.poke_writable(wire); // EPOLLOUT with nothing parked
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (reactor.stats().spurious_writables == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(reactor.stats().spurious_writables, 1u);

    // The wire keeps working after the spurious wakeup.
    client->send_frame(make_frame(3, 64));
    auto got = server_side->recv_frame();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(cdr::decode_request(got->data(), got->size()).header.request_id,
              3u);
}

TEST(Reactor, DeregisterFlushesOrDropsPendingOutput) {
    // Satellite of the shutdown contract: a registered wire whose peer
    // stopped reading is deregistered with frames parked in the coalescer.
    // Deregistration must return promptly, flush what the kernel will
    // still take, and count the rest as dropped — bounded socket buffers
    // guarantee a remainder exists.
    net::TcpOptions bounded;
    bounded.send_buffer_bytes = 16 * 1024;
    bounded.recv_buffer_bytes = 16 * 1024;
    net::TcpAcceptor acceptor(0, bounded);
    auto [client, server_side] = tcp_pair(acceptor, bounded);

    net::Reactor reactor(net::ReactorOptions{1});
    FrameSink sink;
    const std::uint64_t wire =
        reactor.register_wire(*client, sink.on_frame(), sink.on_closed());

    std::atomic<bool> stop{false};
    std::thread sender([&] {
        try {
            while (!stop.load()) client->send_frame(make_frame(0, 4096));
        } catch (const net::TransportError&) {
            // close() below fails the in-flight send; expected
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    reactor.deregister_wire(wire); // prompt: flush what fits, drop the rest
    stop.store(true);
    client->close();
    sender.join();

    const net::TransportStats stats = client->stats();
    EXPECT_GT(stats.frames_sent, 0u);
    EXPECT_GT(stats.frames_dropped, 0u);
    reactor.deregister_wire(wire); // unknown id: no-op
}

TEST(Reactor, CloseWhilePeerStillSending) {
    // The inbound direction of the shutdown contract: deregister a wire
    // whose peer is mid-blast. No hang, no crash, no frame delivered after
    // deregistration returns.
    net::TcpAcceptor acceptor(0);
    auto [client, server_side] = tcp_pair(acceptor);

    net::Reactor reactor(net::ReactorOptions{2});
    FrameSink sink;
    const std::uint64_t wire =
        reactor.register_wire(*server_side, sink.on_frame());

    std::atomic<bool> stop{false};
    std::thread sender([&] {
        try {
            while (!stop.load()) client->send_frame(make_frame(0, 1024));
        } catch (const net::TransportError&) {
        }
    });
    ASSERT_TRUE(sink.wait_frames(10)); // traffic is flowing
    reactor.deregister_wire(wire);
    const std::size_t frames_at_deregister = [&] {
        std::lock_guard<std::mutex> lk(sink.mu);
        return sink.frames;
    }();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
        std::lock_guard<std::mutex> lk(sink.mu);
        EXPECT_EQ(sink.frames, frames_at_deregister);
    }
    stop.store(true);
    server_side->close();
    client->close();
    sender.join();
}

TEST(Reactor, StopIsIdempotentAndDeregistersWires) {
    net::TcpAcceptor acceptor(0);
    auto [client, server_side] = tcp_pair(acceptor);

    net::Reactor reactor(net::ReactorOptions{2});
    FrameSink sink;
    reactor.register_wire(*server_side, sink.on_frame(), sink.on_closed());
    client->send_frame(make_frame(1, 64));
    ASSERT_TRUE(sink.wait_frames(1));

    reactor.stop();
    reactor.stop(); // idempotent
    EXPECT_EQ(reactor.stats().wires_registered, 1u);
    // Registration after stop would race a dead pool; deregister of a
    // stopped reactor is a no-op rather than a hang.
    reactor.deregister_wire(12345);
}

TEST(Reactor, FanIn64WiresOverBoundedPool) {
    // The headline shape: 64 client connections funnel into one acceptor,
    // every accepted wire served by a 2-thread reactor pool. All frames
    // from all wires must assemble; resident reader threads stay at 2.
    constexpr int kWires = 64;
    constexpr std::uint32_t kFramesPerWire = 25;
    net::TcpAcceptor acceptor(0);

    std::vector<std::unique_ptr<net::Transport>> servers(kWires);
    std::vector<std::unique_ptr<net::Transport>> clients(kWires);
    std::thread accept_thread([&] {
        for (int i = 0; i < kWires; ++i) servers[i] = acceptor.accept();
    });
    for (int i = 0; i < kWires; ++i) {
        clients[i] = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    }
    accept_thread.join();

    net::Reactor reactor(net::ReactorOptions{2});
    ASSERT_EQ(reactor.thread_count(), 2u);
    FrameSink sink;
    std::vector<std::uint64_t> ids;
    ids.reserve(kWires);
    for (auto& wire : servers) {
        ids.push_back(reactor.register_wire(*wire, sink.on_frame()));
    }
    EXPECT_EQ(reactor.stats().wires_registered,
              static_cast<std::uint64_t>(kWires));

    // 8 sender threads share the 64 client wires (the container may have
    // a single core; thread-per-client would measure scheduler thrash).
    std::vector<std::thread> senders;
    for (int t = 0; t < 8; ++t) {
        senders.emplace_back([&clients, t] {
            for (int w = t; w < kWires; w += 8) {
                for (std::uint32_t i = 0; i < kFramesPerWire; ++i) {
                    clients[w]->send_frame(
                        make_frame(i, 64 + (static_cast<std::size_t>(w) * 7) %
                                          1024));
                }
            }
        });
    }
    for (auto& s : senders) s.join();

    ASSERT_TRUE(sink.wait_frames(static_cast<std::size_t>(kWires) *
                                 kFramesPerWire));
    EXPECT_EQ(reactor.stats().frames_assembled,
              static_cast<std::uint64_t>(kWires) * kFramesPerWire);
    for (std::uint64_t id : ids) reactor.deregister_wire(id);
    for (auto& c : clients) c->close();
}

TEST(Reactor, PriorityBandPinsWireToLoop) {
    // Band pinning is observable indirectly: banded registration must
    // succeed and traffic must flow regardless of which loop owns the
    // wire. (Loop identity itself is private; the contract is band %
    // thread_count assignment, exercised here across both loops.)
    net::TcpAcceptor acceptor(0);
    FrameSink sink;

    std::vector<std::unique_ptr<net::Transport>> servers(4);
    std::vector<std::unique_ptr<net::Transport>> clients(4);
    std::thread accept_thread([&] {
        for (int i = 0; i < 4; ++i) servers[i] = acceptor.accept();
    });
    for (int i = 0; i < 4; ++i) {
        clients[i] = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    }
    accept_thread.join();

    // Declared after the transports: registered wires must not outlive
    // their transport, so the reactor (whose destructor deregisters
    // everything still pinned) has to go down first.
    net::Reactor reactor(net::ReactorOptions{2});

    for (int i = 0; i < 4; ++i) {
        reactor.register_wire(*servers[i], sink.on_frame(), {}, /*band=*/i);
    }
    for (int i = 0; i < 4; ++i) clients[i]->send_frame(make_frame(1, 128));
    ASSERT_TRUE(sink.wait_frames(4));
}

TEST(Reactor, LoopbackTransportHasNoHook) {
    auto [a, b] = net::make_loopback_pair();
    EXPECT_EQ(a->reactor_hook(), nullptr);
    net::Reactor reactor(net::ReactorOptions{1});
    FrameSink sink;
    EXPECT_THROW(reactor.register_wire(*a, sink.on_frame()),
                 net::TransportError);
}

TEST(Reactor, FramesReadAheadByBlockingRecvSurviveRegistration) {
    // One burst of 1 + N frames: the blocking recv_frame of the first
    // reads the other N ahead into the wire's buffer, so the socket holds
    // nothing and no epoll edge will announce them. Registration must
    // still deliver all N, in order.
    net::TcpAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] { server_side = acceptor.accept(); });
    const int fd = raw_connect(acceptor.bound_port());
    accept_thread.join();

    constexpr std::uint32_t kAhead = 20;
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::uint8_t> burst;
    for (std::uint32_t id = 0; id <= kAhead; ++id) {
        frames.push_back(make_frame(id, 64));
        burst.insert(burst.end(), frames.back().begin(), frames.back().end());
    }
    ASSERT_EQ(::write(fd, burst.data(), burst.size()),
              static_cast<ssize_t>(burst.size()));

    auto first = server_side->recv_frame();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(std::vector<std::uint8_t>(first->data(),
                                        first->data() + first->size()),
              frames[0]);

    net::Reactor reactor(net::ReactorOptions{1});
    FrameSink sink;
    sink.keep = true;
    reactor.register_wire(*server_side, sink.on_frame(), sink.on_closed());
    ASSERT_TRUE(sink.wait_frames(kAhead, std::chrono::seconds(5)))
        << sink.frames << " of " << kAhead << " read-ahead frames arrived";
    {
        std::lock_guard<std::mutex> lk(sink.mu);
        EXPECT_EQ(sink.kept,
                  std::vector<std::vector<std::uint8_t>>(frames.begin() + 1,
                                                         frames.end()));
    }
    EXPECT_EQ(reactor.stats().frames_assembled, kAhead);
    EXPECT_EQ(server_side->stats().frames_received, kAhead + 1u);
    reactor.stop();
    ::close(fd);
}

namespace {

/// Seeded stream for the chunk-split test: GIOP frames whose bodies run
/// from 0 bytes through sizes just under, at and over the 16 KiB
/// read-ahead buffer (and twice it), with random content and band bits,
/// plus the chunk sizes the stream is written in.
struct SplitStream {
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::uint8_t> bytes;
    std::vector<std::size_t> chunks;

    explicit SplitStream(std::uint32_t seed) {
        constexpr std::size_t kAhead = 16 * 1024;
        constexpr std::size_t kHeader = cdr::GiopHeader::kSize;
        std::mt19937 rng(seed);
        std::vector<std::size_t> bodies = {
            0, 1, 11, 12, 13, 100,
            kAhead - kHeader - 1, kAhead - kHeader, kAhead - kHeader + 1,
            kAhead - 1, kAhead, kAhead + 1, 2 * kAhead + 7};
        for (int i = 0; i < 24; ++i) bodies.push_back(rng() % (3 * kAhead));
        std::shuffle(bodies.begin(), bodies.end(), rng);
        for (std::size_t i = 0; i < bodies.size(); ++i) {
            std::vector<std::uint8_t> f(kHeader + bodies[i]);
            std::memcpy(f.data(), cdr::GiopHeader::kMagic, 4);
            f[4] = 1;
            f[5] = 0;
            f[cdr::GiopHeader::kFlagsOffset] =
                static_cast<std::uint8_t>(cdr::native_order());
            f[7] = static_cast<std::uint8_t>(cdr::GiopMsgType::kRequest);
            const auto size = static_cast<std::uint32_t>(bodies[i]);
            std::memcpy(f.data() + 8, &size, sizeof size);
            cdr::set_frame_band(f.data(), static_cast<std::uint8_t>(i % 8));
            for (std::size_t b = kHeader; b < f.size(); ++b) {
                f[b] = static_cast<std::uint8_t>(rng());
            }
            bytes.insert(bytes.end(), f.begin(), f.end());
            frames.push_back(std::move(f));
        }
        // A corrupt header after the last frame: bad magic.
        const std::uint8_t corrupt[kHeader] = {'G', 'I', 'O', 'X', 1, 0,
                                               0,   0,   0,   0,   0, 0};
        bytes.insert(bytes.end(), corrupt, corrupt + kHeader);
        for (std::size_t at = 0; at < bytes.size();) {
            // Mostly short chunks that split headers and bodies, some
            // larger than the read-ahead buffer.
            const std::size_t n = rng() % 4 == 0 ? 1 + rng() % (2 * kAhead)
                                                 : 1 + rng() % 64;
            chunks.push_back(std::min(n, bytes.size() - at));
            at += chunks.back();
        }
    }

    /// Write the stream to `fd` chunk by chunk, yielding now and then so
    /// the reader sees the chunks at varying boundaries.
    void write_to(int fd) const {
        std::size_t at = 0;
        for (std::size_t i = 0; i < chunks.size(); ++i) {
            ASSERT_EQ(::send(fd, bytes.data() + at, chunks[i], MSG_NOSIGNAL),
                      static_cast<ssize_t>(chunks[i]));
            at += chunks[i];
            if (i % 16 == 0) std::this_thread::yield();
        }
    }
};

} // namespace

TEST(FrameAssembly, SeededChunkSplitsYieldIdenticalFramesOnBothDrivers) {
    // The wire's one frame assembler, driven both ways over the same
    // seeded stream: blocking recv_frame and the reactor's pump must cut
    // out byte-identical frames in order, and both must fail closed on
    // the corrupt header that ends the stream. Short tier-1 budget: a
    // few seeds; the seed is in every failure message.
    constexpr std::uint32_t kSeeds = 3;
    for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const SplitStream stream(seed);
        const std::size_t n = stream.frames.size();
        net::TcpAcceptor acceptor(0);

        {   // Blocking driver.
            std::unique_ptr<net::Transport> server_side;
            std::thread accept_thread([&] { server_side = acceptor.accept(); });
            const int fd = raw_connect(acceptor.bound_port());
            accept_thread.join();
            std::thread writer([&] { stream.write_to(fd); });
            std::vector<std::vector<std::uint8_t>> got;
            for (std::size_t i = 0; i < n; ++i) {
                auto f = server_side->recv_frame();
                if (!f) break; // the comparison below reports the loss
                got.emplace_back(f->data(), f->data() + f->size());
            }
            if (got.size() == n) {
                EXPECT_THROW(server_side->recv_frame(), net::TransportError);
            }
            server_side->close(); // a writer stuck on a failed read ends
            writer.join();
            EXPECT_EQ(got, stream.frames);
            EXPECT_EQ(server_side->stats().frames_received, n);
            ::close(fd);
        }

        {   // Reactor driver.
            std::unique_ptr<net::Transport> server_side;
            std::thread accept_thread([&] { server_side = acceptor.accept(); });
            const int fd = raw_connect(acceptor.bound_port());
            accept_thread.join();
            net::Reactor reactor(net::ReactorOptions{1});
            FrameSink sink;
            sink.keep = true;
            reactor.register_wire(*server_side, sink.on_frame(),
                                  sink.on_closed());
            std::thread writer([&] { stream.write_to(fd); });
            writer.join();
            ASSERT_TRUE(sink.wait_closed());
            {
                std::lock_guard<std::mutex> lk(sink.mu);
                EXPECT_EQ(sink.kept, stream.frames);
            }
            const net::ReactorStats rs = reactor.stats();
            EXPECT_EQ(rs.frames_assembled, n);
            EXPECT_EQ(rs.wires_closed, 1u);
            EXPECT_EQ(server_side->stats().frames_received, n);
            reactor.stop();
            ::close(fd);
        }
    }
}
