// ShmTransport: segment lifecycle, the compadres.shm handshake with its
// fallback ladder, ring backpressure, and the zero-loss failover seam.
#include "cdr/giop.hpp"
#include "net/shm_transport.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "remote/remote_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <optional>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace compadres;

// fork-based tests (peer kill, orphan reclaim) are meaningless under the
// sanitizer runtimes, which do not survive fork+threads.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define COMPADRES_UNDER_SANITIZER 1
#endif
#if !defined(COMPADRES_UNDER_SANITIZER) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define COMPADRES_UNDER_SANITIZER 1
#endif
#endif
#ifndef COMPADRES_UNDER_SANITIZER
#define COMPADRES_UNDER_SANITIZER 0
#endif

namespace {

std::vector<std::uint8_t> data_frame(std::uint32_t seq,
                                     std::size_t payload_size = 32) {
    cdr::RequestHeader req;
    req.request_id = seq;
    req.object_key = "K";
    req.operation = "op";
    std::vector<std::uint8_t> payload(payload_size, 0x5A);
    return cdr::encode_request(req, payload.data(), payload.size());
}

std::uint32_t frame_seq(const net::FrameBuffer& f) {
    return cdr::decode_request(f.data(), f.size()).header.request_id;
}

std::vector<std::uint8_t> band_frame(std::uint32_t seq, std::uint8_t band,
                                     std::size_t payload_size = 32) {
    std::vector<std::uint8_t> f = data_frame(seq, payload_size);
    cdr::set_frame_band(f.data(), band);
    return f;
}

/// The client half of the compadres.shm hello, built by hand so tests can
/// claim arbitrary versions and generations.
std::vector<std::uint8_t> hello_frame(const std::string& segment,
                                      std::uint64_t generation,
                                      std::uint32_t version) {
    cdr::RequestHeader req;
    req.request_id = 1;
    req.object_key = "compadres.shm";
    req.operation = "hello";
    cdr::OutputStream payload;
    payload.write_string(segment);
    payload.write_ulonglong(generation);
    payload.write_ulong(version);
    const std::vector<std::uint8_t> bytes = payload.take_buffer();
    return cdr::encode_request(req, bytes.data(), bytes.size());
}

struct HelloReply {
    bool ok = false;
    std::string detail;
};

HelloReply read_reply(net::Transport& wire) {
    const auto frame = wire.recv_frame();
    if (!frame.has_value()) return {};
    const cdr::DecodedReply rep = cdr::decode_reply(frame->data(),
                                                    frame->size());
    cdr::InputStream in(
        rep.payload, rep.payload_len,
        cdr::decode_header(frame->data(), frame->size()).byte_order);
    HelloReply r;
    r.ok = in.read_ulong() != 0;
    r.detail = in.read_string();
    return r;
}

struct NegotiatedPair {
    std::unique_ptr<net::Transport> client;
    std::unique_ptr<net::Transport> server;
    bool client_shm = false;
    bool server_shm = false;
    std::string detail;
};

NegotiatedPair negotiate(const net::ShmOptions& opts) {
    net::ShmAcceptor acceptor(0, opts);
    NegotiatedPair pair;
    std::thread accept_thread([&] {
        net::ShmConnectResult r = acceptor.accept();
        pair.server = std::move(r.transport);
        pair.server_shm = r.shm;
    });
    net::ShmConnectResult r =
        net::shm_upgrade_connect("127.0.0.1", acceptor.bound_port(), opts);
    accept_thread.join();
    pair.client = std::move(r.transport);
    pair.client_shm = r.shm;
    pair.detail = std::move(r.detail);
    return pair;
}

} // namespace

TEST(ShmHandshake, UpgradesCoLocatedPair) {
    NegotiatedPair pair = negotiate({});
    ASSERT_TRUE(pair.client_shm);
    ASSERT_TRUE(pair.server_shm);
    EXPECT_NE(pair.detail.find("segment"), std::string::npos);

    pair.client->send_frame(data_frame(7));
    pair.server->send_frame(data_frame(9));
    const auto at_server = pair.server->recv_frame();
    const auto at_client = pair.client->recv_frame();
    ASSERT_TRUE(at_server.has_value());
    ASSERT_TRUE(at_client.has_value());
    EXPECT_EQ(frame_seq(*at_server), 7u);
    EXPECT_EQ(frame_seq(*at_client), 9u);

    auto* shm = dynamic_cast<net::ShmTransport*>(pair.client.get());
    ASSERT_NE(shm, nullptr);
    EXPECT_TRUE(shm->shm_active());
    EXPECT_EQ(shm->counters().shm_frames_sent, 1u);
    EXPECT_EQ(shm->counters().shm_frames_received, 1u);
    EXPECT_EQ(shm->counters().tcp_frames_sent, 0u);

    pair.client->close();
    EXPECT_FALSE(pair.server->recv_frame().has_value());
}

TEST(ShmHandshake, ProtocolUnawareClientKeepsPlainTcpAndItsFirstFrame) {
    net::ShmAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server;
    bool server_shm = true;
    std::string detail;
    std::thread accept_thread([&] {
        net::ShmConnectResult r = acceptor.accept();
        server = std::move(r.transport);
        server_shm = r.shm;
        detail = std::move(r.detail);
    });
    auto client = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    client->send_frame(data_frame(42));
    accept_thread.join();

    EXPECT_FALSE(server_shm);
    EXPECT_NE(detail.find("no shm hello"), std::string::npos);
    // The frame that was mistaken for a hello is re-queued, not lost.
    const auto first = server->recv_frame();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(frame_seq(*first), 42u);
    server->send_frame(data_frame(43));
    const auto back = client->recv_frame();
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(frame_seq(*back), 43u);
}

TEST(ShmHandshake, NacksVersionMismatch) {
    auto seg = net::ShmSegment::create({});
    net::ShmAcceptor acceptor(0);
    net::ShmConnectResult server;
    std::thread accept_thread(
        [&] { server = acceptor.accept(); });
    auto client = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    client->send_frame(hello_frame(seg->name(), seg->generation(), 99));
    const HelloReply reply = read_reply(*client);
    accept_thread.join();

    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.detail.find("version mismatch"), std::string::npos);
    EXPECT_FALSE(server.shm);
    EXPECT_NE(server.detail.find("version mismatch"), std::string::npos);
}

TEST(ShmHandshake, NacksStaleGeneration) {
    auto seg = net::ShmSegment::create({});
    net::ShmAcceptor acceptor(0);
    net::ShmConnectResult server;
    std::thread accept_thread(
        [&] { server = acceptor.accept(); });
    auto client = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    client->send_frame(hello_frame(seg->name(), seg->generation() + 1,
                                   net::shm_detail::kVersion));
    const HelloReply reply = read_reply(*client);
    accept_thread.join();

    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.detail.find("stale generation"), std::string::npos);
    EXPECT_FALSE(server.shm);
}

TEST(ShmHandshake, NacksWhenClientCouldNotCreateASegment) {
    net::ShmAcceptor acceptor(0);
    net::ShmConnectResult server;
    std::thread accept_thread(
        [&] { server = acceptor.accept(); });
    auto client = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    client->send_frame(
        hello_frame(std::string(), 0, net::shm_detail::kVersion));
    const HelloReply reply = read_reply(*client);
    accept_thread.join();

    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.detail.find("could not create"), std::string::npos);
    EXPECT_FALSE(server.shm);
    // Both ends hold a plain TCP wire that still moves frames.
    client->send_frame(data_frame(5));
    const auto f = server.transport->recv_frame();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(frame_seq(*f), 5u);
}

TEST(ShmHandshake, NacksSegmentNameOutsideThePrefixBeforeOpeningIt) {
    // Names no compadres creator makes: a foreign shm object the acceptor
    // could open and map (an unchecked name reads "bad magic" only after
    // mapping it), and a right-prefixed name longer than the creator's
    // buffer. Both must be refused on the name alone.
    const std::string foreign = "/cpdtest." + std::to_string(getpid());
    const int fd = shm_open(foreign.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    ASSERT_GE(fd, 0) << std::strerror(errno);
    const std::size_t bytes =
        std::max<std::size_t>(4096, sizeof(net::shm_detail::SegHeader));
    struct Unlink {
        std::string name;
        ~Unlink() { shm_unlink(name.c_str()); }
    } unlink_foreign{foreign};
    ASSERT_EQ(ftruncate(fd, static_cast<off_t>(bytes)), 0);
    ::close(fd);
    const std::string overlong =
        net::shm_detail::kNamePrefix + std::string(200, 'x');

    for (const std::string& name : {foreign, overlong}) {
        net::ShmAcceptor acceptor(0);
        net::ShmConnectResult server;
        std::thread accept_thread([&] { server = acceptor.accept(); });
        auto client = net::tcp_connect("127.0.0.1", acceptor.bound_port());
        client->send_frame(hello_frame(name, 1, net::shm_detail::kVersion));
        const HelloReply reply = read_reply(*client);
        accept_thread.join();

        EXPECT_FALSE(reply.ok);
        EXPECT_FALSE(server.shm);
        EXPECT_EQ(acceptor.handshakes_refused(), 1u);
        EXPECT_NE(obs::MetricsRegistry::global().prometheus_text().find(
                      "net_shm_acceptor_" +
                      std::to_string(acceptor.bound_port()) +
                      "_handshakes_refused 1\n"),
                  std::string::npos);
        EXPECT_NE(server.detail.find("hello names a segment outside"),
                  std::string::npos)
            << server.detail;
        EXPECT_NE(reply.detail.find(name.substr(0, 64)), std::string::npos)
            << reply.detail;
        // The acceptor fell back to the plain TCP wire, which still works.
        ASSERT_NE(server.transport, nullptr);
        client->send_frame(data_frame(6));
        const auto f = server.transport->recv_frame();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(frame_seq(*f), 6u);
    }
}

TEST(ShmSegment, RejectsDoubleAttach) {
    auto seg = net::ShmSegment::create({});
    auto first = net::ShmSegment::attach(seg->name(), seg->generation());
    ASSERT_NE(first, nullptr);
    try {
        net::ShmSegment::attach(seg->name(), seg->generation());
        FAIL() << "second attach should throw";
    } catch (const net::TransportError& e) {
        EXPECT_NE(std::string(e.what()).find("already attached"),
                  std::string::npos);
    }
    // The rejected attach held no side: the live attacher's flag survives
    // and the segment name is still there to open.
    EXPECT_EQ(seg->header().attached[1].load(), 1u);
    const int fd = shm_open(seg->name().c_str(), O_RDWR, 0);
    EXPECT_GE(fd, 0);
    if (fd >= 0) ::close(fd);
}

namespace {

/// Create a 512-slot, 4 KiB-arena segment, let `corrupt` rewrite its
/// header as a hostile creator could, and return the attach error.
template <typename Corrupt>
std::string attach_error_after(Corrupt corrupt) {
    net::ShmOptions opts;
    opts.ring_capacity = 512;
    opts.arena_bytes = 4096;
    auto seg = net::ShmSegment::create(opts);
    corrupt(seg->header());
    try {
        net::ShmSegment::attach(seg->name(), seg->generation());
    } catch (const net::TransportError& e) {
        return e.what();
    }
    return "attached";
}

} // namespace

TEST(ShmSegment, RejectsCorruptGeometry) {
    // A zero arena with the ring doubled keeps the segment size exact
    // (512 extra 8-byte slots per direction replace the 4 KiB arena).
    const std::string zero_arena =
        attach_error_after([](net::shm_detail::SegHeader& h) {
            h.ring_capacity = 1024;
            h.arena_bytes = 0;
        });
    EXPECT_NE(zero_arena.find("geometry corrupt"), std::string::npos)
        << zero_arena;
    // A frame bound no arena can hold.
    const std::string oversized_frame =
        attach_error_after([](net::shm_detail::SegHeader& h) {
            h.max_frame_bytes = 4 * h.arena_bytes;
        });
    EXPECT_NE(oversized_frame.find("geometry corrupt"), std::string::npos)
        << oversized_frame;
}

TEST(ShmSegment, AttachReportsMissingSegmentAsCrossHost) {
    try {
        net::ShmSegment::attach("/compadres.0.0.nonexistent", 1);
        FAIL() << "attach to a missing name should throw";
    } catch (const net::TransportError& e) {
        EXPECT_NE(std::string(e.what()).find("cross-host"),
                  std::string::npos);
    }
}

TEST(ShmTransport, FullRingBackpressureBlocksThenDrains) {
    net::ShmOptions opts;
    opts.ring_capacity = 4;
    opts.wait_cycle_us = 2000;
    NegotiatedPair pair = negotiate(opts);
    ASSERT_TRUE(pair.client_shm);

    constexpr std::uint32_t kCount = 32;
    std::atomic<std::uint32_t> sent{0};
    std::thread sender([&] {
        for (std::uint32_t i = 0; i < kCount; ++i) {
            net::FrameBuffer fb = pair.client->frame_pool().adopt(
                data_frame(i));
            pair.client->send_frame(std::move(fb));
            sent.fetch_add(1);
        }
    });
    // With 4 slots the sender must stall far short of kCount while nobody
    // consumes.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_LE(sent.load(), 5u);
    for (std::uint32_t i = 0; i < kCount; ++i) {
        const auto f = pair.server->recv_frame();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(frame_seq(*f), i);
    }
    sender.join();
    EXPECT_EQ(sent.load(), kCount);
    pair.client->close();
}

TEST(ShmTransport, AbandonMidBurstLosesNothing) {
    NegotiatedPair pair = negotiate({});
    ASSERT_TRUE(pair.client_shm);
    auto* shm = dynamic_cast<net::ShmTransport*>(pair.client.get());
    ASSERT_NE(shm, nullptr);

    std::thread echo([&] {
        while (auto f = pair.server->recv_frame()) {
            pair.server->send_frame(std::move(*f));
        }
    });

    constexpr std::uint32_t kCount = 100;
    constexpr std::uint32_t kWindow = 16;
    std::vector<std::uint32_t> seen(kCount, 0);
    std::uint32_t sent = 0, received = 0;
    while (received < kCount) {
        while (sent < kCount && sent - received < kWindow) {
            pair.client->send_frame(data_frame(sent));
            ++sent;
            if (sent == kCount / 2) shm->abandon_shm("test drill");
        }
        const auto f = pair.client->recv_frame();
        ASSERT_TRUE(f.has_value());
        ++seen[frame_seq(*f)];
        ++received;
    }
    for (std::uint32_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(seen[i], 1u) << "sequence " << i;
    }
    EXPECT_FALSE(shm->shm_active());
    EXPECT_GE(shm->counters().failovers, 1u);
    EXPECT_GT(shm->counters().tcp_frames_sent, 0u);
    pair.client->close();
    echo.join();
}

TEST(ShmTransport, StatsCountRingAndFallbackFramesOnBothSides) {
    NegotiatedPair pair = negotiate({});
    ASSERT_TRUE(pair.client_shm);
    ASSERT_TRUE(pair.server_shm);
    auto* client = dynamic_cast<net::ShmTransport*>(pair.client.get());
    auto* server = dynamic_cast<net::ShmTransport*>(pair.server.get());
    ASSERT_NE(client, nullptr);
    ASSERT_NE(server, nullptr);

    // Over the ring.
    for (std::uint32_t i = 0; i < 3; ++i) pair.client->send_frame(data_frame(i));
    for (std::uint32_t i = 0; i < 2; ++i) pair.server->send_frame(data_frame(i));
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(pair.server->recv_frame());
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(pair.client->recv_frame());
    EXPECT_EQ(client->stats().frames_sent, 3u);
    EXPECT_EQ(client->stats().frames_received, 2u);
    EXPECT_EQ(server->stats().frames_sent, 2u);
    EXPECT_EQ(server->stats().frames_received, 3u);
    EXPECT_EQ(client->counters().shm_frames_sent, 3u);
    EXPECT_EQ(server->counters().shm_frames_sent, 2u);

    // Over the TCP fallback wire, after an orderly abandon.
    client->abandon_shm("stats drill");
    for (std::uint32_t i = 3; i < 7; ++i) pair.client->send_frame(data_frame(i));
    for (std::uint32_t i = 3; i < 7; ++i) {
        const auto f = pair.server->recv_frame();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(frame_seq(*f), i);
    }
    pair.server->send_frame(data_frame(2));
    const auto back = pair.client->recv_frame();
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(frame_seq(*back), 2u);

    EXPECT_EQ(client->stats().frames_sent, 7u);
    EXPECT_EQ(client->stats().frames_received, 3u);
    EXPECT_EQ(server->stats().frames_sent, 3u);
    EXPECT_EQ(server->stats().frames_received, 7u);
    EXPECT_EQ(client->counters().tcp_frames_sent, 4u);
    EXPECT_EQ(server->counters().tcp_frames_received, 4u);
    EXPECT_EQ(client->stats().frames_dropped, 0u);
    EXPECT_EQ(server->stats().frames_dropped, 0u);
    pair.client->close();
    pair.server->close();
}

TEST(ShmTransport, OversizeFrameFailsOverAndStaysOrdered) {
    net::ShmOptions opts;
    opts.arena_bytes = 64 * 1024;
    opts.max_frame_bytes = 1024;
    NegotiatedPair pair = negotiate(opts);
    ASSERT_TRUE(pair.client_shm);

    pair.client->send_frame(data_frame(1, 64));     // fits: rides the ring
    pair.client->send_frame(data_frame(2, 8192));   // oversize: failover
    pair.client->send_frame(data_frame(3, 64));     // post-failover: TCP
    for (std::uint32_t want = 1; want <= 3; ++want) {
        const auto f = pair.server->recv_frame();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(frame_seq(*f), want);
    }
    auto* shm = dynamic_cast<net::ShmTransport*>(pair.client.get());
    ASSERT_NE(shm, nullptr);
    EXPECT_FALSE(shm->shm_active());
    EXPECT_GE(shm->counters().failovers, 1u);
    pair.client->close();
}

// A co-located peer controls the slot ring, so whatever it publishes
// there must never make the receiver read outside its arena. The helper
// plays that peer: it maps the segment by name and publishes one bad
// entry in the client→server ring, then checks that the receiver fails
// over to TCP (counted once) and delivers nothing from the ring.
namespace {

enum class Scribble {
    kOutOfArenaSlot, ///< {offset, len} runs off the end of the arena
    kOverrunHead,    ///< head published more than a ring past the tail
};

void expect_scribble_fails_closed(Scribble scribble) {
    NegotiatedPair pair = negotiate({});
    ASSERT_TRUE(pair.client_shm);
    ASSERT_TRUE(pair.server_shm);
    auto* client = dynamic_cast<net::ShmTransport*>(pair.client.get());
    auto* server = dynamic_cast<net::ShmTransport*>(pair.server.get());
    ASSERT_NE(client, nullptr);
    ASSERT_NE(server, nullptr);

    pair.client->send_frame(data_frame(0));
    {
        const auto f = pair.server->recv_frame();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(frame_seq(*f), 0u);
    } // retired: the ring is empty again

    const int fd = shm_open(client->segment_name().c_str(), O_RDWR, 0);
    ASSERT_GE(fd, 0);
    struct stat st{};
    ASSERT_EQ(fstat(fd, &st), 0);
    const std::size_t map_bytes = static_cast<std::size_t>(st.st_size);
    void* map = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
    close(fd);
    ASSERT_NE(map, MAP_FAILED);
    auto* base = static_cast<std::uint8_t*>(map);
    const auto& h = *reinterpret_cast<net::shm_detail::SegHeader*>(base);
    // Side 0 (the connecting client) produces band 0 of the first dir.
    auto& dir = *reinterpret_cast<net::shm_detail::SegDir*>(
        base + net::shm_detail::dirs_offset());
    auto* slots = reinterpret_cast<net::shm_detail::SegSlot*>(
        base + net::shm_detail::slots_offset(h.bands));
    const std::uint32_t head = dir.head.load(std::memory_order_acquire);
    if (scribble == Scribble::kOutOfArenaSlot) {
        slots[head & (h.ring_capacity - 1)] =
            net::shm_detail::SegSlot{h.arena_bytes - 16, 4096};
        dir.head.store(head + 1, std::memory_order_release);
    } else {
        dir.head.store(head + h.ring_capacity + 1, std::memory_order_release);
    }

    std::optional<net::FrameBuffer> got;
    std::atomic<bool> returned{false};
    std::thread rx([&] {
        got = pair.server->recv_frame();
        returned = true;
    });
    // The client's receive loop is what reads the server's bye.
    std::thread peer([&] {
        while (pair.client->recv_frame().has_value()) {
        }
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!returned && client->shm_active() &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // The route now rides TCP; the next frame unblocks the receiver.
    if (!returned) pair.client->send_frame(data_frame(1));
    rx.join();
    const net::ShmCounters c = server->counters();
    const bool server_shm_active = server->shm_active();
    // Tear down before asserting, so a failure never leaves threads
    // running.
    pair.client->close();
    peer.join();
    munmap(map, map_bytes);

    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->size(), data_frame(1).size())
        << "delivered a frame the peer scribbled into the ring";
    EXPECT_EQ(frame_seq(*got), 1u);
    EXPECT_EQ(c.peer_protocol_errors, 1u);
    EXPECT_EQ(c.shm_frames_received, 1u);
    EXPECT_FALSE(server_shm_active);
    got.reset();
    pair.server->close();
}

} // namespace

TEST(ShmTransport, OutOfArenaSlotDescriptorFailsClosed) {
    expect_scribble_fails_closed(Scribble::kOutOfArenaSlot);
}

TEST(ShmTransport, OverrunningRingHeadFailsClosed) {
    expect_scribble_fails_closed(Scribble::kOverrunHead);
}

// ---- zero-copy receive path ----

TEST(ShmZeroCopy, ReceiveBorrowsArenaViews) {
    NegotiatedPair pair = negotiate({});
    ASSERT_TRUE(pair.client_shm);
    for (std::uint32_t i = 0; i < 8; ++i) {
        pair.client->send_frame(data_frame(i));
    }
    for (std::uint32_t i = 0; i < 8; ++i) {
        const auto f = pair.server->recv_frame();
        ASSERT_TRUE(f.has_value());
        EXPECT_TRUE(f->borrowed()) << "frame " << i << " was copied out";
        EXPECT_EQ(frame_seq(*f), i);
    } // each frame dies here: slot retired, tail advances
    auto* shm = dynamic_cast<net::ShmTransport*>(pair.server.get());
    ASSERT_NE(shm, nullptr);
    const net::ShmCounters c = shm->counters();
    EXPECT_EQ(c.rx_borrowed, 8u);
    EXPECT_EQ(c.rx_copies, 0u);
    EXPECT_EQ(c.rx_pinned, 0u); // everything released and retired
    pair.client->close();
}

TEST(ShmZeroCopy, PinBudgetFallsBackToCopies) {
    net::ShmOptions opts;
    opts.ring_capacity = 8;
    opts.max_pinned_slots = 2;
    NegotiatedPair pair = negotiate(opts);
    ASSERT_TRUE(pair.client_shm);
    for (std::uint32_t i = 0; i < 6; ++i) {
        pair.client->send_frame(data_frame(i));
    }
    std::vector<net::FrameBuffer> pinned;
    for (std::uint32_t i = 0; i < 6; ++i) {
        auto f = pair.server->recv_frame();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(frame_seq(*f), i);
        if (i < 2) {
            EXPECT_TRUE(f->borrowed());
            pinned.push_back(std::move(*f)); // hold: blocks the retire prefix
        } else {
            // Budget exhausted: the pop copies out so the app cannot wedge
            // the ring by hoarding views.
            EXPECT_FALSE(f->borrowed());
        }
    }
    auto* shm = dynamic_cast<net::ShmTransport*>(pair.server.get());
    ASSERT_NE(shm, nullptr);
    {
        const net::ShmCounters c = shm->counters();
        EXPECT_EQ(c.rx_borrowed, 2u);
        EXPECT_EQ(c.rx_copies, 4u);
        EXPECT_EQ(c.rx_pin_stalls, 4u);
        // The copies released their slots, but the tail cannot pass the two
        // held views, so the whole window still counts as pinned.
        EXPECT_EQ(c.rx_pinned, 6u);
    }
    pinned.clear(); // retire the prefix: tail sweeps all six slots
    EXPECT_EQ(shm->counters().rx_pinned, 0u);
    pair.client->send_frame(data_frame(6));
    const auto f = pair.server->recv_frame();
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(f->borrowed()); // budget reopened
    pair.client->close();
}

TEST(ShmZeroCopy, ProducerStallsBehindPinnedSlotThenResumes) {
    net::ShmOptions opts;
    opts.ring_capacity = 8;
    opts.arena_bytes = 8 * 1024; // several wraps over the drill
    opts.wait_cycle_us = 2000;
    NegotiatedPair pair = negotiate(opts);
    ASSERT_TRUE(pair.client_shm);

    // Pin the first frame: a live view at the arena base.
    pair.client->send_frame(data_frame(0, 512));
    auto held = pair.server->recv_frame();
    ASSERT_TRUE(held.has_value());
    ASSERT_TRUE(held->borrowed());
    const std::vector<std::uint8_t> snapshot(held->data(),
                                             held->data() + held->size());

    constexpr std::uint32_t kCount = 64;
    std::atomic<std::uint32_t> sent{0};
    std::thread sender([&] {
        for (std::uint32_t i = 1; i <= kCount; ++i) {
            pair.client->send_frame(data_frame(i, 512));
            sent.fetch_add(1);
        }
    });
    // The ring tail is frozen at the pinned slot, so the producer stalls
    // after one ring's worth instead of lapping the arena over the view.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_LE(sent.load(), 8u);
    EXPECT_EQ(std::memcmp(held->data(), snapshot.data(), snapshot.size()), 0)
        << "producer overwrote a pinned slot";

    held->release(); // retire: the producer resumes and wraps freely
    for (std::uint32_t i = 1; i <= kCount; ++i) {
        const auto f = pair.server->recv_frame();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(frame_seq(*f), i);
        EXPECT_TRUE(f->borrowed());
    }
    sender.join();
    EXPECT_EQ(sent.load(), kCount);
    auto* shm = dynamic_cast<net::ShmTransport*>(pair.server.get());
    ASSERT_NE(shm, nullptr);
    EXPECT_EQ(shm->counters().rx_copies, 0u);
    pair.client->close();
}

// Releases happen on whatever thread drops the frame; here a dedicated
// releaser races the ring retire against the popper. The assertions are
// loose — the value of this test is the TSan run in CI.
TEST(ShmZeroCopy, CrossThreadReleaseRacesPop) {
    NegotiatedPair pair = negotiate({});
    ASSERT_TRUE(pair.client_shm);
    constexpr std::uint32_t kCount = 512;
    net::FrameRing handoff(64);
    std::thread releaser([&] {
        while (handoff.pop().has_value()) {
            // dropping the popped frame runs the release hook here
        }
    });
    std::thread sender([&] {
        for (std::uint32_t i = 0; i < kCount; ++i) {
            pair.client->send_frame(data_frame(i));
        }
    });
    for (std::uint32_t i = 0; i < kCount; ++i) {
        auto f = pair.server->recv_frame();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(frame_seq(*f), i);
        ASSERT_TRUE(handoff.push(std::move(*f)));
    }
    sender.join();
    handoff.close();
    releaser.join();
    pair.client->close();
}

// ---- banded lanes ----

TEST(ShmBands, UrgentBandOvertakesQueuedBulk) {
    net::ShmOptions opts;
    opts.bands = 2;
    NegotiatedPair pair = negotiate(opts);
    ASSERT_TRUE(pair.client_shm);
    auto* server = dynamic_cast<net::ShmTransport*>(pair.server.get());
    auto* client = dynamic_cast<net::ShmTransport*>(pair.client.get());
    ASSERT_NE(server, nullptr);
    ASSERT_NE(client, nullptr);
    EXPECT_EQ(client->bands(), 2u);
    EXPECT_EQ(server->counters().bands, 2u);

    // Three bulk frames queue on band 1, then one urgent on band 0 —
    // nothing consumed yet. The receiver drains band 0 first, so the
    // urgent frame overtakes the earlier bulk queue.
    for (std::uint32_t i = 1; i <= 3; ++i) {
        pair.client->send_frame(band_frame(i, 1, 256));
    }
    pair.client->send_frame(band_frame(9, 0));
    const std::uint32_t expect[] = {9, 1, 2, 3};
    for (const std::uint32_t want : expect) {
        const auto f = pair.server->recv_frame();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(frame_seq(*f), want);
    }
    const net::ShmCounters tx = client->counters();
    EXPECT_EQ(tx.band_tx_frames[0], 1u);
    EXPECT_EQ(tx.band_tx_frames[1], 3u);
    const net::ShmCounters rx = server->counters();
    EXPECT_EQ(rx.band_rx_frames[0], 1u);
    EXPECT_EQ(rx.band_rx_frames[1], 3u);
    pair.client->close();
}

TEST(ShmBands, AbandonWithBandedQueuesLosesNothing) {
    net::ShmOptions opts;
    opts.bands = 2;
    NegotiatedPair pair = negotiate(opts);
    ASSERT_TRUE(pair.client_shm);
    auto* shm = dynamic_cast<net::ShmTransport*>(pair.client.get());
    ASSERT_NE(shm, nullptr);

    std::thread echo([&] {
        while (auto f = pair.server->recv_frame()) {
            pair.server->send_frame(std::move(*f));
        }
    });

    constexpr std::uint32_t kCount = 100;
    constexpr std::uint32_t kWindow = 16;
    std::vector<std::uint32_t> seen(kCount, 0);
    std::uint32_t sent = 0, received = 0;
    net::FrameBuffer pinned; // first echo, held across the failover
    std::vector<std::uint8_t> pinned_bytes;
    while (received < kCount) {
        while (sent < kCount && sent - received < kWindow) {
            // Even sequences ride the urgent lane, odd ones the bulk lane.
            pair.client->send_frame(
                band_frame(sent, static_cast<std::uint8_t>(sent % 2), 128));
            ++sent;
            if (sent == kCount / 2) shm->abandon_shm("banded drill");
        }
        auto f = pair.client->recv_frame();
        ASSERT_TRUE(f.has_value());
        ++seen[frame_seq(*f)];
        ++received;
        if (received == 1) {
            pinned_bytes.assign(f->data(), f->data() + f->size());
            pinned = std::move(*f);
        }
    }
    for (std::uint32_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(seen[i], 1u) << "sequence " << i;
    }
    ASSERT_EQ(pinned.size(), pinned_bytes.size());
    EXPECT_EQ(std::memcmp(pinned.data(), pinned_bytes.data(), pinned.size()),
              0)
        << "pinned view changed across the failover";
    EXPECT_FALSE(shm->shm_active());
    EXPECT_GE(shm->counters().failovers, 1u);
    pinned.release();
    pair.client->close();
    echo.join();
}

TEST(PlannedWire, ShmRemoteDialsTheSegment) {
    net::ShmAcceptor acceptor(0);
    compiler::PlannedRemote remote;
    remote.transport = compiler::RemoteTransport::kShm;
    remote.host = "127.0.0.1";
    remote.bands = 1;
    std::unique_ptr<net::Transport> server;
    std::thread accept_thread(
        [&] { server = acceptor.accept().transport; });
    remote::PlannedWire wire =
        remote::connect_planned_wire(remote, acceptor.bound_port());
    accept_thread.join();

    EXPECT_TRUE(wire.shm);
    EXPECT_NE(dynamic_cast<net::ShmTransport*>(wire.transport.get()),
              nullptr);
    wire.transport->send_frame(data_frame(11));
    const auto f = server->recv_frame();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(frame_seq(*f), 11u);
}

TEST(PlannedWire, SingleBandTcpRemoteDialsPlainTcp) {
    net::TcpAcceptor acceptor(0);
    compiler::PlannedRemote remote; // defaults: tcp, loopback, bands
    remote.bands = 1;
    std::unique_ptr<net::Transport> server;
    std::thread accept_thread([&] { server = acceptor.accept(); });
    remote::PlannedWire wire =
        remote::connect_planned_wire(remote, acceptor.bound_port());
    accept_thread.join();

    EXPECT_FALSE(wire.shm);
    EXPECT_EQ(dynamic_cast<net::ShmTransport*>(wire.transport.get()),
              nullptr);
    wire.transport->send_frame(data_frame(12));
    const auto f = server->recv_frame();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(frame_seq(*f), 12u);
}

TEST(ShmSweep, LiveCreatorSegmentSurvivesSweep) {
    auto seg = net::ShmSegment::create({});
    net::sweep_orphan_segments();
    // Our pid is embedded in the name and we are alive: the segment must
    // still be attachable.
    auto attached = net::ShmSegment::attach(seg->name(), seg->generation());
    EXPECT_NE(attached, nullptr);
}

#if !COMPADRES_UNDER_SANITIZER

TEST(ShmTransport, PeerDeathDrainsRingThenFailsOver) {
    net::ShmAcceptor acceptor(0);
    int ready[2];
    ASSERT_EQ(pipe(ready), 0);
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: connect, push 10 frames into the segment, report, then
        // hang until SIGKILL — a crashed co-located peer.
        close(ready[0]);
        try {
            net::ShmConnectResult r = net::shm_upgrade_connect(
                "127.0.0.1", acceptor.bound_port());
            if (!r.shm) _exit(2);
            for (std::uint32_t i = 0; i < 10; ++i) {
                r.transport->send_frame(data_frame(i));
            }
            char byte = 1;
            if (write(ready[1], &byte, 1) != 1) _exit(3);
            pause();
        } catch (...) {
            _exit(4);
        }
        _exit(0);
    }
    close(ready[1]);
    net::ShmConnectResult server = acceptor.accept();
    ASSERT_TRUE(server.shm);
    char byte = 0;
    ASSERT_EQ(read(ready[0], &byte, 1), 1);
    close(ready[0]);
    ASSERT_EQ(kill(child, SIGKILL), 0);
    ASSERT_EQ(waitpid(child, nullptr, 0), child); // reap: pid must be gone

    // Everything the peer published before dying is still in the segment
    // and must be delivered; only then does the wire close.
    for (std::uint32_t i = 0; i < 10; ++i) {
        const auto f = server.transport->recv_frame();
        ASSERT_TRUE(f.has_value()) << "frame " << i << " lost to peer death";
        EXPECT_EQ(frame_seq(*f), i);
    }
    EXPECT_FALSE(server.transport->recv_frame().has_value());
    auto* shm = dynamic_cast<net::ShmTransport*>(server.transport.get());
    ASSERT_NE(shm, nullptr);
    EXPECT_FALSE(shm->shm_active());
}

// A peer dying while the survivor holds borrowed frames must not yank the
// mapping out from under them: the keepalive each view carries pins the
// session (and with it the segment) past transport close and destruction.
TEST(ShmTransport, PeerDeathWithPinnedSlotsKeepsViewsValid) {
    net::ShmAcceptor acceptor(0);
    int ready[2];
    ASSERT_EQ(pipe(ready), 0);
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        close(ready[0]);
        try {
            net::ShmConnectResult r = net::shm_upgrade_connect(
                "127.0.0.1", acceptor.bound_port());
            if (!r.shm) _exit(2);
            for (std::uint32_t i = 0; i < 10; ++i) {
                r.transport->send_frame(data_frame(i, 64));
            }
            char byte = 1;
            if (write(ready[1], &byte, 1) != 1) _exit(3);
            pause();
        } catch (...) {
            _exit(4);
        }
        _exit(0);
    }
    close(ready[1]);
    net::ShmConnectResult server = acceptor.accept();
    ASSERT_TRUE(server.shm);
    char byte = 0;
    ASSERT_EQ(read(ready[0], &byte, 1), 1);
    close(ready[0]);
    ASSERT_EQ(kill(child, SIGKILL), 0);
    ASSERT_EQ(waitpid(child, nullptr, 0), child);

    std::vector<net::FrameBuffer> pinned;
    for (std::uint32_t i = 0; i < 10; ++i) {
        auto f = server.transport->recv_frame();
        ASSERT_TRUE(f.has_value()) << "frame " << i << " lost to peer death";
        EXPECT_TRUE(f->borrowed());
        pinned.push_back(std::move(*f));
    }
    EXPECT_FALSE(server.transport->recv_frame().has_value());

    // Tear the transport down with every view still outstanding, then read
    // through them: the bytes must still be the mapped slots.
    server.transport->close();
    server.transport.reset();
    for (std::uint32_t i = 0; i < 10; ++i) {
        EXPECT_EQ(frame_seq(pinned[i]), i);
    }
    pinned.clear(); // hooks run against the dead session: bookkeeping only
}

TEST(ShmSweep, ReclaimsSegmentOfDeadCreator) {
    int names[2];
    ASSERT_EQ(pipe(names), 0);
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: create a segment and die without the destructor — the
        // orphan a crashed process leaves in /dev/shm.
        close(names[0]);
        try {
            auto seg = net::ShmSegment::create({});
            const std::string& name = seg->name();
            if (write(names[1], name.c_str(), name.size() + 1) < 0) _exit(3);
            _exit(0); // no dtor: the name stays linked
        } catch (...) {
            _exit(4);
        }
    }
    close(names[1]);
    char buf[128] = {};
    ASSERT_GT(read(names[0], buf, sizeof buf - 1), 0);
    close(names[0]);
    ASSERT_EQ(waitpid(child, nullptr, 0), child);

    const std::string name(buf);
    EXPECT_GE(net::sweep_orphan_segments(), 1u);
    errno = 0;
    EXPECT_EQ(shm_open(name.c_str(), O_RDWR, 0), -1);
    EXPECT_EQ(errno, ENOENT);
}

#endif // !COMPADRES_UNDER_SANITIZER
