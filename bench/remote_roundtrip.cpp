// Remote round-trip bench + gates for the allocation-free wire fast path.
//
// Two applications bridged over an in-process loopback wire echo OctetSeq
// payloads: A.ping -> [bridge] -> B.echo -> [bridge] -> A.pong. Round
// trips run in pipelined batches (kBatch in flight) so reader threads stay
// hot and the per-message cost reflects the wire path, not scheduler
// wake-ups. Per payload size (32..1024 B) the bench reports p50/p90/p99
// for the bridge's pooled fast path. Wire-level rungs follow: the
// co-located shm wire against same-run TCP, a zero-copy receive payload
// sweep, a two-band interference rung, and an shm->TCP failover drill.
//
// The binary is also a correctness gate (run by the `remote_bench` tool
// target, and in --smoke form by ctest):
//   * Gate 1: steady-state allocations per message == 0 on the fast path
//     (counted by a global operator new override),
//   * Gate 2: syscalls per frame < 1 under a TCP send burst (the
//     coalescing writer's scatter-gather batching),
//   * Gates 4-8 and 10: shm upgrade, 0 allocs and < 1 futex per round
//     trip, >= 5x over TCP, exactly-once failover, rx_copies == 0, and
//     two-band isolation (see the gate block at the end of main).
// Timing gates run on full plain builds only; under --smoke and
// sanitizers timing is noise. Results land in BENCH_remote.json.
#include "common.hpp"

#include "cdr/giop.hpp"
#include "net/frame_pool.hpp"
#include "net/shm_transport.hpp"
#include "net/tcp.hpp"
#include "remote/bridge.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

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
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

// Count every heap allocation in the process so the steady-state gate can
// assert the remote hop makes none.
void* operator new(std::size_t n) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
    return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

using namespace compadres;

namespace {

constexpr std::size_t kBatch = 64;  ///< round trips in flight per sample
constexpr std::size_t kPayloadSizes[] = {32, 128, 512, 1024};

core::InPortConfig sync_port() {
    core::InPortConfig cfg;
    cfg.min_threads = cfg.max_threads = 0;
    return cfg;
}

/// A.ping -> bridge -> B (echo) -> bridge -> A.pong over one loopback wire.
class EchoHarness {
public:
    EchoHarness() {
        core::register_builtin_message_types();
        remote::register_builtin_serializers();
        auto [wire_a, wire_b] = net::make_loopback_pair(256);
        bridge_a_ = std::make_unique<remote::RemoteBridge>(
            app_a_, std::move(wire_a), "rr-a");
        bridge_b_ = std::make_unique<remote::RemoteBridge>(
            app_b_, std::move(wire_b), "rr-b");

        auto& pinger = app_a_.create_immortal<core::Component>("Pinger");
        ping_out_ = &pinger.add_out_port<core::OctetSeq>("out", "OctetSeq");
        bridge_a_->export_route(*ping_out_, "ping");
        auto& pong_in = pinger.add_in_port<core::OctetSeq>(
            "back", "OctetSeq", sync_port(),
            [this](core::OctetSeq&, core::Smm&) {
                // Notify only when the batch target is met: a futex wake per
                // pong would be harness overhead drowning the wire delta.
                bool wake;
                {
                    std::lock_guard lk(mu_);
                    wake = ++pongs_ >= target_.load(std::memory_order_relaxed);
                }
                if (wake) cv_.notify_one();
            });
        bridge_a_->import_route("pong", pong_in);

        auto& echo = app_b_.create_immortal<core::Component>("Echo");
        echo_out_ = &echo.add_out_port<core::OctetSeq>("out", "OctetSeq");
        bridge_b_->export_route(*echo_out_, "pong");
        auto& echo_in = echo.add_in_port<core::OctetSeq>(
            "in", "OctetSeq", sync_port(),
            [this](core::OctetSeq& m, core::Smm&) {
                core::OctetSeq* fwd = echo_out_->get_message();
                fwd->assign(m.data.data(), m.length);
                echo_out_->send(fwd, 5);
            });
        bridge_b_->import_route("ping", echo_in);

        bridge_a_->start();
        bridge_b_->start();
        // The bench overwrites every message field it reads (length is the
        // knob, payload bytes are never inspected), so the pools' release
        // scrub — a 4 KiB object write per message — would only measure
        // itself.
        ping_out_->pool()->set_scrub_on_release(false);
        echo_out_->pool()->set_scrub_on_release(false);
    }

    void send_ping(std::size_t payload_len) {
        core::OctetSeq* msg = ping_out_->get_message();
        msg->length = payload_len; // stale bytes are fine: size is the knob
        ping_out_->send(msg, 5);
    }

    /// Arm the completion wake-up before a batch is sent.
    void set_target(std::uint64_t target) {
        target_.store(target, std::memory_order_relaxed);
    }

    void await_pongs(std::uint64_t target) {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [&] { return pongs_ >= target; });
    }

    std::uint64_t pongs() const {
        std::lock_guard lk(mu_);
        return pongs_;
    }

private:
    core::Application app_a_{"rr-app-a"};
    core::Application app_b_{"rr-app-b"};
    std::unique_ptr<remote::RemoteBridge> bridge_a_;
    std::unique_ptr<remote::RemoteBridge> bridge_b_;
    core::OutPort<core::OctetSeq>* ping_out_ = nullptr;
    core::OutPort<core::OctetSeq>* echo_out_ = nullptr;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::uint64_t pongs_ = 0;
    std::atomic<std::uint64_t> target_{0};
};

struct RungResult {
    rt::StatsSummary stats;          ///< per-message round-trip latency
    double allocs_per_message = 0.0; ///< steady-state, all threads
};

/// One pipelined batch of round trips; returns per-message nanoseconds.
std::int64_t run_batch(EchoHarness& h, std::size_t payload,
                       std::uint64_t& done) {
    done += kBatch;
    h.set_target(done);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < kBatch; ++k) h.send_ping(payload);
    h.await_pongs(done);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
               .count() /
           static_cast<std::int64_t>(kBatch);
}

/// One payload rung on the fast path. The allocation counter is read
/// around each batch, so only the round trips themselves are counted.
RungResult run_rung(EchoHarness& h, std::size_t payload, std::size_t iters,
                    std::size_t warmup) {
    rt::StatsRecorder rec(iters);
    std::uint64_t done = h.pongs();
    std::uint64_t allocs = 0;
    for (std::size_t it = 0; it < warmup + iters; ++it) {
        const std::uint64_t a0 = g_allocs.load();
        const std::int64_t ns = run_batch(h, payload, done);
        const std::uint64_t a1 = g_allocs.load();
        if (it >= warmup) {
            allocs += a1 - a0;
            rec.record(ns);
        }
    }
    RungResult r;
    r.allocs_per_message = static_cast<double>(allocs) /
                           static_cast<double>(iters * kBatch);
    r.stats = rec.summarize();
    return r;
}

struct BurstResult {
    double syscalls_per_frame = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t max_batch_frames = 0;
};

/// Blast frames from several threads at a delayed TCP reader and measure
/// syscalls per frame on the sending transport.
BurstResult run_burst() {
    net::TcpAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] { server_side = acceptor.accept(); });
    auto client = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    accept_thread.join();

    cdr::RequestHeader req;
    req.object_key = "burst";
    req.operation = "op";
    std::vector<std::uint8_t> payload(4096, 0x5A);
    const std::vector<std::uint8_t> frame =
        cdr::encode_request(req, payload.data(), payload.size());

    constexpr int kSenders = 4;
    constexpr int kPerSender = 500;
    std::vector<std::thread> senders;
    for (int t = 0; t < kSenders; ++t) {
        senders.emplace_back([&client, &frame] {
            for (int i = 0; i < kPerSender; ++i) client->send_frame(frame);
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (int i = 0; i < kSenders * kPerSender; ++i) {
        if (!server_side->recv_frame().has_value()) break;
    }
    for (auto& s : senders) s.join();

    const net::TransportStats stats = client->stats();
    BurstResult r;
    r.frames = stats.frames_sent;
    r.max_batch_frames = stats.max_batch_frames;
    r.syscalls_per_frame = static_cast<double>(stats.send_syscalls) /
                           static_cast<double>(stats.frames_sent);
    return r;
}

// ---- co-located shm wire vs TCP fast path (wire level, pipelined) ----
//
// The shm rung measures the transport pair itself, not the full bridge
// path: batches of kBatch GIOP frames pushed through one wire and echoed
// back by a peer thread, shm and TCP batches interleaved in the same time
// window. On a one-core host the full middleware path is dominated by
// scheduler hand-offs that hit both wires identically; the wire-level
// pipeline is where the syscall-free segment actually shows up.

/// Echoes every frame straight back on the same wire until it closes.
/// Survives an shm failover: after the peer's bye the echo continues over
/// the TCP fallback until the client closes.
struct WireEcho {
    std::unique_ptr<net::Transport> wire;
    std::thread thread;

    void start() {
        thread = std::thread([this] {
            while (auto f = wire->recv_frame()) {
                wire->send_frame(std::move(*f));
            }
        });
    }
    void join() {
        if (thread.joinable()) thread.join();
    }
};

struct ShmWirePair {
    std::unique_ptr<net::Transport> client;
    WireEcho echo;
    bool shm = false;
    std::string detail;
};

ShmWirePair make_shm_pair(const net::ShmOptions& opts) {
    net::ShmAcceptor acceptor(0, opts);
    ShmWirePair pair;
    std::thread accept_thread([&] {
        net::ShmConnectResult r = acceptor.accept();
        pair.echo.wire = std::move(r.transport);
    });
    net::ShmConnectResult r =
        net::shm_upgrade_connect("127.0.0.1", acceptor.bound_port(), opts);
    accept_thread.join();
    pair.client = std::move(r.transport);
    pair.shm = r.shm;
    pair.detail = std::move(r.detail);
    return pair;
}

std::unique_ptr<net::Transport> make_tcp_pair(WireEcho& echo) {
    net::TcpAcceptor acceptor(0);
    std::thread accept_thread([&] { echo.wire = acceptor.accept(); });
    auto client = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    accept_thread.join();
    return client;
}

/// One encoded GIOP request frame carrying `payload_len` bytes.
std::vector<std::uint8_t> wire_frame(std::size_t payload_len) {
    cdr::RequestHeader req;
    req.object_key = "bench";
    req.operation = "echo";
    std::vector<std::uint8_t> payload(payload_len, 0x42);
    return cdr::encode_request(req, payload.data(), payload.size());
}

/// Like wire_frame, stamped with a priority band for banded wires.
std::vector<std::uint8_t> wire_frame_band(std::size_t payload_len,
                                          std::uint8_t band) {
    std::vector<std::uint8_t> f = wire_frame(payload_len);
    cdr::set_frame_band(f.data(), band);
    return f;
}

/// One pipelined batch: kBatch frames out, kBatch echoes back. Returns
/// nanoseconds per round trip.
std::int64_t wire_batch(net::Transport& t,
                        const std::vector<std::uint8_t>& frame) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < kBatch; ++k) {
        net::FrameBuffer fb =
            net::FrameBufferPool::global().acquire(frame.size());
        std::memcpy(fb.data(), frame.data(), frame.size());
        t.send_frame(std::move(fb));
    }
    for (std::size_t k = 0; k < kBatch; ++k) {
        if (!t.recv_frame().has_value()) {
            std::fprintf(stderr, "wire closed mid-batch\n");
            std::abort();
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
               .count() /
           static_cast<std::int64_t>(kBatch);
}

struct ShmRungResult {
    rt::StatsSummary shm;            ///< ns per round trip, shm wire
    rt::StatsSummary tcp;            ///< ns per round trip, TCP fast path
    double paired_speedup = 0.0;     ///< median of per-pair tcp/shm ratios
    double allocs_per_message = 0.0; ///< shm batches only
    /// Futex syscalls (waits + wakes, both endpoints) per round trip; the
    /// steady path's only kernel entries, paid once per pipeline stall,
    /// not per message.
    double futex_per_message = 0.0;
    double wakeups_per_message = 0.0;
    std::uint64_t shm_frames = 0;  ///< frames that crossed the segment
    std::uint64_t rx_copies = 0;   ///< copy-out fallbacks, both endpoints
    std::uint64_t rx_borrowed = 0; ///< zero-copy receives, both endpoints
};

std::uint64_t futex_count(const net::ShmCounters& c) {
    return c.wakeups + c.futex_waits;
}

/// Interleaved shm/TCP batches, allocation and futex counters read around
/// the shm segments only.
ShmRungResult run_shm_rung(net::Transport& shm_wire, net::Transport* shm_peer,
                           net::Transport& tcp_wire, std::size_t payload,
                           std::size_t iters, std::size_t warmup) {
    auto* shm_a = dynamic_cast<net::ShmTransport*>(&shm_wire);
    auto* shm_b = dynamic_cast<net::ShmTransport*>(shm_peer);
    const std::vector<std::uint8_t> frame = wire_frame(payload);
    rt::StatsRecorder rec_shm(iters);
    rt::StatsRecorder rec_tcp(iters);
    rt::StatsRecorder rec_ratio(iters); // per-pair tcp/shm ratio, x1000
    std::uint64_t allocs = 0, futexes = 0, wakeups = 0, shm_frames0 = 0;
    for (std::size_t it = 0; it < warmup + iters; ++it) {
        const std::uint64_t a0 = g_allocs.load();
        const std::uint64_t f0 =
            (shm_a ? futex_count(shm_a->counters()) : 0) +
            (shm_b ? futex_count(shm_b->counters()) : 0);
        const std::uint64_t w0 = (shm_a ? shm_a->counters().wakeups : 0) +
                                 (shm_b ? shm_b->counters().wakeups : 0);
        if (it == warmup && shm_a) {
            shm_frames0 = shm_a->counters().shm_frames_sent;
        }
        const std::int64_t ns_shm = wire_batch(shm_wire, frame);
        const std::uint64_t a1 = g_allocs.load();
        const std::uint64_t f1 =
            (shm_a ? futex_count(shm_a->counters()) : 0) +
            (shm_b ? futex_count(shm_b->counters()) : 0);
        const std::uint64_t w1 = (shm_a ? shm_a->counters().wakeups : 0) +
                                 (shm_b ? shm_b->counters().wakeups : 0);
        const std::int64_t ns_tcp = wire_batch(tcp_wire, frame);
        if (it >= warmup) {
            allocs += a1 - a0;
            futexes += f1 - f0;
            wakeups += w1 - w0;
            rec_shm.record(ns_shm);
            rec_tcp.record(ns_tcp);
            if (ns_shm > 0) rec_ratio.record(ns_tcp * 1000 / ns_shm);
        }
    }
    ShmRungResult r;
    r.shm = rec_shm.summarize();
    r.tcp = rec_tcp.summarize();
    r.paired_speedup =
        static_cast<double>(rec_ratio.summarize().median) / 1000.0;
    const double messages = static_cast<double>(iters * kBatch);
    r.allocs_per_message = static_cast<double>(allocs) / messages;
    r.futex_per_message = static_cast<double>(futexes) / messages;
    r.wakeups_per_message = static_cast<double>(wakeups) / messages;
    if (shm_a) {
        r.shm_frames = shm_a->counters().shm_frames_sent - shm_frames0;
    }
    for (auto* t : {shm_a, shm_b}) {
        if (t == nullptr) continue;
        const net::ShmCounters c = t->counters();
        r.rx_copies += c.rx_copies;
        r.rx_borrowed += c.rx_borrowed;
    }
    return r;
}

// ---- zero-copy receive payload sweep ----
//
// One live segment with the default receive discipline (borrowed frames,
// views into the rx arena), echoed at growing payloads. The echo shape
// pays the receive cost on both endpoints.

struct SweepRow {
    std::size_t payload = 0;
    rt::StatsSummary zero_copy;
};

SweepRow run_sweep_rung(net::Transport& wire, std::size_t payload,
                        std::size_t iters, std::size_t warmup) {
    const std::vector<std::uint8_t> frame = wire_frame(payload);
    rt::StatsRecorder rec(iters);
    for (std::size_t it = 0; it < warmup + iters; ++it) {
        const std::int64_t ns = wire_batch(wire, frame);
        if (it >= warmup) rec.record(ns);
    }
    SweepRow r;
    r.payload = payload;
    r.zero_copy = rec.summarize();
    return r;
}

// ---- 2-band shm interference rung ----

struct TwoBandResult {
    rt::StatsSummary uncontended; ///< urgent-only round trips, ns
    rt::StatsSummary contended;   ///< urgent under a band-1 bulk window
    double p99_ratio = 0.0;
    std::uint64_t bulk_frames = 0;
    std::uint64_t urgent_band_frames = 0; ///< band-0 rx frames, client side
    bool ran = false;
};

/// Urgent (band 0, 32 B) round trips over a 2-band segment, alone and
/// under a credit-windowed band-1 bulk stream on the same wire. Both
/// endpoints drain band 0 first, so the urgent request overtakes the
/// queued bulk at the echo and its reply overtakes the queued echoes on
/// the way back; a single-band segment would serve the whole window FIFO
/// ahead of it. Phases alternate per round so drift hits both halves.
TwoBandResult run_two_band_rung(std::size_t probes, std::size_t rounds) {
    net::ShmOptions opts;
    opts.bands = 2;
    ShmWirePair pair = make_shm_pair(opts);
    TwoBandResult r;
    if (!pair.shm) return r;
    pair.echo.start();
    const std::vector<std::uint8_t> urgent = wire_frame_band(32, 0);
    const std::vector<std::uint8_t> bulk = wire_frame_band(3072, 1);
    constexpr std::size_t kBulkWindow = 24;
    rt::StatsRecorder rec_unc(probes * rounds);
    rt::StatsRecorder rec_con(probes * rounds);
    std::size_t bulk_out = 0;
    std::uint64_t bulk_frames = 0;
    auto send_copy = [&](const std::vector<std::uint8_t>& f) {
        net::FrameBuffer fb =
            net::FrameBufferPool::global().acquire(f.size());
        std::memcpy(fb.data(), f.data(), f.size());
        pair.client->send_frame(std::move(fb));
    };
    const auto is_bulk = [](const net::FrameBuffer& f) {
        return f.size() >= cdr::GiopHeader::kSize &&
               cdr::frame_band(f.data()) == 1;
    };
    // One urgent round trip: send, then pop until the band-0 echo comes
    // back, counting band-1 echoes against the bulk window.
    auto probe = [&]() -> std::int64_t {
        const auto t0 = std::chrono::steady_clock::now();
        send_copy(urgent);
        for (;;) {
            auto f = pair.client->recv_frame();
            if (!f.has_value()) {
                std::fprintf(stderr, "two-band wire closed mid-probe\n");
                std::abort();
            }
            if (is_bulk(*f)) {
                --bulk_out;
                continue;
            }
            break;
        }
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count();
    };
    // Round 0 is warm-up: probes run but are not recorded.
    for (std::size_t round = 0; round <= rounds; ++round) {
        for (std::size_t i = 0; i < probes; ++i) {
            const std::int64_t ns = probe();
            if (round > 0) rec_unc.record(ns);
        }
        for (std::size_t i = 0; i < probes; ++i) {
            // Drain half the window's echoes, then top back up, so the
            // probe fires while the echo side is actively churning fresh
            // bulk — not against a window of already-delivered echoes
            // parked in the client's band-1 ring.
            while (bulk_out > kBulkWindow / 2) {
                auto f = pair.client->recv_frame();
                if (!f.has_value()) {
                    std::fprintf(stderr, "two-band wire closed mid-drain\n");
                    std::abort();
                }
                if (is_bulk(*f)) --bulk_out;
            }
            while (bulk_out < kBulkWindow) {
                send_copy(bulk);
                ++bulk_out;
                ++bulk_frames;
            }
            const std::int64_t ns = probe();
            if (round > 0) rec_con.record(ns);
        }
        // Drain the window so the next uncontended phase starts clean.
        while (bulk_out > 0) {
            auto f = pair.client->recv_frame();
            if (!f.has_value()) break;
            if (is_bulk(*f)) --bulk_out;
        }
    }
    if (auto* shm = dynamic_cast<net::ShmTransport*>(pair.client.get())) {
        r.urgent_band_frames = shm->counters().band_rx_frames[0];
    }
    pair.client->close();
    pair.echo.join();
    r.uncontended = rec_unc.summarize();
    r.contended = rec_con.summarize();
    if (r.uncontended.p99 > 0) {
        r.p99_ratio = static_cast<double>(r.contended.p99) /
                      static_cast<double>(r.uncontended.p99);
    }
    r.bulk_frames = bulk_frames;
    r.ran = true;
    return r;
}

struct FailoverResult {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;   ///< echoes received
    std::uint64_t duplicates = 0;  ///< sequence numbers seen twice
    std::uint64_t missing = 0;     ///< sequence numbers never echoed
    std::uint64_t failovers = 0;   ///< counted by the client transport
    std::uint64_t resent = 0;      ///< ring frames replayed over TCP
    std::uint64_t replay_skipped = 0; ///< replayed duplicates deduped
    std::uint64_t pinned_held = 0; ///< borrowed frames held across abandon
    bool pinned_ok = true;         ///< pinned bytes intact at the end
    bool shm_before = false;
    bool shm_after = true;
};

/// Sliding-window echo burst with a forced shm abandon halfway through:
/// every sequence number must come back exactly once, the late half over
/// the TCP fallback. Every 8th echo is pinned — the borrowed frame (a
/// live view into the segment) is held across the failover and its bytes
/// verified at the end — so the drill also proves the retire window and
/// the replay-dedup path under outstanding pins.
FailoverResult run_failover(const net::ShmOptions& opts) {
    ShmWirePair pair = make_shm_pair(opts);
    pair.echo.start();
    FailoverResult r;
    auto* shm = dynamic_cast<net::ShmTransport*>(pair.client.get());
    r.shm_before = shm != nullptr && shm->shm_active();

    constexpr std::uint32_t kCount = 400;
    constexpr std::uint32_t kWindow = 32;
    std::vector<std::uint8_t> frame = wire_frame(32);
    std::vector<std::uint32_t> seen(kCount, 0);
    std::vector<net::FrameBuffer> pinned;
    std::vector<std::uint32_t> pinned_seq;
    pinned.reserve(64);
    pinned_seq.reserve(64);
    std::uint32_t sent = 0, received = 0;
    while (received < kCount) {
        while (sent < kCount && sent - received < kWindow) {
            // Sequence number in the payload tail; the echo returns the
            // frame byte for byte.
            std::memcpy(frame.data() + frame.size() - 4, &sent, 4);
            net::FrameBuffer fb =
                net::FrameBufferPool::global().acquire(frame.size());
            std::memcpy(fb.data(), frame.data(), frame.size());
            pair.client->send_frame(std::move(fb));
            ++sent;
            if (shm != nullptr && sent == kCount / 2) {
                shm->abandon_shm("bench failover drill");
            }
        }
        auto f = pair.client->recv_frame();
        if (!f.has_value()) break;
        std::uint32_t seq = 0;
        std::memcpy(&seq, f->data() + f->size() - 4, 4);
        if (seq < kCount) ++seen[seq];
        ++received;
        // Pin every 8th echo across the failover (under the default pin
        // budget; pre-abandon pins are borrowed arena views, later ones
        // are pooled TCP frames — both must survive untouched).
        if (received % 8 == 0 && pinned.size() < 48 && f->size() >= 4) {
            pinned_seq.push_back(seq);
            pinned.push_back(std::move(*f));
        }
    }
    r.sent = sent;
    r.delivered = received;
    for (std::uint32_t n : seen) {
        if (n == 0) ++r.missing;
        if (n > 1) r.duplicates += n - 1;
    }
    r.pinned_held = pinned.size();
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        std::uint32_t seq = 0;
        std::memcpy(&seq, pinned[i].data() + pinned[i].size() - 4, 4);
        if (seq != pinned_seq[i]) r.pinned_ok = false;
    }
    if (shm != nullptr) {
        const net::ShmCounters c = shm->counters();
        r.failovers = c.failovers;
        r.shm_after = shm->shm_active();
        r.replay_skipped = c.replay_skipped;
        // The replay happens on the peer: it owns the unconsumed half of
        // the abandoner's RX ring and resends it over TCP.
        r.resent = c.resent_frames;
        if (auto* peer = dynamic_cast<net::ShmTransport*>(pair.echo.wire.get())) {
            r.resent += peer->counters().resent_frames;
        }
    }
    pinned.clear(); // release the borrowed slots before closing the wire
    pair.client->close();
    pair.echo.join();
    return r;
}

void print_row(const char* name, std::size_t payload,
               const rt::StatsSummary& s) {
    std::printf("%-10s %6zu B %10.2f %10.2f %10.2f %10.2f\n", name, payload,
                static_cast<double>(s.median) / 1000.0,
                static_cast<double>(s.p90) / 1000.0,
                static_cast<double>(s.p99) / 1000.0,
                static_cast<double>(s.max) / 1000.0);
}

void emit_stats(std::FILE* f, const rt::StatsSummary& s) {
    std::fprintf(f,
                 "{\"median_ns\": %lld, \"p90_ns\": %lld, \"p99_ns\": %lld, "
                 "\"max_ns\": %lld}",
                 static_cast<long long>(s.median),
                 static_cast<long long>(s.p90),
                 static_cast<long long>(s.p99),
                 static_cast<long long>(s.max));
}

} // namespace

int main(int argc, char** argv) {
    const char* json_path = "BENCH_remote.json";
    bool smoke = false;
    bool shm_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--shm-only") == 0) {
            shm_only = true;
        } else {
            json_path = argv[i];
        }
    }
    const std::size_t iters = smoke ? 100 : bench::sample_count(2'000);
    const std::size_t warmup = smoke ? 30 : iters / 5;
    // A killed bench run leaves its segment in /dev/shm; reclaim stale ones
    // before creating new segments (transports sweep at startup too, this
    // just makes the bench self-cleaning when it is the first shm user).
    if (const std::size_t swept = net::sweep_orphan_segments()) {
        std::printf("reclaimed %zu orphaned shm segment(s)\n", swept);
    }
    std::printf("=== Remote round-trip: pooled wire fast path ===\n");
    std::printf("batched %zu in flight, %zu samples per rung%s%s\n\n", kBatch,
                iters, smoke ? " (smoke)" : "", shm_only ? " (shm only)" : "");

    constexpr std::size_t kSizeCount =
        sizeof(kPayloadSizes) / sizeof(kPayloadSizes[0]);
    // Pre-warm the frame pool past peak in-flight demand (up to 2 frames
    // per round trip x kBatch in flight, both classes the payload sweep
    // touches) so a mid-run burst never has to allocate — the same
    // initialization-time preallocation a real-time deployment would do.
    net::FrameBufferPool::global().prewarm(512, 4 * kBatch);
    net::FrameBufferPool::global().prewarm(4096, 4 * kBatch);

    RungResult fast[kSizeCount];
    double worst_allocs = 0.0;
    BurstResult coalesce;
    if (!shm_only) {
        EchoHarness h;
        // Timed burn-in before any rung is measured: the first rung would
        // otherwise be taken while the CPU governor is still ramping (its
        // p50 comes out *above* the larger payloads measured seconds
        // later).
        {
            const auto burn_until = std::chrono::steady_clock::now() +
                                    std::chrono::milliseconds(smoke ? 50
                                                                    : 2000);
            std::uint64_t done = h.pongs();
            while (std::chrono::steady_clock::now() < burn_until) {
                run_batch(h, kPayloadSizes[0], done);
            }
        }
        for (std::size_t i = 0; i < kSizeCount; ++i) {
            fast[i] = run_rung(h, kPayloadSizes[i], iters, warmup);
        }

        std::printf("%-10s %8s %10s %10s %10s %10s\n", "Variant", "payload",
                    "p50(us)", "p90(us)", "p99(us)", "max(us)");
        for (std::size_t i = 0; i < kSizeCount; ++i) {
            print_row("fast", kPayloadSizes[i], fast[i].stats);
        }

        for (const RungResult& r : fast) {
            if (r.allocs_per_message > worst_allocs) {
                worst_allocs = r.allocs_per_message;
            }
        }
        std::printf(
            "\nsteady-state allocations per message (fast path): %.4f\n",
            worst_allocs);

        coalesce = run_burst();
        std::printf("burst syscalls/frame: coalesce %.3f (max batch %llu)\n",
                    coalesce.syscalls_per_frame,
                    static_cast<unsigned long long>(coalesce.max_batch_frames));
    }

    // ---- co-located shm rung: segment wire vs TCP fast path, same run ----
    const net::ShmOptions shm_opts;
    std::printf("\n=== shm wire vs TCP fast path (32 B, pipelined) ===\n");
    ShmWirePair shm_pair = make_shm_pair(shm_opts);
    std::printf("shm upgrade: %s (%s)\n", shm_pair.shm ? "yes" : "NO",
                shm_pair.detail.c_str());
    ShmRungResult shm_rung;
    if (shm_pair.shm) {
        shm_pair.echo.start();
        WireEcho tcp_echo;
        auto tcp_client = make_tcp_pair(tcp_echo);
        tcp_echo.start();
        shm_rung = run_shm_rung(*shm_pair.client, shm_pair.echo.wire.get(),
                                *tcp_client, 32, iters, warmup);
        tcp_client->close();
        tcp_echo.join();
        shm_pair.client->close();
        shm_pair.echo.join();
        std::printf("%-10s %8s %10s %10s %10s %10s\n", "Wire", "payload",
                    "p50(us)", "p90(us)", "p99(us)", "max(us)");
        print_row("shm", 32, shm_rung.shm);
        print_row("tcp", 32, shm_rung.tcp);
        std::printf("paired p50 speedup: %.1fx; allocs/msg %.4f; "
                    "futex/roundtrip %.4f (wakeups %.4f); %llu frames over "
                    "the segment; rx borrowed %llu copies %llu\n",
                    shm_rung.paired_speedup, shm_rung.allocs_per_message,
                    shm_rung.futex_per_message, shm_rung.wakeups_per_message,
                    static_cast<unsigned long long>(shm_rung.shm_frames),
                    static_cast<unsigned long long>(shm_rung.rx_borrowed),
                    static_cast<unsigned long long>(shm_rung.rx_copies));
    }

    // ---- zero-copy receive sweep: borrowed frames across payload sizes --
    constexpr std::size_t kSweepSizes[] = {32, 512, 4096};
    constexpr std::size_t kSweepCount =
        sizeof(kSweepSizes) / sizeof(kSweepSizes[0]);
    SweepRow sweep[kSweepCount] = {};
    bool sweep_ran = false;
    {
        net::FrameBufferPool::global().prewarm(8192, kBatch);
        ShmWirePair zc_pair = make_shm_pair(shm_opts);
        if (zc_pair.shm) {
            sweep_ran = true;
            zc_pair.echo.start();
            std::printf("\n=== zero-copy receive (payload sweep) ===\n");
            std::printf("%-10s %8s %10s %10s %10s %10s\n", "Receive",
                        "payload", "p50(us)", "p90(us)", "p99(us)", "max(us)");
            for (std::size_t i = 0; i < kSweepCount; ++i) {
                sweep[i] = run_sweep_rung(*zc_pair.client, kSweepSizes[i],
                                          iters, warmup);
                print_row("zero-copy", kSweepSizes[i], sweep[i].zero_copy);
            }
            zc_pair.client->close();
            zc_pair.echo.join();
        } else {
            std::fprintf(stderr, "sweep skipped: shm upgrade failed (%s)\n",
                         zc_pair.detail.c_str());
        }
    }

    // ---- 2-band interference rung ----
    const TwoBandResult two_band =
        run_two_band_rung(smoke ? 50 : iters / 2, smoke ? 1 : 4);
    if (two_band.ran) {
        std::printf("\n=== 2-band shm: urgent under bulk ===\n");
        std::printf("%-12s %10s %10s %10s\n", "Urgent", "p50(us)", "p99(us)",
                    "max(us)");
        std::printf("%-12s %10.2f %10.2f %10.2f\n", "alone",
                    static_cast<double>(two_band.uncontended.median) / 1000.0,
                    static_cast<double>(two_band.uncontended.p99) / 1000.0,
                    static_cast<double>(two_band.uncontended.max) / 1000.0);
        std::printf("%-12s %10.2f %10.2f %10.2f\n", "under bulk",
                    static_cast<double>(two_band.contended.median) / 1000.0,
                    static_cast<double>(two_band.contended.p99) / 1000.0,
                    static_cast<double>(two_band.contended.max) / 1000.0);
        std::printf("urgent p99 ratio %.2fx over %llu bulk frames\n",
                    two_band.p99_ratio,
                    static_cast<unsigned long long>(two_band.bulk_frames));
    } else {
        std::fprintf(stderr, "2-band rung skipped: shm upgrade failed\n");
    }

    const FailoverResult failover = run_failover(shm_opts);
    std::printf("failover drill: sent %llu delivered %llu duplicates %llu "
                "missing %llu resent %llu replay-skipped %llu failovers %llu "
                "pinned %llu (%s) (shm %s -> %s)\n",
                static_cast<unsigned long long>(failover.sent),
                static_cast<unsigned long long>(failover.delivered),
                static_cast<unsigned long long>(failover.duplicates),
                static_cast<unsigned long long>(failover.missing),
                static_cast<unsigned long long>(failover.resent),
                static_cast<unsigned long long>(failover.replay_skipped),
                static_cast<unsigned long long>(failover.failovers),
                static_cast<unsigned long long>(failover.pinned_held),
                failover.pinned_ok ? "intact" : "CORRUPT",
                failover.shm_before ? "up" : "down",
                failover.shm_after ? "up" : "down");

    if (std::FILE* f = std::fopen(json_path, "w")) {
        std::fprintf(f, "{\n  \"benchmark\": \"remote_roundtrip\",\n");
        std::fprintf(f, "  \"batch_in_flight\": %zu,\n", kBatch);
        std::fprintf(f, "  \"samples_per_rung\": %zu,\n", iters);
        if (!shm_only) {
            std::fprintf(f, "  \"sizes\": [\n");
            for (std::size_t i = 0; i < kSizeCount; ++i) {
                std::fprintf(f, "    {\"payload_bytes\": %zu, \"fast\": ",
                             kPayloadSizes[i]);
                emit_stats(f, fast[i].stats);
                std::fprintf(f, "}%s\n", i + 1 < kSizeCount ? "," : "");
            }
            std::fprintf(f, "  ],\n");
            std::fprintf(f, "  \"allocs_per_message_steady_state\": %.4f,\n",
                         worst_allocs);
            std::fprintf(f,
                         "  \"burst\": {\"coalesce_syscalls_per_frame\": %.3f, "
                         "\"max_batch_frames\": %llu},\n",
                         coalesce.syscalls_per_frame,
                         static_cast<unsigned long long>(
                             coalesce.max_batch_frames));
        }
        std::fprintf(f, "  \"shm\": {\n");
        std::fprintf(f, "    \"upgraded\": %s,\n",
                     shm_pair.shm ? "true" : "false");
        std::fprintf(f, "    \"payload_bytes\": 32,\n");
        std::fprintf(f, "    \"shm\": ");
        emit_stats(f, shm_rung.shm);
        std::fprintf(f, ",\n    \"tcp\": ");
        emit_stats(f, shm_rung.tcp);
        std::fprintf(f, ",\n    \"paired_p50_speedup\": %.2f,\n",
                     shm_rung.paired_speedup);
        std::fprintf(f, "    \"allocs_per_message\": %.4f,\n",
                     shm_rung.allocs_per_message);
        std::fprintf(f, "    \"futex_per_roundtrip\": %.4f,\n",
                     shm_rung.futex_per_message);
        std::fprintf(f, "    \"wakeups_per_roundtrip\": %.4f,\n",
                     shm_rung.wakeups_per_message);
        std::fprintf(f, "    \"shm_frames\": %llu,\n",
                     static_cast<unsigned long long>(shm_rung.shm_frames));
        std::fprintf(f, "    \"rx_copies\": %llu,\n",
                     static_cast<unsigned long long>(shm_rung.rx_copies));
        std::fprintf(f, "    \"rx_borrowed\": %llu,\n",
                     static_cast<unsigned long long>(shm_rung.rx_borrowed));
        if (sweep_ran) {
            std::fprintf(f, "    \"sweep\": [\n");
            for (std::size_t i = 0; i < kSweepCount; ++i) {
                std::fprintf(f, "      {\"payload_bytes\": %zu, "
                             "\"zero_copy\": ",
                             sweep[i].payload);
                emit_stats(f, sweep[i].zero_copy);
                std::fprintf(f, "}%s\n", i + 1 < kSweepCount ? "," : "");
            }
            std::fprintf(f, "    ],\n");
        }
        if (two_band.ran) {
            std::fprintf(f, "    \"two_band\": {\"uncontended\": ");
            emit_stats(f, two_band.uncontended);
            std::fprintf(f, ", \"contended\": ");
            emit_stats(f, two_band.contended);
            std::fprintf(f,
                         ", \"urgent_p99_ratio\": %.2f, "
                         "\"bulk_frames\": %llu},\n",
                         two_band.p99_ratio,
                         static_cast<unsigned long long>(
                             two_band.bulk_frames));
        }
        std::fprintf(f,
                     "    \"failover\": {\"sent\": %llu, \"delivered\": %llu, "
                     "\"duplicates\": %llu, \"missing\": %llu, "
                     "\"resent_frames\": %llu, \"replay_skipped\": %llu, "
                     "\"pinned_held\": %llu, \"pinned_ok\": %s, "
                     "\"failovers\": %llu}\n",
                     static_cast<unsigned long long>(failover.sent),
                     static_cast<unsigned long long>(failover.delivered),
                     static_cast<unsigned long long>(failover.duplicates),
                     static_cast<unsigned long long>(failover.missing),
                     static_cast<unsigned long long>(failover.resent),
                     static_cast<unsigned long long>(failover.replay_skipped),
                     static_cast<unsigned long long>(failover.pinned_held),
                     failover.pinned_ok ? "true" : "false",
                     static_cast<unsigned long long>(failover.failovers));
        std::fprintf(f, "  }\n}\n");
        std::fclose(f);
        std::printf("\nwrote %s\n", json_path);
    } else {
        std::fprintf(stderr, "cannot write %s\n", json_path);
    }

    bool ok = true;
    // Gate 1: the steady-state remote hop is allocation-free. Sanitizer
    // runtimes allocate behind the scenes, so the gate only runs on plain
    // builds.
    if (!shm_only && !COMPADRES_UNDER_SANITIZER && worst_allocs != 0.0) {
        std::fprintf(stderr,
                     "FAIL: fast path allocated %.4f times per message in "
                     "steady state (want 0)\n",
                     worst_allocs);
        ok = false;
    }
    // Gate 2: bursts amortize syscalls — strictly fewer sendmsg calls than
    // frames.
    if (!shm_only && coalesce.syscalls_per_frame >= 1.0) {
        std::fprintf(stderr,
                     "FAIL: coalescing writer made %.3f syscalls per frame "
                     "under burst (want < 1)\n",
                     coalesce.syscalls_per_frame);
        ok = false;
    }
    // Gate 4: two endpoints on the same host must actually get the
    // segment; a fallback here means the handshake broke.
    if (!shm_pair.shm) {
        std::fprintf(stderr,
                     "FAIL: co-located shm upgrade fell back to TCP (%s)\n",
                     shm_pair.detail.c_str());
        ok = false;
    }
    // Gate 5: the shm steady path makes no heap allocations and enters the
    // kernel less than once per round trip (futex wakes amortize across
    // the pipelined batch; everything else is user-space only).
    if (shm_pair.shm && !COMPADRES_UNDER_SANITIZER) {
        if (shm_rung.allocs_per_message != 0.0) {
            std::fprintf(stderr,
                         "FAIL: shm wire allocated %.4f times per message in "
                         "steady state (want 0)\n",
                         shm_rung.allocs_per_message);
            ok = false;
        }
        if (shm_rung.futex_per_message >= 1.0) {
            std::fprintf(stderr,
                         "FAIL: shm wire made %.4f futex syscalls per round "
                         "trip (want < 1)\n",
                         shm_rung.futex_per_message);
            ok = false;
        }
    }
    // Gate 6 (full runs on plain builds only): the segment wire beats the
    // same-run TCP fast path by at least 5x at the 32 B rung.
    if (shm_pair.shm && !smoke && !COMPADRES_UNDER_SANITIZER &&
        shm_rung.paired_speedup < 5.0) {
        std::fprintf(stderr,
                     "FAIL: shm p50 speedup over TCP is only %.1fx at 32 B "
                     "(want >= 5x)\n",
                     shm_rung.paired_speedup);
        ok = false;
    }
    // Gate 7: the failover drill loses nothing and duplicates nothing —
    // every sequence number echoed exactly once across the shm->TCP seam —
    // and the frames the app kept pinned across the failover still read the
    // bytes the producer wrote (the frozen segment stays mapped and intact
    // until every borrowed frame dies).
    if (failover.missing != 0 || failover.duplicates != 0 ||
        failover.delivered != failover.sent || failover.failovers == 0 ||
        failover.shm_after || !failover.pinned_ok) {
        std::fprintf(stderr,
                     "FAIL: failover drill sent %llu, delivered %llu "
                     "(%llu missing, %llu duplicates, %llu failovers, shm "
                     "%s after, pinned %s)\n",
                     static_cast<unsigned long long>(failover.sent),
                     static_cast<unsigned long long>(failover.delivered),
                     static_cast<unsigned long long>(failover.missing),
                     static_cast<unsigned long long>(failover.duplicates),
                     static_cast<unsigned long long>(failover.failovers),
                     failover.shm_after ? "still up" : "down",
                     failover.pinned_ok ? "intact" : "CORRUPT");
        ok = false;
    }
    // Gate 8: the steady shm rung never falls back
    // to the copy-out path — every received frame is a view into the
    // segment.
    if (shm_pair.shm && shm_rung.rx_copies != 0) {
        std::fprintf(stderr,
                     "FAIL: shm receive path copied %llu frames out of the "
                     "segment in steady state (want 0; borrowed %llu)\n",
                     static_cast<unsigned long long>(shm_rung.rx_copies),
                     static_cast<unsigned long long>(shm_rung.rx_borrowed));
        ok = false;
    }
    // Gate 10 (full runs on plain builds only): a saturating bulk lane must
    // not queue ahead of the urgent lane — banded rings keep the urgent p99
    // within 2x of its uncontended baseline.
    if (two_band.ran && !smoke && !COMPADRES_UNDER_SANITIZER &&
        two_band.p99_ratio > 2.0) {
        std::fprintf(stderr,
                     "FAIL: urgent p99 under bulk is %.2fx the uncontended "
                     "p99 (want <= 2x; %llu bulk frames interleaved)\n",
                     two_band.p99_ratio,
                     static_cast<unsigned long long>(two_band.bulk_frames));
        ok = false;
    }
    std::printf("%s\n", ok ? "remote gates PASSED" : "remote gates FAILED");
    return ok ? 0 : 1;
}
