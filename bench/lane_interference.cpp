// Lane interference bench + gates for priority-banded connection lanes.
//
// The priority-inversion scenario the lanes exist to fix: one logical
// route carrying both a saturating 1024 B bulk stream (band 1) and sparse
// 32 B urgent round-trips (band 0). Four assemblies live at once and
// every sample is an adjacent four-way round, so machine drift inflates
// every leg instead of whichever one owned a slow scheduling window:
//
//   single-wire, uncontended — urgent ping-pong over one TCP wire,
//   single-wire, contended   — the same wire also carrying the bulk
//                              stream: urgent frames queue behind bulk in
//                              the coalescing intake and again in the
//                              kernel's bounded socket buffers,
//   2-lane group, uncontended — urgent ping-pong over lane 0 of a
//                              LaneGroup (the lane tax, if any),
//   2-lane group, contended  — bulk saturates lane 1 while urgent rides
//                              lane 0: no shared writer, no shared socket.
//
// The binary is also a correctness gate (run by the `lane_bench` tool
// target, and in --smoke form by ctest):
//   * the 2-lane groups really hold 2 lanes and finish the run with zero
//     lane failovers,
//   * steady-state allocations across the whole contended sampling window
//     == 0 (global operator new override, as in remote_roundtrip),
//   * a concurrent urgent burst through the group still coalesces to
//     < 1 syscall per frame on lane 0,
//   * 2-lane urgent p99 under bulk interference <= 1.5x its own
//     uncontended p99, while the single wire shows >= 3x inversion in the
//     same run (full runs on plain builds only; timing under --smoke or
//     sanitizers is noise).
// Results land in BENCH_lanes.json.
#include "common.hpp"

#include "cdr/giop.hpp"
#include "net/frame_pool.hpp"
#include "net/lane_group.hpp"
#include "net/tcp.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

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
// assert the banded send path makes none.
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

constexpr std::size_t kUrgentPayload = 32;
/// Sized to the frame pool's 4 KiB class (frame = payload + GIOP/request
/// header) so the whole window recycles through one deep free list.
constexpr std::size_t kBulkPayload = 3072;
/// Bulk frames in flight (sent, echo not yet drained). A credit window
/// rather than a free-running stream: it bounds the backlog an urgent
/// frame can queue behind to a fixed ~0.8 MiB (window x frame x both
/// directions) so the inversion measurement is a deterministic quantity —
/// and it keeps both directions of the wire inside the kernel's buffer
/// autotune, which a free-running saturator defeats (zero-window persist
/// stalls collapse loopback throughput to ~KB/s and a single contended
/// round trip to ~1 s).
constexpr std::size_t kBulkWindow = 128;

std::vector<std::uint8_t> make_request(std::size_t payload_size,
                                       std::uint8_t band) {
    cdr::RequestHeader req;
    req.request_id = 1;
    req.object_key = "lanes";
    req.operation = "echo";
    std::vector<std::uint8_t> payload(payload_size, 0x5A);
    std::vector<std::uint8_t> frame =
        cdr::encode_request(req, payload.data(), payload.size());
    cdr::set_frame_band(frame.data(), band);
    return frame;
}

/// Streams band-1 bulk frames into `wire` under a credit window: at most
/// kBulkWindow frames sent-but-not-yet-echoed. The drain thread returns
/// credit with note_echo(). Keeps the route saturated with a bounded,
/// deterministic backlog (see kBulkWindow).
class BulkStream {
public:
    BulkStream(net::Transport& wire, const std::vector<std::uint8_t>& frame)
        : thread_([this, &wire, &frame] {
              for (;;) {
                  {
                      std::unique_lock lk(mu_);
                      cv_.wait(lk, [&] {
                          return stop_ || sent_ - echoed_ < kBulkWindow;
                      });
                      if (stop_) return;
                      ++sent_;
                  }
                  try {
                      wire.send_frame(frame);
                  } catch (const net::TransportError&) {
                      return; // wire closed: the run is over
                  }
              }
          }) {}

    void note_echo() {
        {
            std::lock_guard lk(mu_);
            ++echoed_;
        }
        cv_.notify_one();
    }

    void stop() {
        {
            std::lock_guard lk(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable()) thread_.join();
    }

private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::uint64_t sent_ = 0;
    std::uint64_t echoed_ = 0;
    bool stop_ = false;
    std::thread thread_;
};

/// One-slot rendezvous for the urgent echo: the demux reader parks the
/// band-0 frame here and the measuring thread collects it.
class UrgentSlot {
public:
    void deliver() {
        {
            std::lock_guard lk(mu_);
            ready_ = true;
        }
        cv_.notify_one();
    }
    bool take() {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [&] { return ready_ || dead_; });
        if (dead_) return false;
        ready_ = false;
        return true;
    }
    void kill() {
        {
            std::lock_guard lk(mu_);
            dead_ = true;
        }
        cv_.notify_all();
    }

private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool ready_ = false;
    bool dead_ = false;
};

/// Urgent + bulk multiplexed over ONE TCP wire (the pre-lane baseline).
/// A demux reader on the client separates the echo streams by the band
/// stamped in the GIOP flags octet.
class SingleWireRig {
public:
    explicit SingleWireRig(bool contended)
        : acceptor_(0),
          urgent_frame_(make_request(kUrgentPayload, 0)),
          bulk_frame_(make_request(kBulkPayload, 1)) {
        std::thread accept_thread([&] { server_ = acceptor_.accept(); });
        client_ = net::tcp_connect("127.0.0.1", acceptor_.bound_port());
        accept_thread.join();

        // Teardown races surface as TransportError on whichever reader is
        // mid-frame when the peer's close lands (the contended rigs close
        // with bulk in flight by design) — treat them like EOF.
        echo_ = std::thread([this] {
            try {
                while (auto f = server_->recv_frame()) {
                    server_->send_frame(std::move(*f));
                }
            } catch (const net::TransportError&) {
            }
        });
        // Bulk starts before the demux reader so the reader's view of the
        // optional is settled; early echoes just wait in kernel buffers.
        if (contended) bulk_.emplace(*client_, bulk_frame_);
        demux_ = std::thread([this] {
            try {
                while (auto f = client_->recv_frame()) {
                    if (cdr::frame_band(f->data()) == 0) {
                        urgent_.deliver();
                    } else {
                        ++bulk_echoes_;
                        if (bulk_.has_value()) bulk_->note_echo();
                    }
                }
            } catch (const net::TransportError&) {
            }
            urgent_.kill();
        });
    }

    /// One urgent round trip: send band-0 frame, wait for its echo.
    std::int64_t urgent_rt() {
        const std::int64_t t0 = rt::now_ns();
        client_->send_frame(urgent_frame_);
        if (!urgent_.take()) return -1;
        return rt::now_ns() - t0;
    }

    net::TransportStats client_stats() const { return client_->stats(); }

    void stop() {
        if (bulk_.has_value()) bulk_->stop();
        client_->close();
        server_->close();
        if (echo_.joinable()) echo_.join();
        if (demux_.joinable()) demux_.join();
    }

private:
    net::TcpAcceptor acceptor_;
    const std::vector<std::uint8_t> urgent_frame_;
    const std::vector<std::uint8_t> bulk_frame_;
    std::unique_ptr<net::Transport> client_;
    std::unique_ptr<net::Transport> server_;
    std::thread echo_;
    std::thread demux_;
    UrgentSlot urgent_;
    std::uint64_t bulk_echoes_ = 0;
    std::optional<BulkStream> bulk_;
};

/// The same traffic over a 2-lane LaneGroup: urgent on lane 0, bulk on
/// lane 1, classified by the band each frame carries. No demux reader on
/// the urgent path — band 0 echoes can only arrive on lane 0, so the
/// measuring thread reads that lane directly (the latency-sensitive
/// receive pattern the LaneGroup header documents).
class LaneRig {
public:
    explicit LaneRig(bool contended)
        : urgent_frame_(make_request(kUrgentPayload, 0)),
          bulk_frame_(make_request(kBulkPayload, 1)) {
        net::LaneGroupOptions opts;
        opts.bands = 2;
        net::LaneAcceptor acceptor(0, opts);
        std::unique_ptr<net::LaneGroup> server;
        std::thread accept_thread([&] { server = acceptor.accept(); });
        client_ = net::lane_connect("127.0.0.1", acceptor.bound_port(), opts);
        accept_thread.join();
        server_ = std::move(server);

        for (std::size_t i = 0; i < server_->lane_count(); ++i) {
            echo_.emplace_back([this, i] {
                try {
                    net::Transport& lane = server_->lane(i);
                    while (auto f = lane.recv_frame()) {
                        lane.send_frame(std::move(*f));
                    }
                } catch (const net::TransportError&) {
                    // teardown race: close landed mid-frame
                }
            });
        }
        if (contended) bulk_.emplace(*client_, bulk_frame_);
        bulk_drain_ = std::thread([this] {
            try {
                while (client_->lane(1).recv_frame().has_value()) {
                    ++bulk_echoes_;
                    if (bulk_.has_value()) bulk_->note_echo();
                }
            } catch (const net::TransportError&) {
            }
        });
    }

    /// Pre-fill both sides' per-lane pools so peak in-flight demand never
    /// touches the heap mid-measurement (the RTSJ-style initialization
    /// preallocation every bench in this repo models).
    void prewarm() {
        for (auto* group : {client_.get(), server_.get()}) {
            group->pool_for_band(0).prewarm(512, 256);
            group->pool_for_band(1).prewarm(kBulkPayload + 512, 192);
        }
    }

    std::int64_t urgent_rt() {
        const std::int64_t t0 = rt::now_ns();
        client_->send_frame(urgent_frame_);
        if (!client_->lane(0).recv_frame().has_value()) return -1;
        return rt::now_ns() - t0;
    }

    net::LaneGroup& client() { return *client_; }
    net::LaneGroup& server() { return *server_; }

    void stop() {
        if (bulk_.has_value()) bulk_->stop();
        client_->close();
        server_->close();
        for (auto& t : echo_) {
            if (t.joinable()) t.join();
        }
        if (bulk_drain_.joinable()) bulk_drain_.join();
    }

private:
    const std::vector<std::uint8_t> urgent_frame_;
    const std::vector<std::uint8_t> bulk_frame_;
    std::unique_ptr<net::LaneGroup> client_;
    std::unique_ptr<net::LaneGroup> server_;
    std::vector<std::thread> echo_;
    std::thread bulk_drain_;
    std::uint64_t bulk_echoes_ = 0;
    std::optional<BulkStream> bulk_;
};

struct BurstResult {
    double syscalls_per_frame = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t max_batch_frames = 0;
};

/// Concurrent urgent burst through a dedicated bounded-buffer group: 4
/// sender threads push band-0 frames through the lane classifier while a
/// deliberately delayed reader lets the small socket buffers back up, so
/// the coalescing writer blocks in sendmsg and the other senders' frames
/// pile into the intake — the same pressure shape as the PR-3/PR-4
/// syscall gates. Lane classification must not have cost the writer its
/// batching: < 1 syscall per frame on lane 0.
BurstResult run_urgent_burst() {
    net::LaneGroupOptions opts;
    opts.bands = 2;
    opts.tcp.send_buffer_bytes = 16 * 1024;
    opts.tcp.recv_buffer_bytes = 16 * 1024;
    net::LaneAcceptor acceptor(0, opts);
    std::unique_ptr<net::LaneGroup> server;
    std::thread accept_thread([&] { server = acceptor.accept(); });
    auto client = net::lane_connect("127.0.0.1", acceptor.bound_port(), opts);
    accept_thread.join();

    const std::vector<std::uint8_t> frame = make_request(kUrgentPayload, 0);
    constexpr int kSenders = 4;
    constexpr int kPerSender = 500;
    std::vector<std::thread> senders;
    for (int t = 0; t < kSenders; ++t) {
        senders.emplace_back([&client, &frame] {
            for (int i = 0; i < kPerSender; ++i) client->send_frame(frame);
        });
    }
    // The delayed drain is what makes the burst a burst: by the time the
    // server starts reading, every sender is parked on a full pipe.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (int i = 0; i < kSenders * kPerSender; ++i) {
        if (!server->lane(0).recv_frame().has_value()) break;
    }
    for (auto& s : senders) s.join();

    const net::TransportStats stats = client->lane_stats(0);
    client->close();
    server->close();
    BurstResult r;
    r.frames = stats.frames_sent;
    r.max_batch_frames = stats.max_batch_frames;
    r.syscalls_per_frame =
        r.frames > 0 ? static_cast<double>(stats.send_syscalls) /
                           static_cast<double>(r.frames)
                     : 1.0;
    return r;
}

void print_row(const char* leg, const rt::StatsSummary& s) {
    std::printf("%-24s %10.2f %10.2f %10.2f %10.2f\n", leg,
                static_cast<double>(s.median) / 1000.0,
                static_cast<double>(s.p90) / 1000.0,
                static_cast<double>(s.p99) / 1000.0,
                static_cast<double>(s.max) / 1000.0);
}

void emit_leg(std::FILE* f, const char* leg, const rt::StatsSummary& s,
              bool last) {
    std::fprintf(f,
                 "    {\"leg\": \"%s\", \"p50_ns\": %lld, \"p90_ns\": %lld, "
                 "\"p99_ns\": %lld, \"max_ns\": %lld}%s\n",
                 leg, static_cast<long long>(s.median),
                 static_cast<long long>(s.p90),
                 static_cast<long long>(s.p99),
                 static_cast<long long>(s.max), last ? "" : ",");
}

} // namespace

int main(int argc, char** argv) {
    const char* json_path = "BENCH_lanes.json";
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            json_path = argv[i];
        }
    }
    const std::size_t rounds = smoke ? 150 : 1500;
    const std::size_t warmup = rounds / 5;
    std::printf("=== Lane interference: 2-lane group vs single wire ===\n");
    std::printf("%zu rounds per leg, urgent %zu B / bulk %zu B%s\n\n", rounds,
                kUrgentPayload, kBulkPayload, smoke ? " (smoke)" : "");

    // The single-wire rigs draw from the process-global pool; prewarm it
    // past peak demand so their steady state never allocates either.
    net::FrameBufferPool::global().prewarm(512, 256);
    net::FrameBufferPool::global().prewarm(kBulkPayload + 512, 192);

    SingleWireRig sw_unc(/*contended=*/false);
    SingleWireRig sw_con(/*contended=*/true);
    LaneRig lane_unc(/*contended=*/false);
    LaneRig lane_con(/*contended=*/true);
    lane_unc.prewarm();
    lane_con.prewarm();

    rt::StatsRecorder rec_sw_unc(rounds);
    rt::StatsRecorder rec_sw_con(rounds);
    rt::StatsRecorder rec_lane_unc(rounds);
    rt::StatsRecorder rec_lane_con(rounds);
    std::uint64_t allocs = 0;
    std::uint64_t urgent_messages = 0;
    for (std::size_t i = 0; i < warmup + rounds; ++i) {
        const std::uint64_t a0 = g_allocs.load();
        const std::int64_t t_sw_unc = sw_unc.urgent_rt();
        const std::int64_t t_sw_con = sw_con.urgent_rt();
        const std::int64_t t_lane_unc = lane_unc.urgent_rt();
        const std::int64_t t_lane_con = lane_con.urgent_rt();
        const std::uint64_t a1 = g_allocs.load();
        if (t_sw_unc < 0 || t_sw_con < 0 || t_lane_unc < 0 || t_lane_con < 0)
            break; // a wire died; the structural gates will catch it
        if (i >= warmup) {
            rec_sw_unc.record(t_sw_unc);
            rec_sw_con.record(t_sw_con);
            rec_lane_unc.record(t_lane_unc);
            rec_lane_con.record(t_lane_con);
            allocs += a1 - a0;
            urgent_messages += 4;
        }
    }
    const rt::StatsSummary s_sw_unc = rec_sw_unc.summarize();
    const rt::StatsSummary s_sw_con = rec_sw_con.summarize();
    const rt::StatsSummary s_lane_unc = rec_lane_unc.summarize();
    const rt::StatsSummary s_lane_con = rec_lane_con.summarize();
    const double allocs_per_message =
        urgent_messages > 0
            ? static_cast<double>(allocs) / static_cast<double>(urgent_messages)
            : -1.0;

    std::printf("%-24s %10s %10s %10s %10s\n", "Leg (urgent RT)", "p50(us)",
                "p90(us)", "p99(us)", "max(us)");
    print_row("single-wire", s_sw_unc);
    print_row("single-wire +bulk", s_sw_con);
    print_row("2-lane", s_lane_unc);
    print_row("2-lane +bulk", s_lane_con);

    const net::TransportStats con_lane0 = lane_con.client().lane_stats(0);
    const net::TransportStats con_lane1 = lane_con.client().lane_stats(1);
    std::printf("\ncontended group, lane 0: %llu sent, %llu stalls, intake "
                "hwm %llu; lane 1: %llu sent, %llu stalls, intake hwm %llu\n",
                (unsigned long long)con_lane0.frames_sent,
                (unsigned long long)con_lane0.send_stalls,
                (unsigned long long)con_lane0.intake_depth_hwm,
                (unsigned long long)con_lane1.frames_sent,
                (unsigned long long)con_lane1.send_stalls,
                (unsigned long long)con_lane1.intake_depth_hwm);
    std::printf("steady state: %.4f allocs per urgent message\n",
                allocs_per_message);

    const BurstResult burst = run_urgent_burst();
    std::printf("urgent-lane burst: %.3f syscalls/frame over %llu frames "
                "(max batch %llu)\n",
                burst.syscalls_per_frame,
                static_cast<unsigned long long>(burst.frames),
                static_cast<unsigned long long>(burst.max_batch_frames));

    sw_unc.stop();
    sw_con.stop();
    lane_con.stop();
    lane_unc.stop(); // after the burst: it was the burst's test subject

    const std::uint64_t failovers = lane_unc.client().lane_failovers() +
                                    lane_con.client().lane_failovers() +
                                    lane_unc.server().lane_failovers() +
                                    lane_con.server().lane_failovers();
    const std::size_t lane_width = lane_con.client().lane_count();

    if (std::FILE* f = std::fopen(json_path, "w")) {
        std::fprintf(f, "{\n  \"benchmark\": \"lane_interference\",\n");
        std::fprintf(f, "  \"rounds_per_leg\": %zu,\n", rounds);
        std::fprintf(f, "  \"urgent_payload_bytes\": %zu,\n", kUrgentPayload);
        std::fprintf(f, "  \"bulk_payload_bytes\": %zu,\n", kBulkPayload);
        std::fprintf(f, "  \"legs\": [\n");
        emit_leg(f, "single_wire", s_sw_unc, false);
        emit_leg(f, "single_wire_bulk", s_sw_con, false);
        emit_leg(f, "two_lane", s_lane_unc, false);
        emit_leg(f, "two_lane_bulk", s_lane_con, true);
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"lanes\": %zu,\n", lane_width);
        std::fprintf(f, "  \"lane_failovers\": %llu,\n",
                     static_cast<unsigned long long>(failovers));
        std::fprintf(f,
                     "  \"contended_lane0\": {\"frames_sent\": %llu, "
                     "\"send_stalls\": %llu, \"intake_depth_hwm\": %llu},\n",
                     (unsigned long long)con_lane0.frames_sent,
                     (unsigned long long)con_lane0.send_stalls,
                     (unsigned long long)con_lane0.intake_depth_hwm);
        std::fprintf(f,
                     "  \"contended_lane1\": {\"frames_sent\": %llu, "
                     "\"send_stalls\": %llu, \"intake_depth_hwm\": %llu},\n",
                     (unsigned long long)con_lane1.frames_sent,
                     (unsigned long long)con_lane1.send_stalls,
                     (unsigned long long)con_lane1.intake_depth_hwm);
        std::fprintf(f, "  \"allocs_per_message_steady_state\": %.4f,\n",
                     allocs_per_message);
        std::fprintf(f,
                     "  \"urgent_burst\": {\"syscalls_per_frame\": %.3f, "
                     "\"frames\": %llu, \"max_batch_frames\": %llu}\n}\n",
                     burst.syscalls_per_frame,
                     static_cast<unsigned long long>(burst.frames),
                     static_cast<unsigned long long>(burst.max_batch_frames));
        std::fclose(f);
        std::printf("\nwrote %s\n", json_path);
    } else {
        std::fprintf(stderr, "cannot write %s\n", json_path);
    }

    bool ok = true;
    // Gate 1: the groups really are 2 lanes wide and a clean run produced
    // no spurious failovers (failover behavior itself is unit-tested;
    // here it must simply never fire).
    if (lane_width != 2) {
        std::fprintf(stderr, "FAIL: lane group is %zu lanes wide (want 2)\n",
                     lane_width);
        ok = false;
    }
    if (failovers != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu lane failover(s) during a clean run "
                     "(want 0)\n",
                     static_cast<unsigned long long>(failovers));
        ok = false;
    }
    if (urgent_messages == 0) {
        std::fprintf(stderr, "FAIL: no urgent round trips completed\n");
        ok = false;
    }
    // Gate 2: the banded send path stays allocation-free in steady state
    // — across all four legs at once, bulk streams included (sanitizer
    // runtimes allocate behind the scenes; plain builds only).
    if (!COMPADRES_UNDER_SANITIZER && allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: %.4f allocations per urgent message in steady "
                     "state (want 0)\n",
                     allocs_per_message);
        ok = false;
    }
    // Gate 3: lane classification did not cost the coalescing writer its
    // batching — an urgent burst still makes < 1 syscall per frame.
    if (burst.syscalls_per_frame >= 1.0) {
        std::fprintf(stderr,
                     "FAIL: urgent-lane burst made %.3f syscalls per frame "
                     "(want < 1)\n",
                     burst.syscalls_per_frame);
        ok = false;
    }
    // Gate 4 (full runs on plain builds only — smoke samples and
    // sanitizer timing are noise): the whole point of the PR, both
    // directions. The lanes must hold urgent p99 under bulk interference
    // to within 1.5x of their own uncontended p99, AND the single wire
    // must actually exhibit >= 3x inversion in the same run — otherwise
    // the contended legs never generated the pressure the 1.5x bound
    // claims to survive, and the gate would pass vacuously.
    if (!smoke && !COMPADRES_UNDER_SANITIZER) {
        if (s_lane_con.p99 > s_lane_unc.p99 + s_lane_unc.p99 / 2) {
            std::fprintf(stderr,
                         "FAIL: 2-lane urgent p99 under bulk (%lld ns) "
                         "exceeds 1.5x uncontended p99 (%lld ns)\n",
                         static_cast<long long>(s_lane_con.p99),
                         static_cast<long long>(s_lane_unc.p99));
            ok = false;
        }
        // Inversion is judged at p50: it is a constant (the windowed
        // backlog), so the median carries it; the uncontended p99 on a
        // shared box is scheduling noise that would dilute the ratio.
        if (s_sw_con.median < 3 * s_sw_unc.median) {
            std::fprintf(stderr,
                         "FAIL: single-wire inversion only %lld ns p50 vs "
                         "%lld ns uncontended (want >= 3x: the bulk stream "
                         "failed to generate interference)\n",
                         static_cast<long long>(s_sw_con.median),
                         static_cast<long long>(s_sw_unc.median));
            ok = false;
        }
    }
    std::printf("%s\n", ok ? "lane gates PASSED" : "lane gates FAILED");
    return ok ? 0 : 1;
}
