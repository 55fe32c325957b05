// Live-recomposition churn bench + gates for the TransmissionPolicy seam.
//
// The scenario the quiesce-reroute-resume protocol exists for: a running
// ping/pong pipeline over a 2-band lane group whose ping route is
// repoliced every 50 ms (Block<->Ring, band 1<->0)
// while traffic keeps flowing. Two phases run back to back in the same
// process so the gate compares like with like:
//
//   baseline — round-trips with no recomposition,
//   churn    — the same round-trips while a control thread calls
//              RemoteBridge::repolicy_route on the live route at a fixed
//              cadence, recording each quiesce->resume pause.
//
// The binary is also a correctness gate (run by the `recompose_bench`
// tool target, and in --smoke form by ctest):
//   * zero messages lost or duplicated across the churn phase (every ping
//     produces exactly one pong),
//   * frames_dropped growth across both bridges == 0 — the drain-swap-
//     resume window never drops an in-flight frame,
//   * steady-state churn p50 within 5% of the same-run no-recompose
//     baseline p50 (full runs on plain builds only; timing under --smoke
//     or sanitizers is noise),
//   * the quiesce->resume pause p99 is reported (always, never gated —
//     it is the number an operator plans a maintenance window around).
// Results land in BENCH_recompose.json.
#include "common.hpp"

#include "core/recompose.hpp"
#include "net/lane_group.hpp"
#include "remote/bridge.hpp"
#include "rt/stats.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
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

using namespace compadres;

core::InPortConfig sync_port() {
    core::InPortConfig cfg;
    cfg.min_threads = cfg.max_threads = 0;
    return cfg;
}

/// A.ping -> bridge -> B (echo) -> bridge -> A.pong over a real 2-band
/// TCP lane group, so band repolicies move frames between actual wires.
class ChurnHarness {
public:
    ChurnHarness() {
        core::register_builtin_message_types();
        remote::register_builtin_serializers();

        net::LaneGroupOptions opts;
        opts.bands = 2;
        net::LaneAcceptor acceptor(0, opts);
        std::unique_ptr<net::LaneGroup> server;
        std::thread accept_thread([&] { server = acceptor.accept(); });
        auto client =
            net::lane_connect("127.0.0.1", acceptor.bound_port(), opts);
        accept_thread.join();

        bridge_a_ = std::make_unique<remote::RemoteBridge>(
            app_a_, std::move(client), "churn-a");
        bridge_b_ = std::make_unique<remote::RemoteBridge>(
            app_b_, std::move(server), "churn-b");

        auto& pinger = app_a_.create_immortal<core::Component>("Pinger");
        ping_out_ = &pinger.add_out_port<core::MyInteger>("out", "MyInteger");
        core::TransmissionPolicy bulk;
        bulk.band = 1;
        bridge_a_->export_route(*ping_out_, "ping", bulk);
        auto& pong_in = pinger.add_in_port<core::MyInteger>(
            "back", "MyInteger", sync_port(),
            [this](core::MyInteger&, core::Smm&) {
                // Notify under the mutex: the waiter may destroy the
                // harness the moment the predicate holds, so the signal
                // must happen-before our unlock.
                std::lock_guard lk(mu_);
                ++pongs_;
                cv_.notify_one();
            });
        bridge_a_->import_route("pong", pong_in);

        auto& echo = app_b_.create_immortal<core::Component>("Echo");
        echo_out_ = &echo.add_out_port<core::MyInteger>("out", "MyInteger");
        bridge_b_->export_route(*echo_out_, "pong");
        auto& echo_in = echo.add_in_port<core::MyInteger>(
            "in", "MyInteger", sync_port(),
            [this](core::MyInteger& m, core::Smm&) {
                core::MyInteger* fwd = echo_out_->get_message();
                fwd->value = m.value;
                echo_out_->send(fwd, 5);
            });
        bridge_b_->import_route("ping", echo_in);

        bridge_a_->start();
        bridge_b_->start();
    }

    ~ChurnHarness() {
        // Stop frame delivery (reactor callbacks into the pong handler)
        // before mu_/cv_ — declared below the bridges, destroyed first —
        // go away.
        bridge_b_.reset();
        bridge_a_.reset();
    }

    /// One measured round trip (one message in flight).
    std::int64_t round_trip() {
        const std::uint64_t want = ++pings_;
        const std::int64_t t0 = rt::now_ns();
        core::MyInteger* msg = ping_out_->get_message();
        msg->value = static_cast<int>(want);
        ping_out_->send(msg, 5);
        std::unique_lock lk(mu_);
        cv_.wait(lk, [&] { return pongs_ >= want; });
        return rt::now_ns() - t0;
    }

    /// Alternate the live ping route between its bulk and urgent shapes;
    /// returns the quiesce->resume pause in nanoseconds.
    std::uint64_t flip_policy() {
        core::TransmissionPolicy next;
        if (flips_++ % 2 == 0) {
            next.overflow = core::OverflowPolicy::kRingOverwrite;
            next.band = 0;
        } else {
            next.band = 1;
        }
        return bridge_a_->repolicy_route("ping", next);
    }

    std::uint64_t pings() const { return pings_; }
    std::uint64_t pongs() const {
        std::lock_guard lk(mu_);
        return pongs_;
    }
    std::uint64_t frames_dropped() const {
        return bridge_a_->frames_dropped() + bridge_b_->frames_dropped();
    }

private:
    core::Application app_a_{"churn-app-a"};
    core::Application app_b_{"churn-app-b"};
    std::unique_ptr<remote::RemoteBridge> bridge_a_;
    std::unique_ptr<remote::RemoteBridge> bridge_b_;
    core::OutPort<core::MyInteger>* ping_out_ = nullptr;
    core::OutPort<core::MyInteger>* echo_out_ = nullptr;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::uint64_t pongs_ = 0;
    std::uint64_t pings_ = 0;
    std::uint64_t flips_ = 0;
};

struct PhaseResult {
    rt::StatsSummary stats;
    std::uint64_t messages = 0;
    std::uint64_t lost = 0;
    std::uint64_t dropped_growth = 0;
};

/// Round-trip for `duration_ms` (at least `min_samples` trips). When
/// `churn_every_ms` > 0 a control thread repolicies the live route at
/// that cadence, appending each pause to `pauses`.
PhaseResult run_phase(ChurnHarness& h, std::size_t min_samples,
                      std::size_t warmup, std::int64_t duration_ms,
                      std::int64_t churn_every_ms,
                      std::vector<std::uint64_t>* pauses) {
    const std::uint64_t dropped_before = h.frames_dropped();
    std::atomic<bool> stop_churn{false};
    std::thread churn;
    if (churn_every_ms > 0) {
        churn = std::thread([&] {
            while (!stop_churn.load()) {
                pauses->push_back(h.flip_policy());
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(churn_every_ms));
            }
        });
    }
    rt::StatsRecorder recorder(min_samples + warmup);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(duration_ms);
    std::size_t n = 0;
    while (n < min_samples + warmup ||
           std::chrono::steady_clock::now() < until) {
        recorder.record(h.round_trip());
        ++n;
    }
    if (churn.joinable()) {
        stop_churn.store(true);
        churn.join();
    }
    recorder.discard_warmup(warmup);
    PhaseResult r;
    r.stats = recorder.summarize();
    r.messages = n;
    r.lost = h.pings() - h.pongs(); // round_trip waits: 0 unless broken
    r.dropped_growth = h.frames_dropped() - dropped_before;
    return r;
}

std::uint64_t pct(std::vector<std::uint64_t> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t idx = static_cast<std::size_t>(
        q / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

void print_phase(const char* label, const PhaseResult& r) {
    std::printf("%-10s %8llu msgs  p50 %7.2f us  p90 %7.2f us  "
                "p99 %7.2f us  lost %llu  dropped+%llu\n",
                label, static_cast<unsigned long long>(r.messages),
                static_cast<double>(r.stats.median) / 1000.0,
                static_cast<double>(r.stats.p90) / 1000.0,
                static_cast<double>(r.stats.p99) / 1000.0,
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.dropped_growth));
}

} // namespace

int main(int argc, char** argv) {
    const char* json_path = "BENCH_recompose.json";
    bool smoke = false;
    bool no_timing = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--no-timing") == 0) {
            // Full-cadence churn with the p50-ratio gate off: what CI runs,
            // where a loaded shared runner would flake any latency ratio.
            no_timing = true;
        } else {
            json_path = argv[i];
        }
    }
    // Full: 5 s per phase, repolicy every 50 ms (~100 recompositions).
    // Smoke: a 250 ms phase with a tight churn cadence so the
    // drain-swap-resume path still runs dozens of times.
    const std::size_t min_samples = smoke ? 300 : bench::sample_count(2'000);
    const std::size_t warmup = smoke ? 30 : min_samples / 5;
    const std::int64_t phase_ms = smoke ? 250 : 5'000;
    const std::int64_t churn_ms = smoke ? 5 : 50;

    std::printf("=== Live recomposition churn: repolicy a route under "
                "traffic ===\n");
    std::printf("2-band lane group, repolicy every %lld ms%s\n\n",
                static_cast<long long>(churn_ms), smoke ? " (smoke)" : "");

    ChurnHarness h;
    std::vector<std::uint64_t> pauses;
    const PhaseResult baseline =
        run_phase(h, min_samples, warmup, phase_ms, 0, nullptr);
    const PhaseResult churn =
        run_phase(h, min_samples, warmup, phase_ms, churn_ms, &pauses);

    print_phase("baseline", baseline);
    print_phase("churn", churn);
    const std::uint64_t pause_p50 = pct(pauses, 50.0);
    const std::uint64_t pause_p99 = pct(pauses, 99.0);
    const std::uint64_t pause_max =
        pauses.empty() ? 0 : *std::max_element(pauses.begin(), pauses.end());
    std::printf("%zu repolicies  pause p50 %.2f us  p99 %.2f us  "
                "max %.2f us\n",
                pauses.size(), static_cast<double>(pause_p50) / 1000.0,
                static_cast<double>(pause_p99) / 1000.0,
                static_cast<double>(pause_max) / 1000.0);

    const double ratio = baseline.stats.median > 0
                             ? static_cast<double>(churn.stats.median) /
                                   static_cast<double>(baseline.stats.median)
                             : 0.0;
    std::printf("churn p50 / baseline p50 = %.3f\n", ratio);

    const bool zero_lost = baseline.lost == 0 && churn.lost == 0;
    const bool zero_dropped =
        baseline.dropped_growth == 0 && churn.dropped_growth == 0;
    const bool churned = !pauses.empty();
    const bool gate_timing =
        !smoke && !no_timing && !COMPADRES_UNDER_SANITIZER;
    const bool p50_ok = !gate_timing || ratio <= 1.05;

    if (std::FILE* f = std::fopen(json_path, "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"benchmark\": \"recompose_churn\",\n"
            "  \"smoke\": %s,\n"
            "  \"baseline\": {\"messages\": %llu, \"p50_ns\": %lld, "
            "\"p90_ns\": %lld, \"p99_ns\": %lld},\n"
            "  \"churn\": {\"messages\": %llu, \"p50_ns\": %lld, "
            "\"p90_ns\": %lld, \"p99_ns\": %lld},\n"
            "  \"p50_ratio\": %.4f,\n"
            "  \"repolicies\": %zu,\n"
            "  \"pause\": {\"p50_ns\": %llu, \"p99_ns\": %llu, "
            "\"max_ns\": %llu},\n"
            "  \"lost\": %llu,\n"
            "  \"frames_dropped_growth\": %llu,\n"
            "  \"gates\": {\"zero_lost\": %s, \"zero_dropped\": %s, "
            "\"churned\": %s, \"p50_within_5pct\": %s}\n"
            "}\n",
            smoke ? "true" : "false",
            static_cast<unsigned long long>(baseline.messages),
            static_cast<long long>(baseline.stats.median),
            static_cast<long long>(baseline.stats.p90),
            static_cast<long long>(baseline.stats.p99),
            static_cast<unsigned long long>(churn.messages),
            static_cast<long long>(churn.stats.median),
            static_cast<long long>(churn.stats.p90),
            static_cast<long long>(churn.stats.p99), ratio, pauses.size(),
            static_cast<unsigned long long>(pause_p50),
            static_cast<unsigned long long>(pause_p99),
            static_cast<unsigned long long>(pause_max),
            static_cast<unsigned long long>(baseline.lost + churn.lost),
            static_cast<unsigned long long>(baseline.dropped_growth +
                                            churn.dropped_growth),
            zero_lost ? "true" : "false", zero_dropped ? "true" : "false",
            churned ? "true" : "false",
            !gate_timing ? "null" : (ratio <= 1.05 ? "true" : "false"));
        std::fclose(f);
        std::printf("\nwrote %s\n", json_path);
    } else {
        std::fprintf(stderr, "cannot write %s\n", json_path);
        return 1;
    }

    bool ok = true;
    if (!zero_lost) {
        std::fprintf(stderr, "GATE FAIL: messages lost during churn\n");
        ok = false;
    }
    if (!zero_dropped) {
        std::fprintf(stderr, "GATE FAIL: frames_dropped grew during churn\n");
        ok = false;
    }
    if (!churned) {
        std::fprintf(stderr, "GATE FAIL: no repolicy ever ran\n");
        ok = false;
    }
    if (!p50_ok) {
        std::fprintf(stderr,
                     "GATE FAIL: churn p50 %.3fx baseline (limit 1.05x)\n",
                     ratio);
        ok = false;
    }
    std::printf("gates: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
