// The three workloads. Each measures in rounds, every round on a freshly
// built rig (its own threads, pools, connections and placement on the
// cores). An end-to-end figure is the median of its per-round values, so
// a round whose threads landed badly, or that a host hiccup hit, does not
// move it; the latency p99 is taken over the pooled samples of all rounds,
// and setup_s is the median of kSetups set-ups timed in fresh processes
// before the rounds start. Modes:
//   --trace 0: untraced rounds over --seconds -> every end_to_end metric;
//   --trace 1: untraced rounds over part of the time and one traced rig
//              over the rest (orb_echo_tcp also runs the RTZen
//              reference) -> the per_layer metrics of the layers the
//              workload exercises (latency_p99_us among them, from the
//              untraced rounds), trace.overhead_pct comparing the two.
#pragma once

#include "measure.hpp"

#include "core/application.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

Result run_fig6_rpc(const Options& options);
Result run_orb_echo_tcp(const Options& options);
Result run_telemetry_stream_shm(const Options& options);

/// Fixed-capacity latency sample buffer, touched once at construction so
/// its pages count in peak RSS the same way whatever the run's rate.
class Samples {
public:
    explicit Samples(std::size_t capacity) : v_(capacity) {}
    bool full() const noexcept { return n_ == v_.size(); }
    void push(std::int64_t x) noexcept {
        if (n_ < v_.size()) v_[n_++] = x;
    }
    std::size_t size() const noexcept { return n_; }
    void clear() noexcept { n_ = 0; }
    /// Samples [from, size()).
    std::vector<std::int64_t> copy(std::size_t from = 0) const {
        return {v_.begin() + static_cast<std::ptrdiff_t>(std::min(from, n_)),
                v_.begin() + static_cast<std::ptrdiff_t>(n_)};
    }

private:
    std::vector<std::int64_t> v_;
    std::size_t n_ = 0;
};

enum class OpOutcome { kOk, kFailed, kAbort };

struct LegStats {
    std::uint64_t attempted = 0; ///< warm-up included
    std::uint64_t failed = 0;
    std::uint64_t ops = 0;       ///< inside the measured window
    WindowMeter meter;           ///< the measured window only
};

/// Set-ups timed per run, each in a fresh process. One takes a few
/// milliseconds and swings with thread start-up and page faults, so
/// setup_s is the median of many.
inline constexpr int kSetups = 48;

/// Closed loop with one operation in flight: warm up for `warm_s`, then
/// issue operations until `seconds` have passed, `max_ops` ran or the
/// sample buffer is full, appending each latency to `samples`.
/// `op(latency_ns)` runs one operation; kAbort (a lost reply) ends the leg.
template <typename Op>
LegStats closed_loop(Samples& samples, double warm_s, double seconds,
                     std::uint64_t max_ops, Op&& op) {
    LegStats s;
    std::int64_t latency = 0;
    const std::int64_t warm_end = now_ns() + static_cast<std::int64_t>(warm_s * 1e9);
    while (now_ns() < warm_end) {
        const OpOutcome r = op(latency);
        ++s.attempted;
        if (r != OpOutcome::kOk) {
            ++s.failed;
            if (r == OpOutcome::kAbort) return s;
        }
    }
    s.meter.begin();
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (s.ops < max_ops && !samples.full() && now_ns() < end) {
        const OpOutcome r = op(latency);
        ++s.attempted;
        ++s.ops;
        if (r == OpOutcome::kOk) {
            samples.push(latency);
        } else {
            ++s.failed;
            if (r == OpOutcome::kAbort) break;
        }
    }
    s.meter.end();
    return s;
}

/// Measured-window totals pooled over rounds (for per-layer ratios).
struct Pooled {
    std::uint64_t ops = 0;
    std::uint64_t allocs = 0;

    void add(std::uint64_t n, const WindowMeter& m) {
        ops += n;
        allocs += m.allocs();
    }
    double allocs_per_op() const { return ratio(allocs, ops); }
};

/// One round's end-to-end figures.
struct RoundFigures {
    Summary latency;       ///< ns
    double throughput = 0; ///< ops per second
    double cpu_us_per_msg = 0;
};
/// Every end_to_end metric: the per-round medians, peak RSS and setup_s;
/// the p99 and jitter of `pooled` (every round's latency samples, ns) and
/// the per-round figures go to informational lines.
void add_end_to_end(Result& result, const std::vector<RoundFigures>& rounds,
                    const Summary& pooled, double setup_s);
/// Median over rounds of the latency p50, in ns.
double median_p50(const std::vector<RoundFigures>& rounds);

/// Delivery-fabric counters summed over applications, from trace_report().
struct Fabric {
    std::uint64_t intake_locks = 0;
    std::uint64_t credit_stalls = 0;
    std::uint64_t hops = 0; ///< messages processed by dispatcher-backed ports
    std::uint64_t depth_hwm = 0;
};
Fabric fabric(const std::vector<const compadres::core::Application*>& apps);
/// Adds the window between two snapshots of one rig to `total`.
void accumulate(Fabric& total, const Fabric& before, const Fabric& after);
/// core.intake_locks_per_hop, core.credit_stalls_per_kmsg and
/// core.queue_depth_hwm of accumulated windows that carried `ops` messages.
void add_fabric_metrics(Result& result, const Fabric& total, std::uint64_t ops);

} // namespace perfbench
