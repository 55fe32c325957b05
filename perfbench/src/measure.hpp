// Measurement plumbing shared by the three workloads: the run options,
// the result a workload hands back, seeded input generation, quantiles,
// and the process-level meters (heap allocations, CPU time, peak RSS).
#pragma once

#include "rt/clock.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string assets;    ///< directory holding the Fig. 6 CDL/CCL documents
    std::string trace_out; ///< where the traced leg dumps its spans ("" = none)
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload run hands back to main(): the correctness verdict and
/// counts, the metrics of the requested mode, and informational lines
/// (host fingerprint, generator lateness, jitter) that feed no bound.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> info;

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string& key, const std::string& value) {
        info.emplace_back(key, value);
    }
    void note(const std::string& key, double value);
    /// Record `n` failed operations with a reason shown in the output.
    void fail(std::uint64_t n, const std::string& why);
    /// Mark the run incorrect for a check that is not about one operation.
    void reject(const std::string& why) {
        correct = false;
        note("failure", why);
    }
};

inline std::int64_t now_ns() noexcept { return compadres::rt::now_ns(); }

/// splitmix64: the only source of generated inputs, so one seed always
/// yields byte-identical payloads, sizes and route mixes.
class Rng {
public:
    Rng(std::uint64_t seed, std::uint64_t stream)
        : state_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 0x632BE59BD9B4E019ull)) {}
    std::uint64_t next() noexcept {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    void fill(std::uint8_t* dst, std::size_t n) noexcept {
        for (std::size_t i = 0; i < n; ++i) {
            dst[i] = static_cast<std::uint8_t>(next() >> 56);
        }
    }

private:
    std::uint64_t state_;
};

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) noexcept;

/// Heap allocations made by this process so far (counted by the binary's
/// own operator new replacement).
std::uint64_t allocations() noexcept;
/// User + system CPU seconds of the whole process.
double process_cpu_s() noexcept;
/// ru_maxrss in MiB.
double peak_rss_mb() noexcept;

/// Allocation and CPU deltas over a measured window.
class WindowMeter {
public:
    void begin() noexcept {
        allocs0_ = allocations();
        cpu0_ = process_cpu_s();
        t0_ = now_ns();
    }
    void end() noexcept {
        allocs1_ = allocations();
        cpu1_ = process_cpu_s();
        t1_ = now_ns();
    }
    double seconds() const noexcept { return static_cast<double>(t1_ - t0_) * 1e-9; }
    double cpu_s() const noexcept { return cpu1_ - cpu0_; }
    std::uint64_t allocs() const noexcept { return allocs1_ - allocs0_; }

private:
    std::uint64_t allocs0_ = 0, allocs1_ = 0;
    double cpu0_ = 0, cpu1_ = 0;
    std::int64_t t0_ = 0, t1_ = 0;
};

/// num / den, 0 when den is 0.
inline double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Quantile q in [0, 1] of `v` (nearest rank; reorders `v`). 0 when empty.
double quantile(std::vector<std::int64_t>& v, double q);
double median(std::vector<double> v);

struct Summary {
    std::size_t n = 0;
    double p50 = 0, p99 = 0, min = 0, max = 0;
};
Summary summarize(std::vector<std::int64_t> v);

/// Named set-up phase durations (seconds), one sample per timed set-up.
struct SetupStats {
    std::vector<std::pair<std::string, std::vector<double>>> phases;
    void add(const std::string& phase, double seconds);
    double median_of(const std::string& phase) const;
};

/// Runs `setup` (which builds a rig, times its phases into the SetupStats
/// it is given, and tears the rig down) once in each of `n` child
/// processes forked one after another, and gathers the phases they timed.
/// Each child starts without the heap, threads, regions and connections an
/// earlier set-up left behind, so each sample is a set-up from an empty
/// process. Call it before this process starts any thread. Throws when a
/// child fails.
SetupStats setups_in_fresh_processes(int n, const std::function<void(SetupStats&)>& setup);

/// Host fingerprint lines (nproc, kernel, io_uring, SCHED_FIFO, reactor
/// backend) appended to a result.
void fingerprint(Result& result, bool reactor_used);

/// Adds name.p50 / name.p99 (ns) from nanosecond samples. A workload adds
/// only the per-layer metrics of the layers it exercises; run.py reports
/// every other per_layer metric of BENCHMARK.json as 0.
void add_dist(Result& result, const std::string& name, std::vector<std::int64_t> samples_ns);

} // namespace perfbench
