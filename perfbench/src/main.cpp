// perfbench — the repository benchmark binary.
//
//   perfbench --workload <fig6_rpc|orb_echo_tcp|telemetry_stream_shm>
//             --seed <n> --seconds <s> --trace <0|1>
//             --assets <dir with fig6.{cdl,ccl}.xml> [--trace-out <csv>]
//
// Prints informational "# key: value" lines, one "metric" line per metric
// with its unit, and as its last line one JSON object with the keys
// correct, attempted, failed and metrics. Exits 1 when any operation
// failed or an output check did not hold, 2 on bad arguments.
#include "workloads.hpp"

#include "net/shm_transport.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

namespace perfbench {

double median_p50(const std::vector<RoundFigures>& rounds) {
    std::vector<double> v;
    for (const RoundFigures& f : rounds) v.push_back(f.latency.p50);
    return median(v);
}

void add_end_to_end(Result& r, const std::vector<RoundFigures>& rounds,
                    const Summary& pooled, double setup_s) {
    std::vector<double> p50, rate, cpu;
    for (const RoundFigures& f : rounds) {
        p50.push_back(f.latency.p50 / 1e3);
        rate.push_back(f.throughput);
        cpu.push_back(f.cpu_us_per_msg);
    }
    r.add("latency_p50_us", median(p50), "us");
    r.add("throughput_msgs_s", median(rate), "msg/s");
    r.add("cpu_us_per_msg", median(cpu), "us");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    r.add("setup_s", setup_s, "s");
    // Too host-sensitive on the one-way stream to bound (see
    // perfbench/README.md); a per-layer metric of the traced run instead.
    r.note("latency_p99_us", pooled.p99 / 1e3);
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "p50 %.3f us, p99 %.3f us, %.1f msg/s, %.3f cpu us/msg",
                      p50[i], rounds[i].latency.p99 / 1e3, rate[i], cpu[i]);
        r.note("round." + std::to_string(i), buf);
    }
    // The paper's own predictability number; too host-sensitive to bound.
    r.note("latency.jitter_us", (pooled.max - pooled.min) / 1e3);
}

Fabric fabric(const std::vector<const compadres::core::Application*>& apps) {
    Fabric f;
    for (const compadres::core::Application* app : apps) {
        const compadres::core::TraceReport rep = app->trace_report();
        f.intake_locks += rep.queue_lock_acquisitions;
        f.credit_stalls += rep.credit_stalls;
        for (const compadres::core::PortTrace& p : rep.ports) {
            if (!p.dispatcher.empty()) f.hops += p.processed;
            f.depth_hwm = std::max<std::uint64_t>(f.depth_hwm, p.depth_high_water);
        }
    }
    return f;
}

void accumulate(Fabric& total, const Fabric& before, const Fabric& after) {
    total.intake_locks += after.intake_locks - before.intake_locks;
    total.credit_stalls += after.credit_stalls - before.credit_stalls;
    total.hops += after.hops - before.hops;
    total.depth_hwm = std::max(total.depth_hwm, after.depth_hwm);
}

void add_fabric_metrics(Result& r, const Fabric& total, std::uint64_t ops) {
    r.add("core.intake_locks_per_hop", ratio(total.intake_locks, total.hops), "ratio");
    r.add("core.credit_stalls_per_kmsg", 1e3 * ratio(total.credit_stalls, ops), "count");
    r.add("core.queue_depth_hwm", static_cast<double>(total.depth_hwm), "count");
}

namespace {

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <fig6_rpc|orb_echo_tcp|"
                 "telemetry_stream_shm> --seed <n> --seconds <s> --trace <0|1> "
                 "--assets <dir> [--trace-out <csv>]\n",
                 why);
    return 2;
}

void print(const Result& r, const Options& o) {
    std::printf("# workload: %s\n# seed: %llu\n# seconds: %g\n# trace: %d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    for (const auto& [k, v] : r.info) std::printf("# %s: %s\n", k.c_str(), v.c_str());
    std::printf("# failed_frac: %.9g\n",
                r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                            : 0.0);
    for (const Metric& m : r.metrics) {
        std::printf("metric %-34s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    r.metrics[i].name.c_str(), r.metrics[i].value,
                    r.metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options o;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val, nullptr, 10);
        } else if (key == "--seconds") {
            o.seconds = std::atof(val);
        } else if (key == "--trace") {
            o.trace = std::strcmp(val, "1") == 0;
            have_trace = true;
        } else if (key == "--assets") {
            o.assets = val;
        } else if (key == "--trace-out") {
            o.trace_out = val;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (argc % 2 == 0) return usage("arguments come in --key value pairs");
    if (o.workload.empty() || !have_trace || o.seconds <= 0) {
        return usage("--workload, --seconds and --trace are required");
    }

    // A killed earlier run must not leak /dev/shm/compadres.* segments into
    // this one, nor this run into the next.
    const std::size_t swept_before = compadres::net::sweep_orphan_segments();
    Result r;
    try {
        if (o.workload == "fig6_rpc") {
            if (o.assets.empty()) return usage("fig6_rpc needs --assets");
            r = run_fig6_rpc(o);
        } else if (o.workload == "orb_echo_tcp") {
            r = run_orb_echo_tcp(o);
        } else if (o.workload == "telemetry_stream_shm") {
            r = run_telemetry_stream_shm(o);
        } else {
            return usage(("unknown workload " + o.workload).c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
        compadres::net::sweep_orphan_segments();
        return 1;
    }
    const std::size_t swept_after = compadres::net::sweep_orphan_segments();
    r.note("shm.orphans_swept", std::to_string(swept_before) + " before, " +
                                    std::to_string(swept_after) + " after");
    if (r.attempted == 0) {
        r.attempted = 1;
        r.fail(1, "no operation completed");
    }
    print(r, o);
    return r.correct ? 0 : 1;
}
