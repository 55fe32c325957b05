// recompose_pipeline: live re-deploy — apply a new CCL to a RUNNING
// application without dropping a frame.
//
// The paper composes an application once, at startup, from its CCL. This
// example runs the full live-recomposition loop on top of that toolchain:
//
//   1. assemble and start deployment v1 (Source -> Filter, Block policy),
//   2. keep a sender bursting messages the whole time,
//   3. diff v1's CCL against v2's (same app, Filter's port repoliced
//      Block -> Ring, plus a new Auditor tap on the same stream) exactly
//      like `compadresc diff old.ccl new.ccl`,
//   4. apply the delta to the live application under quiesce-reroute-
//      resume, printing the per-route pause,
//   5. diff v2 -> v1 and apply THAT, shrinking back (route removed,
//      Auditor retired) — still without stopping.
//
// Recomposition loses nothing in either direction: every message sent is
// either counted by the Filter or was evicted by the Ring policy v2 put on
// its intake (counted by the port), and the recompose_* counters + pause
// histogram land in the MetricsRegistry like any other fabric metric.
//
// Run:  ./recompose_pipeline [messages]
#include "compiler/assembler.hpp"
#include "compiler/diff.hpp"
#include "core/messages.hpp"
#include "core/recompose.hpp"
#include "obs/metrics.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace compadres;

namespace {

std::atomic<int> g_filtered{0};
std::atomic<int> g_audited{0};

const char* kCdl = R"(
<CDL>
 <Component>
  <ComponentName>Source</ComponentName>
  <Port><PortName>out</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
 </Component>
 <Component>
  <ComponentName>Filter</ComponentName>
  <Port><PortName>in</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
 </Component>
 <Component>
  <ComponentName>Auditor</ComponentName>
  <Port><PortName>in</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
 </Component>
</CDL>)";

// Deployment v1: Source -> Filter, Block overflow.
const char* kDeployV1 = R"(
<Application>
 <ApplicationName>LiveDemo</ApplicationName>
 <Component>
  <InstanceName>source</InstanceName><ClassName>Source</ClassName>
  <ComponentType>Immortal</ComponentType>
  <Connection><Port><PortName>out</PortName>
   <Link><PortType>External</PortType><ToComponent>filter</ToComponent><ToPort>in</ToPort></Link>
  </Port></Connection>
 </Component>
 <Component>
  <InstanceName>filter</InstanceName><ClassName>Filter</ClassName>
  <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
  <Connection><Port><PortName>in</PortName>
   <PortAttributes><BufferSize>32</BufferSize><Overflow>Block</Overflow></PortAttributes>
  </Port></Connection>
 </Component>
</Application>)";

// Deployment v2: the Filter's intake goes lossy-latest (Ring) and an
// Auditor taps the same stream. Everything else is unchanged — and must
// be, for the transition to be applicable live.
const char* kDeployV2 = R"(
<Application>
 <ApplicationName>LiveDemo</ApplicationName>
 <Component>
  <InstanceName>source</InstanceName><ClassName>Source</ClassName>
  <ComponentType>Immortal</ComponentType>
  <Connection><Port><PortName>out</PortName>
   <Link><PortType>External</PortType><ToComponent>filter</ToComponent><ToPort>in</ToPort></Link>
   <Link><PortType>External</PortType><ToComponent>auditor</ToComponent><ToPort>in</ToPort></Link>
  </Port></Connection>
 </Component>
 <Component>
  <InstanceName>filter</InstanceName><ClassName>Filter</ClassName>
  <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
  <Connection><Port><PortName>in</PortName>
   <PortAttributes><BufferSize>32</BufferSize><Overflow>Ring</Overflow></PortAttributes>
  </Port></Connection>
 </Component>
 <Component>
  <InstanceName>auditor</InstanceName><ClassName>Auditor</ClassName>
  <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
  <Connection><Port><PortName>in</PortName>
   <PortAttributes><BufferSize>32</BufferSize><Overflow>Block</Overflow></PortAttributes>
  </Port></Connection>
 </Component>
</Application>)";

class Source : public core::Component {
public:
    explicit Source(const core::ComponentContext& ctx)
        : core::Component(ctx) {
        add_out_port<core::MyInteger>("out", "MyInteger");
    }
};

class Filter : public core::Component {
public:
    explicit Filter(const core::ComponentContext& ctx)
        : core::Component(ctx) {
        add_in_port<core::MyInteger>("in", "MyInteger", port_config("in"),
                                     [](core::MyInteger&, core::Smm&) {
                                         g_filtered.fetch_add(1);
                                     });
    }
};

class Auditor : public core::Component {
public:
    explicit Auditor(const core::ComponentContext& ctx)
        : core::Component(ctx) {
        add_in_port<core::MyInteger>("in", "MyInteger", port_config("in"),
                                     [](core::MyInteger&, core::Smm&) {
                                         g_audited.fetch_add(1);
                                     });
    }
};

compiler::AssemblyPlan plan_of(const char* ccl) {
    return compiler::validate_and_plan(compiler::parse_cdl_string(kCdl),
                                       compiler::parse_ccl_string(ccl));
}

void apply(core::Application& app, const core::RecomposePlan& delta,
           const core::RecomposeOptions& opts) {
    std::printf("%s", core::describe(delta).c_str());
    const core::RecomposeStats stats = core::apply_recompose(app, delta, opts);
    for (std::uint64_t ns : stats.pause_ns) {
        std::printf("  route paused %.1f us\n",
                    static_cast<double>(ns) / 1000.0);
    }
}

} // namespace

int main(int argc, char** argv) {
    const int messages = argc > 1 ? std::atoi(argv[1]) : 2000;

    core::register_builtin_message_types();
    auto& reg = core::ComponentRegistry::global();
    reg.register_class<Source>("Source");
    reg.register_class<Filter>("Filter");
    reg.register_class<Auditor>("Auditor");

    const compiler::AssemblyPlan v1 = plan_of(kDeployV1);
    const compiler::AssemblyPlan v2 = plan_of(kDeployV2);

    std::printf("=== deployment v1: Source -> Filter [block] ===\n");
    auto app = compiler::assemble(v1);
    app->start();

    obs::MetricsRegistry metrics;
    core::RecomposeOptions opts;
    opts.metrics = &metrics;

    auto& typed =
        app->find("source")->out_port_t<core::MyInteger>("out");
    std::atomic<bool> done{false};
    std::thread sender([&] {
        for (int i = 0; i < messages; ++i) {
            core::MyInteger* msg = typed.get_message();
            msg->value = i;
            typed.send(msg, 5);
            if (i % 50 == 0) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }
        done.store(true);
    });

    // Let some traffic through v1, then re-deploy LIVE, mid-burst.
    while (g_filtered.load() < messages / 4 && !done.load()) {
        std::this_thread::yield();
    }
    std::printf("\n=== live re-deploy v1 -> v2 (at message %d) ===\n",
                g_filtered.load());
    apply(*app, compiler::diff_plans(v1, v2), opts);

    while (g_filtered.load() < messages / 2 && !done.load()) {
        std::this_thread::yield();
    }
    std::printf("\n=== live re-deploy v2 -> v1 (shrink back, at %d) ===\n",
                g_filtered.load());
    std::printf("auditor saw %d messages while deployed\n", g_audited.load());
    apply(*app, compiler::diff_plans(v2, v1), opts);

    sender.join();
    // While v2 was live the Filter's intake was a 32-slot Ring, which may
    // evict under load: that is the policy working, not recomposition
    // loss. Read its eviction counters while the port still exists.
    const core::InPortBase& filter_in = app->find("filter")->in_port("in");
    const std::uint64_t overwritten = filter_in.overwritten_count();
    const std::uint64_t dropped = filter_in.dropped_count();
    app->stop();

    std::printf("\nsent %d, filtered %d, ring-evicted %llu (overwritten "
                "%llu, dropped %llu), audited %d\n",
                messages, g_filtered.load(),
                static_cast<unsigned long long>(overwritten + dropped),
                static_cast<unsigned long long>(overwritten),
                static_cast<unsigned long long>(dropped), g_audited.load());
    std::printf("recompositions applied: %llu, routes repoliced: %llu\n",
                static_cast<unsigned long long>(
                    metrics.counter("recompose_applied_total", "")
                        .value()),
                static_cast<unsigned long long>(
                    metrics
                        .counter("recompose_routes_repoliced_total", "")
                        .value()));

    // Exact accounting: every message sent was filtered or evicted.
    const bool ok = static_cast<std::uint64_t>(g_filtered.load()) +
                        overwritten + dropped ==
                    static_cast<std::uint64_t>(messages);
    std::printf("%s\n", ok ? "OK" : "LOST MESSAGES");
    return ok ? 0 : 1;
}
