// fig6_rpc: the paper's Fig. 6 co-located client/server round trip.
//
// IMC.P1 -> MyClient.P2 -> (P3) -> MyServer.P4 -> (P5) -> MyClient.P6,
// assembled from perfbench/assets/fig6.{cdl,ccl}.xml through
// parse -> validate_and_plan -> assemble -> start. Closed loop, one
// request in flight; an operation runs from get_message on P1 to entry of
// the P6 handler. All of its time is in core/rt/memory (port send, credit
// gate, dispatcher queue and wake, pools): cdr, net, remote and orb do no
// work here, so wire-layer changes must leave it unchanged.
#include "ledger.hpp"
#include "workloads.hpp"

#include "compiler/assembler.hpp"
#include "compiler/ccl.hpp"
#include "compiler/cdl.hpp"
#include "compiler/validator.hpp"
#include "core/messages.hpp"
#include "core/registry.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

namespace perfbench {
namespace {

using namespace compadres;
using ledger::record;
using ledger::stamp;

/// State shared by the closed-loop client and the component handlers.
/// One operation is in flight at a time, so `op` names the operation
/// every handler invocation belongs to when it is read at handler entry.
struct Loop {
    std::atomic<std::uint64_t> op{0};
    std::atomic<std::int32_t> expected{0};
    std::atomic<std::int64_t> end_ns{0};
    std::atomic<std::uint64_t> wrong{0};
    std::atomic<std::uint64_t> duplicated{0};
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
};
Loop g_loop;

// The request and reply each handler computes; the client loop checks every
// reply against reply_of(request_of(trigger)).
std::int32_t request_of(std::int32_t trigger) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(trigger) * 2654435761u + 1u);
}
std::int32_t reply_of(std::int32_t request) {
    return static_cast<std::int32_t>((static_cast<std::uint32_t>(request) ^ 0x5BD1E995u) + 7u);
}

/// Rounds per run: an eighth of the default 20 s is ~75k round trips.
constexpr int kRounds = 8;

// Span tags name the hop: 1 = P1->P2, 2 = P3->P4, 3 = P5->P6. A send
// span with tag k is followed by the handler span with tag k.

class ImmortalComponent : public core::Component {
public:
    explicit ImmortalComponent(const core::ComponentContext& ctx) : core::Component(ctx) {
        add_out_port<core::MyInteger>("P1", "MyInteger");
    }
};

/// Handler body of P2 and P4: sends `value` on `out` as hop `hop`,
/// recording the handler, get_message and send spans when tracing.
void relay(core::OutPort<core::MyInteger>& out, std::int32_t value,
           std::uint16_t hop) {
    const std::int64_t t_in = stamp();
    const std::uint64_t op = g_loop.op.load(std::memory_order_relaxed);
    const std::int64_t g0 = stamp();
    core::MyInteger* msg = out.get_message();
    const std::int64_t g1 = stamp();
    msg->value = value;
    const std::int64_t s0 = stamp();
    out.send(msg, 3);
    if (ledger::on()) {
        const std::int64_t s1 = now_ns();
        record(op, ledger::kHandler, ledger::kSend, static_cast<std::uint16_t>(hop - 1),
               t_in, s1);
        record(op, ledger::kGetMessage, ledger::kHandler, hop, g0, g1);
        record(op, ledger::kSend, ledger::kHandler, hop, s0, s1);
    }
}

class Client : public core::Component {
public:
    explicit Client(const core::ComponentContext& ctx) : core::Component(ctx) {
        p3_ = &add_out_port<core::MyInteger>("P3", "MyInteger");
        add_in_port<core::MyInteger>(
            "P2", "MyInteger", port_config("P2"),
            [this](core::MyInteger& m, core::Smm&) { relay(*p3_, request_of(m.value), 2); });
        add_in_port<core::MyInteger>(
            "P6", "MyInteger", port_config("P6"), [](core::MyInteger& m, core::Smm&) {
                const std::int64_t t = now_ns();
                record(g_loop.op.load(std::memory_order_relaxed), ledger::kHandler,
                       ledger::kSend, 3, t, t);
                if (m.value != g_loop.expected.load(std::memory_order_relaxed)) {
                    g_loop.wrong.fetch_add(1);
                }
                g_loop.end_ns.store(t, std::memory_order_relaxed);
                {
                    std::lock_guard lk(g_loop.mu);
                    if (g_loop.done) g_loop.duplicated.fetch_add(1);
                    g_loop.done = true;
                }
                g_loop.cv.notify_one();
            });
    }

private:
    core::OutPort<core::MyInteger>* p3_ = nullptr;
};

class Server : public core::Component {
public:
    explicit Server(const core::ComponentContext& ctx) : core::Component(ctx) {
        p5_ = &add_out_port<core::MyInteger>("P5", "MyInteger");
        add_in_port<core::MyInteger>(
            "P4", "MyInteger", port_config("P4"),
            [this](core::MyInteger& m, core::Smm&) { relay(*p5_, reply_of(m.value), 3); });
    }

private:
    core::OutPort<core::MyInteger>* p5_ = nullptr;
};

struct Rig {
    std::unique_ptr<core::Application> app;
    core::OutPort<core::MyInteger>* p1 = nullptr;
};

Rig setup(const Options& o, SetupStats& st) {
    const std::int64_t t0 = now_ns();
    const compiler::CdlModel cdl = compiler::parse_cdl_file(o.assets + "/fig6.cdl.xml");
    const compiler::CclModel ccl = compiler::parse_ccl_file(o.assets + "/fig6.ccl.xml");
    const std::int64_t t1 = now_ns();
    const compiler::AssemblyPlan plan = compiler::validate_and_plan(cdl, ccl);
    const std::int64_t t2 = now_ns();
    Rig rig;
    rig.app = compiler::assemble(plan);
    const std::int64_t t3 = now_ns();
    rig.app->start();
    const std::int64_t t4 = now_ns();
    rig.p1 = &rig.app->component("IMC").out_port_t<core::MyInteger>("P1");
    st.add("compiler.parse", static_cast<double>(t1 - t0) * 1e-9);
    st.add("compiler.plan", static_cast<double>(t2 - t1) * 1e-9);
    st.add("compiler.assemble", static_cast<double>(t3 - t2) * 1e-9);
    st.add("core.start", static_cast<double>(t4 - t3) * 1e-9);
    st.add("setup", static_cast<double>(t4 - t0) * 1e-9);
    return rig;
}

/// One round trip. The trigger value is drawn from the seeded stream.
OpOutcome round_trip(Rig& rig, Rng& rng, std::uint64_t op, std::int64_t& latency) {
    const auto trigger = static_cast<std::int32_t>(rng.next());
    g_loop.op.store(op, std::memory_order_relaxed);
    g_loop.expected.store(reply_of(request_of(trigger)), std::memory_order_relaxed);
    const std::int64_t t0 = now_ns();
    core::MyInteger* msg = rig.p1->get_message();
    const std::int64_t g1 = stamp();
    msg->value = trigger;
    const std::int64_t s0 = stamp();
    rig.p1->send(msg, 2);
    const std::int64_t s1 = stamp();
    {
        std::unique_lock lk(g_loop.mu);
        if (!g_loop.cv.wait_for(lk, std::chrono::seconds(2), [] { return g_loop.done; })) {
            return OpOutcome::kAbort;
        }
        g_loop.done = false;
    }
    const std::int64_t t_end = g_loop.end_ns.load(std::memory_order_relaxed);
    latency = t_end - t0;
    if (ledger::on()) {
        record(op, ledger::kGetMessage, ledger::kOp, 1, t0, g1);
        record(op, ledger::kSend, ledger::kOp, 1, s0, s1);
        record(op, ledger::kOp, ledger::kEmpty, 0, t0, t_end);
    }
    return OpOutcome::kOk;
}

/// Per-layer numbers from the traced leg's spans. The reconciled segments
/// of one operation are get_message and hop wait (send entry -> next
/// handler entry) of each of the three hops; the handlers' own code between
/// them is left unattributed.
void analyze(const std::vector<ledger::Span>& spans, Result& r) {
    std::vector<std::int64_t> gm, send, hop, handler;
    ledger::Reconciler rec(6);
    ledger::for_each_op(spans, [&](std::span<const ledger::Span> op) {
        const ledger::Span* op_span = nullptr;
        const ledger::Span* g[4] = {};
        const ledger::Span* s[4] = {};
        const ledger::Span* h[4] = {};
        for (const ledger::Span& sp : op) {
            if (sp.kind == ledger::kOp) op_span = &sp;
            if (sp.tag > 3) continue;
            if (sp.kind == ledger::kGetMessage) g[sp.tag] = &sp;
            if (sp.kind == ledger::kSend) s[sp.tag] = &sp;
            if (sp.kind == ledger::kHandler) h[sp.tag] = &sp;
        }
        if (op_span == nullptr) return;
        bool complete = true;
        for (int k = 1; k <= 3; ++k) complete = complete && g[k] && s[k] && h[k];
        if (!complete) {
            rec.incomplete();
            return;
        }
        std::int64_t seg[6];
        for (int k = 1; k <= 3; ++k) {
            seg[k - 1] = g[k]->t1 - g[k]->t0;
            seg[k + 2] = h[k]->t0 - s[k]->t0;
            gm.push_back(seg[k - 1]);
            send.push_back(s[k]->t1 - s[k]->t0);
            hop.push_back(seg[k + 2]);
            if (k < 3) {
                // Handler k (P2 or P4): self time excludes its get_message
                // and send children.
                const ledger::Span& hk = *h[k];
                handler.push_back((hk.t1 - hk.t0) - (g[k + 1]->t1 - g[k + 1]->t0) -
                                  (s[k + 1]->t1 - s[k + 1]->t0));
            }
        }
        rec.add(op_span->t1 - op_span->t0, seg);
    });
    add_dist(r, "core.get_message_ns", std::move(gm));
    add_dist(r, "core.send_ns", std::move(send));
    add_dist(r, "core.hop_wait_ns", std::move(hop));
    add_dist(r, "core.handler_ns", std::move(handler));
    rec.report(r);
}

} // namespace

Result run_fig6_rpc(const Options& o) {
    core::register_builtin_message_types();
    auto& registry = core::ComponentRegistry::global();
    registry.register_class<ImmortalComponent>("ImmortalComponent");
    registry.register_class<Client>("Client");
    registry.register_class<Server>("Server");

    Result r;
    const SetupStats st = setups_in_fresh_processes(kSetups, [&](SetupStats& s) { setup(o, s); });
    SetupStats warm; // the rounds' own set-ups, in this process
    // Sized for 100k round trips per second, three times this path's rate.
    Samples samples(static_cast<std::size_t>(o.seconds * 100'000) + 1024);
    Rng rng(o.seed, 0xF16);
    std::uint64_t next_op = 0;
    const double warm_s = 0.2;

    // Untraced rounds.
    const double untraced_s = (o.trace ? 0.5 : 1.0) * o.seconds / kRounds;
    Pooled pooled;
    Fabric fabric_total;
    std::vector<RoundFigures> rounds;
    for (int round = 0; round < kRounds; ++round) {
        Rig rig = setup(o, warm);
        const std::size_t first = samples.size();
        const Fabric f0 = fabric({rig.app.get()});
        const LegStats leg = closed_loop(samples, warm_s, untraced_s, UINT64_MAX,
                                         [&](std::int64_t& lat) {
                                             return round_trip(rig, rng, ++next_op, lat);
                                         });
        accumulate(fabric_total, f0, fabric({rig.app.get()}));
        pooled.add(leg.ops, leg.meter);
        rounds.push_back({summarize(samples.copy(first)),
                          static_cast<double>(leg.ops) / leg.meter.seconds(),
                          leg.meter.cpu_s() * 1e6 / static_cast<double>(leg.ops)});
        r.attempted += leg.attempted;
        r.fail(leg.failed, "round trips lost (no reply within 2 s)");
    }

    const Summary pooled_latency = summarize(samples.copy());
    r.note("latency.samples", static_cast<double>(pooled_latency.n));
    r.note("setup.warm_process_s", warm.median_of("setup"));

    if (!o.trace) {
        add_end_to_end(r, rounds, pooled_latency, st.median_of("setup"));
    } else {
        r.add("latency_p99_us", pooled_latency.p99 / 1e3, "us");
        r.add("compiler.parse_ms", st.median_of("compiler.parse") * 1e3, "ms");
        r.add("compiler.plan_ms", st.median_of("compiler.plan") * 1e3, "ms");
        r.add("compiler.assemble_ms", st.median_of("compiler.assemble") * 1e3, "ms");
        r.add("core.start_ms", st.median_of("core.start") * 1e3, "ms");
        add_fabric_metrics(r, fabric_total, pooled.ops);
        r.add("allocs_per_msg", pooled.allocs_per_op(), "count");

        // Traced leg on a fresh rig: ten spans per round trip.
        constexpr std::uint64_t kTracedOps = 100'000;
        Rig rig = setup(o, warm);
        samples.clear();
        ledger::start(kTracedOps * 10 + 64 * ledger::detail::kBlock);
        const LegStats traced = closed_loop(samples, warm_s, 0.5 * o.seconds, kTracedOps,
                                            [&](std::int64_t& lat) {
                                                return round_trip(rig, rng, ++next_op, lat);
                                            });
        ledger::stop();
        rig.app->shutdown(); // joins every handler thread before the spans are read
        r.attempted += traced.attempted;
        r.fail(traced.failed, "round trips lost in the traced leg");
        const Summary traced_lat = summarize(samples.copy());
        const std::vector<ledger::Span> spans = ledger::collect();
        ledger::dump(spans, o.trace_out, 100'000);
        analyze(spans, r);
        r.add("trace.overhead_pct", 100.0 * (traced_lat.p50 / median_p50(rounds) - 1.0), "%");
        r.note("trace.spans", static_cast<double>(spans.size()));
        r.note("trace.dropped_spans", static_cast<double>(ledger::dropped()));
    }
    r.fail(g_loop.wrong.load(), "wrong reply values");
    r.fail(g_loop.duplicated.load(), "duplicated replies");
    r.note("fig6.round_trips_checked", static_cast<double>(r.attempted));
    fingerprint(r, false);
    return r;
}

} // namespace perfbench
