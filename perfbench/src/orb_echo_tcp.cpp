// orb_echo_tcp: the paper's Fig. 11 component ORB over real TCP.
//
// orb::ClientOrb::invoke("Echo", "echo", ...) against an orb::ServerOrb
// (default reactor) across a tcp_connect/TcpAcceptor loopback connection.
// Closed loop, one client; payload sizes drawn by the seed from
// {32, 256, 1024} B, payload bytes seeded. It exercises the component ORB
// pipeline (client Orb -> Transport -> MessageProcessing, server POA ->
// Transport -> RequestProcessing), GIOP cdr, the TCP transport, coalescer,
// reactor and frame pool; remote stays idle. The traced run adds the
// hand-coded RTZen ORB over an identical connection and payload mix as
// the reference the paper compares against.
#include "ledger.hpp"
#include "workloads.hpp"

#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "orb/client_orb.hpp"
#include "orb/server_orb.hpp"
#include "rtzen/rtzen.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

using namespace compadres;
using ledger::record;
using ledger::stamp;

constexpr std::size_t kSizes[] = {32, 256, 1024};
constexpr std::size_t kPayloads = 64;
/// Rounds per run: a quarter of the default 20 s is ~70k invocations.
constexpr int kRounds = 4;
constexpr std::uint16_t kClientSide = 1;
constexpr std::uint16_t kServerSide = 2;

/// Operation in flight (set by the client loop before invoke) and the one
/// the servant last served (read by the server-side send_frame, which
/// always follows its servant call).
std::atomic<std::uint64_t> g_op{0};
std::atomic<std::uint64_t> g_server_op{0};
std::uint64_t client_op() noexcept { return g_op.load(std::memory_order_relaxed); }
std::uint64_t server_op() noexcept { return g_server_op.load(std::memory_order_relaxed); }

bool echo_servant(const std::string& operation, const std::uint8_t* payload,
                  std::size_t len, std::vector<std::uint8_t>& reply) {
    const std::int64_t t0 = stamp();
    reply.assign(payload, payload + len);
    if (ledger::on()) {
        const std::uint64_t op = g_op.load(std::memory_order_relaxed);
        g_server_op.store(op, std::memory_order_relaxed);
        record(op, ledger::kServant, ledger::kEmpty, kServerSide, t0, now_ns());
    }
    return operation == "echo";
}

/// Connected client/server wire pair over loopback TCP.
std::pair<std::unique_ptr<net::Transport>, std::unique_ptr<net::Transport>> tcp_pair() {
    net::TcpAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] {
        try {
            server_side = acceptor.accept();
        } catch (const std::exception&) {
        }
    });
    std::unique_ptr<net::Transport> client_side;
    try {
        client_side = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    } catch (...) {
        acceptor.close();
        accept_thread.join();
        throw;
    }
    accept_thread.join();
    if (server_side == nullptr) throw std::runtime_error("TCP accept failed");
    return {std::move(client_side), std::move(server_side)};
}

/// Client and server ORB over one connection; the client dies first, so
/// the server sees the connection close before it shuts down.
struct Rig {
    std::unique_ptr<orb::ServerOrb> server;
    std::unique_ptr<orb::ClientOrb> client;
    net::Transport* client_wire = nullptr; ///< the TCP wire itself
    net::Transport* server_wire = nullptr;
};

Rig setup(bool traced, SetupStats& st) {
    Rig rig;
    const std::int64_t t0 = now_ns();
    rig.server = std::make_unique<orb::ServerOrb>();
    rig.server->register_servant("Echo", echo_servant);
    const std::int64_t t1 = now_ns();
    auto [client_wire, server_wire] = tcp_pair();
    const std::int64_t t2 = now_ns();
    rig.client_wire = client_wire.get();
    rig.server_wire = server_wire.get();
    if (traced) {
        client_wire = std::make_unique<ledger::TracedTransport>(std::move(client_wire),
                                                                kClientSide, client_op,
                                                                nullptr, true);
        server_wire = std::make_unique<ledger::TracedTransport>(std::move(server_wire),
                                                                kServerSide, server_op,
                                                                nullptr, false);
    }
    rig.server->attach(std::move(server_wire));
    rig.client = std::make_unique<orb::ClientOrb>(std::move(client_wire));
    const std::int64_t t3 = now_ns();
    st.add("core.start", static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-9);
    st.add("net.connect", static_cast<double>(t2 - t1) * 1e-9);
    st.add("setup", static_cast<double>(t3 - t0) * 1e-9);
    return rig;
}

/// Seeded payload bytes; the operation stream picks one and a size.
struct Inputs {
    std::vector<std::vector<std::uint8_t>> payloads;
    explicit Inputs(std::uint64_t seed) {
        Rng rng(seed, 0x0B1);
        for (std::size_t i = 0; i < kPayloads; ++i) {
            payloads.emplace_back(1024);
            rng.fill(payloads.back().data(), payloads.back().size());
        }
    }
};

/// One echo invocation, checked byte for byte.
template <typename Client>
OpOutcome echo(Client& client, const Inputs& in, Rng& rng, std::uint64_t op,
               std::int64_t& latency) {
    const std::size_t size = kSizes[rng.next() % 3];
    const std::vector<std::uint8_t>& payload = in.payloads[rng.next() % kPayloads];
    g_op.store(op, std::memory_order_relaxed);
    std::vector<std::uint8_t> reply;
    const std::int64_t t0 = now_ns();
    try {
        reply = client.invoke("Echo", "echo", payload.data(), size);
    } catch (const std::exception&) {
        return OpOutcome::kFailed;
    }
    const std::int64_t t1 = now_ns();
    latency = t1 - t0;
    record(op, ledger::kOp, ledger::kEmpty, 0, t0, t1);
    if (reply.size() != size || std::memcmp(reply.data(), payload.data(), size) != 0) {
        return OpOutcome::kFailed;
    }
    return OpOutcome::kOk;
}

/// Wire, reactor and pool counters, summed over both ends.
struct NetCounters {
    std::uint64_t frames_sent = 0, send_syscalls = 0, frames_dropped = 0;
    std::uint64_t loop_syscalls = 0, frames_assembled = 0;
    std::uint64_t pool_acquires = 0, pool_tls_hits = 0;

    /// Adds the window between two snapshots of one rig.
    void add(const NetCounters& a, const NetCounters& b) {
        frames_sent += b.frames_sent - a.frames_sent;
        send_syscalls += b.send_syscalls - a.send_syscalls;
        frames_dropped += b.frames_dropped - a.frames_dropped;
        loop_syscalls += b.loop_syscalls - a.loop_syscalls;
        frames_assembled += b.frames_assembled - a.frames_assembled;
        pool_acquires += b.pool_acquires - a.pool_acquires;
        pool_tls_hits += b.pool_tls_hits - a.pool_tls_hits;
    }
};

NetCounters net_counters(const Rig& rig) {
    NetCounters c;
    for (const net::Transport* w : {rig.client_wire, rig.server_wire}) {
        const net::TransportStats s = w->stats();
        c.frames_sent += s.frames_sent;
        c.send_syscalls += s.send_syscalls;
        c.frames_dropped += s.frames_dropped;
    }
    const net::ReactorStats rs = net::Reactor::shared().stats();
    c.loop_syscalls = rs.wait_syscalls + rs.read_syscalls;
    c.frames_assembled = rs.frames_assembled;
    const net::FrameBufferPool::Stats ps = net::FrameBufferPool::global().stats();
    c.pool_acquires = ps.acquires;
    c.pool_tls_hits = ps.tls_hits;
    return c;
}

/// Ledger of one invocation: client_out (invoke -> client send_frame),
/// client send_frame, server_in (-> servant), servant, server_out (->
/// server send_frame), server send_frame, reply_in (-> client recv_frame
/// return), client_return (-> invoke return).
void analyze(const std::vector<ledger::Span>& spans, Result& r) {
    std::vector<std::int64_t> client_out, server_in, servant, server_out, reply_in,
        client_return, send_frame;
    ledger::Reconciler rec(8);
    ledger::for_each_op(spans, [&](std::span<const ledger::Span> ops) {
        const ledger::Span *op = nullptr, *csf = nullptr, *ssf = nullptr, *sv = nullptr,
                           *crf = nullptr;
        for (const ledger::Span& s : ops) {
            if (s.kind == ledger::kOp) op = &s;
            if (s.kind == ledger::kServant) sv = &s;
            if (s.kind == ledger::kSendFrame) (s.tag == kClientSide ? csf : ssf) = &s;
            if (s.kind == ledger::kRecvFrame && s.tag == kClientSide) crf = &s;
        }
        if (!op) return;
        if (!csf || !ssf || !sv || !crf) {
            rec.incomplete();
            return;
        }
        const std::int64_t seg[] = {csf->t0 - op->t0, csf->t1 - csf->t0, sv->t0 - csf->t1,
                                    sv->t1 - sv->t0,  ssf->t0 - sv->t1,  ssf->t1 - ssf->t0,
                                    crf->t1 - ssf->t1, op->t1 - crf->t1};
        client_out.push_back(seg[0]);
        send_frame.push_back(seg[1]);
        server_in.push_back(seg[2]);
        servant.push_back(seg[3]);
        server_out.push_back(seg[4]);
        send_frame.push_back(seg[5]);
        reply_in.push_back(seg[6]);
        client_return.push_back(seg[7]);
        rec.add(op->t1 - op->t0, seg);
    });
    add_dist(r, "core.handler_ns", servant);
    add_dist(r, "orb.client_out_ns", std::move(client_out));
    add_dist(r, "orb.server_in_ns", std::move(server_in));
    add_dist(r, "orb.servant_ns", std::move(servant));
    add_dist(r, "orb.server_out_ns", std::move(server_out));
    add_dist(r, "orb.reply_in_ns", std::move(reply_in));
    add_dist(r, "orb.client_return_ns", std::move(client_return));
    add_dist(r, "net.send_frame_ns", std::move(send_frame));
    rec.report(r);
}

} // namespace

Result run_orb_echo_tcp(const Options& o) {
    Result r;
    const SetupStats st =
        setups_in_fresh_processes(kSetups, [](SetupStats& s) { setup(false, s); });
    SetupStats warm; // the rounds' own set-ups, in this process
    const Inputs inputs(o.seed);
    // Sized for 60k invocations per second, four times this path's rate.
    Samples samples(static_cast<std::size_t>(o.seconds * 60'000) + 1024);
    std::uint64_t next_op = 0;
    const double warm_s = 0.2;

    // Untraced rounds.
    Rng rng(o.seed, 0x0B2);
    const double untraced_s = (o.trace ? 0.5 : 1.0) * o.seconds / kRounds;
    Pooled pooled;
    Fabric fabric_total;
    NetCounters net_total;
    std::vector<RoundFigures> rounds;
    for (int round = 0; round < kRounds; ++round) {
        Rig rig = setup(false, warm);
        const std::size_t first = samples.size();
        const NetCounters n0 = net_counters(rig);
        const Fabric f0 = fabric({&rig.client->application(), &rig.server->application()});
        const LegStats leg = closed_loop(samples, warm_s, untraced_s, UINT64_MAX,
                                         [&](std::int64_t& lat) {
                                             return echo(*rig.client, inputs, rng, ++next_op,
                                                         lat);
                                         });
        net_total.add(n0, net_counters(rig));
        accumulate(fabric_total, f0,
                   fabric({&rig.client->application(), &rig.server->application()}));
        pooled.add(leg.ops, leg.meter);
        rounds.push_back({summarize(samples.copy(first)),
                          static_cast<double>(leg.ops) / leg.meter.seconds(),
                          leg.meter.cpu_s() * 1e6 / static_cast<double>(leg.ops)});
        r.attempted += leg.attempted;
        r.fail(leg.failed, "echo invocations failed or returned wrong bytes");
    }
    const double p50 = median_p50(rounds);
    const Summary pooled_latency = summarize(samples.copy());
    r.note("latency.samples", static_cast<double>(pooled_latency.n));
    r.note("setup.warm_process_s", warm.median_of("setup"));

    if (!o.trace) {
        add_end_to_end(r, rounds, pooled_latency, st.median_of("setup"));
        fingerprint(r, true);
        return r;
    }

    r.add("latency_p99_us", pooled_latency.p99 / 1e3, "us");
    r.add("core.start_ms", st.median_of("core.start") * 1e3, "ms");
    r.add("net.connect_ms", st.median_of("net.connect") * 1e3, "ms");
    add_fabric_metrics(r, fabric_total, pooled.ops);
    r.add("allocs_per_msg", pooled.allocs_per_op(), "count");
    r.add("net.send_syscalls_per_frame", ratio(net_total.send_syscalls, net_total.frames_sent),
          "ratio");
    r.add("net.reactor_syscalls_per_frame",
          ratio(net_total.loop_syscalls, net_total.frames_assembled), "ratio");
    r.add("net.pool_tls_hit_ratio", ratio(net_total.pool_tls_hits, net_total.pool_acquires),
          "ratio");
    r.add("net.frames_dropped", static_cast<double>(net_total.frames_dropped), "count");

    // Traced leg: a fresh rig whose two wires sit behind the decorator. It
    // dies (joining every pipeline thread) before the spans are read.
    constexpr std::uint64_t kTracedOps = 100'000;
    samples.clear();
    LegStats traced;
    {
        Rig rig = setup(true, warm);
        ledger::start(kTracedOps * 6 + 64 * ledger::detail::kBlock);
        Rng traced_rng(o.seed, 0x0B2);
        traced = closed_loop(samples, warm_s, 0.3 * o.seconds, kTracedOps,
                             [&](std::int64_t& lat) {
                                 return echo(*rig.client, inputs, traced_rng, ++next_op, lat);
                             });
        ledger::stop();
    }
    r.attempted += traced.attempted;
    r.fail(traced.failed, "echo invocations failed in the traced leg");
    const Summary traced_lat = summarize(samples.copy());
    const std::vector<ledger::Span> spans = ledger::collect();
    ledger::dump(spans, o.trace_out, 100'000);
    analyze(spans, r);
    r.add("trace.overhead_pct", 100.0 * (traced_lat.p50 / p50 - 1.0), "%");
    r.note("trace.spans", static_cast<double>(spans.size()));
    r.note("trace.dropped_spans", static_cast<double>(ledger::dropped()));

    // Reference: the hand-coded RTZen ORB over an identical TCP connection
    // and the same seeded payload mix.
    {
        rtzen::RtzenServerOrb server;
        server.register_servant("Echo", echo_servant);
        auto [client_wire, server_wire] = tcp_pair();
        server.attach(std::move(server_wire));
        rtzen::RtzenClientOrb client(std::move(client_wire));
        Rng ref_rng(o.seed, 0x0B2);
        samples.clear();
        const LegStats ref = closed_loop(samples, warm_s, 0.2 * o.seconds, UINT64_MAX,
                                         [&](std::int64_t& lat) {
                                             return echo(client, inputs, ref_rng, ++next_op,
                                                         lat);
                                         });
        r.attempted += ref.attempted;
        r.fail(ref.failed, "RTZen reference invocations failed");
        const Summary ref_lat = summarize(samples.copy());
        r.add("ref.rtzen_rtt_p50_us", ref_lat.p50 / 1e3, "us");
        r.add("orb.component_overhead_us", (p50 - ref_lat.p50) / 1e3, "us");
    }
    fingerprint(r, true);
    return r;
}

} // namespace perfbench
