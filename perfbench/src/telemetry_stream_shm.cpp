// telemetry_stream_shm: a co-located one-way telemetry stream over the
// shared-memory wire.
//
// Two core::Applications in one process ("field" and "control") joined
// by remote::RemoteBridge over a wire from net::shm_upgrade_connect /
// ShmAcceptor; the upgrade must succeed or the run fails. Field.Sensor
// streams on two routes to Control.Monitor: ~32 B samples (~90% of
// messages) and 4 KiB octet blocks (~10%), the mix drawn from the seed.
// Every 100th sample makes the Monitor send one command back, so both
// bridge directions carry traffic. One producer thread drives two phases:
//   * paced: an open loop at 50 000 msg/s; each message is timed from
//     when it was due to the Monitor handler's entry (latency_*), and the
//     generator's lateness is reported;
//   * saturated: the producer only blocks on credits; throughput_msgs_s
//     and cpu_us_per_msg come from here, as the median of per-window
//     delivery rates.
// This is the only workload that exercises remote, the serializer side of
// cdr, the shm wire and zero-copy receive; orb and compiler stay idle.
#include "ledger.hpp"
#include "workloads.hpp"

#include "core/registry.hpp"
#include "net/shm_transport.hpp"
#include "remote/bridge.hpp"
#include "remote/serializer.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

using namespace compadres;
using ledger::record;
using ledger::stamp;

constexpr std::size_t kSampleBytes = 16;
constexpr std::size_t kBulkBytes = 4096;
constexpr std::size_t kSamplePayloads = 256;
constexpr std::size_t kBulkPayloads = 16;
constexpr std::int64_t kPacedPeriodNs = 20'000; // 50 000 msg/s
constexpr std::uint64_t kCommandEvery = 100;
constexpr std::int64_t kWindowNs = 50'000'000; // saturated-rate window
/// Rounds per run: each paced phase (70% of an eighth of the default
/// 20 s) times about 90k messages.
constexpr int kRounds = 8;

/// Operation ids: the route in the top bits, the route's sequence below.
constexpr std::uint64_t kSampleOp = 1ull << 60;
constexpr std::uint64_t kBulkOp = 2ull << 60;
constexpr std::uint64_t kCommandOp = 3ull << 60;

struct Sample {
    std::uint64_t seq = 0;
    std::int64_t due_ns = 0; ///< when it was due to be sent; 0 = not timed
    std::array<std::uint8_t, kSampleBytes> data{};
};
struct Bulk {
    std::uint64_t seq = 0;
    std::int64_t due_ns = 0;
    std::array<std::uint8_t, kBulkBytes> data{};
};
struct Command {
    std::uint64_t seq = 0;
    std::uint64_t sample_seq = 0; ///< the sample that triggered it
};

// ---- the benchmark's own serializers (registered with register_custom_fn)
//
// The frame a thread encodes is sent by that same thread right after
// (export routes are synchronous ports), so the decorator reads the
// operation and size class from these thread-locals.
thread_local std::uint64_t t_frame_op = 0;
thread_local std::uint16_t t_frame_tag = ledger::kTagNone;
std::uint64_t frame_op() noexcept { return t_frame_op; }
std::uint16_t frame_tag() noexcept { return t_frame_tag; }

void note_encode(std::uint64_t op, std::uint16_t tag, std::int64_t t0) {
    if (!ledger::on()) return;
    t_frame_op = op;
    t_frame_tag = tag;
    record(op, ledger::kEncode, ledger::kSend, tag, t0, now_ns());
}

void encode_sample(const Sample& m, cdr::OutputStream& out) {
    const std::int64_t t0 = stamp();
    out.write_ulonglong(m.seq);
    out.write_longlong(m.due_ns);
    out.write_raw(m.data.data(), kSampleBytes);
    note_encode(kSampleOp | m.seq, ledger::kTag32B, t0);
}
void decode_sample(Sample& m, cdr::InputStream& in) {
    const std::int64_t t0 = stamp();
    m.seq = in.read_ulonglong();
    m.due_ns = in.read_longlong();
    in.read_raw(m.data.data(), kSampleBytes);
    record(kSampleOp | m.seq, ledger::kDecode, ledger::kSendFrame, ledger::kTag32B, t0,
           stamp());
}
void encode_bulk(const Bulk& m, cdr::OutputStream& out) {
    const std::int64_t t0 = stamp();
    out.write_ulonglong(m.seq);
    out.write_longlong(m.due_ns);
    out.write_octet_seq(m.data.data(), kBulkBytes);
    note_encode(kBulkOp | m.seq, ledger::kTag4KiB, t0);
}
void decode_bulk(Bulk& m, cdr::InputStream& in) {
    const std::int64_t t0 = stamp();
    m.seq = in.read_ulonglong();
    m.due_ns = in.read_longlong();
    const auto [data, len] = in.read_octet_seq_view();
    if (len != kBulkBytes) throw remote::SerializationError("bulk block of wrong length");
    std::memcpy(m.data.data(), data, len);
    record(kBulkOp | m.seq, ledger::kDecode, ledger::kSendFrame, ledger::kTag4KiB, t0,
           stamp());
}
void encode_command(const Command& m, cdr::OutputStream& out) {
    const std::int64_t t0 = stamp();
    out.write_ulonglong(m.seq);
    out.write_ulonglong(m.sample_seq);
    note_encode(kCommandOp | m.seq, ledger::kTagNone, t0);
}
void decode_command(Command& m, cdr::InputStream& in) {
    m.seq = in.read_ulonglong();
    m.sample_seq = in.read_ulonglong();
}

/// Seeded payloads and their checksums; message seq s of a route carries
/// payload s % N of that route.
struct Inputs {
    std::vector<std::array<std::uint8_t, kSampleBytes>> sample;
    std::vector<std::uint64_t> sample_sum;
    std::vector<std::array<std::uint8_t, kBulkBytes>> bulk;
    std::vector<std::uint64_t> bulk_sum;

    explicit Inputs(std::uint64_t seed) : sample(kSamplePayloads), bulk(kBulkPayloads) {
        Rng rng(seed, 0x5A1);
        for (auto& p : sample) {
            rng.fill(p.data(), p.size());
            sample_sum.push_back(fnv1a(p.data(), p.size()));
        }
        for (auto& p : bulk) {
            rng.fill(p.data(), p.size());
            bulk_sum.push_back(fnv1a(p.data(), p.size()));
        }
    }
};

/// Checks and latency samples of one rig. Each route's counters have a
/// single writer (that route's handler thread); the main thread reads them
/// once the stream has drained.
struct Tally {
    const Inputs* inputs = nullptr;
    Samples* sample_latency = nullptr;
    Samples* bulk_latency = nullptr;
    std::atomic<std::uint64_t> next_sample{0}, next_bulk{0}, next_command{0};
    std::atomic<std::uint64_t> received{0}, commands{0};
    std::atomic<std::uint64_t> out_of_order{0}, corrupt{0}, bad_commands{0};
};

core::InPortConfig pooled_port(std::size_t buffer) {
    core::InPortConfig cfg;
    cfg.buffer_size = buffer;
    cfg.min_threads = cfg.max_threads = 1;
    return cfg;
}

/// Exactly-once, in-order check of one route's sequence number.
void check_seq(std::atomic<std::uint64_t>& next, std::uint64_t seq,
               std::atomic<std::uint64_t>& out_of_order) {
    if (seq != next.load(std::memory_order_relaxed)) out_of_order.fetch_add(1);
    next.store(seq + 1, std::memory_order_relaxed);
}

/// Control side: receives both routes, verifies them, and answers every
/// 100th sample with a command.
class Monitor : public core::Component {
public:
    Monitor(const core::ComponentContext& ctx, Tally& tally)
        : core::Component(ctx), tally_(&tally) {
        command_ = &add_out_port<Command>("cmd", "PerfCommand");
        add_in_port<Sample>("sample", "PerfSample", pooled_port(32),
                            [this](Sample& m, core::Smm&) { on_sample(m); });
        add_in_port<Bulk>("bulk", "PerfBulk", pooled_port(32),
                          [this](Bulk& m, core::Smm&) { on_bulk(m); });
    }

private:
    void on_sample(const Sample& m) {
        const std::int64_t t_in = now_ns();
        Tally& t = *tally_;
        check_seq(t.next_sample, m.seq, t.out_of_order);
        if (fnv1a(m.data.data(), kSampleBytes) !=
            t.inputs->sample_sum[m.seq % kSamplePayloads]) {
            t.corrupt.fetch_add(1);
        }
        if (m.due_ns != 0) t.sample_latency->push(t_in - m.due_ns);
        if (m.seq % kCommandEvery == kCommandEvery - 1) {
            Command* c = command_->get_message();
            c->seq = m.seq / kCommandEvery;
            c->sample_seq = m.seq;
            command_->send(c);
        }
        finish(kSampleOp | m.seq, m.due_ns, ledger::kTag32B, t_in);
    }
    void on_bulk(const Bulk& m) {
        const std::int64_t t_in = now_ns();
        Tally& t = *tally_;
        check_seq(t.next_bulk, m.seq, t.out_of_order);
        if (fnv1a(m.data.data(), kBulkBytes) != t.inputs->bulk_sum[m.seq % kBulkPayloads]) {
            t.corrupt.fetch_add(1);
        }
        if (m.due_ns != 0) t.bulk_latency->push(t_in - m.due_ns);
        finish(kBulkOp | m.seq, m.due_ns, ledger::kTag4KiB, t_in);
    }
    void finish(std::uint64_t op, std::int64_t due, std::uint16_t tag, std::int64_t t_in) {
        tally_->received.fetch_add(1, std::memory_order_release);
        if (ledger::on()) {
            record(op, ledger::kHandler, ledger::kDecode, tag, t_in, now_ns());
            if (due != 0) record(op, ledger::kOp, ledger::kEmpty, tag, due, t_in);
        }
    }

    Tally* tally_;
    core::OutPort<Command>* command_ = nullptr;
};

/// Field side: the producer drives its two Out ports; commands come back
/// on its In port.
class Sensor : public core::Component {
public:
    Sensor(const core::ComponentContext& ctx, Tally& tally)
        : core::Component(ctx), tally_(&tally) {
        sample = &add_out_port<Sample>("sample", "PerfSample");
        bulk = &add_out_port<Bulk>("bulk", "PerfBulk");
        add_in_port<Command>("cmd", "PerfCommand", pooled_port(16),
                             [this](Command& c, core::Smm&) { on_command(c); });
    }

    core::OutPort<Sample>* sample = nullptr;
    core::OutPort<Bulk>* bulk = nullptr;

private:
    void on_command(const Command& c) {
        Tally& t = *tally_;
        check_seq(t.next_command, c.seq, t.out_of_order);
        if (c.sample_seq != c.seq * kCommandEvery + kCommandEvery - 1) {
            t.bad_commands.fetch_add(1);
        }
        t.commands.fetch_add(1, std::memory_order_release);
    }

    Tally* tally_;
};

struct Rig {
    Tally tally;
    std::unique_ptr<core::Application> field, control;
    std::unique_ptr<remote::RemoteBridge> field_bridge, control_bridge;
    Sensor* sensor = nullptr;
    net::ShmTransport* field_wire = nullptr; ///< the shm wires themselves
    net::ShmTransport* control_wire = nullptr;
    std::string upgrade_detail;

    /// Close the wires and join the readers, then join the handler
    /// threads (a Monitor still answering a sample meets a closed wire,
    /// not a dead bridge); members then die bridges first.
    ~Rig() {
        if (control_bridge) control_bridge->shutdown();
        if (field_bridge) field_bridge->shutdown();
        if (field) field->stop();
        if (control) control->stop();
    }
};

std::unique_ptr<net::Transport> traced(std::unique_ptr<net::Transport> wire) {
    return std::make_unique<ledger::TracedTransport>(std::move(wire), 0, frame_op,
                                                     frame_tag, false);
}

std::unique_ptr<Rig> setup(const Inputs& inputs, Samples& sample_latency,
                           Samples& bulk_latency, bool trace, SetupStats& st) {
    auto rig = std::make_unique<Rig>();
    rig->tally.inputs = &inputs;
    rig->tally.sample_latency = &sample_latency;
    rig->tally.bulk_latency = &bulk_latency;
    const std::int64_t t0 = now_ns();
    rig->field = std::make_unique<core::Application>("field");
    rig->control = std::make_unique<core::Application>("control");
    rig->sensor = &rig->field->create_immortal<Sensor>("Sensor", rig->tally);
    auto& monitor = rig->control->create_immortal<Monitor>("Monitor", rig->tally);

    const std::int64_t t1 = now_ns();
    net::ShmAcceptor acceptor(0);
    net::ShmConnectResult control_side;
    std::thread accept_thread([&] {
        try {
            control_side = acceptor.accept();
        } catch (const std::exception& e) {
            control_side.detail = e.what();
        }
    });
    net::ShmConnectResult field_side;
    try {
        field_side = net::shm_upgrade_connect("127.0.0.1", acceptor.bound_port());
    } catch (...) {
        acceptor.close();
        accept_thread.join();
        throw;
    }
    accept_thread.join();
    const std::int64_t t2 = now_ns();
    if (!field_side.shm || !control_side.shm || !control_side.transport) {
        throw std::runtime_error("shm upgrade failed: " + field_side.detail + " / " +
                                 control_side.detail);
    }
    rig->upgrade_detail = field_side.detail;
    rig->field_wire = dynamic_cast<net::ShmTransport*>(field_side.transport.get());
    rig->control_wire = dynamic_cast<net::ShmTransport*>(control_side.transport.get());
    if (rig->field_wire == nullptr || rig->control_wire == nullptr) {
        throw std::runtime_error("shm upgrade returned a non-shm wire");
    }
    std::unique_ptr<net::Transport> field_wire = std::move(field_side.transport);
    std::unique_ptr<net::Transport> control_wire = std::move(control_side.transport);
    if (trace) {
        field_wire = traced(std::move(field_wire));
        control_wire = traced(std::move(control_wire));
    }
    rig->field_bridge = std::make_unique<remote::RemoteBridge>(
        *rig->field, std::move(field_wire), "field-bridge");
    rig->control_bridge = std::make_unique<remote::RemoteBridge>(
        *rig->control, std::move(control_wire), "control-bridge");
    rig->field_bridge->export_route(*rig->sensor->sample, "sample");
    rig->field_bridge->export_route(*rig->sensor->bulk, "bulk");
    rig->field_bridge->import_route("cmd", rig->sensor->in_port("cmd"));
    rig->control_bridge->import_route("sample", monitor.in_port("sample"));
    rig->control_bridge->import_route("bulk", monitor.in_port("bulk"));
    rig->control_bridge->export_route(monitor.out_port("cmd"), "cmd");

    const std::int64_t t3 = now_ns();
    rig->field->start();
    rig->control->start();
    rig->field_bridge->start();
    rig->control_bridge->start();
    const std::int64_t t4 = now_ns();
    st.add("net.connect", static_cast<double>(t2 - t1) * 1e-9);
    st.add("core.start", static_cast<double>(t4 - t3) * 1e-9);
    st.add("setup", static_cast<double>(t4 - t0) * 1e-9);
    return rig;
}

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/// The single producer: sends message after message, each route's
/// payload and the route mix drawn from the seeded streams.
class Producer {
public:
    Producer(Rig& rig, const Inputs& inputs, std::uint64_t seed, int round)
        : rig_(&rig), inputs_(&inputs), mix_(seed, 0x5A2 + static_cast<std::uint64_t>(round)) {}

    /// Send one message due at `due` (0 = whenever), stamped with its due
    /// time when `timed`. Returns the generator's lateness.
    std::int64_t send(std::int64_t due, bool timed) {
        const std::int64_t timed_due = timed ? due : 0;
        const bool bulk = mix_.next() % 10 == 0;
        const std::int64_t g0 = now_ns();
        std::uint64_t op;
        std::int64_t g1, s0;
        std::uint16_t tag;
        if (bulk) {
            Bulk* m = rig_->sensor->bulk->get_message();
            g1 = stamp();
            m->seq = bulk_seq_;
            m->due_ns = timed_due;
            m->data = inputs_->bulk[bulk_seq_ % kBulkPayloads];
            op = kBulkOp | bulk_seq_++;
            tag = ledger::kTag4KiB;
            s0 = stamp();
            rig_->sensor->bulk->send(m);
        } else {
            Sample* m = rig_->sensor->sample->get_message();
            g1 = stamp();
            m->seq = sample_seq_;
            m->due_ns = timed_due;
            m->data = inputs_->sample[sample_seq_ % kSamplePayloads];
            op = kSampleOp | sample_seq_++;
            tag = ledger::kTag32B;
            s0 = stamp();
            rig_->sensor->sample->send(m);
        }
        if (ledger::on() && timed) {
            const std::int64_t s1 = now_ns();
            record(op, ledger::kGetMessage, ledger::kOp, tag, g0, g1);
            record(op, ledger::kSend, ledger::kOp, tag, s0, s1);
        }
        return due != 0 ? g0 - due : 0;
    }

    std::uint64_t sent() const noexcept { return sample_seq_ + bulk_seq_; }
    std::uint64_t samples_sent() const noexcept { return sample_seq_; }

private:
    Rig* rig_;
    const Inputs* inputs_;
    Rng mix_;
    std::uint64_t sample_seq_ = 0;
    std::uint64_t bulk_seq_ = 0;
};

struct PacedStats {
    std::uint64_t timed = 0; ///< messages sent in the measured window
    WindowMeter meter;
};

/// Open loop at 50 000 msg/s: warm up for `warm_s`, then time every
/// message of the next `seconds` from its due time, appending the
/// generator's lateness to `lateness`. The producer spins to its due
/// times, since sleeping cannot hit a 20 us grid.
PacedStats paced(Producer& p, Samples& lateness, double warm_s, double seconds) {
    PacedStats s;
    const std::int64_t start = now_ns() + 1'000'000;
    const std::int64_t measure_from = start + static_cast<std::int64_t>(warm_s * 1e9);
    const std::int64_t end = measure_from + static_cast<std::int64_t>(seconds * 1e9);
    bool measuring = false;
    for (std::int64_t i = 0;; ++i) {
        const std::int64_t due = start + i * kPacedPeriodNs;
        if (due >= end) break;
        if (!measuring && due >= measure_from) {
            measuring = true;
            s.meter.begin();
        }
        while (now_ns() < due) cpu_relax();
        const std::int64_t late = p.send(due, measuring);
        if (measuring) {
            lateness.push(late);
            ++s.timed;
        }
    }
    s.meter.end();
    return s;
}

struct SaturatedStats {
    std::vector<double> window_rates; ///< delivered msg/s per window
    std::uint64_t delivered = 0;      ///< in the measured window
    WindowMeter meter;
};

/// Closed by credits only: the producer sends back to back and blocks
/// when the path is full. Deliveries are counted per 50 ms window.
SaturatedStats saturated(Producer& p, const Tally& tally, double warm_s, double seconds) {
    SaturatedStats s;
    const std::int64_t measure_from = now_ns() + static_cast<std::int64_t>(warm_s * 1e9);
    const std::int64_t end = measure_from + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < measure_from) p.send(0, false);
    s.meter.begin();
    std::uint64_t base = tally.received.load(std::memory_order_acquire);
    const std::uint64_t first = base;
    std::int64_t window_start = now_ns();
    for (;;) {
        p.send(0, false);
        const std::int64_t t = now_ns();
        if (t - window_start >= kWindowNs) {
            const std::uint64_t got = tally.received.load(std::memory_order_acquire);
            s.window_rates.push_back(static_cast<double>(got - base) * 1e9 /
                                     static_cast<double>(t - window_start));
            base = got;
            window_start = t;
            if (t >= end) break;
        }
    }
    s.meter.end();
    s.delivered = tally.received.load(std::memory_order_acquire) - first;
    return s;
}

/// Wait for every sent message and every triggered command to arrive;
/// anything missing after 10 s is counted lost.
void drain_and_check(Rig& rig, const Producer& p, Result& r) {
    Tally& t = rig.tally;
    const std::uint64_t want_commands = p.samples_sent() / kCommandEvery;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline &&
           (t.received.load(std::memory_order_acquire) < p.sent() ||
            t.commands.load(std::memory_order_acquire) < want_commands)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::uint64_t got = t.received.load(std::memory_order_acquire);
    const std::uint64_t cmds = t.commands.load(std::memory_order_acquire);
    r.attempted += p.sent() + want_commands;
    r.fail(got < p.sent() ? p.sent() - got : got - p.sent(),
           "stream messages lost or duplicated");
    r.fail(cmds < want_commands ? want_commands - cmds : cmds - want_commands,
           "commands lost or duplicated");
    r.fail(t.out_of_order.load(), "messages out of sequence");
    r.fail(t.corrupt.load(), "payload checksum mismatches");
    r.fail(t.bad_commands.load(), "commands naming the wrong sample");
}

struct ShmTotals {
    std::uint64_t futex = 0, spins = 0, rx_copies = 0, frames_dropped = 0;
    std::uint64_t pool_acquires = 0, pool_tls_hits = 0;

    /// Adds the window between two snapshots of one rig.
    void add(const ShmTotals& a, const ShmTotals& b) {
        futex += b.futex - a.futex;
        spins += b.spins - a.spins;
        rx_copies += b.rx_copies - a.rx_copies;
        frames_dropped += b.frames_dropped - a.frames_dropped;
        pool_acquires += b.pool_acquires - a.pool_acquires;
        pool_tls_hits += b.pool_tls_hits - a.pool_tls_hits;
    }
};

ShmTotals shm_totals(const Rig& rig) {
    ShmTotals s;
    for (const net::ShmTransport* w : {rig.field_wire, rig.control_wire}) {
        const net::ShmCounters c = w->counters();
        s.futex += c.wakeups + c.futex_waits;
        s.spins += c.spins;
        s.rx_copies += c.rx_copies;
        s.frames_dropped += w->stats().frames_dropped;
    }
    const net::FrameBufferPool::Stats ps = net::FrameBufferPool::global().stats();
    s.pool_acquires = ps.acquires;
    s.pool_tls_hits = ps.tls_hits;
    return s;
}

/// Samples a[from_a..) followed by b[from_b..).
std::vector<std::int64_t> merged(const Samples& a, std::size_t from_a, const Samples& b,
                                 std::size_t from_b) {
    std::vector<std::int64_t> v = a.copy(from_a);
    const std::vector<std::int64_t> w = b.copy(from_b);
    v.insert(v.end(), w.begin(), w.end());
    return v;
}

/// Ledger of one timed message: lateness (due -> get_message),
/// get_message, export wait (send entry -> encode entry: credit, export
/// port, synchronous dispatch), encode, framing (encode exit -> send_frame
/// entry), send_frame, wire (send_frame return -> decode entry), decode,
/// import hop (decode exit -> Monitor handler entry). The producer's fill
/// between get_message and send is left unattributed.
void analyze(const std::vector<ledger::Span>& spans, Result& r) {
    std::vector<std::int64_t> lateness, gm, send, export_wait, frame, wire, import_hop,
        handler, send_frame;
    std::vector<std::int64_t> enc[3], dec[3], sf[3];
    ledger::Reconciler rec(9);
    ledger::for_each_op(spans, [&](std::span<const ledger::Span> ops) {
        const ledger::Span *op = nullptr, *g = nullptr, *s = nullptr, *e = nullptr,
                           *f = nullptr, *d = nullptr, *h = nullptr;
        for (const ledger::Span& x : ops) {
            switch (x.kind) {
            case ledger::kOp: op = &x; break;
            case ledger::kGetMessage: g = &x; break;
            case ledger::kSend: s = &x; break;
            case ledger::kEncode: e = &x; break;
            case ledger::kSendFrame: f = &x; break;
            case ledger::kDecode: d = &x; break;
            case ledger::kHandler: h = &x; break;
            default: break;
            }
        }
        if (e && d && e->tag < 3) {
            enc[e->tag].push_back(e->t1 - e->t0);
            dec[e->tag].push_back(d->t1 - d->t0);
        }
        if (h) handler.push_back(h->t1 - h->t0);
        if (!op) return;
        if (!g || !s || !e || !f || !d || !h) {
            rec.incomplete();
            return;
        }
        const std::int64_t seg[] = {g->t0 - op->t0, g->t1 - g->t0, e->t0 - s->t0,
                                    e->t1 - e->t0,  f->t0 - e->t1, f->t1 - f->t0,
                                    d->t0 - f->t1,  d->t1 - d->t0, h->t0 - d->t1};
        lateness.push_back(seg[0]);
        gm.push_back(seg[1]);
        send.push_back(s->t1 - s->t0);
        export_wait.push_back(seg[2]);
        frame.push_back(seg[4]);
        send_frame.push_back(seg[5]);
        sf[f->tag < 3 ? f->tag : 0].push_back(seg[5]);
        wire.push_back(seg[6]);
        import_hop.push_back(seg[8]);
        rec.add(op->t1 - op->t0, seg);
    });
    add_dist(r, "gen.lateness_ns", std::move(lateness));
    add_dist(r, "core.get_message_ns", std::move(gm));
    add_dist(r, "core.send_ns", std::move(send));
    add_dist(r, "core.handler_ns", std::move(handler));
    add_dist(r, "remote.export_wait_ns", std::move(export_wait));
    add_dist(r, "cdr.encode_ns.32B", std::move(enc[ledger::kTag32B]));
    add_dist(r, "cdr.encode_ns.4KiB", std::move(enc[ledger::kTag4KiB]));
    add_dist(r, "cdr.decode_ns.32B", std::move(dec[ledger::kTag32B]));
    add_dist(r, "cdr.decode_ns.4KiB", std::move(dec[ledger::kTag4KiB]));
    add_dist(r, "remote.frame_ns", std::move(frame));
    add_dist(r, "net.send_frame_ns", std::move(send_frame));
    add_dist(r, "net.send_frame_ns.32B", std::move(sf[ledger::kTag32B]));
    add_dist(r, "net.send_frame_ns.4KiB", std::move(sf[ledger::kTag4KiB]));
    add_dist(r, "net.wire_ns", std::move(wire));
    add_dist(r, "remote.import_hop_ns", std::move(import_hop));
    rec.report(r);
}

void register_types() {
    auto& types = core::MessageTypeRegistry::global();
    types.register_type<Sample>("PerfSample");
    types.register_type<Bulk>("PerfBulk");
    types.register_type<Command>("PerfCommand");
    auto& codecs = remote::SerializerRegistry::global();
    codecs.register_custom_fn<Sample>("PerfSample", encode_sample, decode_sample);
    codecs.register_custom_fn<Bulk>("PerfBulk", encode_bulk, decode_bulk);
    codecs.register_custom_fn<Command>("PerfCommand", encode_command, decode_command);
}

} // namespace

Result run_telemetry_stream_shm(const Options& o) {
    register_types();
    Result r;
    const Inputs inputs(o.seed);
    const SetupStats st = setups_in_fresh_processes(kSetups, [&](SetupStats& s) {
        Samples none(0);
        setup(inputs, none, none, false, s);
    });
    SetupStats warm; // the rounds' own set-ups, in this process
    // The paced phases send exactly 50 000 msg/s, so these never fill.
    const auto paced_cap = static_cast<std::size_t>(o.seconds * 0.7 * 50'000) + 1024;
    Samples sample_latency(paced_cap), bulk_latency(paced_cap / 4), lateness(paced_cap);
    const double warm_s = 0.2;

    // Untraced rounds: paced, then saturated, then drain, on a fresh rig.
    const double paced_s = (o.trace ? 0.35 : 0.7) * o.seconds / kRounds;
    const double saturated_s = (o.trace ? 0.15 : 0.3) * o.seconds / kRounds;
    std::uint64_t timed = 0, sent = 0, delivered = 0, windows = 0;
    Pooled paced_pool;
    ShmTotals shm_total;
    Fabric fabric_total;
    std::vector<RoundFigures> rounds;
    for (int round = 0; round < kRounds; ++round) {
        const std::size_t first_sample = sample_latency.size();
        const std::size_t first_bulk = bulk_latency.size();
        std::unique_ptr<Rig> rig = setup(inputs, sample_latency, bulk_latency, false, warm);
        if (round == 0) r.note("shm.upgrade", "ok (" + rig->upgrade_detail + ")");
        Producer producer(*rig, inputs, o.seed, round);
        const ShmTotals n0 = shm_totals(*rig);
        const Fabric f0 = fabric({rig->field.get(), rig->control.get()});
        const PacedStats pc = paced(producer, lateness, warm_s, paced_s);
        const SaturatedStats sat = saturated(producer, rig->tally, warm_s, saturated_s);
        drain_and_check(*rig, producer, r);
        shm_total.add(n0, shm_totals(*rig));
        accumulate(fabric_total, f0, fabric({rig->field.get(), rig->control.get()}));
        paced_pool.add(pc.timed, pc.meter);
        rounds.push_back({summarize(merged(sample_latency, first_sample, bulk_latency,
                                           first_bulk)),
                          median(sat.window_rates),
                          sat.meter.cpu_s() * 1e6 / static_cast<double>(sat.delivered)});
        windows += sat.window_rates.size();
        timed += pc.timed;
        sent += producer.sent();
        delivered += sat.delivered;
    }
    const Summary pooled_latency = summarize(merged(sample_latency, 0, bulk_latency, 0));
    const Summary late = summarize(lateness.copy());
    r.note("latency.samples", static_cast<double>(pooled_latency.n));
    r.note("setup.warm_process_s", warm.median_of("setup"));
    r.note("paced.timed_messages", static_cast<double>(timed));
    r.note("paced.lateness_p50_us", late.p50 / 1e3);
    r.note("paced.lateness_p99_us", late.p99 / 1e3);
    r.note("paced.lateness_max_us", late.max / 1e3);
    r.note("saturated.windows", static_cast<double>(windows));
    r.note("saturated.delivered", static_cast<double>(delivered));

    if (!o.trace) {
        add_end_to_end(r, rounds, pooled_latency, st.median_of("setup"));
        fingerprint(r, false);
        return r;
    }

    r.add("latency_p99_us", pooled_latency.p99 / 1e3, "us");
    r.add("core.start_ms", st.median_of("core.start") * 1e3, "ms");
    r.add("net.connect_ms", st.median_of("net.connect") * 1e3, "ms");
    add_fabric_metrics(r, fabric_total, sent);
    r.add("allocs_per_msg", paced_pool.allocs_per_op(), "count");
    r.add("net.shm_futex_per_kmsg", 1e3 * ratio(shm_total.futex, sent), "count");
    r.add("net.shm_spins_per_msg", ratio(shm_total.spins, sent), "count");
    r.add("net.shm_rx_copies", static_cast<double>(shm_total.rx_copies), "count");
    r.add("net.pool_tls_hit_ratio", ratio(shm_total.pool_tls_hits, shm_total.pool_acquires),
          "ratio");
    r.add("net.frames_dropped", static_cast<double>(shm_total.frames_dropped), "count");

    // Traced leg: a fresh rig whose shm wires sit behind the decorator,
    // paced phase only (the ledger follows timed messages).
    sample_latency.clear();
    bulk_latency.clear();
    lateness.clear();
    std::unique_ptr<Rig> rig = setup(inputs, sample_latency, bulk_latency, true, warm);
    Producer traced_producer(*rig, inputs, o.seed, kRounds);
    // At most 100k timed messages, like the closed-loop workloads' traced
    // legs; up to seven spans per message, warm-up included.
    const double traced_s = std::min(0.5 * o.seconds, 2.0);
    ledger::start(static_cast<std::size_t>((traced_s + warm_s) * 50'000 * 7) +
                  64 * ledger::detail::kBlock);
    const PacedStats traced_pc = paced(traced_producer, lateness, warm_s, traced_s);
    drain_and_check(*rig, traced_producer, r);
    ledger::stop();
    rig.reset(); // joins every handler and reader thread before the spans are read
    const Summary traced_lat = summarize(merged(sample_latency, 0, bulk_latency, 0));
    const std::vector<ledger::Span> spans = ledger::collect();
    ledger::dump(spans, o.trace_out, 100'000);
    analyze(spans, r);
    r.add("trace.overhead_pct", 100.0 * (traced_lat.p50 / median_p50(rounds) - 1.0), "%");
    r.note("trace.timed_messages", static_cast<double>(traced_pc.timed));
    r.note("trace.spans", static_cast<double>(spans.size()));
    r.note("trace.dropped_spans", static_cast<double>(ledger::dropped()));
    fingerprint(r, false);
    return r;
}

} // namespace perfbench
