// Live recomposition: the CreditGate quiesce window, quiesced_swap under
// concurrent senders, copy-on-write fan-out edits, apply_recompose plans,
// and the stop()/recompose interplay.
#include "core/recompose.hpp"

#include "core/application.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"

#include "helpers.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

using namespace compadres;
using test::TestMsg;

namespace {

std::atomic<int>& sink_count() {
    static std::atomic<int> n{0};
    return n;
}

/// CDL-style classes for spawn-by-name plans.
class RecSource : public core::Component {
public:
    explicit RecSource(const core::ComponentContext& ctx)
        : core::Component(ctx) {
        add_out_port<TestMsg>("out", "TestMsg");
    }
};

class RecSink : public core::Component {
public:
    explicit RecSink(const core::ComponentContext& ctx)
        : core::Component(ctx) {
        add_in_port<TestMsg>("in", "TestMsg", port_config("in"),
                             [](TestMsg&, core::Smm&) {
                                 sink_count().fetch_add(1);
                             });
    }
};

class RecomposeTest : public ::testing::Test {
protected:
    void SetUp() override {
        test::register_test_types();
        auto& reg = core::ComponentRegistry::global();
        static bool registered = false;
        if (!registered) {
            reg.register_class<RecSource>("RecSource");
            reg.register_class<RecSink>("RecSink");
            registered = true;
        }
        sink_count().store(0);
    }
};

core::InPortConfig pooled_port(std::size_t buffer = 8,
                               std::size_t threads = 1) {
    core::InPortConfig cfg;
    cfg.buffer_size = buffer;
    cfg.min_threads = threads;
    cfg.max_threads = threads;
    return cfg;
}

} // namespace

TEST_F(RecomposeTest, CreditGateWindowParksEntrantsUntilReopen) {
    rt::CreditGate gate(4);
    gate.close_window();
    std::atomic<bool> entered{false};
    std::thread entrant([&] {
        gate.enter(); // parks: the window is closed
        entered.store(true);
        gate.exit();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(entered.load());
    // A parked entrant holds no entrant count, so the gate reads drained.
    gate.wait_drained();
    gate.open_window();
    entrant.join();
    EXPECT_TRUE(entered.load());
}

TEST_F(RecomposeTest, WaitDrainedCoversEntrantsAndCredits) {
    rt::CreditGate gate(4);
    gate.enter();
    gate.acquire();
    gate.close_window();
    std::atomic<bool> drained{false};
    std::thread waiter([&] {
        gate.wait_drained();
        drained.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(drained.load()) << "an entrant was still inside the bracket";
    gate.exit();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(drained.load()) << "a credit was still in use";
    gate.release();
    waiter.join();
    EXPECT_TRUE(drained.load());
    gate.open_window();
}

TEST_F(RecomposeTest, QuiescedSwapMidBurstLosesNothing) {
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    test::Collector<int> got;
    auto& in = b.add_in_port<TestMsg>(
        "in", "TestMsg", pooled_port(64, 1),
        [&](TestMsg& m, core::Smm&) { got.add(m.value); });
    // Pool capacity below the buffer depth: the queue can never fill, so a
    // Ring policy never actually evicts and zero-loss holds under BOTH
    // policies — what changes across the swap is only the admission path.
    app.connect(out, in, /*pool_capacity=*/8);
    app.start();

    constexpr int kMessages = 4000;
    std::thread sender([&] {
        for (int i = 0; i < kMessages; ++i) {
            TestMsg* m = out.get_message();
            m->value = i;
            out.send(m, 1);
        }
    });
    // Flip Block <-> Ring while the burst is in flight.
    core::TransmissionPolicy ring;
    ring.overflow = core::OverflowPolicy::kRingOverwrite;
    core::TransmissionPolicy block;
    for (int flip = 0; flip < 20; ++flip) {
        const core::TransmissionPolicy& next = flip % 2 == 0 ? ring : block;
        const std::uint64_t pause =
            core::quiesced_swap(in, [&] { in.set_policy(next); });
        EXPECT_GT(pause, 0u);
        EXPECT_EQ(in.policy(), next);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    sender.join();
    ASSERT_TRUE(got.wait_for(kMessages, std::chrono::milliseconds(10000)));
    // Exactly once, nothing lost, nothing duplicated.
    std::set<int> unique;
    for (int v : got.items()) unique.insert(v);
    EXPECT_EQ(unique.size(), static_cast<std::size_t>(kMessages));
    EXPECT_EQ(got.items().size(), static_cast<std::size_t>(kMessages));
    app.stop();
}

TEST_F(RecomposeTest, DisconnectMidTrafficStopsCleanlyAfterDrain) {
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& c = app.create_immortal<core::Component>("C");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    std::atomic<int> c1{0}, c2{0};
    auto& in1 = b.add_in_port<TestMsg>(
        "in", "TestMsg", pooled_port(32, 1),
        [&](TestMsg&, core::Smm&) { c1.fetch_add(1); });
    auto& in2 = c.add_in_port<TestMsg>(
        "in", "TestMsg", pooled_port(32, 1),
        [&](TestMsg&, core::Smm&) { c2.fetch_add(1); });
    app.connect(out, in1, 8);
    app.connect(out, in2, 8);
    app.start();

    std::atomic<bool> stop{false};
    std::atomic<int> sent{0};
    std::thread sender([&] {
        while (!stop.load()) {
            TestMsg* m = out.get_message();
            m->value = sent.load();
            out.send(m, 1);
            sent.fetch_add(1);
        }
    });
    while (c2.load() < 100) std::this_thread::yield();
    app.disconnect(out, in2);
    // disconnect() returned: no send still holds the old fan-out snapshot.
    // Queued messages drain through in2's handler; after the gate reads
    // drained the count must freeze while in1 keeps receiving.
    in2.credits().wait_drained();
    const int frozen = c2.load();
    const int c1_then = c1.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(c2.load(), frozen);
    EXPECT_GT(c1.load(), c1_then);
    stop.store(true);
    sender.join();
    app.stop();
    EXPECT_EQ(c1.load(), sent.load());
}

TEST_F(RecomposeTest, ApplyPlanSpawnsWiresRepoliciesRemovesRetires) {
    core::Application app("live");
    app.create_immortal<RecSource>("src");
    app.start();
    obs::MetricsRegistry metrics;
    core::RecomposeOptions opts;
    opts.metrics = &metrics;

    // Phase 1: spawn a sink and route to it.
    core::RecomposePlan grow;
    grow.application = "live";
    core::RecomposeComponentSpec sink;
    sink.instance = "snk";
    sink.class_name = "RecSink";
    sink.type = core::ComponentType::kScoped;
    sink.level = 1;
    sink.port_configs["in"] = pooled_port(16, 1);
    grow.spawns.push_back(sink);
    grow.route_adds.push_back({"src", "out", "snk", "in", 4});
    const core::RecomposeStats grown = apply_recompose(app, grow, opts);
    EXPECT_EQ(grown.components_spawned, 1u);
    EXPECT_EQ(grown.routes_added, 1u);

    auto& out = app.component("src").out_port_t<TestMsg>("out");
    for (int i = 0; i < 10; ++i) {
        TestMsg* m = out.get_message();
        m->value = i;
        out.send(m, 1);
    }
    for (int spin = 0; spin < 2000 && sink_count().load() < 10; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(sink_count().load(), 10);

    // Phase 2: repolicy the live route.
    core::RecomposePlan tune;
    tune.application = "live";
    core::RecomposeRepolicy rep;
    rep.instance = "snk";
    rep.port = "in";
    rep.to.overflow = core::OverflowPolicy::kRingOverwrite;
    tune.repolicies.push_back(rep);
    const core::RecomposeStats tuned = apply_recompose(app, tune, opts);
    ASSERT_EQ(tuned.pause_ns.size(), 1u);
    EXPECT_EQ(app.component("snk").in_port("in").policy().overflow,
              core::OverflowPolicy::kRingOverwrite);

    // Phase 3: unroute and retire the sink.
    core::RecomposePlan shrink;
    shrink.application = "live";
    shrink.route_removes.push_back({"src", "out", "snk", "in", 0});
    shrink.retires.push_back("snk");
    const core::RecomposeStats shrunk = apply_recompose(app, shrink, opts);
    EXPECT_EQ(shrunk.routes_removed, 1u);
    EXPECT_EQ(shrunk.components_retired, 1u);
    EXPECT_EQ(app.find("snk"), nullptr);

    EXPECT_EQ(metrics.counter("recompose_applied_total").value(), 3u);
    EXPECT_EQ(metrics.counter("recompose_routes_repoliced_total").value(), 1u);
    EXPECT_EQ(metrics.counter("recompose_components_retired_total").value(),
              1u);
    app.stop();
}

TEST_F(RecomposeTest, ApplyPlanAbortsCleanly) {
    core::Application app("live");
    app.start();
    obs::MetricsRegistry metrics;
    core::RecomposeOptions opts;
    opts.metrics = &metrics;

    core::RecomposePlan wrong_app;
    wrong_app.application = "someone-else";
    EXPECT_THROW(apply_recompose(app, wrong_app, opts), core::RecomposeError);

    core::RecomposePlan bogus;
    bogus.application = "live";
    bogus.route_adds.push_back({"ghost", "out", "ghost2", "in", 0});
    EXPECT_THROW(apply_recompose(app, bogus, opts), core::RecomposeError);
    EXPECT_EQ(metrics.counter("recompose_aborted_total").value(), 2u);

    core::RecomposePlan remote_only;
    remote_only.application = "live";
    core::RecomposeRepolicy rep;
    rep.remote = true;
    rep.route = "r";
    remote_only.repolicies.push_back(rep);
    // Remote repolicy without a wired applier must abort, not crash.
    EXPECT_THROW(apply_recompose(app, remote_only, opts),
                 core::RecomposeError);

    app.stop();
    core::RecomposePlan after_stop;
    after_stop.application = "live";
    EXPECT_THROW(apply_recompose(app, after_stop, opts),
                 core::RecomposeError);
}

TEST_F(RecomposeTest, RetireRefusesReferencedOrImmortalComponents) {
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& src = app.create_scoped<RecSource>(
        "scoped-src", a, 1);
    auto& snk = app.create_scoped<RecSink>("scoped-snk", a, 1);
    (void)snk;
    app.connect(src.out_port("out"),
                app.component("scoped-snk").in_port("in"), 4);
    EXPECT_THROW(app.retire("A"), core::AssemblyError); // immortal
    EXPECT_THROW(app.retire("scoped-src"), core::AssemblyError); // connected
    EXPECT_THROW(app.retire("scoped-snk"), core::AssemblyError); // targeted
    EXPECT_THROW(app.retire("nope"), core::AssemblyError);
    app.disconnect(src.out_port("out"),
                   app.component("scoped-snk").in_port("in"));
    app.retire("scoped-snk");
    app.retire("scoped-src");
    EXPECT_EQ(app.find("scoped-src"), nullptr);
    app.stop();
}

TEST_F(RecomposeTest, StopIsIdempotentAndSerializesWithRecompose) {
    core::Application app("live");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    auto& in = b.add_in_port<TestMsg>("in", "TestMsg", pooled_port(16, 1),
                                      [](TestMsg&, core::Smm&) {});
    app.connect(out, in, 4);
    app.start();

    core::RecomposePlan tune;
    tune.application = "live";
    core::RecomposeRepolicy rep;
    rep.instance = "B";
    rep.port = "in";
    rep.to.overflow = core::OverflowPolicy::kRingOverwrite;
    tune.repolicies.push_back(rep);

    std::atomic<int> recompose_errors{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
        threads.emplace_back([&] {
            for (int k = 0; k < 20; ++k) {
                try {
                    apply_recompose(app, tune);
                } catch (const core::RecomposeError&) {
                    // Fine: the app stopped under us — but never both
                    // half-applied and torn down.
                    recompose_errors.fetch_add(1);
                    return;
                }
            }
        });
    }
    for (int i = 0; i < 3; ++i) {
        threads.emplace_back([&] { app.stop(); });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_TRUE(app.stopped());
    app.stop(); // idempotent
    EXPECT_TRUE(app.stopped());
}

TEST_F(RecomposeTest, DescribeRendersEveryOperationKind) {
    core::RecomposePlan plan;
    plan.application = "live";
    core::RecomposeComponentSpec spec;
    spec.instance = "snk";
    spec.class_name = "RecSink";
    spec.level = 2;
    spec.parent = "hub";
    plan.spawns.push_back(spec);
    plan.route_adds.push_back({"src", "out", "snk", "in", 0});
    core::RecomposeRepolicy rep;
    rep.instance = "snk";
    rep.port = "in";
    rep.to.overflow = core::OverflowPolicy::kRingOverwrite;
    rep.to.band = 2;
    plan.repolicies.push_back(rep);
    plan.route_removes.push_back({"src", "out", "old", "in", 0});
    plan.retires.push_back("old");

    const std::string text = core::describe(plan);
    EXPECT_NE(text.find("+ spawn snk : RecSink [L2, under hub]"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("+ route src.out -> snk.in"), std::string::npos);
    EXPECT_NE(text.find("~ repolicy snk.in"), std::string::npos);
    EXPECT_NE(text.find("[block, band=auto] -> [ring, band=2]"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("- route src.out -> old.in"), std::string::npos);
    EXPECT_NE(text.find("- retire old"), std::string::npos);

    EXPECT_NE(core::describe(core::RecomposePlan{}).find("(no changes)"),
              std::string::npos);
}
