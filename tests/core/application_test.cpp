// Application: region layout from RTSJAttributes, lookup, LCA, lifecycle,
// and the paper's Fig. 6 client/server example built programmatically.
#include "core/application.hpp"
#include "core/messages.hpp"
#include "rt/clock.hpp"
#include "rt/stats.hpp"

#include "helpers.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

using namespace compadres;
using test::TestMsg;

namespace {

class ApplicationTest : public ::testing::Test {
protected:
    void SetUp() override { test::register_test_types(); }

    static core::InPortConfig sync_port() {
        core::InPortConfig cfg;
        cfg.min_threads = cfg.max_threads = 0;
        return cfg;
    }
};

} // namespace

TEST_F(ApplicationTest, RtsjAttributesShapeRegions) {
    core::RtsjAttributes attrs;
    attrs.immortal_size = 1 * 1024 * 1024;
    attrs.scoped_pools = {{1, 200'000, 3}, {2, 100'000, 5}};
    core::Application app("MyApp", attrs);
    EXPECT_EQ(app.immortal().capacity(), 1024u * 1024u);
    EXPECT_EQ(app.pool_for_level(1).total(), 3u);
    EXPECT_EQ(app.pool_for_level(1).scope_size(), 200'000u);
    EXPECT_EQ(app.pool_for_level(2).total(), 5u);
}

TEST_F(ApplicationTest, DuplicatePoolLevelRejected) {
    core::RtsjAttributes attrs;
    attrs.scoped_pools = {{1, 1000, 1}, {1, 2000, 2}};
    EXPECT_THROW(core::Application("bad", attrs), core::AssemblyError);
}

TEST_F(ApplicationTest, UndeclaredLevelGetsDefaultPool) {
    core::Application app("t");
    memory::ScopePool& pool = app.pool_for_level(7);
    EXPECT_GT(pool.total(), 0u);
    EXPECT_EQ(&pool, &app.pool_for_level(7)); // memoized
}

TEST_F(ApplicationTest, FindAndComponentLookup) {
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    EXPECT_EQ(app.find("A"), &a);
    EXPECT_EQ(app.find("Z"), nullptr);
    EXPECT_EQ(&app.component("A"), &a);
    EXPECT_THROW(app.component("Z"), core::AssemblyError);
    EXPECT_EQ(app.component_count(), 1u);
}

TEST_F(ApplicationTest, CommonAncestorComputation) {
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_scoped<core::Component>("B", a, 1);
    auto& c = app.create_scoped<core::Component>("C", a, 1);
    auto& d = app.create_scoped<core::Component>("D", c, 2);
    EXPECT_EQ(&app.common_ancestor(b, c), &a);
    EXPECT_EQ(&app.common_ancestor(b, d), &a);
    EXPECT_EQ(&app.common_ancestor(c, d), &c); // ancestor endpoint
    EXPECT_EQ(&app.common_ancestor(d, d), &d);
    auto& e = app.create_immortal<core::Component>("E");
    EXPECT_EQ(&app.common_ancestor(a, e), &app.root());
}

TEST_F(ApplicationTest, ShutdownIsIdempotent) {
    core::Application app("t");
    auto& p = app.create_immortal<core::Component>("P");
    app.create_scoped<core::Component>("C", p, 1);
    app.shutdown();
    app.shutdown();
    EXPECT_EQ(app.component_count(), 0u);
}

// ---- The paper's Fig. 6 example, built programmatically ----
//
// IMC (immortal) --P1--> Client.P2; Client --P3--> Server.P4 (siblings);
// Server --P5--> Client.P6. Handlers mirror Fig. 7/8: P2 sends the request,
// P4 replies, P6 records the round-trip completion.
namespace {

struct Fig6 {
    core::Application app{"Fig6", [] {
        core::RtsjAttributes attrs;
        attrs.scoped_pools = {{1, 256 * 1024, 4}};
        return attrs;
    }()};
    core::Component* imc = nullptr;
    core::Component* client = nullptr;
    core::Component* server = nullptr;
    test::Collector<int> replies;

    explicit Fig6(const core::InPortConfig& port_cfg) {
        imc = &app.create_immortal<core::Component>("IMC");
        client = &app.create_scoped<core::Component>("MyClient", *imc, 1);
        server = &app.create_scoped<core::Component>("MyServer", *imc, 1);

        imc->add_out_port<core::MyInteger>("P1", "MyInteger");
        client->add_in_port<core::MyInteger>(
            "P2", "MyInteger", port_cfg,
            [this](core::MyInteger&, core::Smm& smm) {
                // Fig. 7: P2's handler gets P3 from the SMM and sends the
                // request to the server.
                auto& p3 = static_cast<core::OutPort<core::MyInteger>&>(
                    smm.get_out_port("P3"));
                core::MyInteger* req = p3.get_message();
                req->value = 3;
                p3.send(req, 3);
            });
        client->add_out_port<core::MyInteger>("P3", "MyInteger");
        server->add_in_port<core::MyInteger>(
            "P4", "MyInteger", port_cfg,
            [this](core::MyInteger&, core::Smm& smm) {
                auto& p5 = static_cast<core::OutPort<core::MyInteger>&>(
                    smm.get_out_port("P5"));
                core::MyInteger* reply = p5.get_message();
                reply->value = 4;
                p5.send(reply, 3);
            });
        server->add_out_port<core::MyInteger>("P5", "MyInteger");
        client->add_in_port<core::MyInteger>(
            "P6", "MyInteger", port_cfg,
            [this](core::MyInteger& m, core::Smm&) { replies.add(m.value); });

        app.connect(*imc, "P1", *client, "P2");       // internal
        app.connect(*client, "P3", *server, "P4");    // external (siblings)
        app.connect(*server, "P5", *client, "P6");    // external (siblings)
        app.start();
    }

    void trigger() {
        auto& p1 = imc->out_port_t<core::MyInteger>("P1");
        core::MyInteger* m = p1.get_message();
        p1.send(m, 2);
    }
};

} // namespace

TEST_F(ApplicationTest, Fig6RoundTripSynchronous) {
    core::InPortConfig sync;
    sync.min_threads = sync.max_threads = 0;
    Fig6 fig(sync);
    fig.trigger();
    ASSERT_TRUE(fig.replies.wait_for(1));
    EXPECT_EQ(fig.replies.items().front(), 4);
}

TEST_F(ApplicationTest, Fig6RoundTripPooled) {
    core::InPortConfig pooled;
    pooled.buffer_size = 10;
    pooled.min_threads = 1;
    pooled.max_threads = 5;
    Fig6 fig(pooled);
    for (int i = 0; i < 50; ++i) fig.trigger();
    ASSERT_TRUE(fig.replies.wait_for(50));
    for (const int v : fig.replies.items()) EXPECT_EQ(v, 4);
}

TEST_F(ApplicationTest, Fig6PoolsHostedByImcSmm) {
    core::InPortConfig sync;
    sync.min_threads = sync.max_threads = 0;
    Fig6 fig(sync);
    // All three connections (IMC->Client internal, Client<->Server external)
    // are hosted by IMC: its SMM owns every pool, in IMC's region.
    auto& p3 = fig.client->out_port_t<core::MyInteger>("P3");
    EXPECT_EQ(&p3.smm()->owner(), fig.imc);
    EXPECT_EQ(&p3.pool()->region(), &fig.imc->region());
}

TEST_F(ApplicationTest, Fig6SteadyStateLatencyIsFinite) {
    // A smoke version of the §3.1 measurement loop: steady-state
    // round-trips complete and the recorder sees sane samples.
    core::InPortConfig sync;
    sync.min_threads = sync.max_threads = 0;
    Fig6 fig(sync);
    rt::StatsRecorder rec;
    for (int i = 0; i < 200; ++i) {
        const auto t0 = rt::now_ns();
        fig.trigger();
        ASSERT_TRUE(fig.replies.wait_for(i + 1));
        rec.record(rt::now_ns() - t0);
    }
    rec.discard_warmup(50);
    const auto s = rec.summarize();
    EXPECT_EQ(s.count, 150u);
    EXPECT_GT(s.median, 0);
    EXPECT_GE(s.max, s.median);
}

TEST_F(ApplicationTest, DescribeListsTopologyAndConnections) {
    core::Application app("desc");
    auto& a = app.create_immortal<core::Component>("Alpha");
    auto& b = app.create_scoped<core::Component>("Beta", a, 1);
    a.add_out_port<TestMsg>("out", "TestMsg");
    b.add_in_port<TestMsg>("in", "TestMsg", sync_port(),
                           [](TestMsg&, core::Smm&) {});
    app.connect(a, "out", b, "in");
    const std::string text = app.describe();
    EXPECT_NE(text.find("application 'desc' (2 components)"), std::string::npos);
    EXPECT_NE(text.find("- Alpha [immortal"), std::string::npos);
    EXPECT_NE(text.find("  - Beta [scoped L1"), std::string::npos);
    EXPECT_NE(text.find("Alpha.out -> Beta.in <TestMsg> via SMM of Alpha"),
              std::string::npos);
}

// ---- counter sources and the observability plane ----

TEST_F(ApplicationTest, CounterSourceRemovalRacesTraceReport) {
    // remove_counter_source must block until any in-flight trace_report is
    // done with the callback, so an owner can free captured state right
    // after removal. Hammer report/remove/re-add from two threads while the
    // callbacks read through a pointer that removal invalidates. Rounds
    // continue until the reporter has completed kMinReports reports, so
    // the two threads really overlap even when the reporter starts late.
    constexpr int kMinRounds = 200;
    constexpr int kMinReports = 50;
    core::Application app("race");
    std::atomic<bool> stop{false};
    std::atomic<int> reports{0};

    std::thread reporter([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const core::TraceReport report = app.trace_report();
            for (const core::CounterGroup& g : report.counters) {
                // Groups must always be fully formed — a torn callback
                // would surface here as a dead pointer dereference.
                EXPECT_FALSE(g.source.empty());
            }
            reports.fetch_add(1, std::memory_order_relaxed);
        }
    });

    for (int round = 0;
         round < kMinRounds || reports.load(std::memory_order_relaxed) <
                                   kMinReports;
         ++round) {
        auto counted = std::make_unique<std::uint64_t>(7);
        const std::uint64_t token =
            app.add_counter_source([raw = counted.get()] {
                core::CounterGroup g;
                g.source = "racy";
                g.counters = {{"value", *raw}};
                return g;
            });
        app.remove_counter_source(token);
        // Safe to free immediately: the contract says no in-flight
        // trace_report still holds the callback.
        counted.reset();
    }
    stop.store(true);
    reporter.join();
    EXPECT_GT(reports.load(), 0);
}

TEST_F(ApplicationTest, TraceReportToStringWithZeroHopPorts) {
    core::Application app("zero-hop");
    auto& a = app.create_immortal<core::Component>("Alpha");
    auto& b = app.create_immortal<core::Component>("Beta");
    a.add_out_port<TestMsg>("out", "TestMsg");
    b.add_in_port<TestMsg>("in", "TestMsg", sync_port(),
                           [](TestMsg&, core::Smm&) {});
    app.connect(a, "out", b, "in");
    // No traffic at all: every counter zero, no latency series.
    const core::TraceReport report = app.trace_report();
    ASSERT_EQ(report.ports.size(), 1u);
    EXPECT_EQ(report.ports[0].delivered, 0u);
    EXPECT_FALSE(report.ports[0].traced);
    const std::string text = report.to_string();
    EXPECT_NE(text.find("1 port(s)"), std::string::npos);
    EXPECT_NE(text.find("Beta.in"), std::string::npos);
    EXPECT_NE(text.find("delivered=0"), std::string::npos);
    // Zero-hop ports must not print latency quantiles (nothing recorded).
    EXPECT_EQ(text.find("queue-wait"), std::string::npos);
}

TEST_F(ApplicationTest, PublishMetricsFlattensFabricIntoRegistry) {
    core::Application app("metrics");
    auto& a = app.create_immortal<core::Component>("Alpha");
    auto& b = app.create_immortal<core::Component>("Beta");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    b.add_in_port<TestMsg>("in", "TestMsg", sync_port(),
                           [](TestMsg&, core::Smm&) {});
    app.connect(a, "out", b, "in");
    app.add_counter_source([] {
        core::CounterGroup g;
        g.source = "wire";
        g.counters = {{"frames", 5}};
        return g;
    });
    app.start();
    for (int i = 0; i < 3; ++i) {
        TestMsg* msg = out.get_message();
        msg->value = i;
        out.send(msg, 2);
    }
    obs::MetricsRegistry reg;
    app.publish_metrics(reg);
    const std::string json = reg.json_snapshot();
    EXPECT_NE(json.find("\"compadres_metrics_port_Beta.in_delivered\": 3"),
              std::string::npos);
    EXPECT_NE(json.find("\"compadres_metrics_wire_frames\": 5"),
              std::string::npos);

    // The live-source variant re-samples on every exposition.
    obs::MetricsRegistry live;
    const std::uint64_t token = app.register_metrics_source(live);
    const std::string text = live.prometheus_text();
    EXPECT_NE(text.find("compadres_metrics_port_Beta_in_delivered 3"),
              std::string::npos);
    live.remove_source(token);
}
