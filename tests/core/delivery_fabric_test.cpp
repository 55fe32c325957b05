// The credit-based delivery fabric: overflow policies, eager pool
// resolution, shared-dispatcher isolation, and hop-level tracing.
#include "core/application.hpp"
#include "core/hooks.hpp"
#include "core/hop_trace.hpp"
#include "core/messages.hpp"

#include "helpers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

using namespace compadres;
using test::TestMsg;

namespace {

class DeliveryFabricTest : public ::testing::Test {
protected:
    void SetUp() override { test::register_test_types(); }
};

core::InPortConfig pooled_port(std::size_t buffer = 8, std::size_t threads = 1) {
    core::InPortConfig cfg;
    cfg.buffer_size = buffer;
    cfg.min_threads = threads;
    cfg.max_threads = threads;
    return cfg;
}

core::InPortConfig ring_port(std::size_t buffer, std::size_t threads = 1) {
    core::InPortConfig cfg = pooled_port(buffer, threads);
    cfg.policy.overflow = core::OverflowPolicy::kRingOverwrite;
    return cfg;
}

core::InPortConfig shared_port(std::size_t buffer = 2) {
    core::InPortConfig cfg = pooled_port(buffer, 1);
    cfg.strategy = core::ThreadpoolStrategy::kShared;
    return cfg;
}

} // namespace

TEST_F(DeliveryFabricTest, PoolResolvedEagerlyAtWireTime) {
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    EXPECT_EQ(out.pool(), nullptr);
    b.add_in_port<TestMsg>("in", "TestMsg", pooled_port(),
                           [](TestMsg&, core::Smm&) {});
    app.connect(a, "out", b, "in", /*pool_capacity=*/4);
    // No get_message() yet — the pool must already be resolved and sized.
    ASSERT_NE(out.pool(), nullptr);
    EXPECT_EQ(out.pool()->capacity(), 4u);
    app.shutdown();
}

TEST_F(DeliveryFabricTest, LateWiringGrowsSharedPoolNoExhaustionDeadlock) {
    // Regression: two connections of the same message type share the host
    // SMM's per-type pool. The second connection used to lose its capacity
    // reservation once the pool had materialized, so holding both
    // connections' worth of in-flight messages exhausted the pool and
    // deadlocked the pipeline.
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& c = app.create_immortal<core::Component>("C");
    auto& d = app.create_immortal<core::Component>("D");
    auto& out1 = a.add_out_port<TestMsg>("out1", "TestMsg");
    auto& out2 = c.add_out_port<TestMsg>("out2", "TestMsg");
    test::Collector<int> got;
    b.add_in_port<TestMsg>("in1", "TestMsg", pooled_port(4, 1),
                           [&](TestMsg& m, core::Smm&) { got.add(m.value); });
    d.add_in_port<TestMsg>("in2", "TestMsg", pooled_port(4, 1),
                           [&](TestMsg& m, core::Smm&) { got.add(m.value); });

    app.connect(a, "out1", b, "in1", /*pool_capacity=*/3);
    // Materialize the pool and start traffic on the first connection.
    TestMsg* warm = out1.get_message();
    warm->value = 0;
    out1.send(warm, 1);
    ASSERT_TRUE(got.wait_for(1));
    ASSERT_EQ(out1.pool()->capacity(), 3u);

    // Second connection wired after traffic started: the shared pool must
    // GROW by its reservation, not silently keep the old capacity.
    app.connect(c, "out2", d, "in2", /*pool_capacity=*/4);
    EXPECT_EQ(out2.pool(), out1.pool());
    EXPECT_EQ(out2.pool()->capacity(), 7u);

    // Both connections can now hold a full burst in flight concurrently.
    for (int i = 1; i <= 3; ++i) {
        TestMsg* m = out1.get_message();
        m->value = i;
        out1.send(m, 1);
    }
    for (int i = 4; i <= 7; ++i) {
        TestMsg* m = out2.get_message();
        m->value = i;
        out2.send(m, 1);
    }
    ASSERT_TRUE(got.wait_for(8));
    app.shutdown();
}

TEST_F(DeliveryFabricTest, RingOverwriteEvictsStalestQueuedMessage) {
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    std::mutex gate;
    test::Waiter entered;
    test::Collector<int> got;
    gate.lock();
    auto& in = b.add_in_port<TestMsg>("in", "TestMsg", ring_port(/*buffer=*/2),
                                      [&](TestMsg& m, core::Smm&) {
                                          if (m.tag == 0) {
                                              entered.notify();
                                              std::lock_guard lk(gate);
                                          } else {
                                              got.add(m.value);
                                          }
                                      });
    app.connect(a, "out", b, "in", /*pool_capacity=*/8);

    TestMsg* blocker = out.get_message();
    blocker->tag = 0;
    out.send(blocker, 1);
    ASSERT_TRUE(entered.wait_for(1));

    // Credit budget is 2: the blocker (mid-process) holds one, the first
    // queued message the other. Each further send evicts the stalest queued
    // message instead of blocking the sender — freshest value wins.
    for (int i = 1; i <= 3; ++i) {
        TestMsg* m = out.get_message();
        m->tag = 1;
        m->value = i;
        out.send(m, 1);
    }
    gate.unlock();
    ASSERT_TRUE(got.wait_for(1));
    app.shutdown();
    EXPECT_EQ(got.items(), (std::vector<int>{3})); // only the freshest
    EXPECT_EQ(in.overwritten_count(), 2u);
    EXPECT_EQ(in.dropped_count(), 0u);
    EXPECT_EQ(in.processed_count(), 2u); // blocker + freshest
    // Every message (including evicted ones) went back to the pool.
    EXPECT_EQ(out.pool()->available(), out.pool()->capacity());
}

TEST_F(DeliveryFabricTest, RingOverwriteDropsWhenNothingQueued) {
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    std::mutex gate;
    test::Waiter entered;
    gate.lock();
    auto& in = b.add_in_port<TestMsg>("in", "TestMsg", ring_port(/*buffer=*/1),
                                      [&](TestMsg&, core::Smm&) {
                                          entered.notify();
                                          std::lock_guard lk(gate);
                                      });
    app.connect(a, "out", b, "in", /*pool_capacity=*/4);

    out.send(out.get_message(), 1);
    ASSERT_TRUE(entered.wait_for(1));
    // The only credit is held by the handler and nothing is queued, so a
    // ring port sheds the incoming message rather than blocking the sender.
    const auto t0 = std::chrono::steady_clock::now();
    out.send(out.get_message(), 1);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::milliseconds(500)); // did not block
    EXPECT_EQ(in.dropped_count(), 1u);
    EXPECT_EQ(in.overwritten_count(), 0u);
    gate.unlock();
    app.shutdown();
    EXPECT_EQ(in.processed_count(), 1u);
    EXPECT_EQ(out.pool()->available(), out.pool()->capacity());
}

TEST_F(DeliveryFabricTest, SharedDispatcherIsolatesPortBudgets) {
    // Two ports on one shared dispatcher: port A saturating its credit
    // budget (handler blocked, buffer full) must not block senders of port
    // B — admission is per-port, and the shared queue never blocks a push.
    core::Application app("t");
    auto& sa = app.create_immortal<core::Component>("SA");
    auto& sb = app.create_immortal<core::Component>("SB");
    auto& ra = app.create_immortal<core::Component>("RA");
    auto& rb = app.create_immortal<core::Component>("RB");
    auto& out_a = sa.add_out_port<TestMsg>("outA", "TestMsg");
    auto& out_b = sb.add_out_port<TestMsg>("outB", "TestMsg");
    std::mutex gate;
    test::Waiter entered;
    test::Collector<int> got_b;
    gate.lock();
    auto& in_a = ra.add_in_port<TestMsg>("inA", "TestMsg", shared_port(2),
                                         [&](TestMsg&, core::Smm&) {
                                             entered.notify();
                                             std::lock_guard lk(gate);
                                         });
    auto& in_b = rb.add_in_port<TestMsg>("inB", "TestMsg", shared_port(4),
                                         [&](TestMsg& m, core::Smm&) {
                                             got_b.add(m.value);
                                         });
    app.connect(sa, "outA", ra, "inA", /*pool_capacity=*/8);
    app.connect(sb, "outB", rb, "inB", /*pool_capacity=*/8);
    ASSERT_EQ(in_a.dispatcher(), in_b.dispatcher()); // genuinely shared

    out_a.send(out_a.get_message(), 1); // occupies the only shared worker
    ASSERT_TRUE(entered.wait_for(1));
    out_a.send(out_a.get_message(), 1); // fills port A's remaining credit
    ASSERT_EQ(in_a.credits().available(), 0u);

    // Port B's senders must sail through while port A is saturated.
    test::Waiter b_sent;
    std::thread sender([&] {
        for (int i = 1; i <= 3; ++i) {
            TestMsg* m = out_b.get_message();
            m->value = i;
            out_b.send(m, 1);
            b_sent.notify();
        }
    });
    EXPECT_TRUE(b_sent.wait_for(3)); // would time out if B blocked on A
    sender.join();
    EXPECT_EQ(in_b.delivered_count(), 3u);

    gate.unlock();
    ASSERT_TRUE(got_b.wait_for(3));
    app.shutdown();
    EXPECT_EQ(in_a.processed_count(), 2u);
    EXPECT_EQ(in_b.processed_count(), 3u);
    EXPECT_EQ(in_a.credits().stall_count(), 0u); // A's senders never waited
}

TEST_F(DeliveryFabricTest, MultiProducerCreditStressStaysBalanced) {
    // TSan workload for the whole fabric: concurrent senders racing the
    // credit gates, the intake queue, and the pool.
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    std::atomic<int> processed{0};
    auto& in = b.add_in_port<TestMsg>("in", "TestMsg", pooled_port(4, 2),
                                      [&](TestMsg&, core::Smm&) {
                                          processed.fetch_add(1);
                                      });
    app.connect(a, "out", b, "in", /*pool_capacity=*/16);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 500;
    std::vector<std::thread> senders;
    for (int t = 0; t < kThreads; ++t) {
        senders.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                TestMsg* m = out.get_message();
                m->value = i;
                out.send(m, (t + i) % 10);
            }
        });
    }
    for (auto& s : senders) s.join();
    app.shutdown(); // drains the backlog before joining workers
    EXPECT_EQ(processed.load(), kThreads * kPerThread);
    EXPECT_EQ(in.delivered_count(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(in.in_flight(), 0u);
    EXPECT_LE(in.credits().depth_high_water(), in.credits().limit());
    EXPECT_EQ(out.pool()->available(), out.pool()->capacity());
}

TEST_F(DeliveryFabricTest, UncontendedHopTakesExactlyOneLock) {
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    test::Collector<int> got;
    auto& in = b.add_in_port<TestMsg>("in", "TestMsg", pooled_port(128, 1),
                                      [&](TestMsg& m, core::Smm&) {
                                          got.add(m.value);
                                      });
    app.connect(a, "out", b, "in", /*pool_capacity=*/256);
    ASSERT_NE(in.dispatcher(), nullptr);

    constexpr int kHops = 100;
    for (int i = 0; i < kHops; ++i) {
        TestMsg* m = out.get_message();
        m->value = i;
        out.send(m, 1);
    }
    ASSERT_TRUE(got.wait_for(kHops));
    // The budget (128) was never exhausted, so no sender stalled and every
    // hop cost exactly one lock acquisition: the intake-queue push.
    EXPECT_EQ(in.credits().stall_count(), 0u);
    EXPECT_EQ(in.dispatcher()->queue_lock_count(),
              static_cast<std::uint64_t>(kHops));
    app.shutdown();
}

TEST_F(DeliveryFabricTest, TraceReportCollectsCountersAndQuantiles) {
    // Tracing is off by default: the hot path sees a null sink.
    ASSERT_EQ(core::hooks::sink(), nullptr);
    core::HopTraceRecorder recorder;
    core::hooks::set_sink(&recorder);

    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    test::Collector<int> got;
    b.add_in_port<TestMsg>("in", "TestMsg", pooled_port(8, 1),
                           [&](TestMsg& m, core::Smm&) {
                               std::this_thread::sleep_for(
                                   std::chrono::microseconds(200));
                               got.add(m.value);
                           });
    app.connect(a, "out", b, "in");

    constexpr int kHops = 20;
    for (int i = 0; i < kHops; ++i) {
        TestMsg* m = out.get_message();
        m->value = i;
        out.send(m, 2);
    }
    ASSERT_TRUE(got.wait_for(kHops));

    const core::TraceReport report = app.trace_report();
    ASSERT_EQ(report.ports.size(), 1u);
    const core::PortTrace& row = report.ports[0];
    EXPECT_EQ(row.port, "B.in");
    EXPECT_EQ(row.delivered, static_cast<std::uint64_t>(kHops));
    EXPECT_EQ(row.processed, static_cast<std::uint64_t>(kHops));
    EXPECT_EQ(row.errors, 0u);
    EXPECT_EQ(row.buffer_limit, 8u);
    EXPECT_GE(row.depth_high_water, 1u);
    EXPECT_LE(row.depth_high_water, 8u);
    EXPECT_FALSE(row.dispatcher.empty());
    ASSERT_TRUE(row.traced);
    EXPECT_EQ(row.total.count, static_cast<std::size_t>(kHops));
    // The handler sleeps ~200us, so the split must attribute real time to
    // handler latency and keep total >= handler >= 0, total >= queue wait.
    EXPECT_GE(row.handler.median, 100'000);
    EXPECT_GE(row.total.median, row.handler.median);
    EXPECT_GE(row.queue_wait.median, 0);
    // One intake-lock acquisition per hop; the slow handler makes the
    // sender outrun the 8-credit budget, and the report must agree with
    // the per-port stall counter about how often it waited.
    EXPECT_GE(report.queue_lock_acquisitions,
              static_cast<std::uint64_t>(kHops));
    EXPECT_EQ(report.credit_stalls, row.credit_stalls);

    const std::string text = report.to_string();
    EXPECT_NE(text.find("B.in"), std::string::npos);
    EXPECT_NE(text.find("queue-wait"), std::string::npos);

    app.shutdown();
    core::hooks::clear();
}

TEST_F(DeliveryFabricTest, TraceReportWorksWithoutSinkInstalled) {
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    test::Collector<int> got;
    b.add_in_port<TestMsg>("in", "TestMsg", pooled_port(),
                           [&](TestMsg& m, core::Smm&) { got.add(m.value); });
    app.connect(a, "out", b, "in");
    out.send(out.get_message(), 1);
    ASSERT_TRUE(got.wait_for(1));
    const core::TraceReport report = app.trace_report();
    ASSERT_EQ(report.ports.size(), 1u);
    EXPECT_EQ(report.ports[0].delivered, 1u);
    EXPECT_FALSE(report.ports[0].traced); // counters live, quantiles absent
    app.shutdown();
}

TEST_F(DeliveryFabricTest, ThrowingHandlerIsCountedNotLogged) {
    // A handler failure is a counter on the port, not a stderr line: the
    // dispatcher runs on the message path, where a write per failed
    // message would cost more than the message itself.
    core::Application app("t");
    auto& a = app.create_immortal<core::Component>("A");
    auto& b = app.create_immortal<core::Component>("B");
    auto& out = a.add_out_port<TestMsg>("out", "TestMsg");
    auto& in = b.add_in_port<TestMsg>(
        "in", "TestMsg", pooled_port(),
        [](TestMsg&, core::Smm&) { throw std::runtime_error("handler boom"); });
    app.connect(a, "out", b, "in");

    testing::internal::CaptureStderr();
    out.send(out.get_message(), 1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (in.error_count() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::string logged = testing::internal::GetCapturedStderr();

    EXPECT_EQ(logged, "");
    const core::TraceReport report = app.trace_report();
    ASSERT_EQ(report.ports.size(), 1u);
    EXPECT_EQ(report.ports[0].errors, 1u);
    EXPECT_EQ(report.ports[0].processed, 0u); // only successes count here
    app.shutdown();
}
