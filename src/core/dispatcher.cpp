#include "core/dispatcher.hpp"

#include "core/hooks.hpp"
#include "core/message_pool.hpp"
#include "core/port.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_context.hpp"
#include "rt/clock.hpp"

#include <cstdio>

namespace compadres::core {

Dispatcher::Dispatcher(std::string name, DispatcherConfig config)
    : name_(std::move(name)), config_(config),
      queue_(config.queue_capacity ? config.queue_capacity : 1) {
    max_threads_.store(config_.max_threads, std::memory_order_relaxed);
    std::lock_guard lk(workers_mu_);
    for (std::size_t i = 0; i < config_.min_threads; ++i) {
        spawn_worker_locked();
    }
}

Dispatcher::~Dispatcher() { shutdown(); }

void Dispatcher::spawn_worker_locked() {
    const auto idx = workers_.size();
    workers_.push_back(std::make_unique<rt::RtThread>(
        name_ + "-w" + std::to_string(idx), config_.base_priority,
        [this] { worker_loop(); }));
    worker_count_.store(workers_.size(), std::memory_order_relaxed);
}

void Dispatcher::submit(Envelope env) {
    if (synchronous()) {
        // Paper: pool sizes of 0 mean the calling thread executes process()
        // synchronously. The caller keeps its own priority.
        if (!execute(env)) errors_.fetch_add(1);
        processed_.fetch_add(1);
        return;
    }
    // Grow on demand: all workers busy with work still arriving. The check
    // reads lock-free shadows; workers_mu_ is taken only when a spawn is
    // actually warranted, so the steady-state hop stays at one lock (the
    // intake-queue push below).
    const std::size_t workers = worker_count_.load(std::memory_order_relaxed);
    if (busy_.load(std::memory_order_relaxed) >= workers &&
        workers < max_threads_.load(std::memory_order_relaxed)) {
        std::lock_guard lk(workers_mu_);
        if (!shutdown_.load() && busy_.load() >= workers_.size() &&
            workers_.size() < config_.max_threads) {
            spawn_worker_locked();
        }
    }
    const int prio = env.priority;
    if (!queue_.push(std::move(env), prio)) {
        throw PortError("dispatcher '" + name_ + "' is shut down");
    }
}

std::optional<Envelope> Dispatcher::steal_queued(const InPortBase& port) {
    return queue_.steal_oldest_if(
        [&](const Envelope& e) { return e.port == &port; });
}

void Dispatcher::ensure_capacity(std::size_t min_threads,
                                 std::size_t max_threads) {
    std::lock_guard lk(workers_mu_);
    if (max_threads > config_.max_threads) {
        config_.max_threads = max_threads;
        max_threads_.store(max_threads, std::memory_order_relaxed);
    }
    if (min_threads > config_.min_threads) config_.min_threads = min_threads;
    while (workers_.size() < config_.min_threads) {
        spawn_worker_locked();
    }
}

void Dispatcher::worker_loop() {
    // The priority this worker last asked for, starting from the base
    // priority RtThread applied before this loop. Runs of equal priority
    // skip the syscall, and a denied value is not asked for again.
    int applied = rt::Priority::clamped(config_.base_priority.value).value;
    for (;;) {
        auto item = queue_.pop();
        if (!item.has_value()) return; // closed and drained
        if (hooks::tracing()) item->first.t_dequeue = rt::now_ns();
        // Span-scoped, matching the enqueue site in InPortBase::deliver.
        if (item->first.trace_id != 0) {
            obs::FlightRecorder::emit(
                obs::EventType::kHopDequeue,
                reinterpret_cast<std::uintptr_t>(item->first.port),
                static_cast<std::uint32_t>(item->first.priority));
        }
        busy_.fetch_add(1);
        // The pool thread assumes the priority of the message it is about
        // to process (paper §2.2). Best-effort under an unprivileged OS.
        const int prio = rt::Priority::clamped(item->second).value;
        if (prio != applied) {
            rt::try_set_current_thread_priority(rt::Priority{prio});
            applied = prio;
        }
        if (!execute(item->first)) errors_.fetch_add(1);
        processed_.fetch_add(1);
        busy_.fetch_sub(1);
    }
}

bool Dispatcher::execute(const Envelope& env) noexcept {
    const bool traced = hooks::tracing();
    const std::int64_t start = traced ? rt::now_ns() : 0;
    // Re-install the envelope's trace context around the handler (empty
    // contexts install nothing, so the untraced path never touches TLS)
    // and bracket the handler run in the flight recorder. The brackets are
    // span-scoped like the enqueue/dequeue events: only sampled flows pay
    // for (and appear in) the handler timeline.
    const obs::ScopedTraceContext trace_scope(
        obs::TraceContext{env.trace_id, env.span_id});
    const bool recorded =
        env.trace_id != 0 && obs::FlightRecorder::enabled();
    if (recorded) {
        obs::FlightRecorder::emit_always(obs::EventType::kHopHandlerStart,
                                         env.trace_id, env.span_id);
    }
    // A throwing handler is counted (the port's errors, this dispatcher's
    // errors), not logged: this runs on the message path, often on the
    // sender's own thread, where a stderr write per failure would cost
    // more than the message.
    bool ok = true;
    try {
        env.port->handler().process_raw(env.msg, *env.smm);
    } catch (...) {
        ok = false;
    }
    const std::int64_t end = traced ? rt::now_ns() : 0;
    // The message returns to its pool after processing (paper §2.2) even if
    // the handler threw — leaking pool slots would eventually wedge senders.
    try {
        env.pool->release_raw(env.msg);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "[compadres] pool release failed: %s\n", e.what());
    }
    env.port->on_processed(ok);
    if (traced) {
        hooks::HopTimes t;
        t.process_start_ns = start;
        t.process_end_ns = end;
        // Synchronous hops (and hops enqueued before the sink went in) have
        // no queue stamps; collapse them onto process start so the queue
        // wait reads as zero instead of as decades.
        t.enqueue_ns = env.t_enqueue != 0 ? env.t_enqueue : start;
        t.dequeue_ns = env.t_dequeue != 0 ? env.t_dequeue : start;
        t.priority = env.priority;
        hooks::notify_hop(*env.port, t);
    }
    if (recorded) {
        obs::FlightRecorder::emit_always(obs::EventType::kHopHandlerEnd,
                                         env.trace_id, env.span_id);
    }
    return ok;
}

void Dispatcher::shutdown() {
    if (shutdown_.exchange(true)) return;
    queue_.close();
    std::vector<std::unique_ptr<rt::RtThread>> workers;
    {
        std::lock_guard lk(workers_mu_);
        workers.swap(workers_);
    }
    for (auto& w : workers) w->join();
}

} // namespace compadres::core
