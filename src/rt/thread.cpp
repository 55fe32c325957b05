#include "rt/thread.hpp"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <utility>

namespace compadres::rt {

namespace {
std::atomic<std::int64_t> g_rt_denied{0};
std::atomic<std::int64_t> g_priority_sets{0};
} // namespace

bool try_set_current_thread_priority(Priority p) noexcept {
    sched_param sp{};
    sp.sched_priority = Priority::clamped(p.value).value;
    g_priority_sets.fetch_add(1, std::memory_order_relaxed);
    const int rc = pthread_setschedparam(pthread_self(), SCHED_FIFO, &sp);
    if (rc != 0) {
        g_rt_denied.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    return true;
}

void set_current_thread_name(const std::string& name) noexcept {
    char buf[16] = {};
    name.copy(buf, sizeof(buf) - 1);
    pthread_setname_np(pthread_self(), buf);
}

RtThread::RtThread(std::string name, Priority prio, std::function<void()> body)
    : name_(std::move(name)), priority_(prio) {
    thread_ = std::thread([this, body = std::move(body)] {
        set_current_thread_name(name_);
        rt_granted_.store(try_set_current_thread_priority(priority_));
        body();
    });
}

RtThread::~RtThread() {
    if (thread_.joinable()) thread_.join();
}

void RtThread::join() {
    if (thread_.joinable()) thread_.join();
}

std::int64_t rt_denied_count() noexcept {
    return g_rt_denied.load(std::memory_order_relaxed);
}

std::int64_t rt_priority_set_count() noexcept {
    return g_priority_sets.load(std::memory_order_relaxed);
}

} // namespace compadres::rt
