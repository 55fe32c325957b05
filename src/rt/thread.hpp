// Real-time thread facade.
//
// RTSJ RealtimeThreads carry a priority in [1, 99-ish] and are scheduled
// preemptively by priority. On a stock Linux container we approximate this
// with best-effort SCHED_FIFO; when the process lacks CAP_SYS_NICE the
// request is recorded but silently degrades to CFS, which is the honest
// equivalent of running an RTSJ VM on a non-real-time OS (the paper's
// Mackinac-on-SunOS configuration).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace compadres::rt {

/// Logical real-time priority. Higher is more urgent, as in RTSJ.
/// The valid range mirrors RTSJ's PriorityScheduler (28 real-time levels is
/// the minimum; we allow 1..99 to match SCHED_FIFO).
struct Priority {
    int value = kDefault;

    static constexpr int kMin = 1;
    static constexpr int kMax = 99;
    static constexpr int kDefault = 10;

    static Priority clamped(int v) noexcept {
        if (v < kMin) v = kMin;
        if (v > kMax) v = kMax;
        return Priority{v};
    }
};

/// Attempt to give the *calling* thread the requested real-time priority.
/// Returns true if the kernel accepted SCHED_FIFO at that priority, false if
/// we fell back to normal scheduling (no privilege). Never throws.
bool try_set_current_thread_priority(Priority p) noexcept;

/// Name the calling thread (visible in /proc and debuggers). Truncated to
/// the 15-char kernel limit.
void set_current_thread_name(const std::string& name) noexcept;

/// A joinable thread with a name and a requested real-time priority.
///
/// The body runs after the priority has been applied (or the fallback has
/// been recorded), so latency-sensitive loops never execute at the wrong
/// priority during startup.
class RtThread {
public:
    RtThread() = default;
    RtThread(std::string name, Priority prio, std::function<void()> body);

    RtThread(const RtThread&) = delete;
    RtThread& operator=(const RtThread&) = delete;
    RtThread(RtThread&&) = default;
    RtThread& operator=(RtThread&&) = default;

    ~RtThread();

    bool joinable() const noexcept { return thread_.joinable(); }
    void join();

    const std::string& name() const noexcept { return name_; }
    Priority priority() const noexcept { return priority_; }

    /// True once the thread observed whether SCHED_FIFO was granted.
    bool priority_applied() const noexcept { return rt_granted_.load(); }

private:
    std::string name_;
    Priority priority_{};
    std::thread thread_;
    std::atomic<bool> rt_granted_{false};
};

/// Process-wide count of threads that asked for RT scheduling but did not
/// get it — surfaced by the bench harnesses so a reader knows whether the
/// run used real SCHED_FIFO or the degraded mode.
std::int64_t rt_denied_count() noexcept;

/// Process-wide count of try_set_current_thread_priority calls, each one
/// pthread_setschedparam syscall whether granted or denied.
std::int64_t rt_priority_set_count() noexcept;

} // namespace compadres::rt
