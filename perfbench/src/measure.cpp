#include "measure.hpp"

#include "net/reactor.hpp"
#include "net/uring.hpp"
#include "rt/thread.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

void Result::note(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    note(key, std::string(buf));
}

void Result::fail(std::uint64_t n, const std::string& why) {
    if (n == 0) return;
    failed += n;
    correct = false;
    note("failure", std::to_string(n) + " x " + why);
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) noexcept {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h = (h ^ data[i]) * 0x100000001B3ull;
    }
    return h;
}

double process_cpu_s() noexcept {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() noexcept {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double quantile(std::vector<std::int64_t>& v, double q) {
    if (v.empty()) return 0.0;
    auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
    k = std::min(k, v.size() - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t k = (v.size() - 1) / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    double m = v[k];
    if (v.size() % 2 == 0) {
        m = (m + *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                                   v.end())) / 2.0;
    }
    return m;
}

Summary summarize(std::vector<std::int64_t> v) {
    Summary s;
    s.n = v.size();
    if (v.empty()) return s;
    s.p50 = quantile(v, 0.50);
    s.p99 = quantile(v, 0.99);
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    s.min = static_cast<double>(*lo);
    s.max = static_cast<double>(*hi);
    return s;
}

void SetupStats::add(const std::string& phase, double seconds) {
    for (auto& [name, samples] : phases) {
        if (name == phase) {
            samples.push_back(seconds);
            return;
        }
    }
    phases.push_back({phase, {seconds}});
}

double SetupStats::median_of(const std::string& phase) const {
    for (const auto& [name, samples] : phases) {
        if (name == phase) return median(samples);
    }
    return 0.0;
}

SetupStats setups_in_fresh_processes(int n, const std::function<void(SetupStats&)>& setup) {
    SetupStats all;
    for (int i = 0; i < n; ++i) {
        int fd[2];
        if (pipe(fd) != 0) throw std::runtime_error("pipe failed");
        std::fflush(nullptr);
        const pid_t pid = fork();
        if (pid < 0) {
            close(fd[0]);
            close(fd[1]);
            throw std::runtime_error("fork failed");
        }
        if (pid == 0) {
            // The child: one set-up, its phases as "name seconds" lines.
            close(fd[0]);
            int code = 0;
            try {
                SetupStats st;
                setup(st);
                std::string out;
                for (const auto& [name, samples] : st.phases) {
                    char buf[32];
                    std::snprintf(buf, sizeof buf, " %.9e\n", samples.front());
                    out += name + buf;
                }
                for (std::size_t done = 0; done < out.size();) {
                    const ssize_t w = write(fd[1], out.data() + done, out.size() - done);
                    if (w <= 0) break;
                    done += static_cast<std::size_t>(w);
                }
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
                code = 1;
            }
            _exit(code);
        }
        close(fd[1]);
        std::string text;
        char buf[512];
        for (ssize_t got; (got = read(fd[0], buf, sizeof buf)) != 0;) {
            if (got < 0 && errno == EINTR) continue;
            if (got < 0) break;
            text.append(buf, static_cast<std::size_t>(got));
        }
        close(fd[0]);
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty()) {
            throw std::runtime_error("a set-up in a fresh process failed");
        }
        std::istringstream lines(text);
        std::string name;
        double seconds = 0;
        while (lines >> name >> seconds) all.add(name, seconds);
    }
    return all;
}

void fingerprint(Result& result, bool reactor_used) {
    result.note("host.nproc", std::to_string(std::thread::hardware_concurrency()));
    utsname u{};
    if (uname(&u) == 0) result.note("host.kernel", u.release);
    result.note("host.uring_available",
                compadres::net::uring_available() ? "yes" : "no");
    // RtThreads ask for SCHED_FIFO; the process-wide denial count says
    // whether the kernel granted it to the middleware's threads.
    result.note("host.sched_fifo",
                compadres::rt::rt_denied_count() == 0 ? "granted" : "denied");
    result.note("host.reactor_backend",
                reactor_used ? compadres::net::Reactor::shared().backend_name()
                             : "unused");
}

void add_dist(Result& result, const std::string& name, std::vector<std::int64_t> samples_ns) {
    const Summary s = summarize(std::move(samples_ns));
    result.add(name + ".p50", s.p50, "ns");
    result.add(name + ".p99", s.p99, "ns");
}

} // namespace perfbench
