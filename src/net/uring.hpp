// io_uring availability probe.
//
// The reactor runs on epoll alone; nothing in the middleware uses
// io_uring. This probe stays only because perfbench's host fingerprint
// records whether the host could set up a ring.
#pragma once

#include <linux/io_uring.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace compadres::net {

/// One-time (cached) probe: can this process set up an io_uring at all?
/// False under seccomp filters that deny the syscall (EPERM), kernels
/// without it (ENOSYS), or resource exhaustion at probe time.
inline bool uring_available() noexcept {
    static const bool available = [] {
        io_uring_params p{};
        const long fd = ::syscall(__NR_io_uring_setup, 4, &p);
        if (fd < 0) return false;
        ::close(static_cast<int>(fd));
        return true;
    }();
    return available;
}

} // namespace compadres::net
