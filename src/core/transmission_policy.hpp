// TransmissionPolicy — the single source of truth for a route's policy.
//
// Following Walker et al. ("Promoting Component Reuse by Separating
// Transmission Policy from Implementation"), everything about HOW a route
// moves messages — as opposed to WHAT the component does with them — is
// composition-time policy, kept outside the port implementation:
//
//   * overflow  — what happens to a sender when every <BufferSize> credit
//     is in flight (Block backpressure vs Ring freshest-value overwrite),
//   * band      — which priority lane a remote route's frames ride
//     (-1 = derive from the Out port's default priority).
//
// How a wire writes frames is not policy: every TCP wire has one writer,
// the coalescing drain (net/tcp.hpp).
//
// One TransmissionPolicy value travels from the CCL (<Overflow>, <Band>)
// through the validator's plan into the live port, and is the
// unit of runtime recomposition: core/recompose.hpp swaps a route's policy
// under a quiesced credit window without dropping a frame.
#pragma once

#include <string>

namespace compadres::core {

/// Overflow behavior of an In port (CCL <Overflow> attribute): what happens
/// to a sender when every <BufferSize> credit is in flight.
enum class OverflowPolicy {
    kBlock,         ///< sender waits for a credit (lossless backpressure)
    kRingOverwrite, ///< freshest value wins: evict the stalest queued
                    ///< message, never block the sender (sensor streams)
};

/// Per-route transmission policy. `overflow` applies to every route;
/// `band` only matters for remote routes (a local hop has no wire) and is
/// carried untouched so a route exported later keeps it.
struct TransmissionPolicy {
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    /// Priority lane of a remote route (0 = most urgent). -1 derives the
    /// band from the Out port's default priority at export time.
    int band = -1;

    friend bool operator==(const TransmissionPolicy& a,
                           const TransmissionPolicy& b) noexcept {
        return a.overflow == b.overflow && a.band == b.band;
    }
    friend bool operator!=(const TransmissionPolicy& a,
                           const TransmissionPolicy& b) noexcept {
        return !(a == b);
    }
};

/// "ring, band=2" — for plan dumps and diagnostics.
inline std::string to_string(const TransmissionPolicy& p) {
    std::string out =
        p.overflow == OverflowPolicy::kRingOverwrite ? "ring" : "block";
    out += ", band=";
    out += p.band < 0 ? std::string("auto") : std::to_string(p.band);
    return out;
}

} // namespace compadres::core
