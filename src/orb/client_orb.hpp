// Compadres ORB — client side (paper §3.2, Fig. 10, left).
//
// Three-level structure, assembled from Compadres components:
//
//   level 0 (immortal): Orb component — the application-facing API
//   level 1 (scoped):   Transport component — owns the wire, the table of
//                       pending replies and the one reply reader thread
//   level 2 (scoped):   MessageProcessing component — GIOP marshalling
//
// invoke() pushes an OrbRequest through the component pipeline
// (Orb -> Transport -> MessageProcessing, each hop an internal port into a
// child scope, each copying into the child's pool). Both ports are
// synchronous (pool size 0), so the invoking thread relays, marshals and
// sends at its own priority, as in RT-CORBA's client-propagated model.
// MessageProcessing registers the caller's Completion under the request
// id before sending; the reply reader decodes each Reply or LocateReply
// off the wire and completes the entry it names. The caller then wakes
// once per call, on its Completion.
#pragma once

#include "core/application.hpp"
#include "net/transport.hpp"
#include "orb/orb_messages.hpp"

#include <memory>
#include <string>
#include <vector>

namespace compadres::orb {

class OrbError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// The reply missed its deadline (invoke_within).
class OrbTimeout : public OrbError {
public:
    using OrbError::OrbError;
};

class ClientOrb {
public:
    /// Builds the component structure around an already-connected wire.
    explicit ClientOrb(std::unique_ptr<net::Transport> wire);
    ~ClientOrb();

    ClientOrb(const ClientOrb&) = delete;
    ClientOrb& operator=(const ClientOrb&) = delete;

    /// Synchronous remote invocation. Returns the reply payload; throws
    /// OrbError on user/system exceptions or transport failure, including
    /// a connection that closes while the call waits.
    /// One invocation is outstanding at a time (invocations serialize), as
    /// in the paper's round-trip measurement.
    std::vector<std::uint8_t> invoke(const std::string& object_key,
                                     const std::string& operation,
                                     const std::uint8_t* payload,
                                     std::size_t payload_len,
                                     int priority = rt::Priority::kDefault);

    /// Bounded-time invocation: throws OrbTimeout if the reply does not
    /// arrive within `deadline` — the RT-CORBA-flavoured variant a DRE
    /// caller with a deadline actually needs. The call's pending entry
    /// stays registered, so a late reply lands in its abandoned
    /// Completion; the connection stays usable for a server that is slow,
    /// not dead. At most 16 replies are awaited at once; past that the
    /// oldest abandoned entry is dropped, and its reply with it.
    std::vector<std::uint8_t> invoke_within(const std::string& object_key,
                                            const std::string& operation,
                                            const std::uint8_t* payload,
                                            std::size_t payload_len,
                                            std::chrono::milliseconds deadline,
                                            int priority = rt::Priority::kDefault);

    /// Oneway invocation (CORBA semantics: response_expected = false).
    /// Returns once the request frame is on the wire; no reply, no
    /// blocking on the server.
    void invoke_oneway(const std::string& object_key,
                       const std::string& operation,
                       const std::uint8_t* payload, std::size_t payload_len,
                       int priority = rt::Priority::kDefault);

    /// GIOP LocateRequest probe: true iff the server hosts `object_key`.
    bool ping(const std::string& object_key,
              int priority = rt::Priority::kDefault);

    /// The underlying application (exposed for tests and benches).
    core::Application& application() noexcept { return *app_; }

private:
    struct Impl;
    std::unique_ptr<core::Application> app_;
    std::unique_ptr<Impl> impl_;
};

} // namespace compadres::orb
