// Compadres ORB — server side (paper §3.2, Fig. 10, right).
//
// Four-level structure, assembled from Compadres components:
//
//   level 0 (immortal): Orb component — servant registry, API
//   level 1 (scoped):   POA/Acceptor component — owns connections and their
//                       reader threads, emits one GiopFrame per request
//   level 2 (scoped):   Transport component — per-connection relay
//   level 3 (scoped):   RequestProcessing component — demarshal, dispatch
//                       to the servant, marshal and send the reply
//
// Threads: POA -> Transport is the one pooled hop (a single worker), so
// servants never run on the shared reactor loop. Transport ->
// RequestProcessing is synchronous (pool size 0): the Transport worker
// runs the servant and sends the reply.
//
// The paper creates Transport/RequestProcessing scopes on demand and
// reclaims them per connection/request; this implementation places them in
// pooled scoped regions reused across requests — the scope-pool
// optimization §2.2 describes (bench/ablation_scopepool quantifies the
// difference against create-on-demand).
#pragma once

#include "core/application.hpp"
#include "net/transport.hpp"
#include "orb/servant.hpp"

#include <memory>

namespace compadres::orb {

class ServerOrb {
public:
    ServerOrb();
    ~ServerOrb();

    ServerOrb(const ServerOrb&) = delete;
    ServerOrb& operator=(const ServerOrb&) = delete;

    void register_servant(const std::string& object_key, Servant servant);

    /// Adopt a connected wire: its requests feed the POA pipeline; replies
    /// go back on the same wire. Wires with a pollable descriptor are
    /// served by the shared epoll reactor pool (net/reactor.hpp), so
    /// fan-in costs O(1) resident reader threads rather than one per
    /// connection; others (the in-process loopback) get a dedicated
    /// reader thread. May be called for multiple connections.
    void attach(std::unique_ptr<net::Transport> wire);

    /// Stop reader threads and the component pipeline.
    void shutdown();

    core::Application& application() noexcept { return *app_; }

private:
    struct Impl;
    std::unique_ptr<core::Application> app_;
    std::unique_ptr<Impl> impl_;
};

} // namespace compadres::orb
