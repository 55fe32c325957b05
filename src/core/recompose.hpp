// Live recomposition — apply a new assembly to a RUNNING application.
//
// The paper's SMM exposes connect()/disconnect() for dynamic children; the
// declarative real-time OSGi component model generalizes that into adaptive
// recomposition: the deployment is re-declared (a new CCL), the runtime
// diffs it against what is live, and applies the delta without stopping the
// application. This header is the runtime half of that control plane:
//
//   RecomposePlan  — the delta: components to spawn/retire, routes to
//                    add/remove, routes whose TransmissionPolicy changes.
//                    Produced by compiler/diff.hpp from two CCLs, or built
//                    by hand for programmatic recomposition.
//   apply_recompose — executes a plan against a live Application under the
//                    quiesce-reroute-resume protocol. Per repolicied route:
//                    close the In port's CreditGate window (new senders
//                    park before touching the budget), wait for entrants
//                    and in-flight credits to drain (nothing admitted,
//                    queued, or mid-handler), swap the policy, reopen. No
//                    frame in motion is ever dropped; `frames_dropped`
//                    stays flat by construction.
//
// Ordering inside one apply: spawns -> route adds -> repolicies -> route
// removes -> retires, so a route can be moved (add the new leg, remove the
// old) without a window where the topology is unroutable, and a retired
// component is guaranteed unreferenced by the time it drains.
//
// apply_recompose serializes with Application::stop() on the application's
// recompose mutex: a stop landing mid-plan waits for the plan to finish,
// and a plan finding the application already stopped aborts cleanly.
#pragma once

#include "core/application.hpp"
#include "core/transmission_policy.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace compadres::obs {
class MetricsRegistry;
}

namespace compadres::core {

class RecomposeError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// A component the plan spawns (CDL class instantiated via the global
/// ComponentRegistry, exactly like the assembler does at startup).
struct RecomposeComponentSpec {
    std::string instance;
    std::string class_name;
    ComponentType type = ComponentType::kScoped;
    int level = 1;
    std::string parent; ///< instance name; empty = application root
    std::map<std::string, InPortConfig> port_configs;
};

/// One route endpoint pair ("Instance.Port" resolved at apply time).
struct RecomposeRoute {
    std::string from_instance;
    std::string from_port;
    std::string to_instance;
    std::string to_port;
    std::size_t pool_capacity = 0; ///< 0 = the wire() default
};

/// A route whose TransmissionPolicy changes. Local routes repolicy the In
/// port directly; remote routes (a RemoteBridge export) go through
/// RecomposeOptions::remote_applier, which owns the lane/band side.
struct RecomposeRepolicy {
    bool remote = false;
    std::string instance;    ///< local: In-port owner
    std::string port;        ///< local: In-port name
    std::string remote_name; ///< remote: CCL <Remote> name
    std::string route;       ///< remote: route string
    TransmissionPolicy from;
    TransmissionPolicy to;
};

struct RecomposePlan {
    std::string application;
    std::vector<RecomposeComponentSpec> spawns; ///< parents before children
    std::vector<std::string> retires;           ///< reverse creation order
    std::vector<RecomposeRoute> route_adds;
    std::vector<RecomposeRoute> route_removes;
    std::vector<RecomposeRepolicy> repolicies;

    bool empty() const noexcept {
        return spawns.empty() && retires.empty() && route_adds.empty() &&
               route_removes.empty() && repolicies.empty();
    }
    std::size_t operation_count() const noexcept {
        return spawns.size() + retires.size() + route_adds.size() +
               route_removes.size() + repolicies.size();
    }
};

/// Human-readable plan dump (one line per operation) — what
/// `compadresc diff` prints.
std::string describe(const RecomposePlan& plan);

struct RecomposeStats {
    std::size_t components_spawned = 0;
    std::size_t components_retired = 0;
    std::size_t routes_added = 0;
    std::size_t routes_removed = 0;
    std::size_t routes_repoliced = 0;
    /// Per-repolicied-route quiesce->resume pause, in nanoseconds.
    std::vector<std::uint64_t> pause_ns;
};

struct RecomposeOptions {
    /// When set, apply_recompose maintains recompose_* counters and the
    /// recompose_pause_ns histogram here.
    obs::MetricsRegistry* metrics = nullptr;
    /// Applies a remote repolicy (band / overflow on a bridge export) and
    /// returns the quiesce->resume pause in ns. Wire
    /// remote::recompose_applier(bridge) in here. A plan with remote
    /// repolicies and no applier aborts.
    std::function<std::uint64_t(const RecomposeRepolicy&)> remote_applier;
};

/// The quiesce-reroute-resume primitive: close `in`'s credit window, wait
/// until nothing is admitted/queued/mid-handler, run `swap`, reopen.
/// Returns the pause (window closed -> reopened) in nanoseconds. Reopens
/// the window even when `swap` throws.
std::uint64_t quiesced_swap(InPortBase& in, const std::function<void()>& swap);

/// Execute `plan` against the live `app`. Throws RecomposeError (after
/// emitting a kRecomposeAbort event) when the application is stopped, a
/// named component/port cannot be resolved, or an operation fails;
/// operations already applied stay applied — a plan is not transactional,
/// but every individual route transition is.
RecomposeStats apply_recompose(Application& app, const RecomposePlan& plan,
                               const RecomposeOptions& options = {});

} // namespace compadres::core
