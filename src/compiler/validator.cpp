#include "compiler/validator.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace compadres::compiler {

ValidationError::ValidationError(std::vector<std::string> issues)
    : std::runtime_error(join(issues)), issues_(std::move(issues)) {}

std::string ValidationError::join(const std::vector<std::string>& issues) {
    std::ostringstream out;
    out << "CCL validation failed with " << issues.size() << " issue(s):";
    for (const std::string& issue : issues) {
        out << "\n  - " << issue;
    }
    return out.str();
}

namespace {

struct InstanceInfo {
    const CclComponent* decl = nullptr;
    const CclComponent* parent = nullptr;
    std::string parent_name; // empty = top level
};

/// Chain of ancestors from the instance up to the top level (inclusive of
/// the instance itself, exclusive of the implicit root).
std::vector<std::string> ancestry(const std::map<std::string, InstanceInfo>& table,
                                  const std::string& instance) {
    std::vector<std::string> chain;
    std::string cur = instance;
    while (!cur.empty()) {
        chain.push_back(cur);
        cur = table.at(cur).parent_name;
    }
    return chain;
}

struct Edge {
    std::string from_instance, from_port, to_instance, to_port;
    std::string message_type;
    LinkKind kind;
    int line;

    bool operator<(const Edge& o) const {
        return std::tie(from_instance, from_port, to_instance, to_port) <
               std::tie(o.from_instance, o.from_port, o.to_instance, o.to_port);
    }
};

} // namespace

AssemblyPlan validate_and_plan(const CdlModel& cdl, const CclModel& ccl) {
    std::vector<std::string> issues;
    AssemblyPlan plan;
    plan.application_name = ccl.application_name;
    plan.rtsj = ccl.rtsj;
    if (plan.rtsj.trace.ring_depth > (std::size_t{1} << 24)) {
        issues.push_back(
            "Trace RingDepth " + std::to_string(plan.rtsj.trace.ring_depth) +
            " exceeds the flight recorder's per-thread maximum (" +
            std::to_string(std::size_t{1} << 24) + " events)");
    }

    // ---- pass 1: instance table, classes, scope levels ----
    std::map<std::string, InstanceInfo> table;
    ccl.for_each_component([&](const CclComponent& c, const CclComponent* parent) {
        if (table.count(c.instance_name) != 0) {
            issues.push_back("duplicate instance name '" + c.instance_name +
                             "' (line " + std::to_string(c.line) + ")");
            return;
        }
        InstanceInfo info;
        info.decl = &c;
        info.parent = parent;
        info.parent_name = parent != nullptr ? parent->instance_name : "";
        table.emplace(c.instance_name, info);

        if (cdl.find(c.class_name) == nullptr) {
            issues.push_back("instance '" + c.instance_name +
                             "' uses undefined component class '" +
                             c.class_name + "'");
        }
        // Scope-level / nesting consistency. This is what guarantees the
        // derived region tree satisfies the RTSJ single-parent rule: every
        // scoped component's region is entered exactly once, from its
        // parent's region.
        if (c.type == core::ComponentType::kImmortal) {
            if (parent != nullptr && parent->type == core::ComponentType::kScoped) {
                issues.push_back("immortal component '" + c.instance_name +
                                 "' cannot be nested inside scoped component '" +
                                 parent->instance_name +
                                 "' (immortal memory outlives every scope)");
            }
        } else {
            const int parent_level =
                (parent == nullptr ||
                 parent->type == core::ComponentType::kImmortal)
                    ? 0
                    : parent->scope_level;
            if (c.scope_level != parent_level + 1) {
                issues.push_back(
                    "scoped component '" + c.instance_name + "' declares level " +
                    std::to_string(c.scope_level) + " but its parent is at level " +
                    std::to_string(parent_level) + " (child must be parent + 1)");
            }
        }
    });

    // ---- pass 2: links ----
    std::set<Edge> edges;
    ccl.for_each_component([&](const CclComponent& c, const CclComponent*) {
        const CdlComponent* cls = cdl.find(c.class_name);
        for (const CclPortDecl& port : c.ports) {
            const CdlPort* own = cls != nullptr ? cls->find_port(port.name) : nullptr;
            if (cls != nullptr && own == nullptr) {
                issues.push_back("instance '" + c.instance_name +
                                 "' declares port '" + port.name +
                                 "' which class '" + c.class_name +
                                 "' does not define");
                continue;
            }
            if (own != nullptr && own->direction == PortDirection::kOut &&
                port.has_attributes) {
                issues.push_back("port '" + c.instance_name + "." + port.name +
                                 "' is an Out port; <PortAttributes> (buffer/"
                                 "threadpool) apply only to In ports");
            }
            if (own != nullptr && own->direction == PortDirection::kIn &&
                port.has_attributes &&
                port.attributes.policy.overflow ==
                    core::OverflowPolicy::kRingOverwrite &&
                port.attributes.max_threads == 0) {
                issues.push_back(
                    "port '" + c.instance_name + "." + port.name +
                    "' sets <Overflow>Ring</Overflow> but MaxThreadpoolSize "
                    "is 0: a synchronous port never queues messages, so "
                    "there is nothing to overwrite");
            }
            for (const CclLink& link : port.links) {
                auto peer_it = table.find(link.to_component);
                if (peer_it == table.end()) {
                    issues.push_back("link from '" + c.instance_name + "." +
                                     port.name + "' names unknown instance '" +
                                     link.to_component + "' (line " +
                                     std::to_string(link.line) + ")");
                    continue;
                }
                const CclComponent& peer = *peer_it->second.decl;
                const CdlComponent* peer_cls = cdl.find(peer.class_name);
                const CdlPort* peer_port =
                    peer_cls != nullptr ? peer_cls->find_port(link.to_port) : nullptr;
                if (peer_cls != nullptr && peer_port == nullptr) {
                    issues.push_back("link from '" + c.instance_name + "." +
                                     port.name + "' names unknown port '" +
                                     peer.instance_name + "." + link.to_port + "'");
                    continue;
                }
                if (own == nullptr || peer_port == nullptr) continue;

                // Orientation: exactly one Out and one In endpoint.
                if (own->direction == peer_port->direction) {
                    issues.push_back(
                        "link '" + c.instance_name + "." + port.name + "' <-> '" +
                        peer.instance_name + "." + link.to_port +
                        "' connects two " +
                        (own->direction == PortDirection::kIn ? "In" : "Out") +
                        " ports; Out ports must be connected to In ports");
                    continue;
                }
                if (peer.instance_name == c.instance_name) {
                    issues.push_back("loop: component '" + c.instance_name +
                                     "' is connected to itself via '" + port.name +
                                     "' -> '" + link.to_port + "'");
                    continue;
                }
                if (own->message_type != peer_port->message_type) {
                    issues.push_back("message type mismatch on link '" +
                                     c.instance_name + "." + port.name + "' ('" +
                                     own->message_type + "') <-> '" +
                                     peer.instance_name + "." + link.to_port +
                                     "' ('" + peer_port->message_type + "')");
                    continue;
                }
                Edge e;
                e.kind = link.kind;
                e.line = link.line;
                e.message_type = own->message_type;
                if (own->direction == PortDirection::kOut) {
                    e.from_instance = c.instance_name;
                    e.from_port = port.name;
                    e.to_instance = peer.instance_name;
                    e.to_port = link.to_port;
                } else {
                    e.from_instance = peer.instance_name;
                    e.from_port = link.to_port;
                    e.to_instance = c.instance_name;
                    e.to_port = port.name;
                }
                // A link may legitimately be declared on both endpoints;
                // identical edges collapse to one connection.
                edges.insert(e);
            }
        }
    });

    // ---- pass 3: link legality + SMM placement ----
    for (const Edge& e : edges) {
        if (table.count(e.from_instance) == 0 || table.count(e.to_instance) == 0) {
            continue; // already reported
        }
        const auto from_chain = ancestry(table, e.from_instance);
        const auto to_chain = ancestry(table, e.to_instance);
        const auto index_of = [](const std::vector<std::string>& chain,
                                 const std::string& name) -> int {
            const auto it = std::find(chain.begin(), chain.end(), name);
            return it == chain.end()
                       ? -1
                       : static_cast<int>(it - chain.begin());
        };
        const int to_in_from = index_of(from_chain, e.to_instance);
        const int from_in_to = index_of(to_chain, e.from_instance);

        PlannedConnection conn;
        conn.from_instance = e.from_instance;
        conn.from_port = e.from_port;
        conn.to_instance = e.to_instance;
        conn.to_port = e.to_port;
        conn.message_type = e.message_type;

        const std::string edge_desc = e.from_instance + "." + e.from_port +
                                      " -> " + e.to_instance + "." + e.to_port;
        if (to_in_from == 1 || from_in_to == 1) {
            // Parent <-> direct child: must be declared Internal.
            if (e.kind != LinkKind::kInternal) {
                issues.push_back("link " + edge_desc +
                                 " joins a parent and its child and must be "
                                 "declared Internal");
                continue;
            }
            conn.host_instance = to_in_from == 1 ? e.to_instance : e.from_instance;
        } else if (to_in_from > 1 || from_in_to > 1) {
            // Non-immediate ancestor: legal as an External link; the
            // compiler provides a shadow port (pool/buffer directly in the
            // ancestor's SMM, no relay through intermediate levels).
            if (e.kind != LinkKind::kExternal) {
                issues.push_back("link " + edge_desc +
                                 " skips generations and must be declared "
                                 "External (shadow port)");
                continue;
            }
            conn.shadow = true;
            conn.host_instance =
                to_in_from > 1 ? e.to_instance : e.from_instance;
        } else if (table.at(e.from_instance).parent_name ==
                   table.at(e.to_instance).parent_name) {
            // Siblings (possibly both top-level, sharing the root).
            if (e.kind != LinkKind::kExternal) {
                issues.push_back("link " + edge_desc +
                                 " joins siblings and must be declared External");
                continue;
            }
            conn.host_instance = table.at(e.from_instance).parent_name;
        } else {
            issues.push_back(
                "link " + edge_desc +
                " joins components that are neither parent/child, siblings, "
                "nor ancestor/descendant; the RTSJ scoping rules allow no "
                "such connection");
            continue;
        }

        // Pool capacity: the In side's buffer + pool threads + slack.
        core::InPortConfig in_cfg;
        const CclComponent& to_decl = *table.at(e.to_instance).decl;
        for (const CclPortDecl& p : to_decl.ports) {
            if (p.name == e.to_port && p.has_attributes) in_cfg = p.attributes;
        }
        conn.pool_capacity = in_cfg.buffer_size + in_cfg.max_threads + 2;
        plan.connections.push_back(std::move(conn));
    }

    // ---- pass 4: remote connections (<Remote> / <Bands>) ----
    // The GIOP flags octet carries the band in 3 bits, so 8 lanes is the
    // wire-format ceiling (net::kMaxLanes); the deployment's reactor-band
    // count is the deployment ceiling — a lane beyond it would share a
    // loop thread with another band, silently voiding the isolation the
    // bands declare.
    constexpr std::size_t kWireBandLimit = 8;
    std::set<std::string> remote_names;
    for (const CclRemote& remote : ccl.remotes) {
        if (!remote_names.insert(remote.name).second) {
            issues.push_back("duplicate remote name '" + remote.name +
                             "' (line " + std::to_string(remote.line) + ")");
            continue;
        }
        PlannedRemote pr;
        pr.name = remote.name;
        pr.bands = remote.bands;
        pr.transport = remote.transport;
        pr.host = remote.host;
        if (remote.bands < 1) {
            issues.push_back("remote '" + remote.name +
                             "': <Bands> must be >= 1");
        }
        if (remote.transport == RemoteTransport::kShm) {
            // Shared memory cannot cross hosts; catching a non-loopback
            // endpoint here beats a silent per-connection TCP fallback.
            if (remote.host != "127.0.0.1" && remote.host != "localhost" &&
                remote.host != "::1") {
                issues.push_back(
                    "remote '" + remote.name + "': <Transport>shm "
                    "requires a co-located peer, but <Host> is '" +
                    remote.host + "' (shared memory cannot cross hosts)");
            }
        }
        if (remote.bands > kWireBandLimit) {
            issues.push_back("remote '" + remote.name + "': <Bands> " +
                             std::to_string(remote.bands) +
                             " exceeds the wire-format limit of " +
                             std::to_string(kWireBandLimit) +
                             " (3-bit band field in the GIOP flags octet)");
        }
        // Shm lanes live inside one segment drained by a single recv
        // thread — they isolate queueing (per-band rings and arenas), not
        // loop threads — so the reactor-band ceiling applies only to
        // TCP lane groups, where each band is its own socket on its own
        // loop.
        if (remote.transport != RemoteTransport::kShm &&
            remote.bands > plan.rtsj.reactor_bands) {
            issues.push_back(
                "remote '" + remote.name + "': <Bands> " +
                std::to_string(remote.bands) +
                " exceeds <ReactorBands> " +
                std::to_string(plan.rtsj.reactor_bands) +
                " — lanes beyond the reactor's band count would share a "
                "loop thread, voiding the priority isolation they declare");
        }
        std::set<std::string> export_routes;
        std::set<std::string> import_routes;
        const auto check_route = [&](const CclRemoteRoute& r, bool is_export)
            -> const CdlPort* {
            const char* what = is_export ? "export" : "import";
            auto it = table.find(r.component);
            if (it == table.end()) {
                issues.push_back("remote '" + remote.name + "' " + what +
                                 " '" + r.route + "' names unknown instance '" +
                                 r.component + "' (line " +
                                 std::to_string(r.line) + ")");
                return nullptr;
            }
            const CdlComponent* cls = cdl.find(it->second.decl->class_name);
            const CdlPort* port =
                cls != nullptr ? cls->find_port(r.port) : nullptr;
            if (cls != nullptr && port == nullptr) {
                issues.push_back("remote '" + remote.name + "' " + what +
                                 " '" + r.route + "' names unknown port '" +
                                 r.component + "." + r.port + "'");
                return nullptr;
            }
            if (port != nullptr) {
                const PortDirection want =
                    is_export ? PortDirection::kOut : PortDirection::kIn;
                if (port->direction != want) {
                    issues.push_back(
                        "remote '" + remote.name + "' " + what + " '" +
                        r.route + "': port '" + r.component + "." + r.port +
                        "' is an " +
                        (port->direction == PortDirection::kIn ? "In" : "Out") +
                        " port; exports ship from Out ports, imports feed "
                        "In ports");
                    return nullptr;
                }
            }
            auto& seen = is_export ? export_routes : import_routes;
            if (!seen.insert(r.route).second) {
                issues.push_back("remote '" + remote.name +
                                 "': duplicate " + what + " route '" +
                                 r.route + "'");
                return nullptr;
            }
            return port;
        };
        for (const CclRemoteRoute& r : remote.exports) {
            const CdlPort* port = check_route(r, /*is_export=*/true);
            if (r.policy.band >= 0 && static_cast<std::size_t>(r.policy.band) >=
                                          remote.bands) {
                issues.push_back("remote '" + remote.name + "' export '" +
                                 r.route + "': <Band> " +
                                 std::to_string(r.policy.band) +
                                 " is outside the remote's band range [0, " +
                                 std::to_string(remote.bands) + ")");
                continue;
            }
            if (port == nullptr) continue;
            PlannedRemoteRoute planned;
            planned.instance = r.component;
            planned.port = r.port;
            planned.route = r.route;
            planned.policy = r.policy;
            planned.message_type = port->message_type;
            pr.exports.push_back(std::move(planned));
        }
        for (const CclRemoteRoute& r : remote.imports) {
            const CdlPort* port = check_route(r, /*is_export=*/false);
            if (r.policy.band >= 0) {
                issues.push_back("remote '" + remote.name + "' import '" +
                                 r.route +
                                 "' declares a <Band>; imports take the band "
                                 "stamped by the exporting peer");
                continue;
            }
            if (port == nullptr) continue;
            PlannedRemoteRoute planned;
            planned.instance = r.component;
            planned.port = r.port;
            planned.route = r.route;
            planned.message_type = port->message_type;
            pr.imports.push_back(std::move(planned));
        }
        plan.remotes.push_back(std::move(pr));
    }

    // ---- pass 5: planned components + scope pools ----
    std::set<int> used_levels;
    ccl.for_each_component([&](const CclComponent& c, const CclComponent* parent) {
        PlannedComponent pc;
        pc.instance_name = c.instance_name;
        pc.class_name = c.class_name;
        pc.type = c.type;
        pc.scope_level = c.scope_level;
        pc.parent_instance = parent != nullptr ? parent->instance_name : "";
        const CdlComponent* cls = cdl.find(c.class_name);
        for (const CclPortDecl& p : c.ports) {
            const CdlPort* def = cls != nullptr ? cls->find_port(p.name) : nullptr;
            if (p.has_attributes && def != nullptr &&
                def->direction == PortDirection::kIn) {
                pc.port_configs[p.name] = p.attributes;
            }
        }
        plan.components.push_back(std::move(pc));
        if (c.type == core::ComponentType::kScoped) {
            used_levels.insert(c.scope_level);
        }
    });
    for (const int level : used_levels) {
        const bool declared =
            std::any_of(plan.rtsj.scoped_pools.begin(),
                        plan.rtsj.scoped_pools.end(),
                        [&](const core::ScopePoolSpec& s) { return s.level == level; });
        if (!declared) {
            core::ScopePoolSpec spec;
            spec.level = level;
            plan.rtsj.scoped_pools.push_back(spec); // library default size
        }
    }

    if (!issues.empty()) {
        throw ValidationError(std::move(issues));
    }
    return plan;
}

} // namespace compadres::compiler
