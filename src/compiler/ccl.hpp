// Component Composition Language (CCL) — paper §2.2, Listing 1.2.
//
// The CCL instantiates components, nests them (parent/child scoping),
// declares the port attributes (buffer size, threading strategy, pool
// bounds) and the links between ports, and fixes the RTSJ memory layout
// (<RTSJAttributes>: immortal size plus per-level scoped-region pools).
#pragma once

#include "core/application.hpp"
#include "core/port.hpp"
#include "xml/xml.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace compadres::compiler {

class CclError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

enum class LinkKind { kInternal, kExternal };

/// One <Link>: connects the enclosing port to `to_component.to_port`.
/// Links may be declared on either endpoint; the validator orients them
/// Out -> In using the CDL.
struct CclLink {
    LinkKind kind = LinkKind::kExternal;
    std::string to_component; ///< instance name of the peer
    std::string to_port;
    int line = 0;
};

/// One <Port> inside a <Connection>.
struct CclPortDecl {
    std::string name;
    core::InPortConfig attributes; ///< meaningful for In ports
    bool has_attributes = false;
    std::vector<CclLink> links;
    int line = 0;
};

struct CclComponent {
    std::string instance_name;
    std::string class_name;
    core::ComponentType type = core::ComponentType::kScoped;
    int scope_level = 0; ///< 0 for immortal
    std::vector<CclPortDecl> ports;
    std::vector<CclComponent> children;
    int line = 0;
};

/// One <Export> or <Import> inside a <Remote>: binds an instance's port
/// to a named wire route, optionally pinning the route's transmission
/// policy — <Band> (exports only; imports take the band stamped by the
/// peer).
struct CclRemoteRoute {
    std::string component; ///< instance name
    std::string port;
    std::string route; ///< wire route name
    /// Route policy: policy.band -1 derives the lane from the port's
    /// default priority.
    core::TransmissionPolicy policy;
    int line = 0;
};

/// How a <Remote>'s frames travel: priority-banded TCP lanes (the
/// default), or the co-located shared-memory wire (net/shm_transport.hpp)
/// with its TCP control/fallback channel.
enum class RemoteTransport { kTcp, kShm };

/// One <Remote>: a lane-group connection to a peer application. <Bands>
/// is the lane count (priority-banded TCP wires) the connection shards
/// across — see net/lane_group.hpp. <Transport>shm</Transport> selects
/// the shared-memory wire instead (single-lane, same-host only — the
/// validator rejects a non-loopback <Host> and explicit multi-band
/// declarations); <Host> names the peer endpoint, defaulting to
/// 127.0.0.1.
struct CclRemote {
    std::string name;
    std::size_t bands = 2;
    bool bands_declared = false; ///< <Bands> appeared explicitly
    RemoteTransport transport = RemoteTransport::kTcp;
    std::string host = "127.0.0.1";
    std::vector<CclRemoteRoute> exports;
    std::vector<CclRemoteRoute> imports;
    int line = 0;
};

struct CclModel {
    std::string application_name;
    std::vector<CclComponent> components; ///< top-level instances
    std::vector<CclRemote> remotes;
    core::RtsjAttributes rtsj;

    /// Depth-first visit (parents before children).
    template <typename F>
    void for_each_component(F&& fn) const {
        for (const CclComponent& c : components) visit(c, nullptr, fn);
    }

private:
    template <typename F>
    static void visit(const CclComponent& c, const CclComponent* parent, F& fn) {
        fn(c, parent);
        for (const CclComponent& child : c.children) visit(child, &c, fn);
    }
};

/// Parse a CCL document rooted at <Application>. Throws CclError on
/// structural problems; semantic checks live in the validator.
CclModel parse_ccl(const xml::XmlNode& root);
CclModel parse_ccl_file(const std::string& path);
CclModel parse_ccl_string(const std::string& text);

} // namespace compadres::compiler
