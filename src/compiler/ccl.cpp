#include "compiler/ccl.hpp"

#include <charconv>

namespace compadres::compiler {

namespace {

long parse_number(const std::string& text, const std::string& what, int line) {
    long value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
        throw CclError(what + ": expected a number, got '" + text + "' (line " +
                       std::to_string(line) + ")");
    }
    return value;
}

CclLink parse_link(const xml::XmlNode& node) {
    CclLink link;
    link.line = node.line;
    const std::string kind = node.child_text("PortType");
    if (kind == "Internal") {
        link.kind = LinkKind::kInternal;
    } else if (kind == "External") {
        link.kind = LinkKind::kExternal;
    } else {
        throw CclError("<Link> <PortType> must be 'Internal' or 'External', got '" +
                       kind + "' (line " + std::to_string(node.line) + ")");
    }
    link.to_component = node.child_text("ToComponent");
    link.to_port = node.child_text("ToPort");
    if (link.to_component.empty() || link.to_port.empty()) {
        throw CclError("<Link> needs <ToComponent> and <ToPort> (line " +
                       std::to_string(node.line) + ")");
    }
    return link;
}

core::InPortConfig parse_port_attributes(const xml::XmlNode& node,
                                         const std::string& port_name) {
    core::InPortConfig cfg;
    if (const xml::XmlNode* buf = node.child("BufferSize")) {
        const long v = parse_number(buf->text, "BufferSize of " + port_name,
                                    buf->line);
        if (v <= 0) {
            throw CclError("BufferSize of '" + port_name + "' must be positive");
        }
        cfg.buffer_size = static_cast<std::size_t>(v);
    }
    const std::string strategy = node.child_text("Threadpool", "Dedicated");
    if (strategy == "Shared") {
        cfg.strategy = core::ThreadpoolStrategy::kShared;
    } else if (strategy == "Dedicated") {
        cfg.strategy = core::ThreadpoolStrategy::kDedicated;
    } else {
        throw CclError("Threadpool of '" + port_name +
                       "' must be 'Shared' or 'Dedicated', got '" + strategy + "'");
    }
    if (const xml::XmlNode* n = node.child("MinThreadpoolSize")) {
        cfg.min_threads = static_cast<std::size_t>(
            parse_number(n->text, "MinThreadpoolSize of " + port_name, n->line));
    }
    if (const xml::XmlNode* n = node.child("MaxThreadpoolSize")) {
        cfg.max_threads = static_cast<std::size_t>(
            parse_number(n->text, "MaxThreadpoolSize of " + port_name, n->line));
    }
    if (cfg.min_threads > cfg.max_threads) {
        throw CclError("port '" + port_name + "': MinThreadpoolSize (" +
                       std::to_string(cfg.min_threads) +
                       ") exceeds MaxThreadpoolSize (" +
                       std::to_string(cfg.max_threads) + ")");
    }
    const std::string overflow = node.child_text("Overflow", "Block");
    if (overflow == "Block") {
        cfg.policy.overflow = core::OverflowPolicy::kBlock;
    } else if (overflow == "Ring") {
        cfg.policy.overflow = core::OverflowPolicy::kRingOverwrite;
    } else {
        throw CclError("Overflow of '" + port_name +
                       "' must be 'Block' or 'Ring', got '" + overflow + "'");
    }
    return cfg;
}

CclPortDecl parse_port_decl(const xml::XmlNode& node) {
    CclPortDecl decl;
    decl.line = node.line;
    decl.name = node.child_text("PortName");
    if (decl.name.empty()) {
        throw CclError("<Port> without <PortName> (line " +
                       std::to_string(node.line) + ")");
    }
    if (const xml::XmlNode* attrs = node.child("PortAttributes")) {
        decl.attributes = parse_port_attributes(*attrs, decl.name);
        decl.has_attributes = true;
    }
    for (const xml::XmlNode* link_node : node.children_named("Link")) {
        decl.links.push_back(parse_link(*link_node));
    }
    return decl;
}

CclComponent parse_component(const xml::XmlNode& node) {
    CclComponent comp;
    comp.line = node.line;
    comp.instance_name = node.child_text("InstanceName");
    comp.class_name = node.child_text("ClassName");
    if (comp.instance_name.empty() || comp.class_name.empty()) {
        throw CclError("<Component> needs <InstanceName> and <ClassName> (line " +
                       std::to_string(node.line) + ")");
    }
    const std::string type = node.child_text("ComponentType", "Scoped");
    if (type == "Immortal") {
        comp.type = core::ComponentType::kImmortal;
        comp.scope_level = 0;
    } else if (type == "Scoped") {
        comp.type = core::ComponentType::kScoped;
        const xml::XmlNode* level = node.child("ScopeLevel");
        if (level == nullptr) {
            throw CclError("scoped component '" + comp.instance_name +
                           "' needs a <ScopeLevel>");
        }
        const long v = parse_number(level->text,
                                    "ScopeLevel of " + comp.instance_name,
                                    level->line);
        if (v < 1) {
            throw CclError("ScopeLevel of '" + comp.instance_name +
                           "' must be >= 1");
        }
        comp.scope_level = static_cast<int>(v);
    } else {
        throw CclError("component '" + comp.instance_name +
                       "': <ComponentType> must be 'Immortal' or 'Scoped'");
    }
    if (const xml::XmlNode* connection = node.child("Connection")) {
        for (const xml::XmlNode* port_node : connection->children_named("Port")) {
            comp.ports.push_back(parse_port_decl(*port_node));
        }
    }
    for (const xml::XmlNode* child : node.children_named("Component")) {
        comp.children.push_back(parse_component(*child));
    }
    return comp;
}

CclRemoteRoute parse_remote_route(const xml::XmlNode& node,
                                  const char* element_name) {
    CclRemoteRoute route;
    route.line = node.line;
    route.component = node.child_text("Component");
    route.port = node.child_text("Port");
    route.route = node.child_text("Route");
    if (route.component.empty() || route.port.empty() || route.route.empty()) {
        throw CclError(std::string("<") + element_name +
                       "> needs <Component>, <Port> and <Route> (line " +
                       std::to_string(node.line) + ")");
    }
    if (const xml::XmlNode* band = node.child("Band")) {
        const long v = parse_number(band->text, "Band of route " + route.route,
                                    band->line);
        if (v < 0) {
            throw CclError("Band of route '" + route.route +
                           "' must be >= 0 (line " +
                           std::to_string(band->line) + ")");
        }
        route.policy.band = static_cast<int>(v);
    }
    return route;
}

CclRemote parse_remote(const xml::XmlNode& node) {
    CclRemote remote;
    remote.line = node.line;
    remote.name = node.child_text("RemoteName");
    if (remote.name.empty()) {
        throw CclError("<Remote> without <RemoteName> (line " +
                       std::to_string(node.line) + ")");
    }
    if (const xml::XmlNode* bands = node.child("Bands")) {
        const long v = parse_number(bands->text, "Bands of " + remote.name,
                                    bands->line);
        if (v < 1) {
            throw CclError("Bands of '" + remote.name +
                           "' must be >= 1 (line " +
                           std::to_string(bands->line) + ")");
        }
        remote.bands = static_cast<std::size_t>(v);
        remote.bands_declared = true;
    }
    if (const xml::XmlNode* transport = node.child("Transport")) {
        if (transport->text == "tcp") {
            remote.transport = RemoteTransport::kTcp;
        } else if (transport->text == "shm") {
            remote.transport = RemoteTransport::kShm;
            // shm defaults to one lane; a declared <Bands> N carves the
            // segment into N ring+arena pairs per direction instead of
            // following the lane-group default.
            if (!remote.bands_declared) remote.bands = 1;
        } else {
            throw CclError("Transport of '" + remote.name +
                           "' must be 'tcp' or 'shm', got '" +
                           transport->text + "' (line " +
                           std::to_string(transport->line) + ")");
        }
    }
    if (const xml::XmlNode* host = node.child("Host")) {
        if (host->text.empty()) {
            throw CclError("<Host> of '" + remote.name +
                           "' must not be empty (line " +
                           std::to_string(host->line) + ")");
        }
        remote.host = host->text;
    }
    for (const xml::XmlNode* exp : node.children_named("Export")) {
        remote.exports.push_back(parse_remote_route(*exp, "Export"));
    }
    for (const xml::XmlNode* imp : node.children_named("Import")) {
        remote.imports.push_back(parse_remote_route(*imp, "Import"));
    }
    if (remote.exports.empty() && remote.imports.empty()) {
        throw CclError("<Remote> '" + remote.name +
                       "' declares no <Export> or <Import> routes");
    }
    return remote;
}

core::RtsjAttributes parse_rtsj(const xml::XmlNode& node) {
    core::RtsjAttributes attrs;
    if (const xml::XmlNode* imm = node.child("ImmortalSize")) {
        const long v = parse_number(imm->text, "ImmortalSize", imm->line);
        if (v <= 0) throw CclError("ImmortalSize must be positive");
        attrs.immortal_size = static_cast<std::size_t>(v);
    }
    for (const xml::XmlNode* pool : node.children_named("ScopedPool")) {
        core::ScopePoolSpec spec;
        const xml::XmlNode* level = pool->child("ScopeLevel");
        if (level == nullptr) {
            throw CclError("<ScopedPool> without <ScopeLevel> (line " +
                           std::to_string(pool->line) + ")");
        }
        spec.level = static_cast<int>(
            parse_number(level->text, "ScopedPool ScopeLevel", level->line));
        if (const xml::XmlNode* size = pool->child("ScopeSize")) {
            const long v = parse_number(size->text, "ScopeSize", size->line);
            if (v <= 0) throw CclError("ScopeSize must be positive");
            spec.scope_size = static_cast<std::size_t>(v);
        }
        if (const xml::XmlNode* count = pool->child("PoolSize")) {
            const long v = parse_number(count->text, "PoolSize", count->line);
            if (v <= 0) throw CclError("PoolSize must be positive");
            spec.pool_size = static_cast<std::size_t>(v);
        }
        attrs.scoped_pools.push_back(spec);
    }
    if (const xml::XmlNode* bands = node.child("ReactorBands")) {
        const long v = parse_number(bands->text, "ReactorBands", bands->line);
        if (v < 1) throw CclError("ReactorBands must be >= 1");
        attrs.reactor_bands = static_cast<std::size_t>(v);
    }
    // <Trace>: the observability plane's deployment knobs. Presence of the
    // block turns wire trace propagation on; the flight recorder defaults
    // to on inside the block (its own child can turn it back off).
    if (const xml::XmlNode* trace = node.child("Trace")) {
        attrs.trace.enabled = true;
        attrs.trace.recorder = true;
        if (const xml::XmlNode* shift = trace->child("SampleShift")) {
            const long v =
                parse_number(shift->text, "Trace SampleShift", shift->line);
            if (v < 0 || v > 62) {
                throw CclError("Trace SampleShift must be in [0, 62] (line " +
                               std::to_string(shift->line) + ")");
            }
            attrs.trace.sample_shift = static_cast<unsigned>(v);
        }
        if (const xml::XmlNode* depth = trace->child("RingDepth")) {
            const long v =
                parse_number(depth->text, "Trace RingDepth", depth->line);
            if (v < 1) {
                throw CclError("Trace RingDepth must be positive (line " +
                               std::to_string(depth->line) + ")");
            }
            attrs.trace.ring_depth = static_cast<std::size_t>(v);
        }
        if (const xml::XmlNode* rec = trace->child("Recorder")) {
            if (rec->text == "true" || rec->text == "1") {
                attrs.trace.recorder = true;
            } else if (rec->text == "false" || rec->text == "0") {
                attrs.trace.recorder = false;
            } else {
                throw CclError("Trace Recorder must be true or false (line " +
                               std::to_string(rec->line) + ")");
            }
        }
    }
    return attrs;
}

} // namespace

CclModel parse_ccl(const xml::XmlNode& root) {
    if (root.name != "Application") {
        throw CclError("CCL root element must be <Application>, got <" +
                       root.name + ">");
    }
    CclModel model;
    model.application_name = root.child_text("ApplicationName");
    if (model.application_name.empty()) {
        throw CclError("<Application> without <ApplicationName>");
    }
    for (const xml::XmlNode* comp : root.children_named("Component")) {
        model.components.push_back(parse_component(*comp));
    }
    if (model.components.empty()) {
        throw CclError("CCL application instantiates no components");
    }
    for (const xml::XmlNode* remote : root.children_named("Remote")) {
        model.remotes.push_back(parse_remote(*remote));
    }
    if (const xml::XmlNode* rtsj = root.child("RTSJAttributes")) {
        model.rtsj = parse_rtsj(*rtsj);
    }
    return model;
}

CclModel parse_ccl_file(const std::string& path) {
    return parse_ccl(*xml::parse_file(path));
}

CclModel parse_ccl_string(const std::string& text) {
    return parse_ccl(*xml::parse(text));
}

} // namespace compadres::compiler
