#include "compiler/emit.hpp"

#include "xml/xml.hpp"

namespace compadres::compiler {

namespace {

using xml::XmlNode;

std::unique_ptr<XmlNode> element(std::string name) {
    auto node = std::make_unique<XmlNode>();
    node->name = std::move(name);
    return node;
}

std::unique_ptr<XmlNode> text_element(std::string name, std::string text) {
    auto node = element(std::move(name));
    node->text = std::move(text);
    return node;
}

std::unique_ptr<XmlNode> cdl_port_node(const CdlPort& port) {
    auto node = element("Port");
    node->children.push_back(text_element("PortName", port.name));
    node->children.push_back(text_element(
        "PortType", port.direction == PortDirection::kIn ? "In" : "Out"));
    node->children.push_back(text_element("MessageType", port.message_type));
    return node;
}

std::unique_ptr<XmlNode> ccl_port_node(const CclPortDecl& port) {
    auto node = element("Port");
    node->children.push_back(text_element("PortName", port.name));
    if (port.has_attributes) {
        auto attrs = element("PortAttributes");
        attrs->children.push_back(text_element(
            "BufferSize", std::to_string(port.attributes.buffer_size)));
        attrs->children.push_back(text_element(
            "Threadpool",
            port.attributes.strategy == core::ThreadpoolStrategy::kShared
                ? "Shared"
                : "Dedicated"));
        attrs->children.push_back(text_element(
            "MinThreadpoolSize", std::to_string(port.attributes.min_threads)));
        attrs->children.push_back(text_element(
            "MaxThreadpoolSize", std::to_string(port.attributes.max_threads)));
        attrs->children.push_back(text_element(
            "Overflow",
            port.attributes.policy.overflow ==
                    core::OverflowPolicy::kRingOverwrite
                ? "Ring"
                : "Block"));
        node->children.push_back(std::move(attrs));
    }
    for (const CclLink& link : port.links) {
        auto link_node = element("Link");
        link_node->children.push_back(text_element(
            "PortType",
            link.kind == LinkKind::kInternal ? "Internal" : "External"));
        link_node->children.push_back(
            text_element("ToComponent", link.to_component));
        link_node->children.push_back(text_element("ToPort", link.to_port));
        node->children.push_back(std::move(link_node));
    }
    return node;
}

std::unique_ptr<XmlNode> ccl_component_node(const CclComponent& comp) {
    auto node = element("Component");
    node->children.push_back(text_element("InstanceName", comp.instance_name));
    node->children.push_back(text_element("ClassName", comp.class_name));
    if (comp.type == core::ComponentType::kImmortal) {
        node->children.push_back(text_element("ComponentType", "Immortal"));
    } else {
        node->children.push_back(text_element("ComponentType", "Scoped"));
        node->children.push_back(
            text_element("ScopeLevel", std::to_string(comp.scope_level)));
    }
    if (!comp.ports.empty()) {
        auto connection = element("Connection");
        for (const CclPortDecl& port : comp.ports) {
            connection->children.push_back(ccl_port_node(port));
        }
        node->children.push_back(std::move(connection));
    }
    for (const CclComponent& child : comp.children) {
        node->children.push_back(ccl_component_node(child));
    }
    return node;
}

} // namespace

std::string emit_cdl(const CdlModel& model) {
    auto root = element("CDL");
    for (const auto& [name, comp] : model.components) {
        auto comp_node = element("Component");
        comp_node->children.push_back(text_element("ComponentName", comp.name));
        for (const CdlPort& port : comp.ports) {
            comp_node->children.push_back(cdl_port_node(port));
        }
        root->children.push_back(std::move(comp_node));
    }
    return xml::write(*root);
}

std::string emit_ccl(const CclModel& model) {
    auto root = element("Application");
    root->children.push_back(
        text_element("ApplicationName", model.application_name));
    for (const CclComponent& comp : model.components) {
        root->children.push_back(ccl_component_node(comp));
    }
    for (const CclRemote& remote : model.remotes) {
        auto node = element("Remote");
        node->children.push_back(text_element("RemoteName", remote.name));
        node->children.push_back(
            text_element("Bands", std::to_string(remote.bands)));
        node->children.push_back(text_element(
            "Transport",
            remote.transport == RemoteTransport::kShm ? "shm" : "tcp"));
        if (remote.host != "127.0.0.1") {
            node->children.push_back(text_element("Host", remote.host));
        }
        const auto route_node = [](const char* name,
                                   const CclRemoteRoute& route) {
            auto n = std::make_unique<XmlNode>();
            n->name = name;
            n->children.push_back(text_element("Component", route.component));
            n->children.push_back(text_element("Port", route.port));
            n->children.push_back(text_element("Route", route.route));
            if (route.policy.band >= 0) {
                n->children.push_back(
                    text_element("Band", std::to_string(route.policy.band)));
            }
            return n;
        };
        for (const CclRemoteRoute& route : remote.exports) {
            node->children.push_back(route_node("Export", route));
        }
        for (const CclRemoteRoute& route : remote.imports) {
            node->children.push_back(route_node("Import", route));
        }
        root->children.push_back(std::move(node));
    }
    auto rtsj = element("RTSJAttributes");
    rtsj->children.push_back(text_element(
        "ImmortalSize", std::to_string(model.rtsj.immortal_size)));
    for (const core::ScopePoolSpec& pool : model.rtsj.scoped_pools) {
        auto pool_node = element("ScopedPool");
        pool_node->children.push_back(
            text_element("ScopeLevel", std::to_string(pool.level)));
        pool_node->children.push_back(
            text_element("ScopeSize", std::to_string(pool.scope_size)));
        pool_node->children.push_back(
            text_element("PoolSize", std::to_string(pool.pool_size)));
        rtsj->children.push_back(std::move(pool_node));
    }
    rtsj->children.push_back(text_element(
        "ReactorBands", std::to_string(model.rtsj.reactor_bands)));
    if (model.rtsj.trace.enabled || model.rtsj.trace.recorder) {
        auto trace = element("Trace");
        trace->children.push_back(text_element(
            "SampleShift", std::to_string(model.rtsj.trace.sample_shift)));
        trace->children.push_back(text_element(
            "RingDepth", std::to_string(model.rtsj.trace.ring_depth)));
        trace->children.push_back(text_element(
            "Recorder", model.rtsj.trace.recorder ? "true" : "false"));
        rtsj->children.push_back(std::move(trace));
    }
    root->children.push_back(std::move(rtsj));
    return xml::write(*root);
}

} // namespace compadres::compiler
