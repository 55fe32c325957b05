// Emitters: model -> XML -> model must be the identity (round-trip
// property), including randomly generated models.
#include "compiler/emit.hpp"

#include <gtest/gtest.h>

#include <random>

using namespace compadres;
using namespace compadres::compiler;

namespace {

bool models_equal(const CdlModel& a, const CdlModel& b) {
    if (a.components.size() != b.components.size()) return false;
    for (const auto& [name, comp] : a.components) {
        const CdlComponent* other = b.find(name);
        if (other == nullptr || other->ports.size() != comp.ports.size()) {
            return false;
        }
        for (std::size_t i = 0; i < comp.ports.size(); ++i) {
            const CdlPort& p = comp.ports[i];
            const CdlPort& q = other->ports[i];
            if (p.name != q.name || p.direction != q.direction ||
                p.message_type != q.message_type) {
                return false;
            }
        }
    }
    return true;
}

bool components_equal(const CclComponent& a, const CclComponent& b) {
    if (a.instance_name != b.instance_name || a.class_name != b.class_name ||
        a.type != b.type || a.scope_level != b.scope_level ||
        a.ports.size() != b.ports.size() ||
        a.children.size() != b.children.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.ports.size(); ++i) {
        const CclPortDecl& p = a.ports[i];
        const CclPortDecl& q = b.ports[i];
        if (p.name != q.name || p.has_attributes != q.has_attributes ||
            p.links.size() != q.links.size()) {
            return false;
        }
        if (p.has_attributes &&
            (p.attributes.buffer_size != q.attributes.buffer_size ||
             p.attributes.strategy != q.attributes.strategy ||
             p.attributes.min_threads != q.attributes.min_threads ||
             p.attributes.max_threads != q.attributes.max_threads ||
             p.attributes.policy.overflow != q.attributes.policy.overflow)) {
            return false;
        }
        for (std::size_t j = 0; j < p.links.size(); ++j) {
            if (p.links[j].kind != q.links[j].kind ||
                p.links[j].to_component != q.links[j].to_component ||
                p.links[j].to_port != q.links[j].to_port) {
                return false;
            }
        }
    }
    for (std::size_t i = 0; i < a.children.size(); ++i) {
        if (!components_equal(a.children[i], b.children[i])) return false;
    }
    return true;
}

bool routes_equal(const std::vector<CclRemoteRoute>& a,
                  const std::vector<CclRemoteRoute>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].component != b[i].component || a[i].port != b[i].port ||
            a[i].route != b[i].route || a[i].policy != b[i].policy) {
            return false;
        }
    }
    return true;
}

bool models_equal(const CclModel& a, const CclModel& b) {
    if (a.application_name != b.application_name ||
        a.components.size() != b.components.size() ||
        a.remotes.size() != b.remotes.size() ||
        a.rtsj.immortal_size != b.rtsj.immortal_size ||
        a.rtsj.reactor_bands != b.rtsj.reactor_bands ||
        a.rtsj.scoped_pools.size() != b.rtsj.scoped_pools.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.remotes.size(); ++i) {
        const CclRemote& r = a.remotes[i];
        const CclRemote& s = b.remotes[i];
        if (r.name != s.name || r.bands != s.bands ||
            r.transport != s.transport || r.host != s.host ||
            !routes_equal(r.exports, s.exports) ||
            !routes_equal(r.imports, s.imports)) {
            return false;
        }
    }
    for (std::size_t i = 0; i < a.components.size(); ++i) {
        if (!components_equal(a.components[i], b.components[i])) return false;
    }
    for (std::size_t i = 0; i < a.rtsj.scoped_pools.size(); ++i) {
        const auto& p = a.rtsj.scoped_pools[i];
        const auto& q = b.rtsj.scoped_pools[i];
        if (p.level != q.level || p.scope_size != q.scope_size ||
            p.pool_size != q.pool_size) {
            return false;
        }
    }
    return true;
}

} // namespace

TEST(Emit, CdlRoundTripsHandWrittenModel) {
    CdlModel model;
    CdlComponent server;
    server.name = "Server";
    server.ports.push_back({"DataOut", PortDirection::kOut, "String"});
    server.ports.push_back({"DataIn", PortDirection::kIn, "CustomType"});
    model.components.emplace("Server", server);
    CdlComponent calc;
    calc.name = "Calculator";
    model.components.emplace("Calculator", calc);

    const std::string xml_text = emit_cdl(model);
    const CdlModel reparsed = parse_cdl_string(xml_text);
    EXPECT_TRUE(models_equal(model, reparsed)) << xml_text;
}

TEST(Emit, CclRoundTripsListing12Shape) {
    CclModel model;
    model.application_name = "MyApp";
    model.rtsj.immortal_size = 400'000;
    model.rtsj.scoped_pools.push_back({1, 200'000, 3});

    CclComponent server;
    server.instance_name = "MyServer";
    server.class_name = "Server";
    server.type = core::ComponentType::kImmortal;
    CclPortDecl port;
    port.name = "DataIn";
    port.has_attributes = true;
    port.attributes.buffer_size = 5;
    port.attributes.strategy = core::ThreadpoolStrategy::kShared;
    port.attributes.min_threads = 2;
    port.attributes.max_threads = 10;
    port.attributes.policy.overflow = core::OverflowPolicy::kRingOverwrite;
    port.links.push_back({LinkKind::kInternal, "MyCalculator", "DataOut", 0});
    server.ports.push_back(port);

    CclComponent calc;
    calc.instance_name = "MyCalculator";
    calc.class_name = "Calculator";
    calc.type = core::ComponentType::kScoped;
    calc.scope_level = 1;
    server.children.push_back(calc);
    model.components.push_back(server);

    const std::string xml_text = emit_ccl(model);
    const CclModel reparsed = parse_ccl_string(xml_text);
    EXPECT_TRUE(models_equal(model, reparsed)) << xml_text;
}

TEST(Emit, CclRoundTripsRemoteAndReactorBands) {
    CclModel model;
    model.application_name = "Banded";
    model.rtsj.reactor_bands = 6;

    CclComponent hub;
    hub.instance_name = "H";
    hub.class_name = "Hub";
    hub.type = core::ComponentType::kImmortal;
    model.components.push_back(hub);

    CclRemote remote;
    remote.name = "peer";
    remote.bands = 3;
    remote.exports.push_back(
        {"H", "cmdOut", "cmd-route", {core::OverflowPolicy::kBlock, 0}, 0});
    remote.exports.push_back({"H", "logOut", "log-route", {}, 0});
    remote.imports.push_back({"H", "ackIn", "ack-route", {}, 0});
    model.remotes.push_back(remote);

    const std::string xml_text = emit_ccl(model);
    const CclModel reparsed = parse_ccl_string(xml_text);
    EXPECT_TRUE(models_equal(model, reparsed)) << xml_text;
}

TEST(Emit, CclRoundTripsShmTransportAndHost) {
    CclModel model;
    model.application_name = "CoLocated";

    CclComponent hub;
    hub.instance_name = "H";
    hub.class_name = "Hub";
    hub.type = core::ComponentType::kImmortal;
    model.components.push_back(hub);

    CclRemote remote;
    remote.name = "peer";
    remote.transport = RemoteTransport::kShm;
    remote.host = "localhost";
    remote.bands = 1;
    remote.bands_declared = true; // emit always writes <Bands>
    remote.exports.push_back({"H", "cmdOut", "cmd-route", {}, 0});
    model.remotes.push_back(remote);

    const std::string xml_text = emit_ccl(model);
    EXPECT_NE(xml_text.find("<Transport>shm</Transport>"), std::string::npos);
    EXPECT_NE(xml_text.find("<Host>localhost</Host>"), std::string::npos);
    const CclModel reparsed = parse_ccl_string(xml_text);
    EXPECT_TRUE(models_equal(model, reparsed)) << xml_text;
}

// Property: random models survive the emit -> parse round trip.
class EmitFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(EmitFuzzTest, RandomCdlRoundTrips) {
    std::mt19937 rng(GetParam());
    CdlModel model;
    const int comp_count = 1 + static_cast<int>(rng() % 6);
    for (int c = 0; c < comp_count; ++c) {
        CdlComponent comp;
        comp.name = "Comp" + std::to_string(c);
        const int port_count = static_cast<int>(rng() % 5);
        for (int p = 0; p < port_count; ++p) {
            comp.ports.push_back(
                {"port" + std::to_string(p),
                 rng() % 2 == 0 ? PortDirection::kIn : PortDirection::kOut,
                 "Type" + std::to_string(rng() % 3)});
        }
        model.components.emplace(comp.name, comp);
    }
    const CdlModel reparsed = parse_cdl_string(emit_cdl(model));
    EXPECT_TRUE(models_equal(model, reparsed));
}

TEST_P(EmitFuzzTest, RandomCclRoundTrips) {
    std::mt19937 rng(GetParam() + 77);
    CclModel model;
    model.application_name = "App" + std::to_string(GetParam());
    model.rtsj.immortal_size = 1'000'000 + rng() % 1'000'000;
    const int pool_count = static_cast<int>(rng() % 3);
    for (int i = 0; i < pool_count; ++i) {
        model.rtsj.scoped_pools.push_back(
            {i + 1, 10'000 + rng() % 100'000, 1 + rng() % 8});
    }
    // A chain of nested components with random port decls.
    CclComponent* parent = nullptr;
    const int depth = 1 + static_cast<int>(rng() % 4);
    for (int d = 0; d < depth; ++d) {
        CclComponent comp;
        comp.instance_name = "inst" + std::to_string(d);
        comp.class_name = "Class" + std::to_string(rng() % 3);
        if (d == 0) {
            comp.type = core::ComponentType::kImmortal;
        } else {
            comp.type = core::ComponentType::kScoped;
            comp.scope_level = d;
        }
        if (rng() % 2 == 0) {
            CclPortDecl port;
            port.name = "p" + std::to_string(d);
            port.has_attributes = true;
            port.attributes.buffer_size = 1 + rng() % 64;
            port.attributes.min_threads = rng() % 3;
            port.attributes.max_threads =
                port.attributes.min_threads + rng() % 3;
            port.attributes.strategy = rng() % 2 == 0
                                           ? core::ThreadpoolStrategy::kShared
                                           : core::ThreadpoolStrategy::kDedicated;
            port.attributes.policy.overflow =
                rng() % 2 == 0 ? core::OverflowPolicy::kBlock
                               : core::OverflowPolicy::kRingOverwrite;
            if (rng() % 2 == 0) {
                port.links.push_back({rng() % 2 == 0 ? LinkKind::kInternal
                                                     : LinkKind::kExternal,
                                      "instX", "portY", 0});
            }
            comp.ports.push_back(port);
        }
        if (parent == nullptr) {
            model.components.push_back(comp);
            parent = &model.components.back();
        } else {
            parent->children.push_back(comp);
            parent = &parent->children.back();
        }
    }
    // Sometimes shard the app across priority-banded remotes too.
    const int remote_count = static_cast<int>(rng() % 3);
    for (int r = 0; r < remote_count; ++r) {
        CclRemote remote;
        remote.name = "peer" + std::to_string(r);
        remote.bands = 1 + rng() % 4;
        const int export_count = 1 + static_cast<int>(rng() % 3);
        for (int e = 0; e < export_count; ++e) {
            const int band =
                rng() % 2 == 0 ? -1 : static_cast<int>(rng() % remote.bands);
            core::TransmissionPolicy policy;
            policy.band = band;
            remote.exports.push_back({"inst0", "p" + std::to_string(e),
                                      "route" + std::to_string(r * 8 + e),
                                      policy, 0});
        }
        if (rng() % 2 == 0) {
            remote.imports.push_back(
                {"inst0", "pin", "route" + std::to_string(r * 8 + 7), {}, 0});
        }
        model.remotes.push_back(remote);
    }
    if (remote_count > 0) model.rtsj.reactor_bands = 1 + rng() % 8;
    const CclModel reparsed = parse_ccl_string(emit_ccl(model));
    EXPECT_TRUE(models_equal(model, reparsed)) << emit_ccl(model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmitFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Emit, CclRoundTripsTraceBlock) {
    CclModel model;
    model.application_name = "Traced";
    model.rtsj.trace.enabled = true;
    model.rtsj.trace.sample_shift = 6;
    model.rtsj.trace.ring_depth = 8192;
    model.rtsj.trace.recorder = false;

    CclComponent hub;
    hub.instance_name = "H";
    hub.class_name = "Hub";
    hub.type = core::ComponentType::kImmortal;
    model.components.push_back(hub);

    const std::string xml_text = emit_ccl(model);
    EXPECT_NE(xml_text.find("<Trace>"), std::string::npos) << xml_text;
    const CclModel reparsed = parse_ccl_string(xml_text);
    EXPECT_TRUE(reparsed.rtsj.trace.enabled);
    EXPECT_EQ(reparsed.rtsj.trace.sample_shift, 6u);
    EXPECT_EQ(reparsed.rtsj.trace.ring_depth, 8192u);
    EXPECT_FALSE(reparsed.rtsj.trace.recorder);

    // And a model with no trace block emits none.
    model.rtsj.trace = {};
    EXPECT_EQ(emit_ccl(model).find("<Trace>"), std::string::npos);
}
