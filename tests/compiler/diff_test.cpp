// Assembly diff: two CCLs -> a live RecomposePlan, and the `compadresc
// diff` front-end (exit 0 = applicable plan, 1 = invalid live transition).
#include "compiler/diff.hpp"

#include "compiler/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace compadres;
using namespace compadres::compiler;
namespace fs = std::filesystem;

namespace {

const char* kCdl = R"(
<CDL>
 <Component>
  <ComponentName>Src</ComponentName>
  <Port><PortName>out</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
 </Component>
 <Component>
  <ComponentName>Snk</ComponentName>
  <Port><PortName>in</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
 </Component>
 <Component>
  <ComponentName>Snk2</ComponentName>
  <Port><PortName>in</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
 </Component>
</CDL>)";

const char* kBase = R"(
<Application>
 <ApplicationName>LiveApp</ApplicationName>
 <Component>
  <InstanceName>src</InstanceName><ClassName>Src</ClassName>
  <ComponentType>Immortal</ComponentType>
  <Connection><Port><PortName>out</PortName>
   <Link><PortType>External</PortType><ToComponent>snk</ToComponent><ToPort>in</ToPort></Link>
  </Port></Connection>
 </Component>
 <Component>
  <InstanceName>snk</InstanceName><ClassName>Snk</ClassName>
  <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
  <Connection><Port><PortName>in</PortName>
   <PortAttributes><BufferSize>8</BufferSize><Overflow>Block</Overflow></PortAttributes>
  </Port></Connection>
 </Component>
</Application>)";

// Same topology, In port flipped Block -> Ring.
const char* kRing = R"(
<Application>
 <ApplicationName>LiveApp</ApplicationName>
 <Component>
  <InstanceName>src</InstanceName><ClassName>Src</ClassName>
  <ComponentType>Immortal</ComponentType>
  <Connection><Port><PortName>out</PortName>
   <Link><PortType>External</PortType><ToComponent>snk</ToComponent><ToPort>in</ToPort></Link>
  </Port></Connection>
 </Component>
 <Component>
  <InstanceName>snk</InstanceName><ClassName>Snk</ClassName>
  <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
  <Connection><Port><PortName>in</PortName>
   <PortAttributes><BufferSize>8</BufferSize><Overflow>Ring</Overflow></PortAttributes>
  </Port></Connection>
 </Component>
</Application>)";

// Base plus a second sink fed by the same source.
const char* kGrown = R"(
<Application>
 <ApplicationName>LiveApp</ApplicationName>
 <Component>
  <InstanceName>src</InstanceName><ClassName>Src</ClassName>
  <ComponentType>Immortal</ComponentType>
  <Connection><Port><PortName>out</PortName>
   <Link><PortType>External</PortType><ToComponent>snk</ToComponent><ToPort>in</ToPort></Link>
   <Link><PortType>External</PortType><ToComponent>snk2</ToComponent><ToPort>in</ToPort></Link>
  </Port></Connection>
 </Component>
 <Component>
  <InstanceName>snk</InstanceName><ClassName>Snk</ClassName>
  <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
  <Connection><Port><PortName>in</PortName>
   <PortAttributes><BufferSize>8</BufferSize><Overflow>Block</Overflow></PortAttributes>
  </Port></Connection>
 </Component>
 <Component>
  <InstanceName>snk2</InstanceName><ClassName>Snk2</ClassName>
  <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
 </Component>
</Application>)";

// Structural port change (BufferSize 8 -> 16): not a live transition.
const char* kResized = R"(
<Application>
 <ApplicationName>LiveApp</ApplicationName>
 <Component>
  <InstanceName>src</InstanceName><ClassName>Src</ClassName>
  <ComponentType>Immortal</ComponentType>
  <Connection><Port><PortName>out</PortName>
   <Link><PortType>External</PortType><ToComponent>snk</ToComponent><ToPort>in</ToPort></Link>
  </Port></Connection>
 </Component>
 <Component>
  <InstanceName>snk</InstanceName><ClassName>Snk</ClassName>
  <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
  <Connection><Port><PortName>in</PortName>
   <PortAttributes><BufferSize>16</BufferSize><Overflow>Block</Overflow></PortAttributes>
  </Port></Connection>
 </Component>
</Application>)";

// Memory layout change on top of the class change: both must be reported.
const char* kInvalid = R"(
<Application>
 <ApplicationName>LiveApp</ApplicationName>
 <Component>
  <InstanceName>src</InstanceName><ClassName>Src</ClassName>
  <ComponentType>Immortal</ComponentType>
  <Connection><Port><PortName>out</PortName>
   <Link><PortType>External</PortType><ToComponent>snk</ToComponent><ToPort>in</ToPort></Link>
  </Port></Connection>
 </Component>
 <Component>
  <InstanceName>snk</InstanceName><ClassName>Snk2</ClassName>
  <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
  <Connection><Port><PortName>in</PortName>
   <PortAttributes><BufferSize>8</BufferSize><Overflow>Block</Overflow></PortAttributes>
  </Port></Connection>
 </Component>
 <RTSJAttributes><ImmortalSize>8000000</ImmortalSize></RTSJAttributes>
</Application>)";

// Base minus the immortal source: retiring src is not a live transition.
const char* kOnlySnk = R"(
<Application>
 <ApplicationName>LiveApp</ApplicationName>
 <Component>
  <InstanceName>snk</InstanceName><ClassName>Snk</ClassName>
  <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
  <Connection><Port><PortName>in</PortName>
   <PortAttributes><BufferSize>8</BufferSize><Overflow>Block</Overflow></PortAttributes>
  </Port></Connection>
 </Component>
</Application>)";

AssemblyPlan plan_of(const char* ccl) {
    return validate_and_plan(parse_cdl_string(kCdl), parse_ccl_string(ccl));
}

/// `extra` is spliced into the <Export> after its <Band>.
std::string remote_ccl(int band, const char* extra, int bands = 2) {
    std::ostringstream s;
    s << R"(
<Application>
 <ApplicationName>LiveApp</ApplicationName>
 <Component>
  <InstanceName>src</InstanceName><ClassName>Src</ClassName>
  <ComponentType>Immortal</ComponentType>
 </Component>
 <Remote>
  <RemoteName>peer</RemoteName>
  <Bands>)" << bands
      << R"(</Bands>
  <Export><Component>src</Component><Port>out</Port><Route>telemetry</Route><Band>)"
      << band << "</Band>" << extra << R"(</Export>
 </Remote>
</Application>)";
    return s.str();
}

struct TempDir {
    fs::path path;
    TempDir() {
        path = fs::temp_directory_path() /
               ("compadres-diff-test-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter++));
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    static inline int counter = 0;
};

std::string write_file(const TempDir& dir, const std::string& name,
                       const std::string& content) {
    const fs::path p = dir.path / name;
    std::ofstream f(p);
    f << content;
    return p.string();
}

} // namespace

TEST(DiffPlans, IdenticalPlansDiffToNothing) {
    const core::RecomposePlan plan = diff_plans(plan_of(kBase), plan_of(kBase));
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(plan.application, "LiveApp");
}

TEST(DiffPlans, OverflowChangeBecomesLocalRepolicy) {
    const core::RecomposePlan plan = diff_plans(plan_of(kBase), plan_of(kRing));
    EXPECT_TRUE(plan.spawns.empty());
    EXPECT_TRUE(plan.route_adds.empty());
    ASSERT_EQ(plan.repolicies.size(), 1u);
    const core::RecomposeRepolicy& r = plan.repolicies[0];
    EXPECT_FALSE(r.remote);
    EXPECT_EQ(r.instance, "snk");
    EXPECT_EQ(r.port, "in");
    EXPECT_EQ(r.from.overflow, core::OverflowPolicy::kBlock);
    EXPECT_EQ(r.to.overflow, core::OverflowPolicy::kRingOverwrite);
}

TEST(DiffPlans, GrowthSpawnsAndRoutes) {
    const core::RecomposePlan plan =
        diff_plans(plan_of(kBase), plan_of(kGrown));
    ASSERT_EQ(plan.spawns.size(), 1u);
    EXPECT_EQ(plan.spawns[0].instance, "snk2");
    EXPECT_EQ(plan.spawns[0].class_name, "Snk2");
    ASSERT_EQ(plan.route_adds.size(), 1u);
    EXPECT_EQ(plan.route_adds[0].to_instance, "snk2");
    EXPECT_TRUE(plan.retires.empty());

    // The reverse transition retires the sink after unrouting it.
    const core::RecomposePlan shrink =
        diff_plans(plan_of(kGrown), plan_of(kBase));
    ASSERT_EQ(shrink.retires.size(), 1u);
    EXPECT_EQ(shrink.retires[0], "snk2");
    ASSERT_EQ(shrink.route_removes.size(), 1u);
    EXPECT_EQ(shrink.route_removes[0].to_instance, "snk2");
}

TEST(DiffPlans, InvalidTransitionsAreAllCollected) {
    try {
        diff_plans(plan_of(kBase), plan_of(kInvalid));
        FAIL() << "class + immortal-size change must not diff";
    } catch (const ValidationError& e) {
        EXPECT_GE(e.issues().size(), 2u) << e.what();
        EXPECT_NE(std::string(e.what()).find("ImmortalSize"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("changes class"),
                  std::string::npos);
    }
    // Structural port attributes are frozen.
    EXPECT_THROW(diff_plans(plan_of(kBase), plan_of(kResized)),
                 ValidationError);
    // Retiring an immortal component is not a live transition.
    try {
        diff_plans(plan_of(kBase), plan_of(kOnlySnk));
        FAIL() << "retiring the immortal source must not diff";
    } catch (const ValidationError& e) {
        EXPECT_NE(std::string(e.what()).find("immortal"), std::string::npos)
            << e.what();
    }
    // A remote cannot appear live (no startup handshake ran for it).
    EXPECT_THROW(
        diff_plans(plan_of(kBase),
                   validate_and_plan(parse_cdl_string(kCdl),
                                     parse_ccl_string(remote_ccl(0, "")))),
        ValidationError);
}

TEST(DiffPlans, RemotePolicyChangeBecomesRemoteRepolicy) {
    const AssemblyPlan from =
        validate_and_plan(parse_cdl_string(kCdl),
                          parse_ccl_string(remote_ccl(0, "")));
    const AssemblyPlan to = validate_and_plan(
        parse_cdl_string(kCdl), parse_ccl_string(remote_ccl(1, "")));
    const core::RecomposePlan plan = diff_plans(from, to);
    ASSERT_EQ(plan.repolicies.size(), 1u);
    const core::RecomposeRepolicy& r = plan.repolicies[0];
    EXPECT_TRUE(r.remote);
    EXPECT_EQ(r.remote_name, "peer");
    EXPECT_EQ(r.route, "telemetry");
    EXPECT_EQ(r.from.band, 0);
    EXPECT_EQ(r.to.band, 1);
    EXPECT_EQ(r.from.overflow, r.to.overflow);

    // <Coalesce> is not policy (every TCP wire has one writer): an older
    // CCL that still carries it plans exactly as one without.
    const AssemblyPlan leftover = validate_and_plan(
        parse_cdl_string(kCdl),
        parse_ccl_string(remote_ccl(1, "<Coalesce>Off</Coalesce>")));
    EXPECT_TRUE(diff_plans(to, leftover).empty());

    // The lane-group width is fixed by the startup handshake.
    const AssemblyPlan wider = validate_and_plan(
        parse_cdl_string(kCdl), parse_ccl_string(remote_ccl(0, "", 3)));
    EXPECT_THROW(diff_plans(from, wider), ValidationError);
}

TEST(DiffPlans, RemoteTransportAndHostAreFrozen) {
    const char* shape = R"(
<Application>
 <ApplicationName>LiveApp</ApplicationName>
 <Component>
  <InstanceName>src</InstanceName><ClassName>Src</ClassName>
  <ComponentType>Immortal</ComponentType>
 </Component>
 <Remote>
  <RemoteName>peer</RemoteName>%s
  <Export><Component>src</Component><Port>out</Port><Route>telemetry</Route></Export>
 </Remote>
</Application>)";
    auto remote_plan = [&](const char* knobs) {
        char buf[1024];
        std::snprintf(buf, sizeof buf, shape, knobs);
        return validate_and_plan(parse_cdl_string(kCdl),
                                 parse_ccl_string(buf));
    };
    const AssemblyPlan tcp = remote_plan("");
    const AssemblyPlan shm = remote_plan("\n  <Transport>shm</Transport>");
    const AssemblyPlan moved = remote_plan("\n  <Host>localhost</Host>");
    try {
        diff_plans(tcp, shm);
        FAIL() << "transport change should be rejected";
    } catch (const ValidationError& e) {
        EXPECT_NE(std::string(e.what()).find("<Transport> changes"),
                  std::string::npos);
    }
    try {
        diff_plans(tcp, moved);
        FAIL() << "host change should be rejected";
    } catch (const ValidationError& e) {
        EXPECT_NE(std::string(e.what()).find("<Host> changes"),
                  std::string::npos);
    }
    // Same transport and host diff clean.
    EXPECT_NO_THROW(diff_plans(shm, remote_plan("<Transport>shm</Transport>")));
}

TEST(CompadrescDiff, ExitCodesMatchTheContract) {
    TempDir dir;
    const std::string cdl = write_file(dir, "app.cdl.xml", kCdl);
    const std::string base = write_file(dir, "old.ccl.xml", kBase);
    const std::string ring = write_file(dir, "new.ccl.xml", kRing);
    const std::string bad = write_file(dir, "bad.ccl.xml", kInvalid);
    const std::string garbage = write_file(dir, "garbage.ccl.xml", "<not-xml");

    // Applicable transition: exit 0, plan on stdout, nothing applied.
    std::ostringstream out, err;
    EXPECT_EQ(compadresc_main({"diff", cdl, base, ring}, out, err), 0)
        << err.str();
    EXPECT_NE(out.str().find("~ repolicy snk.in"), std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("[block"), std::string::npos);

    // No changes still exits 0 and says so.
    std::ostringstream out2, err2;
    EXPECT_EQ(compadresc_main({"diff", cdl, base, base}, out2, err2), 0);
    EXPECT_NE(out2.str().find("(no changes)"), std::string::npos);

    // Invalid live transition: exit 1, issues on stderr.
    std::ostringstream out3, err3;
    EXPECT_EQ(compadresc_main({"diff", cdl, base, bad}, out3, err3), 1);
    EXPECT_NE(err3.str().find("ImmortalSize"), std::string::npos)
        << err3.str();

    // Unparseable input stays exit 2 (it is not a transition problem).
    std::ostringstream out4, err4;
    EXPECT_EQ(compadresc_main({"diff", cdl, base, garbage}, out4, err4), 2);

    // Wrong arity: usage, exit 1.
    std::ostringstream out5, err5;
    EXPECT_EQ(compadresc_main({"diff", cdl, base}, out5, err5), 1);
}
