#include "compiler/cli.hpp"

#include "compiler/assembler.hpp"
#include "compiler/codegen.hpp"
#include "compiler/diff.hpp"
#include "compiler/emit.hpp"
#include "core/recompose.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>

namespace compadres::compiler {

namespace {

constexpr int kOk = 0;
constexpr int kUsage = 1;
constexpr int kInvalid = 2;
constexpr int kIo = 3;
/// `diff` contract: a transition the live runtime cannot apply exits 1.
constexpr int kInvalidTransition = 1;

void print_usage(std::ostream& err) {
    err << "usage:\n"
           "  compadresc check     <cdl.xml> [<ccl.xml>]\n"
           "  compadresc skeletons <cdl.xml> -o <dir>\n"
           "  compadresc plan      <cdl.xml> <ccl.xml>\n"
           "  compadresc diff      <cdl.xml> <old.ccl> <new.ccl>\n"
           "  compadresc main-stub <cdl.xml> <ccl.xml> -o <dir>\n"
           "  compadresc canon     <cdl.xml> [<ccl.xml>]\n"
           "diff prints the live-recompose plan (spawns/retires, route\n"
           "adds/removes, repolicies) without applying it; exit 1 when the\n"
           "transition cannot be applied to a running application.\n";
}

/// Extracts "-o <dir>" from args; empty string when absent.
std::string take_output_dir(std::vector<std::string>& args) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == "-o") {
            std::string dir = args[i + 1];
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
            return dir;
        }
    }
    return {};
}

int write_file(const std::filesystem::path& path, const std::string& content,
               std::ostream& out, std::ostream& err) {
    std::ofstream f(path);
    if (!f) {
        err << "compadresc: cannot write " << path.string() << "\n";
        return kIo;
    }
    f << content;
    out << "wrote " << path.string() << " (" << content.size() << " bytes)\n";
    return kOk;
}

void dump_plan(const AssemblyPlan& plan, std::ostream& out) {
    out << "application: " << plan.application_name << "\n";
    out << "immortal: " << plan.rtsj.immortal_size << " bytes\n";
    for (const auto& pool : plan.rtsj.scoped_pools) {
        out << "scope pool: level " << pool.level << ", " << pool.scope_size
            << " bytes x " << pool.pool_size << "\n";
    }
    if (plan.rtsj.trace.enabled || plan.rtsj.trace.recorder) {
        out << "trace: sample-shift " << plan.rtsj.trace.sample_shift
            << ", ring depth " << plan.rtsj.trace.ring_depth << ", recorder "
            << (plan.rtsj.trace.recorder ? "on" : "off") << "\n";
    }
    for (const auto& comp : plan.components) {
        out << "component: " << comp.instance_name << " class="
            << comp.class_name << " "
            << (comp.type == core::ComponentType::kImmortal ? "immortal"
                                                            : "scoped")
            << " level=" << comp.scope_level << " parent="
            << (comp.parent_instance.empty() ? "<root>" : comp.parent_instance)
            << "\n";
        for (const auto& [port, cfg] : comp.port_configs) {
            out << "  port " << port << ": buffer=" << cfg.buffer_size
                << " threads=" << cfg.min_threads << ".." << cfg.max_threads
                << (cfg.strategy == core::ThreadpoolStrategy::kShared
                        ? " shared"
                        : " dedicated")
                << (cfg.policy.overflow == core::OverflowPolicy::kRingOverwrite
                        ? " overflow=ring"
                        : "")
                << "\n";
        }
    }
    for (const auto& conn : plan.connections) {
        out << "connection: " << conn.from_instance << "." << conn.from_port
            << " -> " << conn.to_instance << "." << conn.to_port << " type="
            << conn.message_type << " host="
            << (conn.host_instance.empty() ? "<root>" : conn.host_instance)
            << (conn.shadow ? " [shadow]" : "") << " pool="
            << conn.pool_capacity << "\n";
    }
    for (const auto& remote : plan.remotes) {
        out << "remote: " << remote.name << " bands=" << remote.bands
            << " transport="
            << (remote.transport == RemoteTransport::kShm ? "shm" : "tcp");
        if (remote.host != "127.0.0.1") out << " host=" << remote.host;
        out << "\n";
        for (const auto& r : remote.exports) {
            out << "  export " << r.route << ": " << r.instance << "."
                << r.port << " type=" << r.message_type << " band=";
            if (r.policy.band >= 0) {
                out << r.policy.band;
            } else {
                out << "auto";
            }
            out << "\n";
        }
        for (const auto& r : remote.imports) {
            out << "  import " << r.route << ": " << r.instance << "."
                << r.port << " type=" << r.message_type << "\n";
        }
    }
}

} // namespace

int compadresc_main(const std::vector<std::string>& args_in, std::ostream& out,
                    std::ostream& err) {
    std::vector<std::string> args = args_in;
    const std::string output_dir = take_output_dir(args);
    if (args.empty()) {
        print_usage(err);
        return kUsage;
    }
    const std::string command = args.front();
    args.erase(args.begin());

    try {
        if (command == "check") {
            if (args.empty() || args.size() > 2) {
                print_usage(err);
                return kUsage;
            }
            const CdlModel cdl = parse_cdl_file(args[0]);
            out << "CDL ok: " << cdl.components.size() << " component class(es)\n";
            if (args.size() == 2) {
                const CclModel ccl = parse_ccl_file(args[1]);
                const AssemblyPlan plan = validate_and_plan(cdl, ccl);
                out << "CCL ok: " << plan.components.size()
                    << " instance(s), " << plan.connections.size()
                    << " connection(s), " << plan.remotes.size()
                    << " remote(s)\n";
            }
            return kOk;
        }
        if (command == "skeletons") {
            if (args.size() != 1 || output_dir.empty()) {
                print_usage(err);
                return kUsage;
            }
            const CdlModel cdl = parse_cdl_file(args[0]);
            std::filesystem::create_directories(output_dir);
            for (const auto& [name, content] : generate_skeletons(cdl)) {
                const int rc = write_file(
                    std::filesystem::path(output_dir) / name, content, out, err);
                if (rc != kOk) return rc;
            }
            return kOk;
        }
        if (command == "plan") {
            if (args.size() != 2) {
                print_usage(err);
                return kUsage;
            }
            const CdlModel cdl = parse_cdl_file(args[0]);
            const CclModel ccl = parse_ccl_file(args[1]);
            dump_plan(validate_and_plan(cdl, ccl), out);
            return kOk;
        }
        if (command == "diff" || command == "--diff") {
            if (args.size() != 3) {
                print_usage(err);
                return kUsage;
            }
            const CdlModel cdl = parse_cdl_file(args[0]);
            const AssemblyPlan from =
                validate_and_plan(cdl, parse_ccl_file(args[1]));
            const AssemblyPlan to =
                validate_and_plan(cdl, parse_ccl_file(args[2]));
            try {
                out << core::describe(diff_plans(from, to));
                return kOk;
            } catch (const ValidationError& e) {
                err << e.what() << "\n";
                return kInvalidTransition;
            }
        }
        if (command == "main-stub") {
            if (args.size() != 2 || output_dir.empty()) {
                print_usage(err);
                return kUsage;
            }
            const CdlModel cdl = parse_cdl_file(args[0]);
            const CclModel ccl = parse_ccl_file(args[1]);
            const AssemblyPlan plan = validate_and_plan(cdl, ccl);
            std::filesystem::create_directories(output_dir);
            return write_file(std::filesystem::path(output_dir) /
                                  (plan.application_name + "_main.cpp"),
                              generate_main_stub(plan), out, err);
        }
        if (command == "canon") {
            // Canonical re-emission: parse and write the documents back in
            // normalized form (stable ordering, consistent indentation).
            if (args.empty() || args.size() > 2) {
                print_usage(err);
                return kUsage;
            }
            out << emit_cdl(parse_cdl_file(args[0]));
            if (args.size() == 2) {
                out << emit_ccl(parse_ccl_file(args[1]));
            }
            return kOk;
        }
        print_usage(err);
        return kUsage;
    } catch (const ValidationError& e) {
        err << e.what() << "\n";
        return kInvalid;
    } catch (const std::exception& e) {
        err << "compadresc: " << e.what() << "\n";
        return kInvalid;
    }
}

} // namespace compadres::compiler
