/**
 * @file
 * wormnet-lint: static determinism checker.
 *
 * Guards the repo's bitwise-reproducibility invariant at compile
 * time: byte-identical golden tables at any --jobs, bit-for-bit
 * checkpoint resume, and zero-false-positive DWFG verdicts all
 * assume that no committed state, stats or stdout ever depends on
 * hash-iteration order or wall clocks. This tool makes those
 * conventions diagnosable instead of tribal. See
 * docs/STATIC_ANALYSIS.md for the check catalogue and the
 * suppression policy.
 *
 * The frontend lexes and models the C++ itself, with zero external
 * dependencies — see lexer.hh / model.hh for the accuracy contract.
 *
 * Usage:
 *   wormnet-lint [options] <file-or-dir>...
 *   wormnet-lint -p build src bench tests   # compile_commands mode
 *
 * Options:
 *   -p <dir>          read <dir>/compile_commands.json and lint every
 *                     listed source plus headers next to them
 *   --check=a,b       run only the named families
 *                     (nondet-iter, banned-api)
 *   --exclude=substr  skip paths containing substr (repeatable)
 *   --no-fixits       omit fix-it hints
 *   --json            machine-readable output
 *   --list-checks     print the check families and exit
 *
 * Exit status: 0 clean, 1 findings, 2 usage/IO error.
 */

#include "checks.hh"
#include "lexer.hh"
#include "model.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace wormnet_lint;

namespace
{

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".cxx" ||
           ext == ".hh" || ext == ".hpp" || ext == ".h";
}

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Pull the "file" entries out of compile_commands.json. A linter-
 *  grade scan, not a JSON parser: entries are written by CMake with
 *  predictable quoting. */
std::vector<std::string>
compileCommandsFiles(const fs::path &jsonPath)
{
    std::vector<std::string> out;
    const std::string text = readFile(jsonPath);
    std::size_t pos = 0;
    while ((pos = text.find("\"file\"", pos)) != std::string::npos) {
        pos = text.find(':', pos);
        if (pos == std::string::npos)
            break;
        pos = text.find('"', pos);
        if (pos == std::string::npos)
            break;
        const std::size_t end = text.find('"', pos + 1);
        if (end == std::string::npos)
            break;
        out.push_back(text.substr(pos + 1, end - pos - 1));
        pos = end + 1;
    }
    return out;
}

void
printJsonEscaped(std::ostream &os, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (c == '\n')
            os << "\\n";
        else
            os << c;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> inputs;
    std::vector<std::string> excludes;
    std::string buildDir;
    CheckOptions opt;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "-p") {
            if (++i >= argc) {
                std::cerr << "wormnet-lint: -p needs a directory\n";
                return 2;
            }
            buildDir = argv[i];
        } else if (a.rfind("--check=", 0) == 0) {
            std::string list = a.substr(8);
            std::size_t start = 0;
            while (start <= list.size()) {
                std::size_t comma = list.find(',', start);
                if (comma == std::string::npos)
                    comma = list.size();
                const std::string c =
                    list.substr(start, comma - start);
                if (!c.empty())
                    opt.enabled.insert(c);
                start = comma + 1;
            }
        } else if (a.rfind("--exclude=", 0) == 0) {
            excludes.push_back(a.substr(10));
        } else if (a == "--no-fixits") {
            opt.fixits = false;
        } else if (a == "--strict-suppressions") {
            opt.strictSuppressions = true;
        } else if (a == "--json") {
            json = true;
        } else if (a == "--list-checks") {
            for (const char *f : kCheckFamilies)
                std::cout << f << "\n";
            return 0;
        } else if (a == "--help" || a == "-h") {
            std::cout
                << "usage: wormnet-lint [-p <builddir>] "
                   "[--check=a,b] [--exclude=substr] [--json] "
                   "[--no-fixits] <file-or-dir>...\n";
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            std::cerr << "wormnet-lint: unknown option " << a << "\n";
            return 2;
        } else {
            inputs.push_back(a);
        }
    }

    // Gather the file set: explicit files, recursive directories,
    // and/or everything compile_commands.json names (plus the
    // headers sitting next to those sources — headers never appear
    // in the database but carry the class/member declarations).
    std::set<std::string> files;
    std::set<std::string> headerDirs;
    if (!buildDir.empty()) {
        const fs::path cc =
            fs::path(buildDir) / "compile_commands.json";
        if (!fs::exists(cc)) {
            std::cerr << "wormnet-lint: " << cc.string()
                      << " not found (configure with "
                         "CMAKE_EXPORT_COMPILE_COMMANDS=ON)\n";
            return 2;
        }
        for (const std::string &f : compileCommandsFiles(cc)) {
            files.insert(f);
            headerDirs.insert(fs::path(f).parent_path().string());
        }
        for (const std::string &d : headerDirs) {
            std::error_code ec;
            for (fs::directory_iterator it(d, ec), end;
                 !ec && it != end; it.increment(ec)) {
                if (it->is_regular_file() &&
                    isSourceFile(it->path()))
                    files.insert(it->path().string());
            }
        }
    }
    for (const std::string &in : inputs) {
        std::error_code ec;
        if (fs::is_directory(in, ec)) {
            for (fs::recursive_directory_iterator it(in, ec), end;
                 !ec && it != end; it.increment(ec)) {
                if (it->is_regular_file() &&
                    isSourceFile(it->path()))
                    files.insert(it->path().string());
            }
        } else if (fs::exists(in, ec)) {
            files.insert(in);
        } else {
            std::cerr << "wormnet-lint: no such file or directory: "
                      << in << "\n";
            return 2;
        }
    }
    if (files.empty()) {
        std::cerr << "wormnet-lint: no input files (pass paths or "
                     "-p <builddir>)\n";
        return 2;
    }

    Model model;
    for (const std::string &f : files) {
        bool skip = false;
        for (const std::string &ex : excludes)
            if (f.find(ex) != std::string::npos)
                skip = true;
        if (skip)
            continue;
        buildFileModel(model, lex(f, readFile(f)));
    }

    const std::vector<Diagnostic> diags = runChecks(model, opt);

    std::size_t errors = 0, warnings = 0;
    if (json) {
        std::cout << "[";
        bool first = true;
        for (const Diagnostic &d : diags) {
            if (!first)
                std::cout << ",";
            first = false;
            std::cout << "\n  {\"file\": \"";
            printJsonEscaped(std::cout, d.file);
            std::cout << "\", \"line\": " << d.line
                      << ", \"col\": " << d.col << ", \"severity\": \""
                      << (d.severity == Severity::Error ? "error"
                                                        : "warning")
                      << "\", \"check\": \"" << d.check
                      << "\", \"kind\": \"" << d.kind
                      << "\", \"message\": \"";
            printJsonEscaped(std::cout, d.message);
            std::cout << "\"";
            if (!d.fixit.empty()) {
                std::cout << ", \"fixit\": \"";
                printJsonEscaped(std::cout, d.fixit);
                std::cout << "\"";
            }
            std::cout << "}";
        }
        std::cout << "\n]\n";
    }
    for (const Diagnostic &d : diags) {
        const bool err = d.severity == Severity::Error;
        (err ? errors : warnings) += 1;
        if (json)
            continue;
        std::cout << d.file << ":" << d.line << ":" << d.col << ": "
                  << (err ? "error" : "warning") << ": [" << d.check
                  << (d.kind.empty() ? "" : "/" + d.kind) << "] "
                  << d.message << "\n";
        if (!d.fixit.empty())
            std::cout << d.file << ":" << d.line
                      << ": fixit: " << d.fixit << "\n";
        if (!d.note.empty())
            std::cout << d.file << ":" << d.line
                      << ": note: " << d.note << "\n";
    }
    if (!json)
        std::cerr << "wormnet-lint: " << model.files.size()
                  << " files, " << errors << " error(s), " << warnings
                  << " warning(s)\n";

    return errors != 0 ? 1 : 0;
}
