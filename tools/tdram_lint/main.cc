/**
 * @file
 * tdram_lint CLI (DESIGN.md §15).
 *
 *   tdram_lint [--root DIR] [--rules] [FILE...]
 *
 * With no FILE arguments, lints every .hh/.cc/.cpp under the root's
 * src/, bench/, examples/ and tools/ trees (tests/ is exempt: it
 * holds the lint fixtures themselves).
 * Paths are reported repo-relative. Exit 0 when clean, 1 when any
 * unsuppressed finding remains, 2 on usage/IO errors.
 */

#include "lint.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using tsim::lint::LintFinding;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: tdram_lint [--root DIR] [--rules] [FILE...]\n");
    return 2;
}

bool
readFile(const fs::path &p, std::string &out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Path of @p p relative to @p root, '/'-separated. */
std::string
relPath(const fs::path &p, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::relative(p, root, ec);
    std::string s = (ec || rel.empty()) ? p.generic_string()
                                        : rel.generic_string();
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = ".";
    bool printRules = false;
    std::vector<fs::path> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root") {
            if (++i >= argc)
                return usage();
            root = argv[i];
        } else if (arg == "--rules") {
            printRules = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            files.emplace_back(arg);
        }
    }

    if (printRules) {
        std::printf("%-14s %-42s %s\n", "RULE", "SCOPE", "SUMMARY");
        for (const auto &r : tsim::lint::lintRules())
            std::printf("%-14s %-42s %s\n", r.id, r.scope, r.summary);
        return 0;
    }

    if (files.empty()) {
        static const char *const kTrees[] = {"src", "bench", "examples",
                                             "tools"};
        for (const char *t : kTrees) {
            const fs::path dir = root / t;
            if (!fs::exists(dir))
                continue;
            for (const auto &e :
                 fs::recursive_directory_iterator(dir)) {
                if (!e.is_regular_file())
                    continue;
                if (tsim::lint::lintablePath(
                        e.path().generic_string()))
                    files.push_back(e.path());
            }
        }
        std::sort(files.begin(), files.end());
        if (files.empty()) {
            std::fprintf(stderr,
                         "tdram_lint: nothing to lint under %s\n",
                         root.generic_string().c_str());
            return 2;
        }
    }

    std::size_t findings = 0;
    std::size_t checked = 0;
    for (const fs::path &f : files) {
        std::string content;
        if (!readFile(f, content)) {
            std::fprintf(stderr, "tdram_lint: cannot read %s\n",
                         f.generic_string().c_str());
            return 2;
        }
        ++checked;
        for (const LintFinding &fd :
             tsim::lint::lintFile(relPath(f, root), content)) {
            std::printf("%s\n", tsim::lint::formatFinding(fd).c_str());
            ++findings;
        }
    }

    if (findings) {
        std::printf("FAIL: %zu finding%s in %zu files (rules: "
                    "tdram_lint --rules; suppress with "
                    "// tdram-lint:allow(rule): rationale)\n",
                    findings, findings == 1 ? "" : "s", checked);
        return 1;
    }
    std::printf("PASS: tdram_lint clean over %zu files\n", checked);
    return 0;
}
