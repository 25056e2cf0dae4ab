/**
 * @file
 * thermostat_lint driver: collects files, runs the per-file scanner
 * in parallel over the shared ThreadPool, evaluates the cross-TU
 * project rules, applies the suppression baseline and renders
 * text/JSON/SARIF.  Every run scans every file.
 *
 * The rule implementations live in the lint library next to this
 * file: lint_source (tokenizer), lint_rules (registry + baseline),
 * lint_scanner (per-file pass), lint_project (cross-TU passes),
 * lint_report (renderers).
 *
 * Exit status: 0 clean, 1 findings, 2 usage/environment error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "lint_project.hh"
#include "lint_report.hh"
#include "lint_rules.hh"
#include "lint_scanner.hh"
#include "lint_source.hh"

namespace fs = std::filesystem;

using namespace thermostat;
using namespace thermostat::lint;

namespace
{

bool
lintableExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp" || ext == ".h";
}

/** Directories never descended into on a tree walk.  lint_fixtures
 * holds deliberate violations for tests/test_lint.cc; explicitly
 * listed files are still scanned. */
bool
skippedDir(const fs::path &p)
{
    const std::string name = p.filename().string();
    return name == "lint_fixtures" || name == ".git" ||
           name.rfind("build", 0) == 0;
}

void
collectFiles(const fs::path &path, std::vector<fs::path> *out)
{
    std::error_code ec;
    if (fs::is_regular_file(path, ec)) {
        if (lintableExtension(path)) {
            out->push_back(path);
        }
        return;
    }
    if (!fs::is_directory(path, ec)) {
        return;
    }
    std::vector<fs::path> sub;
    for (const auto &entry : fs::directory_iterator(path, ec)) {
        sub.push_back(entry.path());
    }
    std::sort(sub.begin(), sub.end());
    for (const fs::path &p : sub) {
        if (fs::is_directory(p, ec)) {
            if (!skippedDir(p)) {
                collectFiles(p, out);
            }
        } else if (lintableExtension(p)) {
            out->push_back(p);
        }
    }
}

std::string
relativeTo(const fs::path &file, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    if (ec || rel.empty()) {
        rel = file;
    }
    return rel.generic_string();
}

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: thermostat_lint [--root DIR] [--baseline FILE]\n"
        "                       [--format text|json|sarif] [--json]\n"
        "                       [--out FILE] [--ci]\n"
        "                       [--list-rules] [paths...]\n"
        "\n"
        "Scans paths (default: src bench tools tests under --root)\n"
        "for determinism/concurrency/convention violations, then\n"
        "runs the cross-TU project rules (subsystem layering DAG,\n"
        "RNG-stream discipline, metric/trace schema audit,\n"
        "merge-barrier escape).  --ci promotes unused baseline\n"
        "entries to errors.  Exit: 0 clean, 1 findings, 2 error.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = ".";
    fs::path baseline_path;
    bool baseline_set = false;
    Format format = Format::Text;
    bool ci = false;
    std::string out_path;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "thermostat_lint: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root") {
            root = next("--root");
        } else if (arg == "--baseline") {
            baseline_path = next("--baseline");
            baseline_set = true;
        } else if (arg == "--json") {
            format = Format::Json;
        } else if (arg == "--format") {
            const std::string value = next("--format");
            if (value == "text") {
                format = Format::Text;
            } else if (value == "json") {
                format = Format::Json;
            } else if (value == "sarif") {
                format = Format::Sarif;
            } else {
                std::fprintf(stderr,
                             "thermostat_lint: unknown format %s\n",
                             value.c_str());
                return 2;
            }
        } else if (arg == "--out") {
            out_path = next("--out");
        } else if (arg == "--ci") {
            ci = true;
        } else if (arg == "--list-rules") {
            for (const RuleInfo &r : rules()) {
                std::printf("%-24s %s\n", r.id, r.summary);
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "thermostat_lint: unknown option %s\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        } else {
            paths.push_back(arg);
        }
    }

    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
        std::fprintf(stderr,
                     "thermostat_lint: --root %s: not a directory\n",
                     root.string().c_str());
        return 2;
    }
    if (paths.empty()) {
        for (const char *d : {"src", "bench", "tools", "tests"}) {
            if (fs::is_directory(root / d, ec)) {
                paths.push_back(d);
            }
        }
    }

    Baseline baseline;
    if (!baseline_set) {
        baseline_path = root / "tools" / "lint" / "lint_baseline.txt";
    }
    if (fs::exists(baseline_path, ec)) {
        if (!loadBaseline(baseline_path.string(), &baseline)) {
            std::fprintf(stderr,
                         "thermostat_lint: cannot read baseline %s\n",
                         baseline_path.string().c_str());
            return 2;
        }
    } else if (baseline_set) {
        std::fprintf(stderr,
                     "thermostat_lint: baseline %s not found\n",
                     baseline_path.string().c_str());
        return 2;
    }

    std::vector<fs::path> files;
    for (const std::string &p : paths) {
        fs::path full = fs::path(p).is_absolute() ? fs::path(p)
                                                  : root / p;
        if (!fs::exists(full, ec)) {
            std::fprintf(stderr,
                         "thermostat_lint: %s: no such path\n",
                         full.string().c_str());
            return 2;
        }
        collectFiles(full, &files);
    }

    // Per-file pass: parallel over the shared pool, results written
    // into index-disjoint slots so ordering stays deterministic.
    std::vector<FileFacts> allFacts(files.size());
    std::vector<std::string> readErrors(files.size());
    {
        ThreadPool pool;
        pool.parallelFor(
            0, files.size(), 1, [&](std::size_t i) {
                std::ifstream in(files[i], std::ios::binary);
                if (!in) {
                    readErrors[i] = files[i].string();
                    return;
                }
                std::ostringstream buf;
                buf << in.rdbuf();
                allFacts[i] = scanFile(relativeTo(files[i], root),
                                       buf.str());
            });
        pool.wait();
    }
    for (const std::string &err : readErrors) {
        if (!err.empty()) {
            std::fprintf(stderr,
                         "thermostat_lint: cannot read %s\n",
                         err.c_str());
            return 2;
        }
    }
    // Project passes run over every file's facts; the DESIGN.md
    // catalogs are re-read every run.
    std::vector<Finding> combined;
    for (const FileFacts &facts : allFacts) {
        combined.insert(combined.end(), facts.lineFindings.begin(),
                        facts.lineFindings.end());
    }
    const DesignCatalog catalog =
        loadDesignCatalog((root / "DESIGN.md").string());
    runProjectRules(allFacts, catalog, &combined);

    Report report;
    report.ci = ci;
    report.filesScanned = files.size();
    for (Finding &f : combined) {
        const std::string key = baselineKey(f.rule, f.file, f.snippet);
        const auto it = baseline.entries.find(key);
        if (it != baseline.entries.end()) {
            baseline.used.insert(key);
            ++report.baselined;
        } else {
            report.findings.push_back(std::move(f));
        }
    }
    const std::string baselineRel =
        relativeTo(baseline_path, root);
    for (const auto &entry : baseline.entries) {
        if (baseline.used.count(entry.first)) {
            continue;
        }
        report.unusedBaseline.emplace_back(entry.first,
                                           entry.second);
        if (ci) {
            report.findings.push_back(
                {baselineRel, entry.second, "unused-baseline-entry",
                 "baseline entry no longer matches any finding; "
                 "prune it",
                 entry.first});
        }
    }
    std::sort(report.findings.begin(), report.findings.end(),
              findingLess);

    const std::string rendered = render(report, format);
    if (!out_path.empty()) {
        std::ofstream out(out_path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr,
                         "thermostat_lint: cannot write %s\n",
                         out_path.c_str());
            return 2;
        }
        out << rendered;
    } else {
        std::fputs(rendered.c_str(), stdout);
    }
    return report.findings.empty() ? 0 : 1;
}
