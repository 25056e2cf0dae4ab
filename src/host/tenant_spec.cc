#include "host/tenant_spec.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include "policy/policy_factory.hh"
#include "workload/cloud_apps.hh"

namespace thermostat
{

namespace
{

/** All workload names a tenant may use, in listing order. */
std::vector<std::string>
tenantWorkloadNames()
{
    std::vector<std::string> names = allWorkloadNames();
    names.push_back("redis-bursty");
    names.push_back("trace:<path>");
    return names;
}

std::string
listingError(const std::string &what, const std::string &name,
             const std::vector<std::string> &known)
{
    std::string out =
        "unknown " + what + " '" + name + "'; known:";
    for (const std::string &k : known) {
        out += "\n  " + k;
    }
    return out;
}

bool
validIdChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
           c == '_' || c == '-' || c == '.';
}

bool
parseDouble(const std::string &text, double *out)
{
    if (text.empty()) {
        return false;
    }
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0') {
        return false;
    }
    *out = v;
    return true;
}

bool
parseCount(const std::string &text, unsigned *out)
{
    if (text.empty() || text[0] == '-' || text[0] == '+') {
        return false;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long v = std::strtoul(text.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' ||
        v > 100000UL) {
        return false;
    }
    *out = static_cast<unsigned>(v);
    return true;
}

std::string
lineError(std::size_t line_no, const std::string &message)
{
    return "--tenants line " + std::to_string(line_no) + ": " +
           message;
}

/** Parse one `key=value ...` tenant line. */
bool
parseTenantLine(const std::string &line, std::size_t line_no,
                TenantSpec *spec, std::string *error)
{
    std::size_t pos = 0;
    bool saw_id = false;
    bool saw_workload = false;
    while (pos < line.size()) {
        while (pos < line.size() &&
               std::isspace(static_cast<unsigned char>(line[pos]))) {
            ++pos;
        }
        if (pos >= line.size()) {
            break;
        }
        std::size_t end = pos;
        while (end < line.size() &&
               !std::isspace(
                   static_cast<unsigned char>(line[end]))) {
            ++end;
        }
        const std::string token = line.substr(pos, end - pos);
        pos = end;
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
            *error = lineError(line_no,
                               "expected key=value, got '" + token +
                                   "'");
            return false;
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (value.empty()) {
            *error = lineError(line_no,
                               "empty value for '" + key + "'");
            return false;
        }
        if (key == "id") {
            for (const char c : value) {
                if (!validIdChar(c)) {
                    *error = lineError(
                        line_no,
                        "tenant id '" + value +
                            "' has characters outside "
                            "[A-Za-z0-9_.-]");
                    return false;
                }
            }
            spec->id = value;
            saw_id = true;
        } else if (key == "workload") {
            if (!isTenantWorkloadName(value)) {
                *error = lineError(
                    line_no, listingError("workload", value,
                                          tenantWorkloadNames()));
                return false;
            }
            spec->workload = value;
            saw_workload = true;
        } else if (key == "policy") {
            if (!PolicyFactory::known(value)) {
                *error = lineError(
                    line_no, listingError("policy", value,
                                          PolicyFactory::names()));
                return false;
            }
            spec->policy = value;
        } else if (key == "cold-fraction") {
            double v = 0.0;
            if (!parseDouble(value, &v) || v < 0.0 || v > 1.0) {
                *error = lineError(line_no,
                                   "cold-fraction '" + value +
                                       "' is not in [0, 1]");
                return false;
            }
            spec->coldFraction = v;
        } else if (key == "target") {
            double v = 0.0;
            if (!parseDouble(value, &v) || v <= 0.0 || v > 100.0) {
                *error = lineError(line_no,
                                   "target '" + value +
                                       "' is not a percentage in "
                                       "(0, 100]");
                return false;
            }
            spec->targetPct = v;
        } else if (key == "count") {
            unsigned v = 0;
            if (!parseCount(value, &v) || v == 0) {
                *error = lineError(line_no,
                                   "count '" + value +
                                       "' is not a positive "
                                       "integer");
                return false;
            }
            spec->count = v;
        } else {
            *error = lineError(
                line_no, listingError("key", key,
                                      {"id", "workload", "policy",
                                       "target", "cold-fraction",
                                       "count"}));
            return false;
        }
    }
    if (!saw_id) {
        *error = lineError(line_no, "missing id=");
        return false;
    }
    if (!saw_workload) {
        *error = lineError(line_no, "missing workload=");
        return false;
    }
    return true;
}

} // namespace

bool
isTenantWorkloadName(const std::string &name)
{
    const char kTracePrefix[] = "trace:";
    if (name.compare(0, sizeof(kTracePrefix) - 1, kTracePrefix) ==
        0) {
        return name.size() > sizeof(kTracePrefix) - 1;
    }
    return isWorkloadName(name);
}

bool
parseTenantSpecs(const std::string &text,
                 std::vector<TenantSpec> *out, std::string *error)
{
    std::vector<TenantSpec> specs;
    std::size_t start = 0;
    std::size_t line_no = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            end = text.size();
        }
        std::string line = text.substr(start, end - start);
        ++line_no;
        const bool last = end == text.size();
        start = end + 1;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        const bool blank =
            line.find_first_not_of(" \t\r") == std::string::npos;
        if (!blank) {
            TenantSpec spec;
            if (!parseTenantLine(line, line_no, &spec, error)) {
                return false;
            }
            specs.push_back(std::move(spec));
        }
        if (last) {
            break;
        }
    }
    if (specs.empty()) {
        *error = "--tenants config defines no tenants";
        return false;
    }
    *out = std::move(specs);
    return true;
}

bool
parseTenantSpecFile(const std::string &path,
                    std::vector<TenantSpec> *out,
                    std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        *error = "cannot open --tenants file '" + path +
                 "': " + std::strerror(errno);
        return false;
    }
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        text.append(buf, n);
    }
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
        *error = "error reading --tenants file '" + path + "'";
        return false;
    }
    return parseTenantSpecs(text, out, error);
}

bool
expandTenantSpecs(const std::vector<TenantSpec> &in,
                  std::vector<TenantSpec> *out, std::string *error)
{
    std::vector<TenantSpec> expanded;
    std::set<std::string> ids;
    for (const TenantSpec &spec : in) {
        for (unsigned i = 0; i < spec.count; ++i) {
            TenantSpec one = spec;
            one.count = 1;
            if (spec.count > 1) {
                one.id = spec.id + "." + std::to_string(i);
            }
            if (!ids.insert(one.id).second) {
                *error = "duplicate tenant id '" + one.id + "'";
                return false;
            }
            expanded.push_back(std::move(one));
        }
    }
    *out = std::move(expanded);
    return true;
}

} // namespace thermostat
