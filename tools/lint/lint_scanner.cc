#include "lint_scanner.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <regex>

#include "lint_source.hh"

namespace thermostat
{
namespace lint
{

namespace
{

// ---------------------------------------------------------------------------
// Suppression-context helpers
// ---------------------------------------------------------------------------

/** Rules named by `lint:allow(<rule>)` on line @p index or the line
 * immediately above it (the marker's two documented placements). */
std::set<std::string>
allowsAt(const std::vector<LineView> &lines, std::size_t index)
{
    static const std::regex kAllow(R"(lint:allow\(([a-z0-9-]+)\))");
    std::set<std::string> out;
    for (std::size_t i = index == 0 ? index : index - 1;
         i <= index && i < lines.size(); ++i) {
        auto begin = std::sregex_iterator(lines[i].raw.begin(),
                                          lines[i].raw.end(), kAllow);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            out.insert((*it)[1]);
        }
    }
    return out;
}

bool
markedAt(const std::vector<LineView> &lines, std::size_t index,
         const char *marker)
{
    if (lines[index].raw.find(marker) != std::string::npos) {
        return true;
    }
    return index > 0 &&
           lines[index - 1].raw.find(marker) != std::string::npos;
}

FactSite
siteAt(const std::vector<LineView> &lines, std::size_t index)
{
    FactSite site;
    site.line = index + 1;
    site.snippet = trim(lines[index].raw);
    site.allows = allowsAt(lines, index);
    site.shardMarked = markedAt(lines, index, "// shard:");
    site.rngMarked = markedAt(lines, index, "// rng:");
    return site;
}

// ---------------------------------------------------------------------------
// Line rules (the original scanner's rule set)
// ---------------------------------------------------------------------------

const std::set<std::string> kTraceCategories = {
    "all",     "none",    "sample", "poison", "classify",
    "migrate", "correct", "phase",  "policy"};

bool
validMetricLiteral(const std::string &lit)
{
    // Leading '.' is the "suffix appended to a prefix" form
    // (registry.addCallback(prefix + ".ticks", ...)).
    static const std::regex re(
        R"(^\.?[a-z0-9_]+([./][a-z0-9_]+)*$)");
    return std::regex_match(lit, re);
}

bool
validTraceCategoryList(const std::string &lit)
{
    std::size_t start = 0;
    while (start <= lit.size()) {
        std::size_t end = lit.find(',', start);
        if (end == std::string::npos) {
            end = lit.size();
        }
        const std::string token = lit.substr(start, end - start);
        if (!token.empty() &&
            kTraceCategories.find(token) == kTraceCategories.end()) {
            return false;
        }
        if (end == lit.size()) {
            break;
        }
        start = end + 1;
    }
    return true;
}

/**
 * mutable-global helper: true when the statement starting at line
 * @p index with a bare `static` keyword declares a variable rather
 * than a function.  A declarator whose first `(`/`=`/`;` terminator
 * is `(` is a function (or ctor-style init, which this tree does not
 * use for statics).  The repo's gem5-style declarations break the
 * line after the return type, so continuation lines are joined until
 * a terminator appears.
 */
bool
staticDeclaresVariable(const std::vector<LineView> &lines,
                       std::size_t index)
{
    std::string code = lines[index].code;
    for (std::size_t next = index + 1;
         next < lines.size() && next < index + 4 &&
         code.find_first_of("=;({") == std::string::npos;
         ++next) {
        code += " " + lines[next].code;
    }
    const std::size_t paren = code.find('(');
    const std::size_t assign = code.find('=');
    const std::size_t semi = code.find(';');
    const std::size_t first_end = std::min(assign, semi);
    if (paren != std::string::npos && paren < first_end) {
        return false; // function declaration/definition
    }
    return true;
}

/** Exact-path membership in a rule's include list (the sharded-set
 * and merge-barrier scopes list whole files, not prefixes). */
bool
inScopeList(const char *rule_id, const std::string &rel)
{
    const RuleInfo *rule = findRule(rule_id);
    return rule && ruleApplies(*rule, rel);
}

void
scanLine(const std::string &rel, const std::vector<LineView> &lines,
         std::size_t index, FileFacts *facts)
{
    const LineView &line = lines[index];
    const std::size_t lineno = index + 1;
    struct Pattern
    {
        const char *rule;
        std::regex re;
        const char *what;
    };
    // Compiled once; matched against the code view only, so
    // comments and literal bodies can't trigger them.
    static const std::vector<Pattern> kPatterns = [] {
        std::vector<Pattern> p;
        p.push_back({"ban-random-device",
                     std::regex(R"(\bstd\s*::\s*random_device\b)"),
                     "std::random_device"});
        p.push_back({"ban-c-random",
                     std::regex(R"(\b(rand|srand|random|srandom|drand48|lrand48)\s*\()"),
                     "C random API"});
        p.push_back({"ban-wall-clock",
                     std::regex(R"(\b(system_clock|steady_clock|high_resolution_clock)\b)"),
                     "std::chrono wall clock"});
        p.push_back({"ban-wall-clock",
                     std::regex(R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\))"),
                     "time()"});
        p.push_back({"ban-wall-clock",
                     std::regex(R"(\b(gettimeofday|clock_gettime)\s*\()"),
                     "POSIX wall clock"});
        p.push_back({"ban-naked-thread",
                     std::regex(R"(\bstd\s*::\s*(thread|jthread|async)\b)"),
                     "raw thread primitive"});
        p.push_back({"ban-naked-thread",
                     std::regex(R"(\bpthread_create\s*\()"),
                     "pthread_create"});
        p.push_back({"unsafe-c-api",
                     std::regex(R"(\b(strcpy|strcat|sprintf|vsprintf|gets|strtok)\s*\()"),
                     "unbounded C string API"});
        p.push_back({"hot-path-unordered-map",
                     std::regex(R"(\bstd\s*::\s*unordered_map\s*<)"),
                     "std::unordered_map"});
        return p;
    }();

    auto add = [&](const char *rule, const std::string &message) {
        const RuleInfo *info = findRule(rule);
        if (!info || !ruleApplies(*info, rel)) {
            return;
        }
        if (allowsAt(lines, index).count(rule)) {
            return;
        }
        facts->lineFindings.push_back(
            {rel, lineno, rule, message, trim(line.raw)});
    };

    for (const Pattern &p : kPatterns) {
        if (std::regex_search(line.code, p.re)) {
            const RuleInfo *info = findRule(p.rule);
            add(p.rule, std::string(p.what) + ": " +
                            (info ? info->summary : ""));
        }
    }

    // mutable-global: `static` locals/members that are not
    // const/constexpr, plus namespace-scope g_* definitions.
    static const std::regex kStatic(R"(^\s*static\s+)");
    static const std::regex kStaticConst(
        R"(^\s*static\s+(const|constexpr|thread_local\s+const)\b)");
    if (std::regex_search(line.code, kStatic) &&
        !std::regex_search(line.code, kStaticConst) &&
        staticDeclaresVariable(lines, index)) {
        add("mutable-global",
            "mutable static: " +
                std::string(findRule("mutable-global")->summary));
    }
    static const std::regex kGlobal(
        R"(^\s*[A-Za-z_][\w:<>,\s*&]*[\s*&]g_\w+\s*(=|;))");
    static const std::regex kConstGlobal(R"(\b(const|constexpr)\b)");
    if (std::regex_search(line.code, kGlobal) &&
        !std::regex_search(line.code, kConstGlobal)) {
        add("mutable-global",
            "mutable g_* global: " +
                std::string(findRule("mutable-global")->summary));
    }

    // metric-name-style: literals at registration call sites.
    const bool metricSite =
        line.code.find(".counter(") != std::string::npos ||
        line.code.find(".gauge(") != std::string::npos ||
        line.code.find(".histogram(") != std::string::npos ||
        line.code.find("addCallback(") != std::string::npos;
    if (metricSite) {
        for (const std::string &lit : line.literals) {
            if (!validMetricLiteral(lit)) {
                add("metric-name-style",
                    "metric name \"" + lit + "\" is not lowercase "
                    "dot/slash-separated (component/name.leaf)");
            } else {
                MetricFact m;
                m.at = siteAt(lines, index);
                m.literal = lit;
                facts->metrics.push_back(std::move(m));
            }
        }
    }
    if (line.code.find("registerMetrics(") != std::string::npos) {
        for (const std::string &lit : line.literals) {
            if (validMetricLiteral(lit) && lit[0] != '.') {
                MetricFact m;
                m.at = siteAt(lines, index);
                m.literal = lit;
                m.prefixArg = true;
                facts->metrics.push_back(std::move(m));
            }
        }
    }

    // trace-category: literal masks must use registered categories.
    if (line.code.find("parseEventMask(") != std::string::npos) {
        for (const std::string &lit : line.literals) {
            if (!validTraceCategoryList(lit)) {
                add("trace-category",
                    "\"" + lit + "\" contains a category outside "
                    "the registered set (see obs/event_trace.hh)");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fact extraction for the project passes
// ---------------------------------------------------------------------------

/** Member declaration in a sharded header: fills facts->members and
 * fires shard-unsynced-state when the member is unclassified. */
void
scanShardMember(const std::string &rel,
                const std::vector<LineView> &lines, std::size_t index,
                FileFacts *facts)
{
    const LineView &line = lines[index];
    static const std::regex kMemberDecl(
        R"(^\s*[A-Za-z_][\w:<>,*&\s\[\]]*[\s*&](\w+_)\s*[;={])");
    static const std::regex kDeclExcluded(
        R"(^\s*(return|delete|throw|using|typedef|friend|template|)"
        R"(case|goto|if|while|for|else|public|private|protected|)"
        R"(const|constexpr|static\s+const|static\s+constexpr)\b)");
    std::smatch m;
    if (!std::regex_search(line.code, m, kMemberDecl) ||
        std::regex_search(line.code, kDeclExcluded)) {
        return;
    }
    MemberFact member;
    member.at = siteAt(lines, index);
    member.name = m[1];
    member.guarded =
        line.code.find("TSTAT_GUARDED_BY") != std::string::npos;
    static const std::regex kRngType(R"(^\s*Rng[\s&])");
    member.rngTyped = std::regex_search(line.code, kRngType);
    std::string lowered = member.name;
    std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    member.laneNamed = lowered.find("lane") != std::string::npos;
    // The member's own line, or a comment-only line above it: a
    // marker trailing the previous member's declaration classifies
    // that member, not this one.
    for (std::size_t i = index == 0 ? index : index - 1;
         i <= index; ++i) {
        if (i != index && !trim(lines[i].code).empty()) {
            continue;
        }
        const std::size_t at = lines[i].raw.find("// shard:");
        if (at != std::string::npos) {
            member.classification =
                trim(lines[i].raw.substr(at + 9));
        }
    }

    if (!member.guarded && !member.laneNamed &&
        member.classification.empty() &&
        !member.at.allows.count("shard-unsynced-state")) {
        facts->lineFindings.push_back(
            {rel, member.at.line, "shard-unsynced-state",
             "member '" + member.name + "' is unclassified: " +
                 std::string(findRule("shard-unsynced-state")->summary),
             member.at.snippet});
    }
    facts->members.push_back(std::move(member));
}

void
scanRng(const std::vector<LineView> &lines, std::size_t index,
        FileFacts *facts)
{
    const LineView &line = lines[index];
    // Stream constructions: `Rng name(args)`, `Rng(args)` temporaries
    // and `fooRng_(args)` / `rng_(args)` member initializers.
    static const std::regex kCtor(
        R"((?:\bRng\s+\w+\s*|\bRng\s*|\b\w*[Rr]ng_\s*)\(([^;{]*))");
    static const std::regex kAssign(R"(\bRng\s+\w+\s*=\s*(.*))");
    // Seed-salt derivation: `...seed... ^ 0x<literal>`.
    static const std::regex kSalt(
        R"([Ss]eed\w*(\(\))?\s*\^\s*0[xX]([0-9a-fA-F']+))");

    // Parameter lists (constructor/function *declarations*) start
    // with a type; real constructions pass values.
    static const std::regex kParamList(
        R"(^\s*(unsigned|signed|int|long|short|char|bool|float|)"
        R"(double|const|std\s*::|uint|Seed)\b)");

    std::smatch m;
    bool construction = false;
    std::string args;
    if (std::regex_search(line.code, m, kCtor)) {
        construction = true;
        args = m[1];
    } else if (std::regex_search(line.code, m, kAssign)) {
        construction = true;
        args = m[1];
    }
    if (construction &&
        (trim(args).empty() ||
         std::regex_search(args, kParamList) ||
         line.code.find("explicit") != std::string::npos)) {
        construction = false;
    }
    std::smatch saltMatch;
    const bool hasSalt =
        std::regex_search(line.code, saltMatch, kSalt);
    if (!construction && !hasSalt) {
        return;
    }
    RngFact fact;
    fact.at = siteAt(lines, index);
    fact.construction = construction;
    fact.args = trim(args);
    if (hasSalt) {
        std::string digits = saltMatch[2];
        digits.erase(std::remove(digits.begin(), digits.end(), '\''),
                     digits.end());
        fact.hasSalt = true;
        fact.salt = std::strtoull(digits.c_str(), nullptr, 16);
    }
    facts->rngs.push_back(std::move(fact));
}

/** Method spans + member-token references for the merge-barrier
 * scoped implementation files (gem5 style: definitions start at
 * column 0, the body's braces are column 0 too). */
void
scanMethods(const std::vector<LineView> &lines, FileFacts *facts)
{
    static const std::regex kDefStart(
        R"(^([A-Za-z_][\w:<>~]*)\()");
    static const std::regex kToken(R"(([A-Za-z_]\w*_)\b)");

    std::size_t i = 0;
    while (i < lines.size()) {
        std::smatch m;
        if (!std::regex_search(lines[i].code, m, kDefStart)) {
            ++i;
            continue;
        }
        MethodFact method;
        const std::string qualified = m[1];
        const std::size_t sep = qualified.rfind("::");
        method.name = sep == std::string::npos
                          ? qualified
                          : qualified.substr(sep + 2);
        method.sigLine = i + 1;
        for (std::size_t b = i >= 3 ? i - 3 : 0; b <= i; ++b) {
            if (lines[b].raw.find("// shard:") != std::string::npos) {
                method.blessed = true;
            }
        }

        // Signature: until the parameter parens balance out.
        int parens = 0;
        std::size_t j = i;
        std::string signature;
        for (; j < lines.size(); ++j) {
            signature += lines[j].code;
            for (const char c : lines[j].code) {
                parens += c == '(' ? 1 : c == ')' ? -1 : 0;
            }
            if (parens <= 0) {
                break;
            }
        }
        std::string sigLower = signature;
        std::transform(sigLower.begin(), sigLower.end(),
                       sigLower.begin(), [](unsigned char c) {
                           return std::tolower(c);
                       });
        method.laneScoped =
            sigLower.find("lane") != std::string::npos;
        method.synced =
            signature.find("syncDeviceState") != std::string::npos;

        // Body (plus any ctor initializer list): from the signature
        // end to the column-0 closing brace.
        int depth = 0;
        bool opened = false;
        std::size_t k = j + 1;
        for (; k < lines.size(); ++k) {
            const std::string &code = lines[k].code;
            if (!opened &&
                code.find_first_of(";") != std::string::npos &&
                code.find('{') == std::string::npos) {
                // Declaration, not a definition.
                break;
            }
            for (const char c : code) {
                depth += c == '{' ? 1 : c == '}' ? -1 : 0;
                if (c == '{') {
                    opened = true;
                }
            }
            if (code.find("laneOf(") != std::string::npos) {
                method.laneScoped = true;
            }
            if (code.find("syncDeviceState") != std::string::npos) {
                method.synced = true;
            }
            for (auto it = std::sregex_iterator(code.begin(),
                                                code.end(), kToken);
                 it != std::sregex_iterator(); ++it) {
                TokenRefFact ref;
                ref.at = siteAt(lines, k);
                ref.token = (*it)[1];
                facts->tokenRefs.push_back(std::move(ref));
            }
            if (opened && depth <= 0) {
                break;
            }
        }
        if (opened) {
            method.bodyEnd = k + 1;
            facts->methods.push_back(std::move(method));
            i = k + 1;
        } else {
            i = j + 1;
        }
    }
}

void
scanEventEnum(const std::vector<LineView> &lines, FileFacts *facts)
{
    static const std::regex kEnumerator(R"(^\s*([A-Z]\w*)\s*[,=]?)");
    bool inEnum = false;
    for (const LineView &line : lines) {
        if (!inEnum) {
            if (line.code.find("enum class EventKind") !=
                std::string::npos) {
                inEnum = true;
            }
            continue;
        }
        if (line.code.find("};") != std::string::npos) {
            break;
        }
        std::smatch m;
        if (std::regex_search(line.code, m, kEnumerator)) {
            facts->eventEnumerators.push_back(m[1]);
        }
    }
}

/**
 * The switch of an `eventCategory(EventKind ...)` definition: each
 * run of `case EventKind::X:` labels takes the category of the
 * `return kEvY;` that ends it.
 */
void
scanEventCategories(const std::vector<LineView> &lines,
                    FileFacts *facts)
{
    static const std::regex kCase(R"(\bcase\s+EventKind\s*::\s*(\w+))");
    static const std::regex kReturn(R"(\breturn\s+kEv(\w+)\s*;)");
    std::size_t i = 0;
    while (i < lines.size() &&
           lines[i].code.rfind("eventCategory(EventKind", 0) != 0) {
        ++i;
    }
    std::vector<EventCategoryFact> pending;
    for (++i; i < lines.size() && lines[i].code.rfind('}', 0) != 0;
         ++i) {
        std::smatch m;
        if (std::regex_search(lines[i].code, m, kCase)) {
            pending.push_back({siteAt(lines, i), m[1], ""});
        } else if (std::regex_search(lines[i].code, m, kReturn)) {
            std::string category = m[1];
            std::transform(category.begin(), category.end(),
                           category.begin(), [](unsigned char c) {
                               return static_cast<char>(std::tolower(c));
                           });
            for (EventCategoryFact &fact : pending) {
                fact.category = category;
                facts->eventCategories.push_back(std::move(fact));
            }
            pending.clear();
        }
    }
}

} // namespace

FileFacts
scanFile(const std::string &rel, const std::string &text)
{
    FileFacts facts;
    facts.path = rel;
    const std::vector<LineView> lines = splitLines(text);

    const bool shardHeader = inScopeList("shard-unsynced-state", rel);
    const bool barrierFile = inScopeList("merge-barrier-escape", rel);
    const bool eventTraceFile =
        rel.find("obs/event_trace.") != std::string::npos;

    static const std::regex kInclude(
        R"(^\s*#\s*include\s*"([^"]+)\")");
    static const std::regex kEventUse(R"(\bEventKind\s*::\s*(\w+))");

    for (std::size_t i = 0; i < lines.size(); ++i) {
        scanLine(rel, lines, i, &facts);

        std::smatch m;
        if (std::regex_search(lines[i].raw, m, kInclude)) {
            IncludeFact inc;
            inc.at = siteAt(lines, i);
            inc.target = m[1];
            facts.includes.push_back(std::move(inc));
        }
        if (!eventTraceFile) {
            const std::string &code = lines[i].code;
            for (auto it = std::sregex_iterator(code.begin(),
                                                code.end(),
                                                kEventUse);
                 it != std::sregex_iterator(); ++it) {
                EventUseFact use;
                use.at = siteAt(lines, i);
                use.kind = (*it)[1];
                facts.events.push_back(std::move(use));
            }
        }
        if (shardHeader) {
            scanShardMember(rel, lines, i, &facts);
        }
        scanRng(lines, i, &facts);
    }
    if (barrierFile) {
        scanMethods(lines, &facts);
    }
    if (rel.find("obs/event_trace.hh") != std::string::npos) {
        scanEventEnum(lines, &facts);
    }
    scanEventCategories(lines, &facts);
    return facts;
}

} // namespace lint
} // namespace thermostat
