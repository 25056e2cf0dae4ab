#include "lint_report.hh"

#include <sstream>

namespace thermostat
{
namespace lint
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
renderText(const Report &report)
{
    std::ostringstream os;
    for (const Finding &f : report.findings) {
        os << f.file << ":" << f.line << ": [" << f.rule << "] "
           << f.message << "\n    " << f.snippet << "\n";
    }
    for (const auto &entry : report.unusedBaseline) {
        os << (report.ci ? "error" : "warning")
           << ": unused baseline entry (line " << entry.second
           << "): " << entry.first << "\n";
    }
    os << report.filesScanned << " files checked, "
       << report.findings.size() << " finding"
       << (report.findings.size() == 1 ? "" : "s") << " ("
       << report.baselined << " baselined)\n";
    return os.str();
}

std::string
renderJson(const Report &report)
{
    std::ostringstream os;
    os << "{\n  \"version\": 3,\n";
    os << "  \"checkedFiles\": " << report.filesScanned << ",\n";
    os << "  \"baselinedFindings\": " << report.baselined << ",\n";
    os << "  \"findings\": [";
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        const Finding &f = report.findings[i];
        os << (i ? ",\n" : "\n");
        os << "    {\"rule\": \"" << jsonEscape(f.rule)
           << "\", \"file\": \"" << jsonEscape(f.file)
           << "\", \"line\": " << f.line << ", \"message\": \""
           << jsonEscape(f.message) << "\", \"snippet\": \""
           << jsonEscape(f.snippet) << "\"}";
    }
    os << (report.findings.empty() ? "" : "\n  ") << "],\n";
    os << "  \"unusedBaselineEntries\": [";
    for (std::size_t i = 0; i < report.unusedBaseline.size(); ++i) {
        os << (i ? ",\n" : "\n");
        os << "    {\"entry\": \""
           << jsonEscape(report.unusedBaseline[i].first)
           << "\", \"baselineLine\": "
           << report.unusedBaseline[i].second << "}";
    }
    os << (report.unusedBaseline.empty() ? "" : "\n  ") << "]\n";
    os << "}\n";
    return os.str();
}

std::string
renderSarif(const Report &report)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
    os << "  \"version\": \"2.1.0\",\n";
    os << "  \"runs\": [\n";
    os << "    {\n";
    os << "      \"tool\": {\n";
    os << "        \"driver\": {\n";
    os << "          \"name\": \"thermostat_lint\",\n";
    os << "          \"version\": \"2.0.0\",\n";
    os << "          \"informationUri\": "
          "\"https://example.invalid/thermostat/DESIGN.md\",\n";
    os << "          \"rules\": [";
    const std::vector<RuleInfo> &all = rules();
    for (std::size_t i = 0; i < all.size(); ++i) {
        os << (i ? ",\n" : "\n");
        os << "            {\"id\": \"" << jsonEscape(all[i].id)
           << "\", \"shortDescription\": {\"text\": \""
           << jsonEscape(all[i].summary) << "\"}}";
    }
    os << "\n          ]\n";
    os << "        }\n";
    os << "      },\n";
    os << "      \"results\": [";
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        const Finding &f = report.findings[i];
        os << (i ? ",\n" : "\n");
        os << "        {\"ruleId\": \"" << jsonEscape(f.rule)
           << "\", \"level\": \"error\", \"message\": {\"text\": \""
           << jsonEscape(f.message)
           << "\"}, \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": \""
           << jsonEscape(f.file)
           << "\"}, \"region\": {\"startLine\": "
           << (f.line == 0 ? 1 : f.line) << "}}}]}";
    }
    os << (report.findings.empty() ? "" : "\n      ") << "]\n";
    os << "    }\n";
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

std::string
render(const Report &report, Format format)
{
    switch (format) {
      case Format::Json:
        return renderJson(report);
      case Format::Sarif:
        return renderSarif(report);
      case Format::Text:
      default:
        return renderText(report);
    }
}

} // namespace lint
} // namespace thermostat
