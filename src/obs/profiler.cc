#include "obs/profiler.hh"

#include <cstdio>

#include "common/logging.hh"
#include "obs/json.hh"

namespace thermostat
{

Profiler::Profiler(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
    Node root;
    root.name = "run";
    nodes_.push_back(std::move(root));
}

Ns
Profiler::now() const
{
    return static_cast<Ns>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

int
Profiler::findOrAddChild(int parent, const char *name)
{
    for (const int child : nodes_[parent].children) {
        if (nodes_[child].name == name) {
            return child;
        }
    }
    const int index = static_cast<int>(nodes_.size());
    Node node;
    node.name = name;
    node.parent = parent;
    nodes_.push_back(std::move(node));
    nodes_[parent].children.push_back(index);
    return index;
}

int
Profiler::enter(const char *name)
{
    const int node = findOrAddChild(current_, name);
    current_ = node;
    return node;
}

void
Profiler::leave(int node, Ns elapsed)
{
    TSTAT_ASSERT(node > 0 &&
                     node < static_cast<int>(nodes_.size()),
                 "profiler leave of unknown node %d", node);
    TSTAT_ASSERT(current_ == node,
                 "profiler scopes must nest (leaving %s while in %s)",
                 nodes_[node].name.c_str(),
                 nodes_[current_].name.c_str());
    ++nodes_[node].count;
    nodes_[node].totalNs += elapsed;
    current_ = nodes_[node].parent;
    if (current_ == 0) {
        // The root is never explicitly timed; folding top-level
        // intervals in keeps children-sum <= total true at every
        // node, the tree invariant the tests pin.
        nodes_[0].totalNs += elapsed;
    }
}

void
Profiler::record(const char *name, Ns value)
{
    Node &node = nodes_[findOrAddChild(current_, name)];
    node.concurrent = true;
    ++node.count;
    node.totalNs += value;
}

Ns
Profiler::childrenTotal(const Node &node) const
{
    Ns total = 0;
    for (const int child : node.children) {
        if (!nodes_[child].concurrent) {
            total += nodes_[child].totalNs;
        }
    }
    return total;
}

Ns
Profiler::selfNs(const Node &node) const
{
    const Ns children = childrenTotal(node);
    return node.totalNs > children ? node.totalNs - children : 0;
}

void
Profiler::writeNode(int index, std::string &out, int depth) const
{
    const Node &node = nodes_[static_cast<std::size_t>(index)];
    // The root has no timed interval of its own; report it as the
    // sum of its children so percentages have a denominator.
    const Ns total =
        index == 0 ? childrenTotal(node) : node.totalNs;
    JsonWriter w;
    w.beginObject();
    w.key("name");
    w.value(node.name);
    w.key("count");
    w.value(node.count);
    w.key("total_ns");
    w.value(static_cast<std::uint64_t>(total));
    w.key("self_ns");
    w.value(static_cast<std::uint64_t>(
        index == 0 ? 0 : selfNs(node)));
    if (node.concurrent) {
        w.key("concurrent");
        w.value(true);
    }
    w.endObject();
    // Splice children into the object by rewriting the closing
    // brace; JsonWriter has no reentrant nesting across calls.
    std::string rendered = w.str();
    rendered.pop_back(); // '}'
    out += rendered;
    out += ",\"children\":[";
    bool first = true;
    for (const int child : node.children) {
        if (!first) {
            out += ',';
        }
        first = false;
        writeNode(child, out, depth + 1);
    }
    out += "]}";
}

std::string
Profiler::toJson() const
{
    std::string out;
    writeNode(0, out, 0);
    return out;
}

std::string
Profiler::toText() const
{
    std::string out;
    // Iterative preorder with explicit depth, children in
    // first-entry order.
    std::vector<std::pair<int, int>> stack{{0, 0}};
    while (!stack.empty()) {
        const auto [index, depth] = stack.back();
        stack.pop_back();
        const Node &node = nodes_[static_cast<std::size_t>(index)];
        const Ns total =
            index == 0 ? childrenTotal(node) : node.totalNs;
        char line[176];
        std::snprintf(line, sizeof(line),
                      "%*s%-24s %10llu calls %12.3f ms total "
                      "%12.3f ms self%s\n",
                      depth * 2, "", node.name.c_str(),
                      static_cast<unsigned long long>(node.count),
                      static_cast<double>(total) / 1e6,
                      static_cast<double>(
                          index == 0 ? 0 : selfNs(node)) /
                          1e6,
                      node.concurrent ? " (concurrent)" : "");
        out += line;
        for (auto it = node.children.rbegin();
             it != node.children.rend(); ++it) {
            stack.push_back({*it, depth + 1});
        }
    }
    return out;
}

void
Profiler::clear()
{
    nodes_.clear();
    current_ = 0;
    Node root;
    root.name = "run";
    nodes_.push_back(std::move(root));
}

} // namespace thermostat
