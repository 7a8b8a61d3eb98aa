#include "arch/topo_file.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace qccd
{

namespace
{

/** One whitespace-delimited token with its 1-based position. */
struct Token
{
    std::string text;
    int line = 0;
    int column = 0;
};

[[noreturn]] void
failAt(const std::string &origin, int line, int column,
       const std::string &msg)
{
    std::ostringstream out;
    out << origin << ":" << line << ":" << column << ": " << msg;
    throw ConfigError(out.str());
}

[[noreturn]] void
failAt(const std::string &origin, const Token &token,
       const std::string &msg)
{
    failAt(origin, token.line, token.column, msg);
}

/** Split one line into tokens, dropping a '#' comment. */
std::vector<Token>
tokenize(const std::string &line, int line_no)
{
    std::vector<Token> tokens;
    size_t i = 0;
    while (i < line.size()) {
        const char c = line[i];
        if (c == '#')
            break;
        if (c == ' ' || c == '\t' || c == '\r') {
            ++i;
            continue;
        }
        const size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
               line[i] != '\r' && line[i] != '#')
            ++i;
        tokens.push_back({line.substr(start, i - start), line_no,
                          static_cast<int>(start) + 1});
    }
    return tokens;
}

int
parsePositiveInt(const std::string &origin, const Token &token,
                 const char *what)
{
    int value = 0;
    const char *first = token.text.data();
    const char *last = first + token.text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last || value <= 0)
        failAt(origin, token,
               std::string(what) + " must be a positive integer, got '" +
                   token.text + "'");
    return value;
}

} // namespace

std::string
topoFileStem(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    const size_t start = slash == std::string::npos ? 0 : slash + 1;
    size_t end = path.find_last_of('.');
    if (end == std::string::npos || end <= start)
        end = path.size();
    return path.substr(start, end - start);
}

Topology
parseTopo(const std::string &text, const std::string &origin,
          int default_capacity)
{
    Topology topo;
    topo.setName(topoFileStem(origin));
    std::map<std::string, NodeId> nodes;
    bool named = false;

    std::istringstream lines(text);
    std::string line;
    int line_no = 0;
    while (std::getline(lines, line)) {
        ++line_no;
        const std::vector<Token> tokens = tokenize(line, line_no);
        if (tokens.empty())
            continue;
        const Token &directive = tokens[0];
        const auto argCount = [&](size_t min_args, size_t max_args) {
            const size_t args = tokens.size() - 1;
            if (args < min_args)
                failAt(origin, directive,
                       "'" + directive.text + "' needs " +
                           std::to_string(min_args) +
                           (max_args > min_args ? "+" : "") +
                           " argument(s), got " + std::to_string(args));
            if (args > max_args)
                failAt(origin, tokens[max_args + 1],
                       "unexpected extra token '" +
                           tokens[max_args + 1].text + "' after '" +
                           directive.text + "'");
        };
        const auto declareNode = [&](const Token &name_token) {
            if (nodes.count(name_token.text) != 0)
                failAt(origin, name_token,
                       "duplicate node name '" + name_token.text + "'");
        };

        if (directive.text == "name") {
            argCount(1, 1);
            if (named)
                failAt(origin, directive, "duplicate 'name' directive");
            named = true;
            topo.setName(tokens[1].text);
        } else if (directive.text == "trap") {
            argCount(1, 2);
            declareNode(tokens[1]);
            int capacity = default_capacity;
            if (tokens.size() == 3) {
                capacity = parsePositiveInt(origin, tokens[2],
                                            "trap capacity");
                if (capacity < 2)
                    failAt(origin, tokens[2],
                           "trap capacity must be at least 2");
            }
            nodes[tokens[1].text] = topo.addTrap(capacity);
        } else if (directive.text == "junction") {
            argCount(1, 1);
            declareNode(tokens[1]);
            nodes[tokens[1].text] = topo.addJunction();
        } else if (directive.text == "edge") {
            argCount(2, 3);
            NodeId ends[2];
            for (int i = 0; i < 2; ++i) {
                const auto it = nodes.find(tokens[1 + i].text);
                if (it == nodes.end())
                    failAt(origin, tokens[1 + i],
                           "unknown node '" + tokens[1 + i].text +
                               "' (declare traps and junctions before "
                               "their edges)");
                ends[i] = it->second;
            }
            if (ends[0] == ends[1])
                failAt(origin, tokens[2],
                       "an edge cannot connect '" + tokens[1].text +
                           "' to itself");
            int segments = 1;
            if (tokens.size() == 4)
                segments = parsePositiveInt(origin, tokens[3],
                                            "edge segment count");
            topo.connect(ends[0], ends[1], segments);
        } else {
            failAt(origin, directive,
                   "unknown directive '" + directive.text +
                       "' (known: name, trap, junction, edge)");
        }
    }

    // Graph-invariant errors carry the origin so a bad file in a big
    // sweep is directly attributable.
    try {
        topo.validate();
    } catch (const ConfigError &err) {
        throw ConfigError(origin + ": " + err.what());
    }
    return topo;
}

Topology
loadTopoFile(const std::string &path, int default_capacity)
{
    // ifstream happily "opens" a directory on Linux and then reads
    // nothing, which would surface as a misleading "topology has no
    // traps" — reject non-files up front.
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec) || ec)
        throw ConfigError("cannot read topology file '" + path + "'");
    std::ifstream in(path);
    if (!in.good())
        throw ConfigError("cannot read topology file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        throw ConfigError("error reading topology file '" + path + "'");
    return parseTopo(text.str(), path, default_capacity);
}

} // namespace qccd
