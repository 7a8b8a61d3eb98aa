#include "arch/builders.hpp"

#include <cctype>
#include <charconv>

#include "arch/topo_file.hpp"
#include "common/error.hpp"

namespace qccd
{

Topology
makeLinear(int num_traps, int capacity, int segments_per_edge)
{
    fatalUnless(num_traps >= 1, "linear device needs at least one trap");
    Topology topo;
    std::vector<NodeId> traps;
    traps.reserve(num_traps);
    for (int i = 0; i < num_traps; ++i)
        traps.push_back(topo.addTrap(capacity));
    for (int i = 0; i + 1 < num_traps; ++i)
        topo.connect(traps[i], traps[i + 1], segments_per_edge);
    return topo;
}

Topology
makeGrid(int rows, int cols, int capacity, int segments_per_edge)
{
    fatalUnless(rows >= 1, "grid device needs at least one row");
    fatalUnless(cols >= 2, "grid device needs at least two columns");
    Topology topo;
    std::vector<std::vector<NodeId>> traps(rows, std::vector<NodeId>(cols));
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            traps[r][c] = topo.addTrap(capacity);

    std::vector<NodeId> rail(cols);
    for (int c = 0; c < cols; ++c)
        rail[c] = topo.addJunction();

    for (int c = 0; c < cols; ++c)
        for (int r = 0; r < rows; ++r)
            topo.connect(traps[r][c], rail[c], segments_per_edge);
    for (int c = 0; c + 1 < cols; ++c)
        topo.connect(rail[c], rail[c + 1], segments_per_edge);
    return topo;
}

Topology
makeRing(int num_traps, int capacity, int segments_per_edge)
{
    fatalUnless(num_traps >= 3, "ring device needs at least three traps");
    Topology topo = makeLinear(num_traps, capacity, segments_per_edge);
    topo.connect(topo.trapNode(num_traps - 1), topo.trapNode(0),
                 segments_per_edge);
    return topo;
}

Topology
makeStar(int num_traps, int capacity, int segments_per_edge)
{
    fatalUnless(num_traps >= 2, "star device needs at least two traps");
    Topology topo;
    std::vector<NodeId> traps;
    traps.reserve(num_traps);
    for (int i = 0; i < num_traps; ++i)
        traps.push_back(topo.addTrap(capacity));
    const NodeId hub = topo.addJunction();
    for (NodeId t : traps)
        topo.connect(t, hub, segments_per_edge);
    return topo;
}

Topology
makeHTree(int depth, int capacity, int segments_per_edge)
{
    fatalUnless(depth >= 1, "H-tree device needs depth at least 1");
    fatalUnless(depth <= 10, "H-tree depth is limited to 10");
    Topology topo;
    const int leaves = 1 << depth;
    std::vector<NodeId> traps;
    traps.reserve(leaves);
    for (int i = 0; i < leaves; ++i)
        traps.push_back(topo.addTrap(capacity));

    // Complete binary junction tree, allocated level by level from the
    // root: junction j's children are junctions 2j+1 and 2j+2 while
    // those exist, leaf traps otherwise.
    const int internal = leaves - 1;
    std::vector<NodeId> junctions;
    junctions.reserve(internal);
    for (int i = 0; i < internal; ++i)
        junctions.push_back(topo.addJunction());
    for (int j = 0; j < internal; ++j) {
        for (int child : {2 * j + 1, 2 * j + 2}) {
            const NodeId to = child < internal
                                  ? junctions[child]
                                  : traps[child - internal];
            topo.connect(junctions[j], to, segments_per_edge);
        }
    }
    return topo;
}

namespace
{

/** Malformed-spec diagnostic carrying the 1-based position. */
[[noreturn]] void
failSpec(const std::string &spec, size_t pos, const std::string &msg)
{
    throw ConfigError("topology spec '" + spec + "':" +
                      std::to_string(pos + 1) + ": " + msg);
}

/** Parse spec[begin, end) as a positive integer size/count. */
int
parseSize(const std::string &spec, size_t begin, size_t end,
          const char *what)
{
    if (begin >= end)
        failSpec(spec, begin, std::string(what) + " is missing");
    for (size_t i = begin; i < end; ++i)
        if (std::isdigit(static_cast<unsigned char>(spec[i])) == 0)
            failSpec(spec, i,
                     std::string(what) + " must be a positive integer");
    int value = 0;
    const auto [ptr, ec] = std::from_chars(
        spec.data() + begin, spec.data() + end, value);
    if (ec != std::errc() || ptr != spec.data() + end)
        failSpec(spec, begin, std::string(what) + " is out of range");
    if (value <= 0)
        failSpec(spec, begin, std::string(what) + " must be positive");
    return value;
}

std::vector<TopologyFamily> &
familiesMutable()
{
    static std::vector<TopologyFamily> families = [] {
        auto one = [](Topology (*fn)(int, int, int)) {
            return [fn](const std::vector<int> &sizes, int capacity,
                        int segments) {
                return fn(sizes[0], capacity, segments);
            };
        };
        std::vector<TopologyFamily> builtins;
        builtins.push_back({"linear", 'l', 1, "linear:N[:sS]",
                            "N traps in a row, no junctions (Fig. 2a)",
                            one(makeLinear)});
        builtins.push_back(
            {"grid", 'g', 2, "grid:RxC[:sS]",
             "RxC traps on a junction rail (Fig. 2b)",
             [](const std::vector<int> &sizes, int capacity,
                int segments) {
                 return makeGrid(sizes[0], sizes[1], capacity, segments);
             }});
        builtins.push_back({"ring", 'r', 1, "ring:N[:sS]",
                            "N traps in a cycle (linear with ends joined)",
                            one(makeRing)});
        builtins.push_back({"star", 0, 1, "star:N[:sS]",
                            "N traps around one central junction hub",
                            one(makeStar)});
        builtins.push_back({"htree", 'h', 1, "htree:D[:sS]",
                            "2^D leaf traps on a binary junction tree",
                            one(makeHTree)});
        return builtins;
    }();
    return families;
}

const TopologyFamily *
findFamily(const std::string &name)
{
    for (const TopologyFamily &family : familiesMutable())
        if (family.name == name)
            return &family;
    return nullptr;
}

const TopologyFamily *
findShortForm(char letter)
{
    const char lower =
        static_cast<char>(std::tolower(static_cast<unsigned char>(letter)));
    for (const TopologyFamily &family : familiesMutable())
        if (family.shortForm == lower)
            return &family;
    return nullptr;
}

std::string
knownFamilyList()
{
    std::string list;
    for (const TopologyFamily &family : familiesMutable()) {
        if (!list.empty())
            list += ", ";
        list += family.name;
    }
    return list;
}

/** A fully parsed builder spec (or a `.topo` file reference). */
struct ParsedSpec
{
    const TopologyFamily *family = nullptr;
    std::vector<int> sizes;
    int segments = 1;
    std::string topoPath; ///< non-empty for "topo:FILE" specs
};

ParsedSpec
parseSpecString(const std::string &spec)
{
    fatalUnless(!spec.empty(), "empty topology spec");

    ParsedSpec parsed;
    const std::string topo_prefix = "topo:";
    if (spec.rfind(topo_prefix, 0) == 0) {
        parsed.topoPath = spec.substr(topo_prefix.size());
        if (parsed.topoPath.empty())
            failSpec(spec, topo_prefix.size(),
                     "path after 'topo:' is missing");
        return parsed;
    }

    // Family keyword: letters up to the first ':' or digit ("linear:6"
    // vs the short form "l6").
    size_t word_end = 0;
    while (word_end < spec.size() &&
           std::isalpha(static_cast<unsigned char>(spec[word_end])) != 0)
        ++word_end;
    const std::string word = spec.substr(0, word_end);

    size_t args_begin = 0;
    if (const TopologyFamily *family = findFamily(word);
        family != nullptr) {
        parsed.family = family;
        if (word_end >= spec.size() || spec[word_end] != ':')
            failSpec(spec, word_end,
                     "expected ':' and sizes, like " + family->grammar);
        args_begin = word_end + 1;
    } else if (word.size() == 1 && word_end < spec.size() &&
               findShortForm(word[0]) != nullptr) {
        parsed.family = findShortForm(word[0]);
        args_begin = 1;
    } else {
        throw ConfigError("unknown topology spec '" + spec +
                          "' (known families: " + knownFamilyList() +
                          "; or topo:FILE)");
    }

    // Sizes field: `arity` positive integers separated by 'x'.
    size_t args_end = spec.find(':', args_begin);
    if (args_end == std::string::npos)
        args_end = spec.size();
    const auto wrongShape = [&](size_t pos) {
        failSpec(spec, pos,
                 "family '" + parsed.family->name + "' takes " +
                     std::to_string(parsed.family->arity) +
                     (parsed.family->arity == 1 ? " size" : " sizes") +
                     ", like " + parsed.family->grammar);
    };
    size_t part_begin = args_begin;
    for (int part = 0; part < parsed.family->arity; ++part) {
        const bool last = part + 1 == parsed.family->arity;
        size_t part_end = 0;
        if (last) {
            part_end = args_end;
            const size_t extra = spec.find('x', part_begin);
            if (extra < args_end)
                wrongShape(extra);
        } else {
            part_end = spec.find('x', part_begin);
            if (part_end == std::string::npos || part_end >= args_end)
                wrongShape(args_begin);
        }
        parsed.sizes.push_back(
            parseSize(spec, part_begin, part_end, "size"));
        part_begin = part_end + 1;
    }

    // Optional suffix fields; the only one defined is ":sN" (transport
    // segments per edge), and it may appear once — conflicting
    // duplicates must not silently last-one-wins.
    bool have_segments = false;
    size_t field_begin = args_end;
    while (field_begin < spec.size()) {
        const size_t field_end = std::min(
            spec.find(':', field_begin + 1), spec.size());
        if (field_begin + 1 >= field_end ||
            spec[field_begin + 1] != 's')
            failSpec(spec, field_begin + 1,
                     "unknown spec suffix (expected ':sN' segments "
                     "per edge)");
        if (have_segments)
            failSpec(spec, field_begin + 1,
                     "duplicate ':sN' segment suffix");
        have_segments = true;
        parsed.segments = parseSize(spec, field_begin + 2, field_end,
                                    "segment count");
        field_begin = field_end;
    }
    return parsed;
}

} // namespace

const std::vector<TopologyFamily> &
topologyFamilies()
{
    return familiesMutable();
}

void
registerTopologyFamily(TopologyFamily family)
{
    fatalUnless(!family.name.empty(),
                "topology family needs a non-empty name");
    for (const char c : family.name)
        if (std::islower(static_cast<unsigned char>(c)) == 0)
            throw ConfigError(
                "topology family name must be a lowercase word: '" +
                family.name + "'");
    fatalUnless(family.name != "topo",
                "'topo' is reserved for .topo file specs");
    if (family.arity < 1)
        throw ConfigError("topology family '" + family.name +
                          "' must take at least one size");
    if (family.build == nullptr)
        throw ConfigError("topology family '" + family.name +
                          "' has no builder");
    if (family.shortForm != 0)
        fatalUnless(std::islower(static_cast<unsigned char>(
                        family.shortForm)) != 0,
                    "topology family short form must be a lowercase "
                    "letter");
    for (const TopologyFamily &existing : familiesMutable()) {
        if (existing.name == family.name)
            throw ConfigError("topology family '" + family.name +
                              "' is already registered");
        if (family.shortForm != 0 && existing.shortForm == family.shortForm)
            throw ConfigError("topology family short form '" +
                              std::string(1, family.shortForm) +
                              "' is already taken by '" + existing.name +
                              "'");
    }
    familiesMutable().push_back(std::move(family));
}

Topology
makeFromSpec(const std::string &spec, int capacity)
{
    const ParsedSpec parsed = parseSpecString(spec);
    if (!parsed.topoPath.empty())
        return loadTopoFile(parsed.topoPath, capacity);
    Topology topo =
        parsed.family->build(parsed.sizes, capacity, parsed.segments);
    topo.validate();
    return topo;
}

void
validateTopologySpec(const std::string &spec)
{
    parseSpecString(spec);
}

} // namespace qccd
