#include "sim/isa.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>

#include "common/error.hpp"

namespace qccd
{

namespace
{

PrimKind
primKindFromName(std::string_view name)
{
    if (name == "ms") return PrimKind::GateMS;
    if (name == "1q") return PrimKind::Gate1Q;
    if (name == "measure") return PrimKind::Measure;
    if (name == "split") return PrimKind::Split;
    if (name == "merge") return PrimKind::Merge;
    if (name == "move") return PrimKind::Move;
    if (name == "junction") return PrimKind::JunctionCross;
    if (name == "rotate") return PrimKind::Rotate;
    if (name == "transit") return PrimKind::Transit;
    throw ConfigError("unknown QCCD instruction '" + std::string(name) +
                      "'");
}

/** printf-%.17g rendering, matching the former ostream formatting. */
void
appendDouble(std::string &out, double value)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value,
                                   std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

void
appendInt(std::string &out, long value)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, res.ptr);
}

/** Whole-token numeric parses; false on any trailing garbage. @{ */
bool
parseDouble(std::string_view token, double *out)
{
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), *out,
                        std::chars_format::general);
    return res.ec == std::errc() &&
           res.ptr == token.data() + token.size();
}

bool
parseInt(std::string_view token, int *out)
{
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), *out);
    return res.ec == std::errc() &&
           res.ptr == token.data() + token.size();
}
/** @} */

constexpr std::string_view kSpaces = " \t\r\v\f";

/** Pop the next whitespace-separated token off @p rest (empty = none). */
std::string_view
nextToken(std::string_view *rest)
{
    const size_t begin = rest->find_first_not_of(kSpaces);
    if (begin == std::string_view::npos) {
        *rest = {};
        return {};
    }
    size_t end = rest->find_first_of(kSpaces, begin);
    if (end == std::string_view::npos)
        end = rest->size();
    const std::string_view token = rest->substr(begin, end - begin);
    rest->remove_prefix(end);
    return token;
}

} // namespace

std::string
writeIsa(const Trace &trace)
{
    std::string out;
    // ~96 characters covers the longest (MS gate) lines; one upfront
    // reservation replaces the ostringstream's repeated growth.
    out.reserve(64 + trace.size() * 96);
    out += "# QCCD executable, ";
    appendInt(out, static_cast<long>(trace.size()));
    out += " primitives\n";
    for (const PrimOp &op : trace) {
        appendDouble(out, op.start);
        out += ' ';
        appendDouble(out, op.duration);
        out += ' ';
        out += primKindName(op.kind);
        if (op.trap != kInvalidId) {
            out += " trap=";
            appendInt(out, op.trap);
        }
        if (op.edge != kInvalidId) {
            out += " edge=";
            appendInt(out, op.edge);
        }
        if (op.junction != kInvalidId) {
            out += " junction=";
            appendInt(out, op.junction);
        }
        if (op.ion != kInvalidId) {
            out += " ion=";
            appendInt(out, op.ion);
        }
        if (op.q0 != kInvalidId) {
            out += " q0=";
            appendInt(out, op.q0);
        }
        if (op.q1 != kInvalidId) {
            out += " q1=";
            appendInt(out, op.q1);
        }
        if (op.kind == PrimKind::GateMS) {
            out += " d=";
            appendInt(out, op.separation);
            out += " n=";
            appendInt(out, op.chainLength);
            out += " nbar=";
            appendDouble(out, op.nbar);
        }
        out += " fid=";
        appendDouble(out, op.fidelity);
        if (op.forCommunication)
            out += " comm";
        out += '\n';
    }
    return out;
}

Trace
parseIsa(const std::string &text)
{
    Trace trace;
    trace.reserve(
        static_cast<size_t>(std::count(text.begin(), text.end(), '\n')));

    const std::string_view all(text);
    size_t pos = 0;
    int line_no = 0;
    while (pos < all.size()) {
        size_t eol = all.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = all.size();
        std::string_view line = all.substr(pos, eol - pos);
        pos = eol + 1;
        ++line_no;

        const size_t hash = line.find('#');
        if (hash != std::string_view::npos)
            line = line.substr(0, hash);

        std::string_view rest = line;
        const std::string_view start_tok = nextToken(&rest);
        if (start_tok.empty())
            continue; // blank or comment-only line

        PrimOp op;
        const std::string_view dur_tok = nextToken(&rest);
        const std::string_view kind_tok = nextToken(&rest);
        if (!parseDouble(start_tok, &op.start) || dur_tok.empty() ||
            !parseDouble(dur_tok, &op.duration) || kind_tok.empty())
            throw ConfigError("malformed QCCD instruction at line " +
                              std::to_string(line_no));
        op.kind = primKindFromName(kind_tok);

        for (std::string_view attr = nextToken(&rest); !attr.empty();
             attr = nextToken(&rest)) {
            if (attr == "comm") {
                op.forCommunication = true;
                continue;
            }
            const size_t eq = attr.find('=');
            if (eq == std::string_view::npos)
                throw ConfigError("malformed attribute '" +
                                  std::string(attr) + "' at line " +
                                  std::to_string(line_no));
            const std::string_view key = attr.substr(0, eq);
            const std::string_view value = attr.substr(eq + 1);
            bool ok = false;
            if (key == "trap") ok = parseInt(value, &op.trap);
            else if (key == "edge") ok = parseInt(value, &op.edge);
            else if (key == "junction")
                ok = parseInt(value, &op.junction);
            else if (key == "ion") ok = parseInt(value, &op.ion);
            else if (key == "q0") ok = parseInt(value, &op.q0);
            else if (key == "q1") ok = parseInt(value, &op.q1);
            else if (key == "d") ok = parseInt(value, &op.separation);
            else if (key == "n") ok = parseInt(value, &op.chainLength);
            else if (key == "nbar") ok = parseDouble(value, &op.nbar);
            else if (key == "fid") ok = parseDouble(value, &op.fidelity);
            else
                throw ConfigError("unknown attribute '" +
                                  std::string(key) + "' at line " +
                                  std::to_string(line_no));
            if (!ok)
                throw ConfigError("bad value in '" + std::string(attr) +
                                  "' at line " + std::to_string(line_no));
        }
        trace.push_back(op);
    }
    return trace;
}

void
writeIsaFile(const Trace &trace, const std::string &path)
{
    std::ofstream out(path);
    if (!out.good())
        throw ConfigError("cannot write ISA file '" + path + "'");
    out << writeIsa(trace);
    if (!out.good())
        throw ConfigError("error writing ISA file '" + path + "'");
}

Trace
parseIsaFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good())
        throw ConfigError("cannot open ISA file '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseIsa(buf.str());
}

} // namespace qccd
