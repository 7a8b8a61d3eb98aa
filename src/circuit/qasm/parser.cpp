#include "circuit/qasm/parser.hpp"

#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <numbers>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "circuit/qasm/lexer.hpp"
#include "common/error.hpp"

namespace qccd::qasm
{

namespace
{

/** A user-defined gate body statement (operands are parameter indices). */
struct MacroStmt
{
    std::string gateName;
    std::vector<int> qubitArgs;   ///< indices into the macro's qubit params
    std::vector<double> angles;   ///< already-evaluated angles
    bool isBarrier = false;
};

/** A parsed `gate` definition. */
struct MacroDef
{
    int numParams = 0; ///< angle parameters (must be literal at call site)
    int numQubits = 0;
    std::vector<MacroStmt> body;
};

/** One qubit register: base offset into the flat qubit index space. */
struct Register
{
    int offset = 0;
    int size = 0;
};

class Parser
{
  public:
    Parser(const std::string &source, const std::string &name)
        : tokens_(tokenize(source)), circuitName_(name) {}

    Circuit run();

  private:
    std::vector<Token> tokens_;
    size_t pos_ = 0;
    std::string circuitName_;
    std::map<std::string, Register> qregs_;
    std::set<std::string> cregs_; ///< classical bits are not modeled
    std::unordered_map<std::string, MacroDef> macros_;
    int totalQubits_ = 0;

    const Token &peek() const { return tokens_[pos_]; }
    const Token &get() { return tokens_[pos_++]; }

    [[noreturn]] void fail(const std::string &msg) const
    {
        failAt(peek().line, peek().column, msg);
    }

    Token expect(TokenKind kind)
    {
        if (peek().kind != kind) {
            fail("expected " + tokenKindName(kind) + ", found '" +
                 peek().text + "'");
        }
        return get();
    }

    bool accept(TokenKind kind)
    {
        if (peek().kind == kind) {
            get();
            return true;
        }
        return false;
    }

    void parseHeader();
    void parseQreg();
    void parseCreg();
    void parseGateDef();
    void parseBarrier(Circuit &out);
    void parseMeasure(Circuit &out);
    void parseApplication(Circuit &out, const std::string &gate_name);

    double parseAngle();
    double parseAngleTerm();
    double parseAngleFactor();

    /** Resolve `name` or `name[k]` to one or all qubits of a register. */
    std::vector<QubitId> parseQubitOperand();

    void applyGate(Circuit &out, const std::string &gate_name,
                   const std::vector<double> &angles,
                   const std::vector<QubitId> &qubits);
};

constexpr double kPi = std::numbers::pi;

/** Built-in gate table: name -> (angle params, qubit arity). */
const std::unordered_map<std::string, std::pair<int, int>> kBuiltins = {
    {"h", {0, 1}},   {"x", {0, 1}},   {"y", {0, 1}},   {"z", {0, 1}},
    {"s", {0, 1}},   {"sdg", {0, 1}}, {"t", {0, 1}},   {"tdg", {0, 1}},
    {"rx", {1, 1}},  {"ry", {1, 1}},  {"rz", {1, 1}},  {"u1", {1, 1}},
    {"cx", {0, 2}},  {"CX", {0, 2}},  {"cz", {0, 2}},  {"cp", {1, 2}},
    {"cu1", {1, 2}}, {"swap", {0, 2}}, {"rzz", {1, 2}}, {"ms", {1, 2}},
    {"rxx", {1, 2}},
};

Circuit
Parser::run()
{
    parseHeader();

    // First pass collects declarations and statements; the circuit can
    // only be sized once at least one qreg is seen, so statements are
    // deferred until the first gate application.
    std::optional<Circuit> circuit;
    auto ensureCircuit = [&]() -> Circuit & {
        if (!circuit) {
            fatalUnless(totalQubits_ > 0,
                        "QASM program uses gates before any qreg");
            circuit.emplace(totalQubits_, circuitName_);
        }
        return *circuit;
    };

    while (peek().kind != TokenKind::EndOfFile) {
        const Token &t = peek();
        if (t.kind == TokenKind::Keyword) {
            if (t.text == "qreg") {
                fatalUnless(!circuit,
                            "all qreg declarations must precede gates");
                parseQreg();
            } else if (t.text == "creg") {
                parseCreg();
            } else if (t.text == "include") {
                get();
                expect(TokenKind::StringLit);
                expect(TokenKind::Semicolon);
            } else if (t.text == "gate") {
                parseGateDef();
            } else if (t.text == "opaque") {
                // Skip to semicolon: opaque gates cannot be simulated.
                while (peek().kind != TokenKind::Semicolon &&
                       peek().kind != TokenKind::EndOfFile)
                    get();
                expect(TokenKind::Semicolon);
            } else if (t.text == "barrier") {
                parseBarrier(ensureCircuit());
            } else if (t.text == "measure") {
                parseMeasure(ensureCircuit());
            } else if (t.text == "reset") {
                // Reset is not modeled; consume the statement.
                while (peek().kind != TokenKind::Semicolon &&
                       peek().kind != TokenKind::EndOfFile)
                    get();
                expect(TokenKind::Semicolon);
            } else if (t.text == "if") {
                fail("classical control ('if') is not supported");
            } else {
                fail("unexpected keyword '" + t.text + "'");
            }
        } else if (t.kind == TokenKind::Identifier) {
            const std::string name = get().text;
            parseApplication(ensureCircuit(), name);
        } else {
            fail("unexpected token '" + t.text + "'");
        }
    }

    fatalUnless(circuit.has_value() || totalQubits_ > 0,
                "QASM program declares no qubits");
    if (!circuit)
        circuit.emplace(totalQubits_, circuitName_);
    return *circuit;
}

void
Parser::parseHeader()
{
    if (peek().kind == TokenKind::Keyword && peek().text == "OPENQASM") {
        get();
        const Token version = get();
        fatalUnless(version.kind == TokenKind::Real ||
                    version.kind == TokenKind::Integer,
                    "OPENQASM header needs a version number");
        expect(TokenKind::Semicolon);
    }
}

void
Parser::parseQreg()
{
    expect(TokenKind::Keyword); // qreg
    const std::string name = expect(TokenKind::Identifier).text;
    expect(TokenKind::LBracket);
    const Token size = expect(TokenKind::Integer);
    expect(TokenKind::RBracket);
    expect(TokenKind::Semicolon);
    if (qregs_.count(name))
        throw ConfigError("duplicate qreg '" + name + "'");
    if (size.numValue <= 0)
        throw ConfigError("qreg '" + name + "' must have positive size");
    // Range-check in double before narrowing: the flat qubit index
    // space must stay within int.
    constexpr int kMaxQubits = std::numeric_limits<int>::max();
    if (size.numValue > kMaxQubits - totalQubits_)
        failAt(size.line, size.column,
               "qreg '" + name + "' of size " + size.text +
                   " takes the program past " + std::to_string(kMaxQubits) +
                   " qubits");
    const int n = static_cast<int>(size.numValue);
    qregs_[name] = {totalQubits_, n};
    totalQubits_ += n;
}

void
Parser::parseCreg()
{
    expect(TokenKind::Keyword); // creg
    const std::string name = expect(TokenKind::Identifier).text;
    expect(TokenKind::LBracket);
    expect(TokenKind::Integer);
    expect(TokenKind::RBracket);
    expect(TokenKind::Semicolon);
    if (!cregs_.insert(name).second)
        throw ConfigError("duplicate creg '" + name + "'");
}

void
Parser::parseGateDef()
{
    expect(TokenKind::Keyword); // gate
    const std::string name = expect(TokenKind::Identifier).text;
    MacroDef def;

    std::vector<std::string> param_names;
    if (accept(TokenKind::LParen)) {
        if (peek().kind != TokenKind::RParen) {
            param_names.push_back(expect(TokenKind::Identifier).text);
            while (accept(TokenKind::Comma))
                param_names.push_back(expect(TokenKind::Identifier).text);
        }
        expect(TokenKind::RParen);
    }
    def.numParams = static_cast<int>(param_names.size());
    if (def.numParams != 0)
        throw ConfigError(
            "parameterized user gates are not supported (gate '" + name +
            "'); inline the angles instead");

    std::vector<std::string> qubit_names;
    qubit_names.push_back(expect(TokenKind::Identifier).text);
    while (accept(TokenKind::Comma))
        qubit_names.push_back(expect(TokenKind::Identifier).text);
    def.numQubits = static_cast<int>(qubit_names.size());

    auto qubitIndex = [&](const std::string &q) {
        for (int i = 0; i < def.numQubits; ++i)
            if (qubit_names[i] == q)
                return i;
        fail("unknown qubit parameter '" + q + "' in gate '" + name + "'");
    };

    expect(TokenKind::LBrace);
    while (!accept(TokenKind::RBrace)) {
        MacroStmt stmt;
        if (peek().kind == TokenKind::Keyword && peek().text == "barrier") {
            get();
            stmt.isBarrier = true;
            while (peek().kind != TokenKind::Semicolon)
                get();
            expect(TokenKind::Semicolon);
            def.body.push_back(stmt);
            continue;
        }
        stmt.gateName = expect(TokenKind::Identifier).text;
        if (accept(TokenKind::LParen)) {
            if (peek().kind != TokenKind::RParen) {
                stmt.angles.push_back(parseAngle());
                while (accept(TokenKind::Comma))
                    stmt.angles.push_back(parseAngle());
            }
            expect(TokenKind::RParen);
        }
        stmt.qubitArgs.push_back(
            qubitIndex(expect(TokenKind::Identifier).text));
        while (accept(TokenKind::Comma)) {
            stmt.qubitArgs.push_back(
                qubitIndex(expect(TokenKind::Identifier).text));
        }
        expect(TokenKind::Semicolon);
        def.body.push_back(stmt);
    }
    macros_[name] = std::move(def);
}

void
Parser::parseBarrier(Circuit &out)
{
    expect(TokenKind::Keyword); // barrier
    // Operands are irrelevant for the flat IR barrier.
    while (peek().kind != TokenKind::Semicolon &&
           peek().kind != TokenKind::EndOfFile)
        get();
    expect(TokenKind::Semicolon);
    Gate g;
    g.op = Op::Barrier;
    out.add(g);
}

void
Parser::parseMeasure(Circuit &out)
{
    expect(TokenKind::Keyword); // measure
    const std::vector<QubitId> qubits = parseQubitOperand();
    expect(TokenKind::Arrow);
    // Classical target: `name` or `name[k]`; recorded but unused.
    expect(TokenKind::Identifier);
    if (accept(TokenKind::LBracket)) {
        expect(TokenKind::Integer);
        expect(TokenKind::RBracket);
    }
    expect(TokenKind::Semicolon);
    for (QubitId q : qubits)
        out.measure(q);
}

std::vector<QubitId>
Parser::parseQubitOperand()
{
    const std::string name = expect(TokenKind::Identifier).text;
    const auto it = qregs_.find(name);
    if (it == qregs_.end())
        fail("unknown qreg '" + name + "'");
    const Register &reg = it->second;
    if (accept(TokenKind::LBracket)) {
        const Token idx = expect(TokenKind::Integer);
        expect(TokenKind::RBracket);
        // Integer literals are unsigned, so only the upper bound can
        // fail; check it before narrowing.
        if (idx.numValue >= reg.size)
            fail("index " + idx.text + " out of range for qreg '" + name +
                 "'");
        return {reg.offset + static_cast<int>(idx.numValue)};
    }
    std::vector<QubitId> all(reg.size);
    for (int k = 0; k < reg.size; ++k)
        all[k] = reg.offset + k;
    return all;
}

double
Parser::parseAngle()
{
    double value = parseAngleTerm();
    while (true) {
        if (accept(TokenKind::Plus))
            value += parseAngleTerm();
        else if (accept(TokenKind::Minus))
            value -= parseAngleTerm();
        else
            return value;
    }
}

double
Parser::parseAngleTerm()
{
    double value = parseAngleFactor();
    while (true) {
        if (accept(TokenKind::Star)) {
            value *= parseAngleFactor();
        } else if (accept(TokenKind::Slash)) {
            const double d = parseAngleFactor();
            if (d == 0)
                fail("division by zero in angle expression");
            value /= d;
        } else {
            return value;
        }
    }
}

double
Parser::parseAngleFactor()
{
    if (accept(TokenKind::Minus))
        return -parseAngleFactor();
    if (accept(TokenKind::Plus))
        return parseAngleFactor();
    if (accept(TokenKind::LParen)) {
        const double v = parseAngle();
        expect(TokenKind::RParen);
        return v;
    }
    if (peek().kind == TokenKind::Pi) {
        get();
        return kPi;
    }
    if (peek().kind == TokenKind::Integer ||
        peek().kind == TokenKind::Real)
        return get().numValue;
    fail("expected a number, 'pi' or '(' in angle expression");
}

void
Parser::applyGate(Circuit &out, const std::string &gate_name,
                  const std::vector<double> &angles,
                  const std::vector<QubitId> &qubits)
{
    const auto macro = macros_.find(gate_name);
    if (macro != macros_.end()) {
        const MacroDef &def = macro->second;
        if (static_cast<int>(qubits.size()) != def.numQubits)
            fail("gate '" + gate_name + "' expects " +
                 std::to_string(def.numQubits) + " qubits");
        for (const MacroStmt &stmt : def.body) {
            if (stmt.isBarrier)
                continue;
            std::vector<QubitId> mapped;
            mapped.reserve(stmt.qubitArgs.size());
            for (int arg : stmt.qubitArgs)
                mapped.push_back(qubits[arg]);
            applyGate(out, stmt.gateName, stmt.angles, mapped);
        }
        return;
    }

    const auto builtin = kBuiltins.find(gate_name);
    if (builtin == kBuiltins.end())
        fail("unknown gate '" + gate_name + "'");
    const auto [want_angles, want_qubits] = builtin->second;
    if (static_cast<int>(angles.size()) != want_angles)
        fail("gate '" + gate_name + "' expects " +
             std::to_string(want_angles) + " angle parameter(s)");
    if (static_cast<int>(qubits.size()) != want_qubits)
        fail("gate '" + gate_name + "' expects " +
             std::to_string(want_qubits) + " qubit(s)");

    const QubitId a = qubits[0];
    const QubitId b = want_qubits == 2 ? qubits[1] : kInvalidId;
    if (want_qubits == 2 && a == b)
        fail("gate '" + gate_name + "' applied to the same qubit twice");
    const double ang = want_angles == 1 ? angles[0] : 0.0;

    if (gate_name == "h") out.h(a);
    else if (gate_name == "x") out.x(a);
    else if (gate_name == "y") out.add(Gate::one(Op::Y, a));
    else if (gate_name == "z") out.z(a);
    else if (gate_name == "s") out.add(Gate::one(Op::S, a));
    else if (gate_name == "sdg") out.add(Gate::one(Op::Sdg, a));
    else if (gate_name == "t") out.t(a);
    else if (gate_name == "tdg") out.tdg(a);
    else if (gate_name == "rx") out.rx(a, ang);
    else if (gate_name == "ry") out.ry(a, ang);
    else if (gate_name == "rz" || gate_name == "u1") out.rz(a, ang);
    else if (gate_name == "cx" || gate_name == "CX") out.cx(a, b);
    else if (gate_name == "cz") out.cz(a, b);
    else if (gate_name == "cp" || gate_name == "cu1") out.cphase(a, b, ang);
    else if (gate_name == "swap") out.swap(a, b);
    else if (gate_name == "rzz") out.cphase(a, b, 2 * ang);
    else if (gate_name == "ms" || gate_name == "rxx") out.ms(a, b, ang);
    else
        throw InternalError("builtin gate table out of sync");
}

void
Parser::parseApplication(Circuit &out, const std::string &gate_name)
{
    std::vector<double> angles;
    if (accept(TokenKind::LParen)) {
        if (peek().kind != TokenKind::RParen) {
            angles.push_back(parseAngle());
            while (accept(TokenKind::Comma))
                angles.push_back(parseAngle());
        }
        expect(TokenKind::RParen);
    }

    std::vector<std::vector<QubitId>> operands;
    operands.push_back(parseQubitOperand());
    while (accept(TokenKind::Comma))
        operands.push_back(parseQubitOperand());
    expect(TokenKind::Semicolon);

    // Whole-register operands broadcast (standard OpenQASM semantics):
    // all register operands must have equal size; scalars repeat.
    size_t broadcast = 1;
    for (const auto &ops : operands) {
        if (ops.size() > 1) {
            if (broadcast == 1)
                broadcast = ops.size();
            else if (broadcast != ops.size())
                fail("mismatched register sizes in gate '" + gate_name +
                     "'");
        }
    }
    for (size_t k = 0; k < broadcast; ++k) {
        std::vector<QubitId> qubits;
        qubits.reserve(operands.size());
        for (const auto &ops : operands)
            qubits.push_back(ops.size() == 1 ? ops[0] : ops[k]);
        applyGate(out, gate_name, angles, qubits);
    }
}

} // namespace

Circuit
parse(const std::string &source, const std::string &name)
{
    Parser parser(source, name);
    return parser.run();
}

Circuit
parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good())
        throw ConfigError("cannot open QASM file '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string base = path;
    const size_t slash = base.find_last_of('/');
    if (slash != std::string::npos)
        base = base.substr(slash + 1);
    return parse(buf.str(), base);
}

} // namespace qccd::qasm
