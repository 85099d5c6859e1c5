/**
 * @file
 * tdram_lint rule engine (DESIGN.md §15).
 *
 * Structure mirrors the protocol checker: a small front end (here a
 * C++ lexer instead of a trace loader) feeds a declarative rule
 * table. Each rule is a pure function over the token stream plus the
 * file's repo-relative path; path scoping (hot directories, subsystem
 * exemptions) is data in the tables below, not logic scattered
 * through the matchers.
 *
 * The lexer is deliberately lightweight: identifiers, numbers,
 * strings (incl. raw strings), character literals, comments and
 * preprocessor logical lines (continuations joined). That is enough
 * for structural matching — no preprocessing, no name lookup, no
 * types. Where a rule needs semantic context (is this lambda handed
 * to an InlineCallable? is this function setup-only?) it uses
 * declarative heuristics documented next to the corresponding table,
 * and intentional violations carry a
 * `// tdram-lint:allow(rule): rationale` suppression.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>

namespace tsim::lint
{
namespace
{

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind { Ident, Number, Str, Chr, Punct };

struct Tok
{
    TokKind kind;
    std::string text;
    int line;
};

struct Comment
{
    int line;      ///< line the comment starts on
    int endLine;   ///< line it ends on (== line for // comments)
    std::string text;
};

struct PpLine
{
    int line;
    std::string text;  ///< logical line, '\'-continuations joined
};

struct Lexed
{
    std::vector<Tok> toks;
    std::vector<Comment> comments;
    std::vector<PpLine> pps;
};

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Two-character punctuators kept as one token. */
const char *const kPunct2[] = {
    "::", "->", "==", "!=", "<=", ">=", "&&", "||", "<<", "++",
    "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
};

Lexed
lex(const std::string &s)
{
    Lexed out;
    std::size_t i = 0;
    const std::size_t n = s.size();
    int line = 1;
    bool lineHasToken = false;  // only-whitespace-so-far => '#' is a directive

    auto advanceLines = [&](const std::string &text) {
        line += static_cast<int>(std::count(text.begin(), text.end(), '\n'));
    };

    while (i < n) {
        const char c = s[i];
        if (c == '\n') {
            ++line;
            lineHasToken = false;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Preprocessor directive: '#' first on its (logical) line.
        if (c == '#' && !lineHasToken) {
            const int start = line;
            std::string text;
            while (i < n) {
                if (s[i] == '\\' && i + 1 < n && s[i + 1] == '\n') {
                    text += ' ';
                    i += 2;
                    ++line;
                    continue;
                }
                if (s[i] == '\n')
                    break;
                // Strip line comments inside the directive.
                if (s[i] == '/' && i + 1 < n && s[i + 1] == '/') {
                    while (i < n && s[i] != '\n')
                        ++i;
                    break;
                }
                if (s[i] == '/' && i + 1 < n && s[i + 1] == '*') {
                    std::size_t j = s.find("*/", i + 2);
                    std::string body =
                        s.substr(i, j == std::string::npos
                                        ? std::string::npos : j + 2 - i);
                    advanceLines(body);
                    i = (j == std::string::npos) ? n : j + 2;
                    text += ' ';
                    continue;
                }
                text += s[i++];
            }
            out.pps.push_back({start, text});
            continue;
        }
        if (c == '/' && i + 1 < n && s[i + 1] == '/') {
            std::size_t j = s.find('\n', i);
            std::string body =
                s.substr(i, j == std::string::npos ? std::string::npos
                                                   : j - i);
            out.comments.push_back({line, line, body});
            i = (j == std::string::npos) ? n : j;
            continue;
        }
        if (c == '/' && i + 1 < n && s[i + 1] == '*') {
            const int start = line;
            std::size_t j = s.find("*/", i + 2);
            std::string body = s.substr(
                i, j == std::string::npos ? std::string::npos : j + 2 - i);
            advanceLines(body);
            out.comments.push_back({start, line, body});
            i = (j == std::string::npos) ? n : j + 2;
            continue;
        }
        lineHasToken = true;
        // Raw string literal.
        if (c == 'R' && i + 1 < n && s[i + 1] == '"') {
            std::size_t p = i + 2;
            std::string delim;
            while (p < n && s[p] != '(')
                delim += s[p++];
            const std::string close = ")" + delim + "\"";
            std::size_t j = s.find(close, p);
            std::string body = s.substr(
                i, j == std::string::npos ? std::string::npos
                                          : j + close.size() - i);
            const int start = line;
            advanceLines(body);
            out.toks.push_back({TokKind::Str, body, start});
            i = (j == std::string::npos) ? n : j + close.size();
            continue;
        }
        if (c == '"' || c == '\'') {
            const char quote = c;
            std::size_t j = i + 1;
            while (j < n && s[j] != quote) {
                if (s[j] == '\\')
                    ++j;
                ++j;
            }
            out.toks.push_back(
                {quote == '"' ? TokKind::Str : TokKind::Chr,
                 s.substr(i, j + 1 - i), line});
            i = (j < n) ? j + 1 : n;
            continue;
        }
        if (identStart(c)) {
            std::size_t j = i;
            while (j < n && identChar(s[j]))
                ++j;
            out.toks.push_back({TokKind::Ident, s.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(s[i + 1])))) {
            std::size_t j = i;
            while (j < n &&
                   (identChar(s[j]) || s[j] == '.' || s[j] == '\'' ||
                    ((s[j] == '+' || s[j] == '-') && j > i &&
                     (s[j - 1] == 'e' || s[j - 1] == 'E' ||
                      s[j - 1] == 'p' || s[j - 1] == 'P'))))
                ++j;
            out.toks.push_back({TokKind::Number, s.substr(i, j - i), line});
            i = j;
            continue;
        }
        // Punctuator (two-char forms joined).
        if (i + 1 < n) {
            const std::string two = s.substr(i, 2);
            bool found = false;
            for (const char *p : kPunct2) {
                if (two == p) {
                    out.toks.push_back({TokKind::Punct, two, line});
                    i += 2;
                    found = true;
                    break;
                }
            }
            if (found)
                continue;
        }
        out.toks.push_back({TokKind::Punct, std::string(1, c), line});
        ++i;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Declarative tables (edit these to tune a rule; see DESIGN.md §15)
// ---------------------------------------------------------------------------

/** Directories whose code is hot-path (hot-alloc / sbo-spill scope). */
const char *const kHotDirs[] = {
    "src/sim/", "src/dram/", "src/dcache/", "src/workload/", "src/mem/",
};

/**
 * Functions exempt from hot-alloc by name: setup/teardown/reporting.
 * Compared as a lowercase substring of the function name; ctors,
 * dtors and operator<< are always exempt.
 */
const char *const kColdNames[] = {
    "init",  "setup",  "config", "reset",    "clear",  "finish",
    "final", "report", "dump",   "print",    "summar", "describe",
    "render", "parse", "load",   "open",     "close",  "main",
    "usage", "teardown", "destroy", "regstat", "log",
};

/** Factory-style functions (object construction = setup), by prefix. */
const char *const kColdPrefixes[] = {"make", "create", "build"};

/**
 * Identifiers that mark a statement as an InlineCallable sink: a
 * lambda in the same statement must follow the init-capture idiom
 * (sbo-spill). Extend this list when a new callback slot appears.
 */
const char *const kSboSinks[] = {
    "schedule",   "scheduleIn",  "InlineCallable", "InlineFunction",
    "ChanTagCb",  "ChanDataCb",  "Callback",       "onTagResult",
    "onDataDone",
};

/** Capture names treated as PoolRef-typed for sbo-spill. */
bool
poolRefName(const std::string &name)
{
    if (name == "txn" || name == "txnPtr")
        return true;
    const auto ends = [&](const char *suf) {
        const std::size_t m = std::string(suf).size();
        return name.size() >= m &&
               name.compare(name.size() - m, m, suf) == 0;
    };
    return ends("Txn") || ends("txn");
}

/** Files allowed to touch TraceBuffer/ProtocolChecker directly. */
const char *const kBusExemptPrefixes[] = {
    "src/trace/", "src/check/", "src/sim/event_bus.hh",
};

const LintRuleInfo kRules[] = {
    {"sbo-spill", "InlineCallable sink statements",
     "lambdas handed to InlineCallable/InlineFunction must use explicit "
     "init-captures ([this, txn = txn]); no [&]/[=] defaults, no by-ref "
     "or plain-copy capture of PoolRef values"},
    {"hot-alloc", "src/sim, src/dram, src/dcache, src/workload, src/mem",
     "no new/malloc/std::function/make_shared/make_unique/unordered "
     "containers, and no std::string/std::vector locals, outside "
     "setup/teardown"},
    {"nondet", "files that emit trace/check/stats events",
     "no rand()/time()/clock()/random_device, std::hash over pointers, "
     "or iteration over std::unordered_map/set"},
    {"bus-discipline", "src/ outside the bus and trace/check subsystems",
     "trace/check emission goes through emit(owner, Ev{...}); no direct "
     "TraceBuffer::record / ProtocolChecker::onEvent calls"},
    {"include-guard", "all headers",
     "self-consistent include guard; name derived from the path "
     "(TSIM_<DIR>_<FILE>_HH)"},
    {"allow-audit", "all linted files",
     "every tdram-lint:allow() names a registered rule, carries a "
     "rationale, and suppresses at least one finding"},
};

bool
startsWith(const std::string &s, const std::string &p)
{
    return s.compare(0, p.size(), p) == 0;
}

bool
hotDirPath(const std::string &path)
{
    for (const char *d : kHotDirs)
        if (startsWith(path, d))
            return true;
    return false;
}

std::string
lower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

bool
coldFunctionName(const std::string &name)
{
    const std::string l = lower(name);
    for (const char *c : kColdNames)
        if (l.find(c) != std::string::npos)
            return true;
    for (const char *p : kColdPrefixes)
        if (l.rfind(p, 0) == 0)
            return true;
    return false;
}

// ---------------------------------------------------------------------------
// Scope tracking (function-body / class / namespace classification)
// ---------------------------------------------------------------------------

struct Scope
{
    enum Kind { Namespace, Class, Function, Block } kind = Block;
    std::string name;
    bool coldFn = false;  ///< Function only: setup/teardown exempt
};

/** Innermost enclosing Function, or nullptr. */
const Scope *
enclosingFunction(const std::vector<Scope> &scopes)
{
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
        if (it->kind == Scope::Function)
            return &*it;
        if (it->kind == Scope::Class || it->kind == Scope::Namespace)
            return nullptr;
    }
    return nullptr;
}

bool
isKeyword(const Tok &t, const char *kw)
{
    return t.kind == TokKind::Ident && t.text == kw;
}

bool
isPunct(const Tok &t, const char *p)
{
    return t.kind == TokKind::Punct && t.text == p;
}

/**
 * Classify the '{' at toks[i]. Heuristic, tuned to this codebase's
 * gem5-style layout; misclassifying a constructor body as Block is
 * harmless (class scope is not a function body, and ctors are exempt
 * from hot-alloc anyway).
 */
Scope
classifyBrace(const std::vector<Tok> &toks, std::size_t i,
              const std::vector<Scope> &scopes)
{
    Scope blk;  // default: transparent block
    blk.kind = Scope::Block;
    if (i == 0)
        return blk;

    std::size_t j = i - 1;

    // namespace [name] {
    if (isKeyword(toks[j], "namespace") ||
        (toks[j].kind == TokKind::Ident && j > 0 &&
         isKeyword(toks[j - 1], "namespace"))) {
        Scope s;
        s.kind = Scope::Namespace;
        return s;
    }

    // class/struct/union/enum Name ... { — scan back over the
    // base-clause until a statement boundary.
    {
        std::size_t k = j;
        int guard = 64;
        while (guard-- > 0) {
            const Tok &t = toks[k];
            if (isKeyword(t, "class") || isKeyword(t, "struct") ||
                isKeyword(t, "union") || isKeyword(t, "enum")) {
                Scope s;
                s.kind = Scope::Class;
                if (k + 1 < toks.size() &&
                    toks[k + 1].kind == TokKind::Ident &&
                    toks[k + 1].text != "final")
                    s.name = toks[k + 1].text;
                return s;
            }
            if (isPunct(t, ";") || isPunct(t, "{") || isPunct(t, "}") ||
                isPunct(t, ")") || isPunct(t, "="))
                break;
            if (k == 0)
                break;
            --k;
        }
    }

    // Skip back over trailing-return types and post-qualifiers so j
    // lands on the ')' of a parameter list (or something else).
    {
        int guard = 64;
        while (guard-- > 0 && j > 0) {
            const Tok &t = toks[j];
            if (isKeyword(t, "const") || isKeyword(t, "noexcept") ||
                isKeyword(t, "override") || isKeyword(t, "final") ||
                isKeyword(t, "mutable")) {
                --j;
                continue;
            }
            // Trailing return: ... ') -> Type {' — skip the type.
            if (t.kind == TokKind::Ident || isPunct(t, "::") ||
                isPunct(t, "<") || isPunct(t, ">") || isPunct(t, "*") ||
                isPunct(t, "&")) {
                std::size_t k = j;
                while (k > 0 &&
                       (toks[k].kind == TokKind::Ident ||
                        isPunct(toks[k], "::") || isPunct(toks[k], "<") ||
                        isPunct(toks[k], ">") || isPunct(toks[k], "*") ||
                        isPunct(toks[k], "&")))
                    --k;
                if (k > 0 && isPunct(toks[k], "->")) {
                    j = k - 1;
                    continue;
                }
                break;
            }
            break;
        }
    }

    const Tok &p = toks[j];

    // '] {' or '] (args) {': lambda body — a function scope that
    // inherits hot/cold from the enclosing function.
    if (isPunct(p, "]")) {
        Scope s;
        s.kind = Scope::Function;
        s.name = "<lambda>";
        const Scope *f = enclosingFunction(scopes);
        s.coldFn = f ? f->coldFn : true;  // namespace-scope init: cold
        return s;
    }

    if (isPunct(p, ")")) {
        // Find the matching '('.
        int depth = 1;
        std::size_t k = j;
        while (k > 0 && depth > 0) {
            --k;
            if (isPunct(toks[k], ")"))
                ++depth;
            else if (isPunct(toks[k], "("))
                --depth;
        }
        if (k == 0 && depth > 0)
            return blk;
        const std::size_t open = k;
        if (open == 0)
            return blk;
        const Tok &before = toks[open - 1];
        if (isKeyword(before, "if") || isKeyword(before, "for") ||
            isKeyword(before, "while") || isKeyword(before, "switch") ||
            isKeyword(before, "catch"))
            return blk;
        if (isPunct(before, "]")) {
            Scope s;
            s.kind = Scope::Function;
            s.name = "<lambda>";
            const Scope *f = enclosingFunction(scopes);
            s.coldFn = f ? f->coldFn : true;
            return s;
        }
        if (before.kind == TokKind::Ident) {
            // 'name(...) {'. A preceding ':' or ',' means we are in a
            // constructor's member-init list — the body is the ctor's.
            Scope s;
            s.kind = Scope::Function;
            s.name = before.text;
            if (open >= 2 &&
                (isPunct(toks[open - 2], ":") ||
                 isPunct(toks[open - 2], ","))) {
                s.name = "<ctor>";
                s.coldFn = true;
                return s;
            }
            // operator...(...)
            if (open >= 2 && isKeyword(toks[open - 2], "operator")) {
                s.name = "operator";
                s.coldFn = true;  // operators: formatting/comparison glue
                return s;
            }
            if (open >= 3 && toks[open - 2].kind == TokKind::Punct &&
                isKeyword(toks[open - 3], "operator")) {
                s.name = "operator" + toks[open - 2].text;
                s.coldFn = true;
                return s;
            }
            // Ctor/dtor: name matches the enclosing class, or ~name.
            bool ctor = false;
            if (open >= 2 && isPunct(toks[open - 2], "~"))
                ctor = true;
            for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
                if (it->kind == Scope::Class && it->name == s.name)
                    ctor = true;
            }
            // Out-of-line Class::Class / Class::~Class.
            if (open >= 3 && isPunct(toks[open - 2], "::") &&
                toks[open - 3].kind == TokKind::Ident &&
                toks[open - 3].text == s.name)
                ctor = true;
            s.coldFn = ctor || coldFunctionName(s.name);
            return s;
        }
        return blk;
    }

    return blk;
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Allow
{
    int lineFrom = 0;  ///< first covered line
    int lineTo = 0;    ///< last covered line
    std::string rule;
    bool used = false;
};

/**
 * Parse every `tdram-lint:allow(rule): rationale` comment. Invalid
 * ones (unknown rule, missing rationale) produce allow-audit
 * findings immediately. A valid allow at the end of a code line
 * covers that line; a stand-alone allow (possibly spanning several
 * comment lines) covers the statement that follows it, up to the
 * next ';', '{' or '}'.
 */
std::vector<Allow>
parseAllows(const Lexed &lx, const std::string &path,
            std::vector<LintFinding> &findings)
{
    // Does line L carry any code token?
    std::set<int> codeLines;
    for (const Tok &t : lx.toks)
        codeLines.insert(t.line);

    // Chain end: a run of comments on consecutive lines annotates the
    // statement after the last of them.
    auto chainEnd = [&](std::size_t idx) {
        int end = lx.comments[idx].endLine;
        for (std::size_t k = idx + 1; k < lx.comments.size(); ++k) {
            if (lx.comments[k].line == end + 1 &&
                !codeLines.count(lx.comments[k].line))
                end = lx.comments[k].endLine;
            else if (lx.comments[k].line <= end)
                continue;
            else
                break;
        }
        return end;
    };

    // Line of the terminator (';', '{' or '}') of the statement that
    // starts strictly after @p line.
    auto statementEndAfter = [&](int line) {
        for (const Tok &t : lx.toks) {
            if (t.line <= line)
                continue;
            // Scan from here to the statement terminator.
            for (const Tok *p = &t; p <= &lx.toks.back(); ++p) {
                if (isPunct(*p, ";") || isPunct(*p, "{") ||
                    isPunct(*p, "}"))
                    return p->line;
            }
            break;
        }
        return line + 1;
    };

    std::vector<Allow> allows;
    for (std::size_t ci = 0; ci < lx.comments.size(); ++ci) {
        const Comment &c = lx.comments[ci];
        std::size_t pos = 0;
        while ((pos = c.text.find("tdram-lint:allow", pos)) !=
               std::string::npos) {
            // Anchored: only comment markup (whitespace, '/', '*')
            // may precede the marker on its line, so prose *about*
            // the idiom (like this tool's own docs) never parses as
            // a directive.
            bool anchored = true;
            for (std::size_t b = pos; b-- > 0;) {
                const char pc = c.text[b];
                if (pc == '\n')
                    break;
                if (pc != ' ' && pc != '\t' && pc != '/' && pc != '*') {
                    anchored = false;
                    break;
                }
            }
            if (!anchored) {
                pos += std::string("tdram-lint:allow").size();
                continue;
            }
            pos += std::string("tdram-lint:allow").size();
            Allow a;
            if (codeLines.count(c.line)) {
                // Inline annotation at the end of a code line:
                // covers that line only.
                a.lineFrom = c.line;
                a.lineTo = c.line;
            } else {
                // Stand-alone comment (block): covers the statement
                // that follows it.
                a.lineFrom = c.line;
                a.lineTo = statementEndAfter(chainEnd(ci));
            }
            if (pos >= c.text.size() || c.text[pos] != '(') {
                findings.push_back(
                    {"allow-audit", path, c.line,
                     "malformed suppression: expected "
                     "tdram-lint:allow(rule-id): rationale"});
                continue;
            }
            const std::size_t close = c.text.find(')', pos);
            if (close == std::string::npos) {
                findings.push_back({"allow-audit", path, c.line,
                                    "unterminated tdram-lint:allow("});
                break;
            }
            a.rule = c.text.substr(pos + 1, close - pos - 1);
            if (!findLintRule(a.rule)) {
                findings.push_back(
                    {"allow-audit", path, c.line,
                     "allow() names unknown rule '" + a.rule +
                         "' (see tdram_lint --rules)"});
                pos = close;
                continue;
            }
            // Rationale: ':' then non-trivial text.
            std::size_t r = close + 1;
            while (r < c.text.size() &&
                   (c.text[r] == ':' || c.text[r] == ' '))
                ++r;
            std::string rationale = c.text.substr(r);
            // Trim block-comment tail and whitespace.
            const std::size_t star = rationale.find("*/");
            if (star != std::string::npos)
                rationale.resize(star);
            while (!rationale.empty() &&
                   std::isspace(static_cast<unsigned char>(
                       rationale.back())))
                rationale.pop_back();
            if (c.text[close + 1 == c.text.size() ? close : close + 1] !=
                    ':' ||
                rationale.size() < 8) {
                findings.push_back(
                    {"allow-audit", path, c.line,
                     "allow(" + a.rule +
                         ") lacks a rationale — write "
                         "tdram-lint:allow(" +
                         a.rule + "): why this site is exempt"});
                pos = close;
                continue;
            }
            allows.push_back(a);
            pos = close;
        }
    }
    return allows;
}

// ---------------------------------------------------------------------------
// Rule passes
// ---------------------------------------------------------------------------

void
pushFinding(std::vector<LintFinding> &out, const char *rule,
            const std::string &path, int line, std::string detail)
{
    out.push_back({rule, path, line, std::move(detail)});
}

/** sbo-spill: audit lambda capture lists in sink statements. */
void
ruleSboSpill(const Lexed &lx, const std::string &path,
             std::vector<LintFinding> &out)
{
    const auto &t = lx.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!isPunct(t[i], "["))
            continue;
        // Lambda introducer, not subscript/attribute.
        if (i > 0 && (t[i - 1].kind == TokKind::Ident ||
                      t[i - 1].kind == TokKind::Number ||
                      isPunct(t[i - 1], ")") || isPunct(t[i - 1], "]")))
            continue;
        if (i + 1 < t.size() && isPunct(t[i + 1], "["))
            continue;  // [[attribute]]
        // Statement context: scan back to the nearest boundary and
        // look for a sink identifier.
        bool sink = false;
        for (std::size_t j = i; j-- > 0;) {
            if (isPunct(t[j], ";") || isPunct(t[j], "{") ||
                isPunct(t[j], "}"))
                break;
            if (t[j].kind == TokKind::Ident) {
                for (const char *s : kSboSinks) {
                    if (t[j].text == s) {
                        sink = true;
                        break;
                    }
                }
            }
            if (sink)
                break;
        }
        if (!sink)
            continue;
        // Parse the capture list up to the matching ']'.
        std::size_t j = i + 1;
        int depth = 0;  // nested (), <>, [] inside init-captures
        std::vector<std::vector<const Tok *>> items(1);
        for (; j < t.size(); ++j) {
            if (isPunct(t[j], "(") || isPunct(t[j], "[") ||
                isPunct(t[j], "{"))
                ++depth;
            else if (isPunct(t[j], ")") || isPunct(t[j], "}"))
                --depth;
            else if (isPunct(t[j], "]")) {
                if (depth == 0)
                    break;
                --depth;
            } else if (isPunct(t[j], ",") && depth == 0) {
                items.emplace_back();
                continue;
            }
            items.back().push_back(&t[j]);
        }
        const int line = t[i].line;
        for (const auto &item : items) {
            if (item.empty())
                continue;
            const bool hasInit = std::any_of(
                item.begin(), item.end(),
                [](const Tok *tok) { return isPunct(*tok, "="); });
            if (item.size() == 1 && isPunct(*item[0], "&")) {
                pushFinding(out, "sbo-spill", path, line,
                            "default by-reference capture [&] in an "
                            "InlineCallable sink; enumerate captures "
                            "explicitly ([this, txn = txn, ...])");
                continue;
            }
            if (item.size() == 1 && isPunct(*item[0], "=")) {
                pushFinding(out, "sbo-spill", path, line,
                            "default copy capture [=] in an "
                            "InlineCallable sink; enumerate captures "
                            "explicitly ([this, txn = txn, ...])");
                continue;
            }
            if (isPunct(*item[0], "&") && item.size() >= 2 &&
                item[1]->kind == TokKind::Ident && !hasInit &&
                poolRefName(item[1]->text)) {
                pushFinding(out, "sbo-spill", path, line,
                            "PoolRef '" + item[1]->text +
                                "' captured by reference; the closure "
                                "must own its reference — use '" +
                                item[1]->text + " = " + item[1]->text +
                                "'");
                continue;
            }
            if (item.size() == 1 && item[0]->kind == TokKind::Ident &&
                poolRefName(item[0]->text)) {
                pushFinding(
                    out, "sbo-spill", path, line,
                    "PoolRef '" + item[0]->text +
                        "' captured by plain copy; a const& source "
                        "gives the closure a const member whose move "
                        "degrades to a refcounting copy and spills "
                        "InlineCallable to the heap — use '" +
                        item[0]->text + " = " + item[0]->text + "'");
            }
        }
    }
}

/** hot-alloc: allocation primitives in hot-path code. */
void
ruleHotAlloc(const Lexed &lx, const std::string &path,
             std::vector<LintFinding> &out)
{
    if (!hotDirPath(path))
        return;
    const auto &t = lx.toks;
    std::vector<Scope> scopes;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (isPunct(t[i], "{")) {
            scopes.push_back(classifyBrace(t, i, scopes));
            continue;
        }
        if (isPunct(t[i], "}")) {
            if (!scopes.empty())
                scopes.pop_back();
            continue;
        }
        if (t[i].kind != TokKind::Ident)
            continue;
        const std::string &w = t[i].text;
        const int line = t[i].line;
        const bool stdQualified =
            i >= 2 && isPunct(t[i - 1], "::") && isKeyword(t[i - 2], "std");

        // File-wide bans (member declarations are the problem):
        if (w == "function" && stdQualified) {
            pushFinding(out, "hot-alloc", path, line,
                        "std::function in a hot-path directory; use "
                        "InlineCallable (sim/inline_function.hh)");
            continue;
        }
        if (w == "unordered_map" || w == "unordered_set") {
            pushFinding(out, "hot-alloc", path, line,
                        "std::" + w +
                            " allocates a node per insert and exposes "
                            "iteration-order hazards; use OpenHashMap "
                            "(sim/open_map.hh)");
            continue;
        }
        if (w == "make_shared" || w == "make_unique" || w == "malloc" ||
            w == "calloc" || w == "realloc" || w == "strdup" ||
            w == "new") {
            const Scope *fn = enclosingFunction(scopes);
            if (!fn || fn->coldFn)
                continue;  // declarations / setup / teardown
            if (w == "new" && i + 1 < t.size() && isPunct(t[i + 1], "("))
                continue;  // placement new into pooled storage
            pushFinding(out, "hot-alloc", path, line,
                        "'" + w + "' in hot-path function '" + fn->name +
                            "'; pool it (sim/slab_pool.hh) or move it "
                            "to setup");
            continue;
        }
        if (stdQualified &&
            (w == "string" || w == "vector" || w == "deque" ||
             w == "list" || w == "map" || w == "set" ||
             w == "to_string")) {
            const Scope *fn = enclosingFunction(scopes);
            if (!fn || fn->coldFn)
                continue;
            pushFinding(out, "hot-alloc", path, line,
                        "std::" + w + " in hot-path function '" +
                            fn->name +
                            "'; allocating containers belong in "
                            "setup/teardown, not per-event code");
        }
    }
}

/** nondet: determinism hazards in files that feed golden outputs. */
void
ruleNondet(const Lexed &lx, const std::string &path,
           std::vector<LintFinding> &out)
{
    const auto &t = lx.toks;
    // Scope: emission subsystems plus any file that emits events.
    bool inScope = startsWith(path, "src/trace/") ||
                   startsWith(path, "src/check/") ||
                   startsWith(path, "src/stats/") || hotDirPath(path);
    if (!inScope) {
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (isKeyword(t[i], "emit") && isPunct(t[i + 1], "(")) {
                inScope = true;
                break;
            }
        }
    }
    if (!inScope)
        return;

    // Names declared as std::unordered_map/set in this file.
    std::set<std::string> unorderedNames;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!isKeyword(t[i], "unordered_map") &&
            !isKeyword(t[i], "unordered_set"))
            continue;
        std::size_t j = i + 1;
        if (j < t.size() && isPunct(t[j], "<")) {
            int depth = 0;
            for (; j < t.size(); ++j) {
                if (isPunct(t[j], "<"))
                    ++depth;
                else if (isPunct(t[j], ">") && --depth == 0) {
                    ++j;
                    break;
                }
            }
        }
        if (j < t.size() && t[j].kind == TokKind::Ident)
            unorderedNames.insert(t[j].text);
    }

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        const std::string &w = t[i].text;
        const int line = t[i].line;
        const bool called =
            i + 1 < t.size() && isPunct(t[i + 1], "(");
        if ((w == "rand" || w == "srand" || w == "rand_r" ||
             w == "drand48" || w == "time" || w == "clock" ||
             w == "gettimeofday") &&
            called) {
            pushFinding(out, "nondet", path, line,
                        "'" + w +
                            "()' is nondeterministic; derive randomness "
                            "from sim/rng.hh seeded state and time from "
                            "curTick()");
            continue;
        }
        if (w == "random_device" || w == "steady_clock" ||
            w == "system_clock" || w == "high_resolution_clock") {
            pushFinding(out, "nondet", path, line,
                        "'" + w +
                            "' is host-entropy/wall-clock; it must not "
                            "feed simulated output");
            continue;
        }
        if (w == "hash" && i + 1 < t.size() && isPunct(t[i + 1], "<")) {
            int depth = 0;
            for (std::size_t j = i + 1; j < t.size(); ++j) {
                if (isPunct(t[j], "<"))
                    ++depth;
                else if (isPunct(t[j], ">")) {
                    if (--depth == 0)
                        break;
                } else if (isPunct(t[j], "*") && depth > 0) {
                    pushFinding(out, "nondet", path, line,
                                "std::hash over a pointer type: pointer "
                                "values vary across runs and threads");
                    break;
                }
            }
            continue;
        }
        // Iteration over a declared unordered container.
        if (unorderedNames.count(w)) {
            // range-for: 'for ( ... : name'
            bool rangeFor = false;
            for (std::size_t j = i; j-- > 0;) {
                if (isPunct(t[j], ";") || isPunct(t[j], "{") ||
                    isPunct(t[j], "}") || isPunct(t[j], ")"))
                    break;
                if (isPunct(t[j], ":")) {
                    for (std::size_t k = j; k-- > 0;) {
                        if (isKeyword(t[k], "for")) {
                            rangeFor = true;
                            break;
                        }
                        if (isPunct(t[k], ";") || isPunct(t[k], "{") ||
                            isPunct(t[k], "}"))
                            break;
                    }
                    break;
                }
            }
            const bool beginCall =
                i + 2 < t.size() &&
                (isPunct(t[i + 1], ".") || isPunct(t[i + 1], "->")) &&
                (isKeyword(t[i + 2], "begin") ||
                 isKeyword(t[i + 2], "cbegin"));
            if (rangeFor || beginCall) {
                pushFinding(out, "nondet", path, line,
                            "iteration over std::unordered container '" +
                                w +
                                "': order is implementation-defined and "
                                "can leak into trace/stats output");
            }
        }
    }
}

/** bus-discipline: no emission behind the event bus's back. */
void
ruleBusDiscipline(const Lexed &lx, const std::string &path,
                  std::vector<LintFinding> &out)
{
    if (!startsWith(path, "src/"))
        return;  // tests/tools/bench drive the subsystems directly
    for (const char *p : kBusExemptPrefixes)
        if (startsWith(path, p))
            return;
    const auto &t = lx.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        const std::string &w = t[i].text;
        if ((w == "traceBuf" || w == "tracer") && i + 2 < t.size() &&
            (isPunct(t[i + 1], "->") || isPunct(t[i + 1], ".")) &&
            isKeyword(t[i + 2], "record")) {
            pushFinding(out, "bus-discipline", path, t[i].line,
                        "direct TraceBuffer::record call; emission must "
                        "go through emit(owner, Ev{...})");
            continue;
        }
        if (w == "checker" && i + 2 < t.size() &&
            (isPunct(t[i + 1], "->") || isPunct(t[i + 1], ".")) &&
            isKeyword(t[i + 2], "onEvent")) {
            pushFinding(out, "bus-discipline", path, t[i].line,
                        "direct ProtocolChecker::onEvent call; emission "
                        "must go through emit(owner, Ev{...})");
        }
    }
}

/** First identifier-ish word after the directive keyword. */
std::string
ppWordAfter(const std::string &pp, const std::string &kw)
{
    std::size_t p = pp.find(kw);
    if (p == std::string::npos)
        return "";
    p += kw.size();
    while (p < pp.size() &&
           std::isspace(static_cast<unsigned char>(pp[p])))
        ++p;
    std::size_t e = p;
    while (e < pp.size() && identChar(pp[e]))
        ++e;
    return pp.substr(p, e - p);
}

/** include-guard: presence, self-consistency, TSIM_* naming. */
void
ruleIncludeGuard(const Lexed &lx, const std::string &path,
                 std::vector<LintFinding> &out)
{
    if (path.size() < 3 || path.compare(path.size() - 3, 3, ".hh") != 0)
        return;
    for (const PpLine &pp : lx.pps) {
        if (pp.text.find("#pragma") == 0 &&
            pp.text.find("once") != std::string::npos)
            return;  // pragma once accepted anywhere near the top
    }
    if (lx.pps.empty()) {
        pushFinding(out, "include-guard", path, 1,
                    "header has no include guard");
        return;
    }
    const std::string guard = ppWordAfter(lx.pps[0].text, "#ifndef");
    if (guard.empty()) {
        pushFinding(out, "include-guard", path, lx.pps[0].line,
                    "header must open with '#ifndef GUARD' (or "
                    "#pragma once)");
        return;
    }
    if (lx.pps.size() < 2 ||
        ppWordAfter(lx.pps[1].text, "#define") != guard) {
        pushFinding(out, "include-guard", path, lx.pps[0].line,
                    "include guard '#ifndef " + guard +
                        "' not followed by '#define " + guard + "'");
        return;
    }
    if (lx.pps.back().text.rfind("#endif", 0) != 0) {
        pushFinding(out, "include-guard", path, lx.pps.back().line,
                    "include guard not closed by a final #endif");
        return;
    }
    // Derived name: strip src/, uppercase, '/'|'.'|'-' -> '_'.
    std::string rel = path;
    if (startsWith(rel, "src/"))
        rel = rel.substr(4);
    std::string want = "TSIM_";
    for (char c : rel) {
        if (identChar(c))
            want += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            want += '_';
    }
    if (guard != want) {
        pushFinding(out, "include-guard", path, lx.pps[0].line,
                    "guard '" + guard + "' does not match the "
                    "path-derived name '" + want + "'");
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<LintRuleInfo> &
lintRules()
{
    static const std::vector<LintRuleInfo> table(std::begin(kRules),
                                                 std::end(kRules));
    return table;
}

const LintRuleInfo *
findLintRule(const std::string &id)
{
    for (const LintRuleInfo &r : lintRules())
        if (id == r.id)
            return &r;
    return nullptr;
}

std::string
formatFinding(const LintFinding &f)
{
    std::ostringstream os;
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.detail;
    return os.str();
}

bool
lintablePath(const std::string &path)
{
    const auto ends = [&](const char *suf) {
        const std::size_t m = std::string(suf).size();
        return path.size() >= m &&
               path.compare(path.size() - m, m, suf) == 0;
    };
    return ends(".hh") || ends(".cc") || ends(".cpp");
}

std::vector<LintFinding>
lintFile(const std::string &path, const std::string &content)
{
    const Lexed lx = lex(content);

    std::vector<LintFinding> raw;
    std::vector<Allow> allows = parseAllows(lx, path, raw);

    ruleSboSpill(lx, path, raw);
    ruleHotAlloc(lx, path, raw);
    ruleNondet(lx, path, raw);
    ruleBusDiscipline(lx, path, raw);
    ruleIncludeGuard(lx, path, raw);

    // Apply suppressions: each allow covers findings of its rule
    // within its [lineFrom, lineTo] window (its own line for inline
    // annotations, the annotated statement for stand-alone comments).
    std::vector<LintFinding> kept;
    for (const LintFinding &f : raw) {
        bool suppressed = false;
        for (Allow &a : allows) {
            if (a.rule == f.rule && a.lineFrom <= f.line &&
                f.line <= a.lineTo) {
                a.used = true;
                suppressed = true;
            }
        }
        if (!suppressed)
            kept.push_back(f);
    }
    for (const Allow &a : allows) {
        if (!a.used) {
            kept.push_back(
                {"allow-audit", path, a.lineFrom,
                 "allow(" + a.rule +
                     ") suppresses nothing — the finding moved or was "
                     "fixed; delete the stale suppression"});
        }
    }

    std::stable_sort(kept.begin(), kept.end(),
                     [](const LintFinding &a, const LintFinding &b) {
                         return a.line < b.line;
                     });
    return kept;
}

} // namespace tsim::lint
