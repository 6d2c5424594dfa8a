#include "model.hh"

#include <algorithm>
#include <cctype>

namespace wormnet_lint
{

namespace
{

bool
isKeyword(const std::string &s)
{
    static const std::set<std::string> kw = {
        "if",       "for",     "while",    "switch",  "return",
        "sizeof",   "alignof", "decltype", "catch",   "new",
        "delete",   "throw",   "static_assert", "case", "do",
        "else",     "goto",    "co_await", "co_return", "co_yield",
        "constexpr", "const",  "noexcept", "alignas", "typeid",
    };
    return kw.count(s) != 0;
}

bool
typeTextHasUnordered(const std::string &text)
{
    return text.find("unordered_map") != std::string::npos ||
           text.find("unordered_set") != std::string::npos ||
           text.find("unordered_multimap") != std::string::npos ||
           text.find("unordered_multiset") != std::string::npos;
}

/** Concatenate token texts with single spaces (for substring
 *  matching against type names). */
std::string
joinTokens(const std::vector<Token> &toks, std::size_t b,
           std::size_t e)
{
    std::string out;
    for (std::size_t i = b; i < e && i < toks.size(); ++i) {
        if (!out.empty())
            out += ' ';
        out += toks[i].text;
    }
    return out;
}

/** Find the matching close brace for the open brace at @p open. */
std::size_t
matchBrace(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].is("{"))
            ++depth;
        else if (toks[i].is("}")) {
            --depth;
            if (depth == 0)
                return i;
        }
    }
    return toks.size();
}

struct PendingGroup
{
    std::size_t open = 0, close = 0; ///< indices into pending
    std::size_t nameTok = 0;         ///< ident before the '('
    bool found = false;
};

/** First depth-0 paren group in @p p whose '(' directly follows an
 *  identifier (or an operator spelling) — the function-name group of
 *  a declaration/definition, if there is one. */
PendingGroup
firstNamedParenGroup(const std::vector<Token> &p)
{
    PendingGroup g;
    int depth = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i].is("(")) {
            if (depth == 0 && i > 0) {
                std::size_t k = i - 1;
                bool named = false;
                if (p[k].isIdent() && !isKeyword(p[k].text)) {
                    named = true;
                } else if (p[k].kind == TokKind::Punct && k > 0 &&
                           p[k - 1].is("operator")) {
                    named = true; // operator<< and friends
                }
                if (named) {
                    g.open = i;
                    g.nameTok = k;
                    int d2 = 0;
                    for (std::size_t j = i; j < p.size(); ++j) {
                        if (p[j].is("("))
                            ++d2;
                        else if (p[j].is(")")) {
                            --d2;
                            if (d2 == 0) {
                                g.close = j;
                                g.found = true;
                                return g;
                            }
                        }
                    }
                    return g; // unbalanced: not usable
                }
            }
            ++depth;
        } else if (p[i].is(")")) {
            --depth;
        }
    }
    return g;
}

/** Class name qualifying a function name token, walking back over
 *  `Cls::` or `Cls<T>::` in @p p from @p nameTok. */
std::string
qualifyingClass(const std::vector<Token> &p, std::size_t nameTok)
{
    if (nameTok < 2 || !p[nameTok - 1].is("::"))
        return "";
    std::size_t k = nameTok - 2;
    if (p[k].is(">")) { // Cls<T>::name
        int angle = 0;
        while (k > 0) {
            if (p[k].is(">"))
                ++angle;
            else if (p[k].is("<")) {
                --angle;
                if (angle == 0) {
                    if (k > 0 && p[k - 1].isIdent())
                        return p[k - 1].text;
                    return "";
                }
            }
            --k;
        }
        return "";
    }
    if (p[k].isIdent())
        return p[k].text;
    return "";
}

/** Record parameter-derived locals (unordered containers passed in,
 *  ostream sinks) from the signature group [open, close]. */
void
harvestParams(FunctionInfo &fn, const std::vector<Token> &p,
              std::size_t open, std::size_t close)
{
    std::string cur; // accumulated type text of current param
    std::string lastIdent;
    int depth = 0;
    for (std::size_t i = open; i <= close && i < p.size(); ++i) {
        const Token &t = p[i];
        if (t.is("(") || t.is("<") || t.is("["))
            ++depth;
        else if (t.is(")") || t.is(">") || t.is("]"))
            --depth;
        const bool paramEnd =
            (t.is(",") && depth == 1) || (t.is(")") && depth == 0);
        if (paramEnd) {
            if (!lastIdent.empty()) {
                LocalVar v;
                v.name = lastIdent;
                v.unorderedType = typeTextHasUnordered(cur);
                if (v.unorderedType)
                    fn.locals.push_back(v);
            }
            if (cur.find("ostream") != std::string::npos)
                fn.hasOstreamParam = true;
            cur.clear();
            lastIdent.clear();
            continue;
        }
        if (t.isIdent())
            lastIdent = t.text;
        cur += t.text;
        cur += ' ';
    }
}

/** Body walk: callees, mentions, unordered/floating locals, and
 *  function-local type aliases (a `using clock = steady_clock;`
 *  inside a body must still resolve for the wall-clock check). */
void
harvestBody(FunctionInfo &fn, FileModel &fm,
            const std::vector<Token> &toks)
{
    std::vector<Token> stmt;
    const auto flushStmt = [&]() {
        if (stmt.empty())
            return;
        if (stmt.size() >= 4 && stmt[0].is("using") &&
            stmt[1].isIdent() && stmt[2].is("=")) {
            fm.aliases[stmt[1].text] =
                joinTokens(stmt, 3, stmt.size());
            stmt.clear();
            return;
        }
        const std::string text = joinTokens(stmt, 0, stmt.size());
        const bool floating =
            stmt[0].is("float") || stmt[0].is("double") ||
            (stmt.size() > 1 && stmt[0].is("const") &&
             (stmt[1].is("float") || stmt[1].is("double")));
        const bool unordered = typeTextHasUnordered(text);
        if (floating || unordered) {
            // Declarator name: last ident followed by ; = { ( , or
            // end-of-statement, outside template args.
            int angle = 0;
            for (std::size_t i = 1; i < stmt.size(); ++i) {
                if (stmt[i].is("<"))
                    ++angle;
                else if (stmt[i].is(">"))
                    --angle;
                if (angle != 0 || !stmt[i].isIdent() ||
                    isKeyword(stmt[i].text))
                    continue;
                const bool lastTok = i + 1 >= stmt.size();
                if (lastTok || stmt[i + 1].is("=") ||
                    stmt[i + 1].is("{") || stmt[i + 1].is("(") ||
                    stmt[i + 1].is(",") || stmt[i + 1].is("[")) {
                    // `x = y` where x was already seen as a plain
                    // expression is not a declaration; require some
                    // type-ish token before the name.
                    if (i == 0)
                        continue;
                    LocalVar v;
                    v.name = stmt[i].text;
                    v.unorderedType = unordered;
                    v.floating = floating;
                    fn.locals.push_back(v);
                }
            }
        }
        stmt.clear();
    };

    for (std::size_t i = fn.bodyBegin; i < fn.bodyEnd; ++i) {
        const Token &t = toks[i];
        if (t.isIdent()) {
            fn.mentions.insert(t.text);
            if (!isKeyword(t.text) && i + 1 < fn.bodyEnd &&
                toks[i + 1].is("("))
                fn.callees.insert(t.text);
        }
        if (t.is(";") || t.is("{") || t.is("}")) {
            flushStmt();
            continue;
        }
        stmt.push_back(t);
    }
    flushStmt();
}

/** Parse a `// wormnet-lint: allow(...)` directive if present. */
bool
parseSuppression(const Comment &cm, Suppression &out)
{
    const std::string &s = cm.text;
    std::size_t p = s.find("wormnet-lint:");
    if (p == std::string::npos)
        return false;
    p += std::string("wormnet-lint:").size();
    while (p < s.size() && std::isspace((unsigned char)s[p]))
        ++p;
    bool wholeFile = false;
    if (s.compare(p, 11, "allow-file(") == 0) {
        wholeFile = true;
        p += 11;
    } else if (s.compare(p, 6, "allow(") == 0) {
        p += 6;
    } else {
        return false;
    }
    const std::size_t close = s.find(')', p);
    if (close == std::string::npos)
        return false;
    std::string list = s.substr(p, close - p);
    out.wholeFile = wholeFile;
    out.line = cm.line;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        std::string c = list.substr(start, comma - start);
        c.erase(std::remove_if(c.begin(), c.end(),
                               [](unsigned char ch) {
                                   return std::isspace(ch) != 0;
                               }),
                c.end());
        if (!c.empty())
            out.checks.insert(c);
        start = comma + 1;
    }
    std::size_t j = close + 1;
    while (j < s.size() &&
           (std::isspace((unsigned char)s[j]) || s[j] == ':'))
        ++j;
    out.justification = s.substr(j);
    // Trim trailing whitespace.
    while (!out.justification.empty() &&
           std::isspace((unsigned char)out.justification.back()))
        out.justification.pop_back();
    return true;
}

enum class ScopeType
{
    Namespace,
    Class,
};

struct Scope
{
    ScopeType type;
    std::string name;
};

} // namespace

bool
Model::aliasTextContains(const std::string &name,
                         const char *needle) const
{
    for (const FileModel &f : files) {
        auto it = f.aliases.find(name);
        if (it != f.aliases.end() &&
            it->second.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

const MemberInfo *
Model::findMember(const std::string &cls,
                  const std::string &name) const
{
    auto ci = classes.find(cls);
    if (ci == classes.end())
        return nullptr;
    auto mi = ci->second.find(name);
    return mi == ci->second.end() ? nullptr : &mi->second;
}

const MemberInfo *
Model::findMemberAnyClass(const std::string &name) const
{
    for (const auto &[cls, members] : classes) {
        (void)cls;
        auto mi = members.find(name);
        if (mi != members.end())
            return &mi->second;
    }
    return nullptr;
}

void
buildFileModel(Model &model, LexedFile lx)
{
    model.files.push_back(FileModel{});
    FileModel &fm = model.files.back();
    const int fileIndex = static_cast<int>(model.files.size()) - 1;
    fm.path = lx.path;
    fm.lx = std::move(lx);
    const std::vector<Token> &toks = fm.lx.tokens;

    // Suppressions: attach each directive to the line it silences.
    std::set<int> tokenLines;
    for (const Token &t : toks)
        tokenLines.insert(t.line);
    for (const Comment &cm : fm.lx.comments) {
        Suppression sup;
        if (!parseSuppression(cm, sup))
            continue;
        if (tokenLines.count(cm.line)) {
            sup.appliesToLine = cm.line; // trailing comment
        } else {
            auto it = tokenLines.upper_bound(cm.endLine);
            sup.appliesToLine =
                it == tokenLines.end() ? cm.endLine + 1 : *it;
        }
        fm.suppressions.push_back(std::move(sup));
    }

    std::vector<Scope> scopes;
    std::vector<Token> pending;

    const auto currentClass = [&]() -> std::string {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it)
            if (it->type == ScopeType::Class)
                return it->name;
        return "";
    };

    const auto recordAlias = [&]() {
        // using X = <text>;  (skip using-directives/-declarations)
        if (pending.size() >= 3 && pending[0].is("using") &&
            pending[1].isIdent() && pending[2].is("=")) {
            fm.aliases[pending[1].text] =
                joinTokens(pending, 3, pending.size());
        } else if (!pending.empty() && pending[0].is("typedef") &&
                   pending.size() >= 3) {
            fm.aliases[pending.back().text] =
                joinTokens(pending, 1, pending.size() - 1);
        }
    };

    const auto recordClassStatement = [&](bool hadBraceInit) {
        const std::string cls = currentClass();
        if (cls.empty() || pending.empty())
            return;
        if (pending[0].is("using") || pending[0].is("typedef")) {
            recordAlias();
            return;
        }
        if (pending[0].is("friend") || pending[0].is("static_assert"))
            return;
        const PendingGroup g = firstNamedParenGroup(pending);
        if (g.found)
            return; // method declaration
        // Data member: declarator is the last identifier before the
        // initializer (= or {) or the end of the statement.
        std::size_t end = pending.size();
        int depth = 0;
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (pending[i].is("<") || pending[i].is("[") ||
                pending[i].is("("))
                ++depth;
            else if (pending[i].is(">") || pending[i].is("]") ||
                     pending[i].is(")"))
                --depth;
            else if (depth == 0 && pending[i].is("=")) {
                end = i;
                break;
            }
        }
        (void)hadBraceInit;
        std::size_t nameIdx = pending.size();
        for (std::size_t i = end; i-- > 0;) {
            if (pending[i].isIdent() && !isKeyword(pending[i].text)) {
                nameIdx = i;
                break;
            }
            if (pending[i].is("]") || pending[i].is("["))
                continue; // arrays: name precedes the brackets
            if (pending[i].kind == TokKind::Punct &&
                (pending[i].is("*") || pending[i].is("&")))
                break; // trailing punct other than array: malformed
        }
        if (nameIdx >= pending.size())
            return;
        MemberInfo m;
        m.name = pending[nameIdx].text;
        m.className = cls;
        m.line = pending[nameIdx].line;
        const std::string typeText = joinTokens(pending, 0, nameIdx);
        m.unorderedType = typeTextHasUnordered(typeText);
        if (!m.unorderedType) {
            for (std::size_t i = 0; i < nameIdx; ++i)
                if (pending[i].isIdent() &&
                    model.aliasTextContains(pending[i].text,
                                            "unordered_"))
                    m.unorderedType = true;
        }
        model.classes[cls][m.name] = std::move(m);
    };

    std::size_t i = 0;
    while (i < toks.size()) {
        const Token &t = toks[i];

        // Access specifiers inside a class: drop `public :` pairs so
        // the ':' cannot be mistaken for anything.
        if (t.isIdent() &&
            (t.is("public") || t.is("private") || t.is("protected")) &&
            i + 1 < toks.size() && toks[i + 1].is(":") &&
            !scopes.empty() && scopes.back().type == ScopeType::Class) {
            pending.clear();
            i += 2;
            continue;
        }

        if (t.is(";")) {
            if (!scopes.empty() &&
                scopes.back().type == ScopeType::Class)
                recordClassStatement(false);
            else
                recordAlias();
            pending.clear();
            ++i;
            continue;
        }

        if (t.is("}")) {
            if (!scopes.empty())
                scopes.pop_back();
            pending.clear();
            ++i;
            continue;
        }

        if (t.is("{")) {
            // Classify what this brace opens.
            if (!pending.empty() && pending[0].is("namespace")) {
                std::string name;
                for (std::size_t k = 1; k < pending.size(); ++k)
                    if (pending[k].isIdent()) {
                        name = pending[k].text;
                        break;
                    }
                scopes.push_back(Scope{ScopeType::Namespace, name});
                pending.clear();
                ++i;
                continue;
            }

            const PendingGroup g = firstNamedParenGroup(pending);
            bool isEnum = false;
            bool hasClassKw = false;
            std::string classKwName;
            for (std::size_t k = 0; k < pending.size(); ++k) {
                if (pending[k].is("enum"))
                    isEnum = true;
                if ((pending[k].is("class") ||
                     pending[k].is("struct") ||
                     pending[k].is("union")) &&
                    !isEnum && classKwName.empty()) {
                    hasClassKw = true;
                    for (std::size_t j2 = k + 1; j2 < pending.size();
                         ++j2)
                        if (pending[j2].isIdent() &&
                            !pending[j2].is("final") &&
                            !pending[j2].is("alignas")) {
                            classKwName = pending[j2].text;
                            break;
                        }
                }
            }

            if (g.found && !hasClassKw) {
                // Function definition: record and skip the body.
                FunctionInfo fn;
                fn.name = pending[g.nameTok].text;
                if (pending[g.nameTok].kind == TokKind::Punct)
                    fn.name = "operator" + fn.name;
                fn.className = qualifyingClass(pending, g.nameTok);
                if (fn.className.empty())
                    fn.className = currentClass();
                fn.qualName = fn.className.empty()
                                  ? fn.name
                                  : fn.className + "::" + fn.name;
                fn.file = fm.path;
                fn.fileIndex = fileIndex;
                fn.line = pending[g.nameTok].line;
                harvestParams(fn, pending, g.open, g.close);
                const std::size_t close = matchBrace(toks, i);
                fn.bodyBegin = i + 1;
                fn.bodyEnd = close;
                harvestBody(fn, fm, toks);
                fm.functionIdx.push_back(model.functions.size());
                model.functions.push_back(std::move(fn));
                pending.clear();
                i = close + 1;
                continue;
            }

            if (hasClassKw && !isEnum) {
                scopes.push_back(
                    Scope{ScopeType::Class, classKwName});
                pending.clear();
                ++i;
                continue;
            }

            // Anything else (enum bodies, braced initializers,
            // lambdas at class scope): skip wholesale; remember a
            // brace-init happened so member extraction still works.
            const std::size_t close = matchBrace(toks, i);
            if (!scopes.empty() &&
                scopes.back().type == ScopeType::Class &&
                !pending.empty() && close + 1 < toks.size() &&
                toks[close + 1].is(";") && !isEnum) {
                recordClassStatement(true);
                pending.clear();
                i = close + 1;
                continue;
            }
            pending.clear();
            i = close + 1;
            continue;
        }

        pending.push_back(t);
        ++i;
    }
}

} // namespace wormnet_lint
