#include "checks.hh"

#include <algorithm>
#include <deque>
#include <map>

namespace wormnet_lint
{

const char *const kCheckFamilies[2] = {"nondet-iter", "banned-api"};

namespace
{

/** Render a token span as readable source text (fix-it payloads). */
std::string
renderTokens(const std::vector<Token> &toks, std::size_t b,
             std::size_t e)
{
    std::string out;
    for (std::size_t i = b; i < e && i < toks.size(); ++i) {
        const std::string &s = toks[i].text;
        if (!out.empty()) {
            const std::string &prev = toks[i - 1].text;
            const bool noSpace =
                s == "::" || prev == "::" || s == "." || prev == "." ||
                s == "->" || prev == "->" || s == "," || s == ")" ||
                s == "]" || s == ";" || prev == "(" || prev == "[" ||
                s == "(" || s == "[" || prev == "<" || s == ">" ||
                s == "<";
            if (!noSpace)
                out += ' ';
        }
        out += s;
    }
    return out;
}

std::size_t
matchForward(const std::vector<Token> &toks, std::size_t open,
             const char *o, const char *c, std::size_t limit)
{
    int depth = 0;
    for (std::size_t i = open; i < limit; ++i) {
        if (toks[i].is(o))
            ++depth;
        else if (toks[i].is(c)) {
            --depth;
            if (depth == 0)
                return i;
        }
    }
    return limit;
}

bool
isClockName(const std::string &s)
{
    return s == "steady_clock" || s == "system_clock" ||
           s == "high_resolution_clock";
}

bool
isStdRngEngine(const std::string &s)
{
    return s == "mt19937" || s == "mt19937_64" ||
           s == "minstd_rand" || s == "minstd_rand0" ||
           s == "default_random_engine" || s == "ranlux24" ||
           s == "ranlux48" || s == "knuth_b";
}

struct Engine
{
    const Model &model;
    const CheckOptions &opt;
    std::vector<Diagnostic> diags;

    /** Unqualified name -> function indices. */
    std::map<std::string, std::vector<std::size_t>> byName;
    /** Reachability from output/step/stats roots: for each
     *  function index, the root reason ("" = unreachable) and the
     *  predecessor on the BFS path. */
    std::vector<std::string> rootReason;
    std::vector<int> pred;

    explicit Engine(const Model &m, const CheckOptions &o)
        : model(m), opt(o)
    {
    }

    bool enabled(const char *family) const
    {
        return opt.enabled.empty() || opt.enabled.count(family) != 0;
    }

    void emit(const FunctionInfo *fn, const Token &at,
              const char *family, const char *kind,
              std::string message, std::string fixit = "",
              std::string note = "")
    {
        Diagnostic d;
        d.file = fn ? fn->file : "";
        d.line = at.line;
        d.col = at.col;
        d.check = family;
        d.kind = kind;
        d.message = std::move(message);
        if (opt.fixits)
            d.fixit = std::move(fixit);
        d.note = std::move(note);
        diags.push_back(std::move(d));
    }

    // ---- shared infrastructure -------------------------------------

    void buildCallGraph()
    {
        for (std::size_t i = 0; i < model.functions.size(); ++i)
            byName[model.functions[i].name].push_back(i);

        const std::size_t n = model.functions.size();
        rootReason.assign(n, "");
        pred.assign(n, -1);

        std::deque<std::size_t> queue;
        for (std::size_t i = 0; i < n; ++i) {
            const FunctionInfo &fn = model.functions[i];
            std::string why;
            if (fn.name == "step")
                why = "simulated-state path";
            else if (fn.hasOstreamParam)
                why = "ostream output path";
            else if (fn.mentions.count("cout") ||
                     fn.mentions.count("printf") ||
                     fn.mentions.count("fprintf") ||
                     fn.mentions.count("puts") ||
                     fn.mentions.count("fwrite"))
                why = "stdout path";
            else if (fn.name.find("erialize") != std::string::npos ||
                     fn.name == "saveState" || fn.name == "loadState")
                why = "serialization path";
            else if (fn.mentions.count("stats_"))
                why = "stats/committed-state path";
            if (!why.empty()) {
                rootReason[i] = why + " '" + fn.qualName + "'";
                queue.push_back(i);
            }
        }
        while (!queue.empty()) {
            const std::size_t cur = queue.front();
            queue.pop_front();
            for (const std::string &callee :
                 model.functions[cur].callees) {
                auto it = byName.find(callee);
                if (it == byName.end())
                    continue;
                for (std::size_t nxt : it->second) {
                    if (nxt == cur || !rootReason[nxt].empty())
                        continue;
                    rootReason[nxt] = rootReason[cur];
                    pred[nxt] = static_cast<int>(cur);
                    queue.push_back(nxt);
                }
            }
        }
    }

    std::string chainNote(std::size_t fnIdx) const
    {
        std::string chain = model.functions[fnIdx].qualName;
        int p = pred[fnIdx];
        int guard = 0;
        while (p >= 0 && guard++ < 32) {
            chain = model.functions[p].qualName + " -> " + chain;
            p = pred[p];
        }
        return "reachable from " + rootReason[fnIdx] +
               (pred[fnIdx] >= 0 ? " via " + chain : "");
    }

    /** Is @p name an unordered container as seen from @p fn? */
    bool isUnorderedVar(const FunctionInfo &fn,
                        const std::string &name) const
    {
        for (const LocalVar &v : fn.locals)
            if (v.name == name && v.unorderedType)
                return true;
        if (const MemberInfo *m =
                model.findMember(fn.className, name))
            return m->unorderedType;
        if (const MemberInfo *m = model.findMemberAnyClass(name))
            return m->unorderedType;
        return false;
    }

    bool isFloatingVar(const FunctionInfo &fn,
                       const std::string &name) const
    {
        for (const LocalVar &v : fn.locals)
            if (v.name == name && v.floating)
                return true;
        return false;
    }

    // ---- check 1: nondeterministic iteration -----------------------

    void checkNondetIter(std::size_t fnIdx)
    {
        const FunctionInfo &fn = model.functions[fnIdx];
        const std::vector<Token> &toks =
            model.files[fn.fileIndex].lx.tokens;
        const bool onPath = !rootReason[fnIdx].empty();

        for (std::size_t i = fn.bodyBegin; i < fn.bodyEnd; ++i) {
            if (toks[i].is("for") && i + 1 < fn.bodyEnd &&
                toks[i + 1].is("(")) {
                const std::size_t close =
                    matchForward(toks, i + 1, "(", ")", fn.bodyEnd);
                // Top-level ':' marks a range-for ('::' is one token).
                std::size_t colon = 0;
                int depth = 0;
                for (std::size_t k = i + 2; k < close; ++k) {
                    if (toks[k].is("(") || toks[k].is("[") ||
                        toks[k].is("{"))
                        ++depth;
                    else if (toks[k].is(")") || toks[k].is("]") ||
                             toks[k].is("}"))
                        --depth;
                    else if (depth == 0 && toks[k].is(":")) {
                        colon = k;
                        break;
                    }
                }
                if (colon == 0)
                    continue;

                bool sorted = false;
                std::string culprit;
                for (std::size_t k = colon + 1; k < close; ++k) {
                    if (toks[k].is("sorted_view")) {
                        sorted = true;
                        break;
                    }
                    if (toks[k].isIdent() && culprit.empty() &&
                        isUnorderedVar(fn, toks[k].text))
                        culprit = toks[k].text;
                }
                if (!sorted && !culprit.empty()) {
                    const std::string declText =
                        renderTokens(toks, i + 2, colon);
                    const std::string rangeText =
                        renderTokens(toks, colon + 1, close);
                    if (onPath && enabled("nondet-iter")) {
                        emit(&fn, toks[i], "nondet-iter", "range-for",
                             "range-for over unordered container '" +
                                 culprit + "' in '" + fn.qualName +
                                 "' on a determinism-critical path",
                             "for (" + declText +
                                 " : wormnet::sorted_view(" +
                                 rangeText +
                                 "))  [#include "
                                 "\"common/sorted_view.hh\"]",
                             chainNote(fnIdx));
                    }
                    checkFloatAccum(fnIdx, close, culprit);
                }
            }

            // Iterator loops: unordered.begin() / .cbegin().
            if (enabled("nondet-iter") && onPath && toks[i].isIdent() &&
                i + 3 < fn.bodyEnd && toks[i + 1].is(".") &&
                (toks[i + 2].is("begin") || toks[i + 2].is("cbegin")) &&
                toks[i + 3].is("(") &&
                isUnorderedVar(fn, toks[i].text)) {
                emit(&fn, toks[i], "nondet-iter", "iterator-loop",
                     "iterator over unordered container '" +
                         toks[i].text + "' in '" + fn.qualName +
                         "' on a determinism-critical path",
                     "iterate wormnet::sorted_view(" + toks[i].text +
                         ") instead",
                     chainNote(fnIdx));
            }
        }
    }

    /** Float accumulation inside a loop over @p container (the body
     *  starts after the for-header's closing paren @p close). */
    void checkFloatAccum(std::size_t fnIdx, std::size_t close,
                         const std::string &container)
    {
        if (!enabled("banned-api"))
            return;
        const FunctionInfo &fn = model.functions[fnIdx];
        const std::vector<Token> &toks =
            model.files[fn.fileIndex].lx.tokens;
        std::size_t bodyEnd;
        if (close + 1 < fn.bodyEnd && toks[close + 1].is("{"))
            bodyEnd = matchForward(toks, close + 1, "{", "}",
                                   fn.bodyEnd);
        else {
            bodyEnd = close + 1;
            while (bodyEnd < fn.bodyEnd && !toks[bodyEnd].is(";"))
                ++bodyEnd;
        }
        for (std::size_t k = close + 1; k < bodyEnd; ++k) {
            if (toks[k].isIdent() && k + 1 < bodyEnd &&
                toks[k + 1].is("+=") &&
                isFloatingVar(fn, toks[k].text)) {
                emit(&fn, toks[k], "banned-api", "float-accum",
                     "floating-point accumulation into '" +
                         toks[k].text +
                         "' ordered by unordered container '" +
                         container + "' in '" + fn.qualName +
                         "': the sum depends on hash-iteration "
                         "order",
                     "accumulate over wormnet::sorted_view(" +
                         container + ") or into an ordered "
                         "intermediate");
            }
        }
    }

    // ---- check 2: banned APIs --------------------------------------

    void checkBannedApi(std::size_t fnIdx)
    {
        if (!enabled("banned-api"))
            return;
        const FunctionInfo &fn = model.functions[fnIdx];
        const FileModel &fm = model.files[fn.fileIndex];
        const std::vector<Token> &toks = fm.lx.tokens;

        for (std::size_t i = fn.bodyBegin; i < fn.bodyEnd; ++i) {
            const Token &t = toks[i];
            if (!t.isIdent())
                continue;
            const Token *prev = i > 0 ? &toks[i - 1] : nullptr;
            const bool memberAccess =
                prev && (prev->is(".") || prev->is("->"));
            const bool stdQualified =
                prev && prev->is("::") && i >= 2 &&
                toks[i - 2].is("std");
            const bool otherQualified =
                prev && prev->is("::") && !stdQualified;

            // rand()/srand()/time(): C nondeterminism.
            if ((t.is("rand") || t.is("srand") || t.is("time")) &&
                i + 1 < fn.bodyEnd && toks[i + 1].is("(") &&
                !memberAccess && !otherQualified) {
                emit(&fn, t, "banned-api", "libc",
                     "call to '" + t.text + "()' in '" + fn.qualName +
                         "': nondeterministic across runs; draw "
                         "from a seeded wormnet::Rng instead");
                continue;
            }

            // Wall-clock reads, directly or through a using-alias.
            if (i + 2 < fn.bodyEnd && toks[i + 1].is("::") &&
                toks[i + 2].is("now")) {
                const bool direct = isClockName(t.text);
                const bool viaAlias =
                    !direct &&
                    (fm.aliases.count(t.text)
                         ? fm.aliases.at(t.text).find("_clock") !=
                               std::string::npos
                         : model.aliasTextContains(t.text, "_clock"));
                if (direct || viaAlias) {
                    emit(&fn, t, "banned-api", "wall-clock",
                         "wall-clock read '" + t.text +
                             "::now()' in '" + fn.qualName +
                             "': simulation state and output must "
                             "not depend on host time");
                    continue;
                }
            }

            if (t.is("random_device")) {
                emit(&fn, t, "banned-api", "random-device",
                     "std::random_device in '" + fn.qualName +
                         "': nondeterministic seed source; derive "
                         "seeds with deriveSeed()/Rng::split()");
                continue;
            }

            // Default-constructed std RNG engines (unpinned seed).
            if (isStdRngEngine(t.text) && !memberAccess) {
                std::size_t k = i + 1;
                if (k < fn.bodyEnd && toks[k].isIdent()) {
                    const std::size_t after = k + 1;
                    if (after >= fn.bodyEnd ||
                        toks[after].is(";") || toks[after].is(",") ||
                        toks[after].is(")")) {
                        emit(&fn, t, "banned-api", "rng-seed",
                             "default-seeded std::" + t.text +
                                 " in '" + fn.qualName +
                                 "': seed it explicitly from the "
                                 "experiment's seed derivation");
                        continue;
                    }
                }
            }

            // Pointer-value ordering / hashing.
            if ((t.is("hash") || t.is("less") || t.is("greater")) &&
                stdQualified && i + 1 < fn.bodyEnd &&
                toks[i + 1].is("<")) {
                const std::size_t close = matchForward(
                    toks, i + 1, "<", ">", fn.bodyEnd);
                for (std::size_t k = i + 2; k < close; ++k)
                    if (toks[k].is("*")) {
                        emit(&fn, t, "banned-api", "ptr-order",
                             "std::" + t.text +
                                 " over a pointer type in '" +
                                 fn.qualName +
                                 "': pointer values vary run to "
                                 "run; key by a stable id");
                        break;
                    }
            }

            // Pointer-keyed associative containers.
            if ((t.text.rfind("unordered_", 0) == 0 ||
                 t.is("map") || t.is("set")) &&
                i + 1 < fn.bodyEnd && toks[i + 1].is("<") &&
                !memberAccess) {
                const std::size_t close = matchForward(
                    toks, i + 1, "<", ">", fn.bodyEnd);
                // First template argument only.
                int depth = 0;
                for (std::size_t k = i + 2; k < close; ++k) {
                    if (toks[k].is("<") || toks[k].is("("))
                        ++depth;
                    else if (toks[k].is(">") || toks[k].is(")"))
                        --depth;
                    else if (depth == 0 && toks[k].is(","))
                        break;
                    else if (depth == 0 && toks[k].is("*")) {
                        emit(&fn, t, "banned-api", "ptr-key",
                             "pointer-keyed '" + t.text + "' in '" +
                                 fn.qualName +
                                 "': iteration/ordering follows "
                                 "the allocator; key by a stable "
                                 "id");
                        break;
                    }
                }
            }
        }
    }

    // ---- suppression handling --------------------------------------

    void applySuppressions()
    {
        std::vector<Diagnostic> kept;
        for (Diagnostic &d : diags) {
            const FileModel *fm = nullptr;
            for (const FileModel &f : model.files)
                if (f.path == d.file) {
                    fm = &f;
                    break;
                }
            bool suppressed = false;
            if (fm) {
                for (const Suppression &s : fm->suppressions) {
                    if (!s.checks.count(d.check) &&
                        !s.checks.count("all"))
                        continue;
                    if (s.wholeFile || s.appliesToLine == d.line ||
                        s.line == d.line) {
                        s.used = true;
                        suppressed = true;
                    }
                }
            }
            if (!suppressed)
                kept.push_back(std::move(d));
        }
        diags = std::move(kept);

        // Suppression policy: a justification is mandatory; unused
        // directives are surfaced (warning) so stale allows rot away.
        for (const FileModel &f : model.files) {
            for (const Suppression &s : f.suppressions) {
                Diagnostic d;
                d.file = f.path;
                d.line = s.line;
                d.col = 1;
                d.check = "suppression";
                if (s.justification.empty()) {
                    d.kind = "missing-justification";
                    d.severity = Severity::Error;
                    d.message =
                        "wormnet-lint suppression without a written "
                        "justification: add '// wormnet-lint: "
                        "allow(<check>): <why this is safe>'";
                    diags.push_back(std::move(d));
                } else if (!s.used && opt.strictSuppressions) {
                    d.kind = "unused";
                    d.severity = Severity::Warning;
                    d.message =
                        "unused wormnet-lint suppression (no "
                        "matching diagnostic on the target line)";
                    diags.push_back(std::move(d));
                }
            }
        }
    }

    std::vector<Diagnostic> run()
    {
        buildCallGraph();
        for (std::size_t i = 0; i < model.functions.size(); ++i) {
            if (enabled("nondet-iter") || enabled("banned-api"))
                checkNondetIter(i);
            checkBannedApi(i);
        }
        applySuppressions();
        std::sort(diags.begin(), diags.end(),
                  [](const Diagnostic &a, const Diagnostic &b) {
                      if (a.file != b.file)
                          return a.file < b.file;
                      if (a.line != b.line)
                          return a.line < b.line;
                      return a.col < b.col;
                  });
        return std::move(diags);
    }
};

} // namespace

std::vector<Diagnostic>
runChecks(const Model &model, const CheckOptions &opt)
{
    Engine eng(model, opt);
    return eng.run();
}

} // namespace wormnet_lint
