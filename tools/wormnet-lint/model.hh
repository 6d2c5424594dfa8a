/**
 * @file
 * Source model for wormnet-lint.
 *
 * A deliberately approximate, linter-grade view of the code: scopes
 * are recovered by brace tracking, functions by the
 * `name (args) [qualifiers] {` shape, members by class-scope
 * declaration statements. The model over-approximates (every
 * `ident(` inside a body is a potential call; a member with the same
 * name in two classes is matched in both) — which is the right
 * direction for determinism checks: reachability may include too
 * much, never too little. Anything genuinely ambiguous is resolved
 * by the suppression mechanism, never by silently dropping code.
 */

#ifndef WORMNET_LINT_MODEL_HH
#define WORMNET_LINT_MODEL_HH

#include "lexer.hh"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace wormnet_lint
{

struct MemberInfo
{
    std::string name;
    std::string className;
    bool unorderedType = false; ///< declared type hashes (unordered_*)
    int line = 0;
};

struct LocalVar
{
    std::string name;
    bool unorderedType = false;
    bool floating = false; ///< float/double accumulator candidate
};

struct FunctionInfo
{
    std::string name;      ///< unqualified
    std::string qualName;  ///< Class::name or ns-qualified best guess
    std::string className; ///< enclosing/qualifying class, may be ""
    std::string file;
    int line = 0;
    bool hasOstreamParam = false;
    /** Token index range of the body in its file's token stream,
     *  excluding the outer braces. */
    std::size_t bodyBegin = 0, bodyEnd = 0;
    int fileIndex = -1;
    /** Unqualified names of everything called from the body. */
    std::set<std::string> callees;
    /** Every identifier mentioned in the body (root detection). */
    std::set<std::string> mentions;
    std::vector<LocalVar> locals;
};

/** One `// wormnet-lint: allow(check-a,check-b): reason` directive. */
struct Suppression
{
    int line = 0;          ///< line the directive is written on
    int appliesToLine = 0; ///< line whose diagnostics it silences
    bool wholeFile = false;
    std::set<std::string> checks;
    std::string justification;
    mutable bool used = false;
};

struct FileModel
{
    std::string path;
    LexedFile lx;
    /** `using X = ...;` / `typedef ... X;` — name to aliased text. */
    std::map<std::string, std::string> aliases;
    std::vector<Suppression> suppressions;
    std::vector<std::size_t> functionIdx; ///< into Model::functions
};

struct Model
{
    std::vector<FileModel> files;
    std::vector<FunctionInfo> functions;
    /** className -> memberName -> info (merged across files). */
    std::map<std::string, std::map<std::string, MemberInfo>> classes;

    /** Aliased text with one level of `using` aliases expanded,
     *  searched across every file (aliases are file-scoped in
     *  reality; cross-file match only widens detection). */
    bool aliasTextContains(const std::string &name,
                           const char *needle) const;

    const MemberInfo *findMember(const std::string &cls,
                                 const std::string &name) const;
    /** Member lookup by name in any class (obj.member_ accesses). */
    const MemberInfo *findMemberAnyClass(const std::string &name) const;
};

/** Parse one lexed file into @p model (appends). */
void buildFileModel(Model &model, LexedFile lx);

} // namespace wormnet_lint

#endif // WORMNET_LINT_MODEL_HH
