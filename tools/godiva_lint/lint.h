// godiva_lint — repo-specific static analysis that proves GODIVA's
// concurrency contracts over every path, not just the schedules the tests
// happen to execute (DESIGN.md §12).
//
// The container toolchain has no usable Clang frontend (no LibTooling
// headers, no libclang, no python bindings), so the tool carries its own
// lightweight C++ lexer and a convention-aware extractor tuned to this
// codebase's idioms: godiva::Mutex members constructed with lock_rank::
// constants, MutexLock scopes, REQUIRES/EXCLUDES/GUARDED_BY annotations,
// Status/Result returns. It is NOT a general C++ analyzer — it proves the
// conventions this repo actually uses, and the fixture corpus in
// tests/lint/ pins down exactly what it can and cannot see.
//
// Checks (each finding names its check):
//   lock-rank        interprocedural may-hold-while-acquiring graph,
//                    cross-checked against common/lock_rank.def: any edge
//                    out of rank order, any cycle, any unregistered or
//                    unannotated mutex.
//   guarded-by       every mutable member of a class that owns a
//                    godiva::Mutex is GUARDED_BY, atomic, const, a sync
//                    primitive, or carries // lint: unguarded(reason).
//   blocking         Env/file I/O, sleeps and semaphore waits reachable
//                    while a kGboShardBase+i or kGboWatch mutex is held.
//   discarded-status expression-statement and (void)-cast discards of
//                    Status/Result-returning calls without
//                    // lint: discard_ok(reason).
//
// Waiver grammar (a comment block on lines of its own applies only to the
// first statement or declaration after it, which must start within 4 lines;
// a comment trailing code applies to the statement that code ends; every
// waiver REQUIRES a non-empty reason):
//   // lint: unguarded(reason)        member is safe without a guard
//   // lint: discard_ok(reason)       intentional (void)/statement discard
//   // lint: blocking_ok(reason)      blocking call under lock is safe
//   // lint: blocking(reason)         declares a function blocking by fiat
//   // lint: rank(kSymbol)            mutex member whose rank is passed in
//                                     at run time (e.g. Gbo::Shard::mu)
//   // lint: unranked(reason)         mutex deliberately outside the order
//   // lint: mutex(Class::member)     disambiguates an acquisition target
//   // lint: holds_on_entry(A, B)     entry lock set of a function that
//                                     opts out of Clang TSA
//   // lint: on_exit_holds(A)         net acquisitions visible to callers
//   // lint: on_exit_releases(A)      net releases visible to callers
#ifndef GODIVA_TOOLS_GODIVA_LINT_LINT_H_
#define GODIVA_TOOLS_GODIVA_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace godiva::lint {

// ---------------------------------------------------------------------------
// Lexer.

struct Token {
  enum Kind { kIdent, kNumber, kString, kPunct, kEof };
  Kind kind = kEof;
  std::string text;
  int line = 0;
};

// One contiguous block of // comments (or a /* */ block), concatenated.
// `last_line` is the line its final fragment sits on; a trailing comment
// block on a code line keeps that code line.
struct CommentBlock {
  int first_line = 0;
  int last_line = 0;
  std::string text;
  size_t next_token = 0;  // index of the first token after the block
};

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  std::vector<CommentBlock> comments;  // in source order
};

// Tokenizes C++ source. Preprocessor directives are skipped (with
// continuation handling); comments are collected separately.
LexedFile Lex(const std::string& path, const std::string& source);

// ---------------------------------------------------------------------------
// Model: what the extractor reads out of the token streams.

// Identity of one mutex declaration: "Gbo::mu_", "Gbo::Shard::mu",
// "g_log_mutex". All shard instances share one identity — the per-index
// rank order inside the range is the runtime checker's job; the static
// graph models the range as a single node with a legal self-edge.
struct MutexDecl {
  std::string id;           // qualified name
  std::string cls;          // owning class ("" for globals)
  std::string member;       // member / variable name
  std::string rank_symbol;  // lock_rank:: symbol, "" if unranked
  std::string unranked_reason;
  std::string file;
  int line = 0;
};

struct FieldDecl {
  std::string cls;
  std::string name;
  std::string type_text;
  bool guarded = false;      // GUARDED_BY / PT_GUARDED_BY present
  bool is_atomic = false;    // std::atomic<...>
  bool is_const = false;     // const-qualified (or reference)
  bool is_static = false;
  bool is_sync_type = false;  // Mutex / CondVar / Semaphore / ...
  std::string unguarded_reason;  // // lint: unguarded(reason)
  std::string file;
  int line = 0;
};

// A mutex acquisition inside a function body, with the lock set held just
// before it. `blocking_release_of` is set for CondVar waits: the wait
// blocks while holding everything in `held` EXCEPT that mutex.
struct AcquireSite {
  std::string mutex_id;
  std::vector<std::string> held;  // mutex ids held before this acquisition
  int line = 0;
};

struct CallSite {
  std::string callee_name;      // unqualified name as written
  std::string receiver;         // last identifier of the receiver chain, ""
  std::vector<std::string> held;
  int line = 0;
  bool is_discard_stmt = false;  // full-statement call (check 4 candidate)
  bool is_void_cast = false;     // (void)call(...)
  std::string discard_reason;    // // lint: discard_ok(reason)
  std::string blocking_reason;   // // lint: blocking_ok(reason)
};

// A CondVar::Wait/WaitUntil site: blocks while holding `held` minus
// `released`.
struct WaitSite {
  std::string released_mutex_id;
  std::vector<std::string> held;
  int line = 0;
  std::string blocking_reason;
};

struct FunctionInfo {
  std::string cls;   // enclosing class ("" for free functions)
  std::string name;  // unqualified
  std::string qualified() const { return cls.empty() ? name : cls + "::" + name; }
  std::string file;  // first declaration
  int line = 0;
  // Where the body lives (== file for in-class definitions); site findings
  // point here.
  std::string body_file;
  bool has_body = false;
  bool returns_status = false;  // Status / Result<...> return type
  bool no_tsa = false;          // NO_THREAD_SAFETY_ANALYSIS
  bool blocking_by_fiat = false;  // // lint: blocking(reason)
  std::string blocking_fiat_reason;
  std::vector<std::string> requires_held;   // REQUIRES(...) mutex ids
  std::vector<std::string> holds_on_entry;  // // lint: holds_on_entry(...)
  std::vector<std::string> on_exit_holds;     // annotation override
  std::vector<std::string> on_exit_releases;  // annotation override
  // Computed from the body when not overridden: net lock-state delta.
  std::vector<std::string> computed_exit_holds;
  std::vector<std::string> computed_exit_releases;
  std::vector<AcquireSite> acquires;
  std::vector<CallSite> calls;
  std::vector<WaitSite> waits;
};

// One entry parsed from common/lock_rank.def.
struct RankEntry {
  std::string symbol;
  int rank = 0;
  int width = 1;
  std::string owner;  // the declaration expected to claim this rank
};

struct Model {
  std::vector<MutexDecl> mutexes;
  std::vector<FieldDecl> fields;
  std::vector<FunctionInfo> functions;
  std::set<std::string> status_fn_names;  // names returning Status/Result
  std::vector<RankEntry> rank_registry;
  // Classes that own at least one by-value godiva::Mutex member.
  std::set<std::string> mutex_owning_classes;
  // "Class::member" → lock_rank symbol bound in a constructor init list
  // (e.g. Semaphore::mutex_); applied to MutexDecls after extraction.
  std::map<std::string, std::string> ctor_rank_bindings;
  // Qualified method name → index in `functions`, so a header declaration
  // (REQUIRES, NO_THREAD_SAFETY_ANALYSIS, waivers) and its out-of-line
  // definition (the body) merge into one record. Free functions are not
  // merged: same-named statics in different files must stay distinct.
  std::map<std::string, size_t> method_index;
};

// Extracts declarations, functions and sites from one lexed file into the
// model. `diags` receives extraction-level problems (unresolvable mutex
// refs, malformed waivers).
struct Finding {
  std::string file;
  int line = 0;
  std::string check;  // "lock-rank", "guarded-by", "blocking",
                      // "discarded-status", "lint-usage"
  std::string message;
};

void ExtractFile(const LexedFile& lexed, Model* model,
                 std::vector<Finding>* diags);

// Resolves acquisition/held mutex references recorded as raw member names
// into qualified MutexDecl ids. Run after all files are extracted.
void ResolveMutexRefs(Model* model, std::vector<Finding>* diags);

// Parses common/lock_rank.def into model->rank_registry.
void ParseRankDef(const std::string& path, const std::string& source,
                  Model* model, std::vector<Finding>* diags);

// ---------------------------------------------------------------------------
// Analysis.

struct AnalysisOptions {
  // Ranks whose critical sections must not block (check 3): defaults to
  // the shard range and the watch mutex.
  std::vector<std::string> no_blocking_ranks = {"kGboShardBase", "kGboWatch"};
  std::string dot_path;       // emit the lock graph here if non-empty
  std::string ranks_md_path;  // emit the generated rank table here
  // Debugging: print (to stderr) how this mutex id enters each function's
  // transitive-acquire set, so surprising edges can be traced to a call.
  std::string trace_mutex;
};

// Runs all four checks over the model; returns findings sorted by file and
// line. Also writes the DOT / markdown artifacts when requested.
std::vector<Finding> Analyze(const Model& model, const AnalysisOptions& options);

// Formats "file:line: [check] message".
std::string FormatFinding(const Finding& finding);

}  // namespace godiva::lint

#endif  // GODIVA_TOOLS_GODIVA_LINT_LINT_H_
