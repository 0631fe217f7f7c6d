// Extraction: turns lexed token streams into the lint model (mutex
// declarations, fields, functions with acquisition/call/wait sites). This
// is a convention parser, not a C++ frontend — see lint.h for exactly
// which idioms it understands; the fixture corpus in tests/lint/ pins the
// behaviour down.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "godiva_lint/lint.h"

namespace godiva::lint {

namespace {

const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kSet = {
      "if",       "for",      "while",           "switch",      "return",
      "sizeof",   "alignof",  "static_cast",     "dynamic_cast", "catch",
      "const_cast", "reinterpret_cast", "static_assert", "assert",
      "decltype", "new",      "delete",          "throw",       "co_await",
      "co_return", "defined", "noexcept"};
  return kSet;
}

const std::set<std::string>& SyncTypes() {
  static const std::set<std::string> kSet = {
      "Mutex", "CondVar", "Semaphore", "SemaphoreGuard", "TimeAccumulator",
      "MutexLock"};
  return kSet;
}

bool IsAnnotationMacro(const std::string& t) {
  return t == "REQUIRES" || t == "EXCLUDES" || t == "ACQUIRE" ||
         t == "RELEASE" || t == "TRY_ACQUIRE" || t == "ASSERT_CAPABILITY" ||
         t == "GUARDED_BY" || t == "PT_GUARDED_BY" || t == "ACQUIRED_BEFORE" ||
         t == "ACQUIRED_AFTER" || t == "RETURN_CAPABILITY" ||
         t == "CAPABILITY" || t == "SCOPED_CAPABILITY" ||
         t == "NO_THREAD_SAFETY_ANALYSIS";
}

// --- lint: comment annotations -------------------------------------------

// All "lint: kind(arg)" annotations found in `block`.
std::vector<std::pair<std::string, std::string>> ParseLintAnnotations(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t pos = 0;
  while ((pos = text.find("lint:", pos)) != std::string::npos) {
    size_t p = pos + 5;
    while (p < text.size() && std::isspace(static_cast<unsigned char>(text[p])))
      ++p;
    size_t kind_start = p;
    while (p < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[p])) ||
            text[p] == '_'))
      ++p;
    std::string kind = text.substr(kind_start, p - kind_start);
    std::string arg;
    if (p < text.size() && text[p] == '(') {
      int depth = 0;
      size_t arg_start = p + 1;
      for (; p < text.size(); ++p) {
        if (text[p] == '(') ++depth;
        if (text[p] == ')') {
          --depth;
          if (depth == 0) break;
        }
      }
      arg = text.substr(arg_start, p - arg_start);
    }
    if (!kind.empty()) out.emplace_back(kind, arg);
    pos = p;
  }
  return out;
}

std::string Trim(const std::string& s) {
  size_t a = 0, b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

// The final member name of a receiver chain: "s.mu" → "mu".
std::string FinalNameOf(const std::string& expr) {
  size_t pos = expr.find_last_of(".>:");
  return pos == std::string::npos ? expr : expr.substr(pos + 1);
}

// Whether two mutex refs name the same member. Refs reach the held set in
// three spellings — raw body expressions ("Gbo|s.mu"), annotation ids
// ("=Gbo::Shard::mu") and REQUIRES refs ("Gbo|mu_") — so an Unlock or a
// callee release contract must match across spellings. Final-member-name
// equality is the convention this codebase upholds: no two mutexes in
// scope at once share a member name.
std::string MutexRefTail(const std::string& ref) {
  size_t pos = ref.find_last_of(".>:|");
  return pos == std::string::npos ? ref : ref.substr(pos + 1);
}
bool SameMutexRef(const std::string& a, const std::string& b) {
  return a == b || MutexRefTail(a) == MutexRefTail(b);
}

// Removes (once) the newest entry matching `ref` from `list`.
bool EraseMutexRef(std::vector<std::string>* list, const std::string& ref) {
  for (size_t k = list->size(); k > 0; --k) {
    if (SameMutexRef((*list)[k - 1], ref)) {
      list->erase(list->begin() + static_cast<long>(k) - 1);
      return true;
    }
  }
  return false;
}

std::vector<std::string> SplitArgs(const std::string& s) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (char c : s) {
    if (c == '(' || c == '<' || c == '[') ++depth;
    if (c == ')' || c == '>' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(Trim(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!Trim(cur).empty()) out.push_back(Trim(cur));
  return out;
}

// The extractor for one file. Raw (unresolved) mutex references are stored
// as "cls|expr"; ResolveMutexRefs rewrites them into MutexDecl ids.
class Extractor {
 public:
  Extractor(const LexedFile& lexed, Model* model, std::vector<Finding>* diags)
      : f_(lexed), model_(model), diags_(diags) {}

  void Run() { ParseDeclContext("", f_.tokens.size()); }

 private:
  const Token& Tok(size_t i) const {
    return i < f_.tokens.size() ? f_.tokens[i] : f_.tokens.back();
  }
  bool Is(size_t i, const char* text) const { return Tok(i).text == text; }

  void Diag(int line, const std::string& check, const std::string& msg) {
    diags_->push_back(Finding{f_.path, line, check, msg});
  }

  bool IsStatementBoundary(size_t i) const {
    return Is(i, ";") || Is(i, "{") || Is(i, "}");
  }

  // Annotations on the statement or declaration that holds token `at`. A
  // comment block on lines of its own covers only the first statement or
  // declaration after it, which must start within 4 lines of the block; a
  // comment that trails code covers the statement that code ends.
  std::map<std::string, std::string> LintAnnotationsAt(size_t at) const {
    // [lo, hi) is the run of tokens around `at` with no ';', '{' or '}'.
    size_t lo = at;
    while (lo > 0 && !IsStatementBoundary(lo - 1)) --lo;
    size_t hi = at;
    while (hi < f_.tokens.size() && !IsStatementBoundary(hi)) ++hi;
    std::map<std::string, std::string> out;
    auto first = std::lower_bound(
        f_.comments.begin(), f_.comments.end(), lo,
        [](const CommentBlock& b, size_t i) { return b.next_token < i; });
    for (auto it = first; it != f_.comments.end(); ++it) {
      const CommentBlock& block = *it;
      const size_t next = block.next_token;
      if (next > hi + 1) break;
      const bool trailing =
          next > 0 && Tok(next - 1).line == block.first_line;
      const bool covers =
          trailing ? at < next
                   : next <= at && Tok(next).line <= block.last_line + 4;
      if (!covers) continue;
      for (auto& [kind, arg] : ParseLintAnnotations(block.text)) {
        out[kind] = arg;
      }
    }
    return out;
  }

  // Skips a balanced (), {}, [] or <> group starting at `i` (which must be
  // on the opener); returns the index just past the closer.
  size_t SkipBalanced(size_t i, const char* open, const char* close) const {
    int depth = 0;
    while (i < f_.tokens.size()) {
      if (Tok(i).text == open) ++depth;
      if (Tok(i).text == close) {
        --depth;
        if (depth == 0) return i + 1;
      }
      ++i;
    }
    return i;
  }

  // ---- declaration context (namespace or class body) ---------------------

  // Parses until the `}` closing the context (or EOF). `cls` is the
  // qualified enclosing class ("" at namespace scope).
  void ParseDeclContext(const std::string& cls, size_t end_hint) {
    (void)end_hint;
    while (idx_ < f_.tokens.size() && Tok(idx_).kind != Token::kEof) {
      const Token& t = Tok(idx_);
      if (t.text == "}") {
        ++idx_;
        // Consume an optional `;` (class bodies).
        if (Is(idx_, ";")) ++idx_;
        return;
      }
      if (t.text == "namespace") {
        // namespace foo { ... } or anonymous.
        ++idx_;
        while (idx_ < f_.tokens.size() && !Is(idx_, "{") && !Is(idx_, ";"))
          ++idx_;
        if (Is(idx_, "{")) {
          ++idx_;
          ParseDeclContext(cls, 0);
        } else {
          ++idx_;
        }
        continue;
      }
      if (t.text == "template") {
        ++idx_;
        if (Is(idx_, "<")) idx_ = SkipBalanced(idx_, "<", ">");
        continue;
      }
      if (t.text == "enum") {
        while (idx_ < f_.tokens.size() && !Is(idx_, "{") && !Is(idx_, ";"))
          ++idx_;
        if (Is(idx_, "{")) idx_ = SkipBalanced(idx_, "{", "}");
        if (Is(idx_, ";")) ++idx_;
        continue;
      }
      if (t.text == "using" || t.text == "typedef" || t.text == "friend") {
        while (idx_ < f_.tokens.size() && !Is(idx_, ";")) {
          if (Is(idx_, "{")) {
            idx_ = SkipBalanced(idx_, "{", "}");
            continue;
          }
          ++idx_;
        }
        ++idx_;
        continue;
      }
      if (t.text == "public" || t.text == "private" || t.text == "protected") {
        idx_ += 2;  // label + ':'
        continue;
      }
      if (t.text == "class" || t.text == "struct") {
        size_t j = idx_ + 1;
        // Skip attributes like [[nodiscard]] and annotation macros.
        while (Is(j, "[")) j = SkipBalanced(j, "[", "]");
        while (Tok(j).kind == Token::kIdent && IsAnnotationMacro(Tok(j).text)) {
          ++j;
          if (Is(j, "(")) j = SkipBalanced(j, "(", ")");
        }
        std::string name;
        if (Tok(j).kind == Token::kIdent) {
          name = Tok(j).text;
          ++j;
        }
        // An out-of-line nested class: `struct Outer::Inner {`.
        while (Is(j, "::") && Tok(j + 1).kind == Token::kIdent) {
          name += "::" + Tok(j + 1).text;
          j += 2;
        }
        // Forward declaration?
        size_t k = j;
        while (k < f_.tokens.size() && !Is(k, "{") && !Is(k, ";") &&
               !Is(k, "(")) {
          ++k;
        }
        if (Is(k, ";")) {
          idx_ = k + 1;
          continue;
        }
        if (Is(k, "(")) {
          // `struct Foo bar(..)` style — treat as a plain declaration.
          ParseDeclaration(cls);
          continue;
        }
        idx_ = k + 1;  // past '{'
        std::string nested = cls.empty() ? name : cls + "::" + name;
        ParseDeclContext(nested, 0);
        continue;
      }
      if (t.text == ";" || t.text == "{") {
        if (t.text == "{") {
          idx_ = SkipBalanced(idx_, "{", "}");
        } else {
          ++idx_;
        }
        continue;
      }
      ParseDeclaration(cls);
    }
  }

  // Parses one declaration starting at idx_: a member, a global variable,
  // a function declaration, or a function definition (with body).
  void ParseDeclaration(const std::string& cls) {
    const size_t start = idx_;
    const int decl_line = Tok(start).line;
    // Scan to the ';' or body '{' at depth 0, remembering structure.
    std::vector<size_t> toks;  // indexes of the decl run
    size_t first_paren = 0;    // index of first depth-0 '(' (0 = none)
    size_t close_paren = 0;
    bool seen_assign = false;
    size_t i = idx_;
    int angle = 0;
    while (i < f_.tokens.size()) {
      const std::string& x = Tok(i).text;
      if (x == "<") ++angle;
      if (x == ">" && angle > 0) --angle;
      if (x == "(" && first_paren == 0 && angle == 0) {
        first_paren = i;
        i = SkipBalanced(i, "(", ")");
        close_paren = i - 1;
        continue;
      }
      if (x == "(") {
        i = SkipBalanced(i, "(", ")");
        continue;
      }
      // `=` before any parameter list marks an initialized variable;
      // after one it is `= 0` / `= default` / `= delete` on a function.
      if (x == "=" && angle == 0 && first_paren == 0) seen_assign = true;
      if (x == ";" && angle == 0) break;
      if (x == "{" && angle == 0) {
        // Brace init (member) or function body or ctor init list item.
        if (first_paren == 0) {
          // Member brace-init: `Mutex mu_{...};` — consume and continue to ';'.
          i = SkipBalanced(i, "{", "}");
          continue;
        }
        break;  // function body (or ctor init-list brace, handled below)
      }
      if (x == ":" && angle == 0 && first_paren != 0 && i > close_paren &&
          !seen_assign) {
        break;  // ctor init list
      }
      ++i;
    }
    const size_t decl_end = i;  // at ';', '{', ':' or EOF

    if (first_paren == 0 || seen_assign) {
      // No parameter list (or an initialized variable): member / variable.
      ParseMemberOrVariable(cls, start, decl_end, decl_line);
      if (Is(decl_end, "{")) {
        idx_ = SkipBalanced(decl_end, "{", "}");
      } else {
        idx_ = decl_end + 1;
      }
      return;
    }

    // `Mutex name(lock_rank::kX, "...");` — a variable with paren init.
    if (Tok(start).text == "Mutex" ||
        (Tok(start).text == "mutable" && Tok(start + 1).text == "Mutex")) {
      ParseMutexVariable(cls, start, first_paren, close_paren, decl_line);
      idx_ = decl_end + 1;
      return;
    }

    // Function-ish. Name = identifier just before the first '('; handles
    // `~Gbo` (destructor) and `Class::Name` qualification.
    size_t name_idx = first_paren - 1;
    if (Tok(name_idx).kind != Token::kIdent) {
      // operator(), operator==, conversion operators, or an expression
      // statement that leaked here — skip to the end of the declaration.
      idx_ = decl_end;
      if (Is(idx_, "{") || Is(idx_, ":")) SkipFunctionTail();
      else ++idx_;
      return;
    }
    std::string name = Tok(name_idx).text;
    std::string owner = cls;
    size_t qual_end = name_idx;
    if (name_idx >= 1 && Is(name_idx - 1, "~")) {
      name = "~" + name;
      qual_end = name_idx - 1;
    }
    // Qualification chain: A::B::name.
    std::vector<std::string> quals;
    size_t q = qual_end;
    while (q >= 2 && Is(q - 1, "::") && Tok(q - 2).kind == Token::kIdent) {
      quals.insert(quals.begin(), Tok(q - 2).text);
      q -= 2;
    }
    if (!quals.empty()) {
      std::string joined;
      for (const std::string& part : quals) {
        joined = joined.empty() ? part : joined + "::" + part;
      }
      owner = cls.empty() ? joined : cls + "::" + joined;
    }
    if (name == "operator") {
      idx_ = decl_end;
      if (Is(idx_, "{") || Is(idx_, ":")) SkipFunctionTail();
      else ++idx_;
      return;
    }

    FunctionInfo* fn = LookupOrCreateFunction(owner, name, decl_line);

    // Return type: does the decl prefix contain Status / Result?
    for (size_t r = start; r < q; ++r) {
      if (Tok(r).text == "Status" || Tok(r).text == "Result") {
        fn->returns_status = true;
      }
    }
    if (fn->returns_status) model_->status_fn_names.insert(name);

    // Parameter names (so REQUIRES(mu) on a parameter can be skipped).
    std::set<std::string> params;
    {
      size_t p = first_paren + 1;
      std::vector<std::string> run;
      int depth = 1;
      while (p < f_.tokens.size() && depth > 0) {
        const std::string& x = Tok(p).text;
        if (x == "(") ++depth;
        if (x == ")") --depth;
        if (depth == 0 || (x == "," && depth == 1)) {
          if (!run.empty()) params.insert(run.back());
          run.clear();
        } else if (Tok(p).kind == Token::kIdent) {
          run.push_back(x);
        }
        ++p;
      }
    }

    // Trailing annotations between ')' and the decl end.
    for (size_t a = close_paren + 1; a < decl_end; ++a) {
      const std::string& x = Tok(a).text;
      if (x == "NO_THREAD_SAFETY_ANALYSIS") fn->no_tsa = true;
      if (x == "REQUIRES" && Is(a + 1, "(")) {
        size_t e = SkipBalanced(a + 1, "(", ")");
        std::string args;
        for (size_t r = a + 2; r + 1 < e; ++r) {
          args += Tok(r).text;
          args += " ";
        }
        for (const std::string& ref : SplitArgs(args)) {
          std::string compact;
          for (char c : ref) {
            if (!std::isspace(static_cast<unsigned char>(c))) compact += c;
          }
          if (params.count(compact) || compact == "this") continue;
          // A declaration and its definition may both carry REQUIRES;
          // record each mutex once.
          std::string req = owner + "|" + compact;
          if (std::find(fn->requires_held.begin(), fn->requires_held.end(),
                        req) == fn->requires_held.end()) {
            fn->requires_held.push_back(req);
          }
        }
        a = e - 1;
      }
    }

    // Comment annotations on the declaration.
    auto ann = LintAnnotationsAt(start);
    if (auto it = ann.find("holds_on_entry"); it != ann.end()) {
      for (const std::string& ref : SplitArgs(it->second)) {
        if (ref != "none") fn->holds_on_entry.push_back("=" + ref);
      }
      if (fn->holds_on_entry.empty() && it->second != "none") {
        Diag(decl_line, "lint-usage",
             "holds_on_entry() needs mutex ids or 'none'");
      }
      fn->no_tsa = fn->no_tsa;  // annotation satisfies the NO_TSA check
      fn->requires_held.push_back("=<declared>");  // marker: entry declared
    }
    if (auto it = ann.find("blocking"); it != ann.end()) {
      if (Trim(it->second).empty()) {
        Diag(decl_line, "lint-usage", "blocking() waiver needs a reason");
      }
      fn->blocking_by_fiat = true;
      fn->blocking_fiat_reason = it->second;
    }
    if (auto it = ann.find("on_exit_holds"); it != ann.end()) {
      for (const std::string& ref : SplitArgs(it->second))
        fn->on_exit_holds.push_back("=" + ref);
    }
    if (auto it = ann.find("on_exit_releases"); it != ann.end()) {
      for (const std::string& ref : SplitArgs(it->second))
        fn->on_exit_releases.push_back("=" + ref);
    }

    idx_ = decl_end;
    if (Is(idx_, ";")) {
      ++idx_;
      return;
    }
    // Ctor init list: scan items for lock_rank bindings until the body '{'.
    if (Is(idx_, ":")) {
      ++idx_;
      ParseCtorInitList(owner);
    }
    if (Is(idx_, "{")) {
      fn->has_body = true;
      fn->body_file = f_.path;
      ParseFunctionBody(fn, owner);
    } else {
      ++idx_;
    }
  }

  void SkipFunctionTail() {
    // At ':' (init list) or '{' — skip to past the body.
    if (Is(idx_, ":")) {
      while (idx_ < f_.tokens.size() && !Is(idx_, "{")) {
        if (Is(idx_, "(")) {
          idx_ = SkipBalanced(idx_, "(", ")");
          continue;
        }
        ++idx_;
      }
    }
    if (Is(idx_, "{")) idx_ = SkipBalanced(idx_, "{", "}");
  }

  // Ctor init list: `member(args), member{args}, ... {`. Records
  // `lock_rank::kX` bindings for mutex members.
  void ParseCtorInitList(const std::string& cls) {
    while (idx_ < f_.tokens.size()) {
      if (Tok(idx_).kind == Token::kIdent && (Is(idx_ + 1, "(") || Is(idx_ + 1, "{"))) {
        std::string member = Tok(idx_).text;
        const char* open = Is(idx_ + 1, "(") ? "(" : "{";
        const char* close = Is(idx_ + 1, "(") ? ")" : "}";
        size_t item_end = SkipBalanced(idx_ + 1, open, close);
        for (size_t r = idx_ + 2; r + 1 < item_end; ++r) {
          if (Tok(r).text == "lock_rank" && Is(r + 1, "::")) {
            model_->ctor_rank_bindings[cls + "::" + member] = Tok(r + 2).text;
          }
        }
        idx_ = item_end;
        if (Is(idx_, ",")) {
          ++idx_;
          continue;
        }
        return;  // next token should be the body '{'
      }
      if (Is(idx_, "{")) return;
      ++idx_;
    }
  }

  void ParseMutexVariable(const std::string& cls, size_t start,
                          size_t first_paren, size_t close_paren,
                          int decl_line) {
    size_t name_idx = first_paren - 1;
    if (Tok(name_idx).kind != Token::kIdent) return;
    // `Mutex(...)` with no variable name is the class's own constructor,
    // not a declaration.
    if (name_idx == start || Tok(name_idx).text == "Mutex") return;
    MutexDecl decl;
    decl.cls = cls;
    decl.member = Tok(name_idx).text;
    decl.id = cls.empty() ? decl.member : cls + "::" + decl.member;
    decl.file = f_.path;
    decl.line = decl_line;
    for (size_t r = first_paren; r < close_paren; ++r) {
      if (Tok(r).text == "lock_rank" && Is(r + 1, "::")) {
        decl.rank_symbol = Tok(r + 2).text;
      }
    }
    ApplyMutexDeclAnnotations(&decl, start);
    model_->mutexes.push_back(decl);
    if (!cls.empty()) model_->mutex_owning_classes.insert(cls);
  }

  void ApplyMutexDeclAnnotations(MutexDecl* decl, size_t start) {
    const int line = Tok(start).line;
    auto ann = LintAnnotationsAt(start);
    if (auto it = ann.find("rank"); it != ann.end()) {
      decl->rank_symbol = Trim(it->second);
    }
    if (auto it = ann.find("unranked"); it != ann.end()) {
      decl->unranked_reason = Trim(it->second);
      if (decl->unranked_reason.empty()) {
        Diag(line, "lint-usage", "unranked() waiver needs a reason");
      }
    }
  }

  // A member or namespace-scope variable declaration (no param list).
  void ParseMemberOrVariable(const std::string& cls, size_t start,
                             size_t decl_end, int decl_line) {
    if (cls.empty()) return;  // namespace-scope non-mutex variables: ignore
    bool is_static = false, is_const = false, guarded = false;
    bool is_atomic = false, is_pointer = false;
    std::string first_type_token;
    size_t guard_idx = 0;
    for (size_t r = start; r < decl_end; ++r) {
      const Token& t = Tok(r);
      if (t.text == "*") is_pointer = true;
      if (t.text == "static") is_static = true;
      if (t.text == "const" || t.text == "constexpr") is_const = true;
      if (t.text == "atomic") is_atomic = true;
      if ((t.text == "GUARDED_BY" || t.text == "PT_GUARDED_BY") &&
          Is(r + 1, "(")) {
        guarded = true;
        guard_idx = r;
        r = SkipBalanced(r + 1, "(", ")") - 1;
        continue;
      }
      if (first_type_token.empty() && t.kind == Token::kIdent &&
          t.text != "mutable" && t.text != "static" && t.text != "const" &&
          t.text != "constexpr" && t.text != "inline" &&
          t.text != "volatile") {
        first_type_token = t.text;
      }
    }
    // Name: the identifier just before GUARDED_BY / '=' / '{' / end.
    size_t name_idx = 0;
    size_t stop = guarded ? guard_idx : decl_end;
    for (size_t r = start; r < stop; ++r) {
      if (Tok(r).text == "=" || Tok(r).text == "{") break;
      if (Tok(r).kind == Token::kIdent && !IsAnnotationMacro(Tok(r).text)) {
        name_idx = r;
      }
    }
    if (name_idx == 0) return;
    std::string name = Tok(name_idx).text;
    // Only a by-value godiva::Mutex member is a declaration; a Mutex*
    // (MutexLock's handle) refers to one declared elsewhere.
    if (first_type_token == "Mutex" && !is_pointer) {
      MutexDecl decl;
      decl.cls = cls;
      decl.member = name;
      decl.id = cls + "::" + name;
      decl.file = f_.path;
      decl.line = decl_line;
      for (size_t r = start; r < decl_end; ++r) {
        if (Tok(r).text == "lock_rank" && Is(r + 1, "::")) {
          decl.rank_symbol = Tok(r + 2).text;
        }
      }
      ApplyMutexDeclAnnotations(&decl, start);
      model_->mutexes.push_back(decl);
      model_->mutex_owning_classes.insert(cls);
      return;
    }
    FieldDecl field;
    field.cls = cls;
    field.name = name;
    field.type_text = first_type_token;
    field.guarded = guarded;
    field.is_atomic = is_atomic;
    field.is_const = is_const;
    field.is_static = is_static;
    field.is_sync_type = SyncTypes().count(first_type_token) > 0;
    field.file = f_.path;
    field.line = decl_line;
    auto ann = LintAnnotationsAt(start);
    if (auto it = ann.find("unguarded"); it != ann.end()) {
      field.unguarded_reason = Trim(it->second);
      if (field.unguarded_reason.empty()) {
        Diag(decl_line, "lint-usage", "unguarded() waiver needs a reason");
      }
    }
    model_->fields.push_back(field);
  }

  FunctionInfo* LookupOrCreateFunction(const std::string& cls,
                                       const std::string& name, int line) {
    if (!cls.empty()) {
      std::string key = cls + "::" + name;
      auto it = model_->method_index.find(key);
      if (it != model_->method_index.end()) {
        return &model_->functions[it->second];
      }
      model_->method_index[key] = model_->functions.size();
    }
    FunctionInfo fn;
    fn.cls = cls;
    fn.name = name;
    fn.file = f_.path;
    fn.line = line;
    model_->functions.push_back(fn);
    return &model_->functions.back();
  }

  // ---- function bodies ----------------------------------------------------

  struct Block {
    std::vector<std::string> scoped;         // MutexLock refs in this block
    std::vector<std::string> manual_snapshot;  // manual set at block entry
    bool ends_with_exit = false;
  };

  // Reads the receiver expression that ends at token `i` (exclusive):
  // walks back over `ident`, `.`, `->`, `::`, `]`/`[`, `this`. Returns the
  // raw textual expression.
  std::string ReceiverEndingAt(size_t i) const {
    std::string out;
    size_t j = i;
    int bracket = 0;
    while (j > 0) {
      const Token& t = Tok(j - 1);
      if (t.text == "]") {
        ++bracket;
        --j;
        continue;
      }
      if (t.text == "[") {
        --bracket;
        --j;
        continue;
      }
      if (bracket > 0) {
        --j;
        continue;
      }
      if (t.kind == Token::kIdent || t.text == "." || t.text == "->" ||
          t.text == "::" || t.text == "this") {
        --j;
        continue;
      }
      break;
    }
    for (size_t k = j; k < i; ++k) {
      out += Tok(k).text;
    }
    return out;
  }

  // Applies the declared on_exit_holds / on_exit_releases contract of a
  // receiver-less call to `callee` (resolved through the enclosing class
  // chain) to the caller's running lock state.
  void ApplyCalleeContract(const std::string& cls, const std::string& callee,
                           std::vector<std::string>* held,
                           std::vector<std::string>* manual) {
    std::string scope = cls;
    while (!scope.empty()) {
      auto it = model_->method_index.find(scope + "::" + callee);
      if (it != model_->method_index.end()) {
        const FunctionInfo& target = model_->functions[it->second];
        for (const std::string& rel : target.on_exit_releases) {
          if (!EraseMutexRef(manual, rel)) EraseMutexRef(held, rel);
        }
        for (const std::string& acq : target.on_exit_holds) {
          manual->push_back(acq);
        }
        return;
      }
      size_t cut = scope.rfind("::");
      if (cut == std::string::npos) return;
      scope = scope.substr(0, cut);
    }
  }

  void ParseFunctionBody(FunctionInfo* fn, const std::string& cls) {
    // idx_ is at '{'.
    ++idx_;
    std::vector<Block> blocks;
    blocks.push_back(Block{});
    // Entry lock state: REQUIRES + holds_on_entry (raw refs, resolved
    // later). Stored in acquisition-order; `held` snapshots copy it.
    std::vector<std::string> held;
    for (const std::string& r : fn->requires_held) {
      if (r != "=<declared>") held.push_back(r);
    }
    for (const std::string& r : fn->holds_on_entry) held.push_back(r);
    const std::vector<std::string> entry_held = held;
    std::vector<std::string> manual;  // manually Lock()ed refs
    bool saw_exit_in_stmt = false;
    bool stmt_start = true;
    size_t stmt_first = idx_;
    size_t stmt_top_call = 0;  // token index of last depth-base call
    int paren_depth = 0;

    auto held_now = [&]() {
      std::vector<std::string> out = held;
      for (const std::string& m : manual) out.push_back(m);
      return out;
    };
    auto ref_of = [&](const std::string& expr, size_t at) {
      auto ann = LintAnnotationsAt(at);
      if (auto it = ann.find("mutex"); it != ann.end()) {
        return "=" + Trim(it->second);
      }
      return cls + "|" + expr;
    };

    while (idx_ < f_.tokens.size()) {
      const Token& t = Tok(idx_);
      const std::string& x = t.text;
      if (x == "(") ++paren_depth;
      if (x == ")") --paren_depth;
      if (x == "{") {
        Block b;
        b.manual_snapshot = manual;
        blocks.push_back(b);
        ++idx_;
        stmt_start = true;
        stmt_first = idx_;
        saw_exit_in_stmt = false;
        continue;
      }
      if (x == "}") {
        Block done = blocks.back();
        blocks.pop_back();
        // Scoped locks released at block end.
        for (const std::string& m : done.scoped) {
          for (size_t k = held.size(); k > 0; --k) {
            if (held[k - 1] == m) {
              held.erase(held.begin() + static_cast<long>(k) - 1);
              break;
            }
          }
        }
        ++idx_;
        if (blocks.empty()) break;  // end of function body: keep the final
                                    // lock state for the exit-delta below
        // An inner block ending in return/continue/break diverges: the
        // fall-through path resumes from the state at block entry.
        if (done.ends_with_exit || saw_exit_in_stmt) {
          manual = done.manual_snapshot;
        }
        saw_exit_in_stmt = false;
        stmt_start = true;
        stmt_first = idx_;
        continue;
      }
      if (x == ";") {
        // Check-4 candidate: a full-statement call (possibly `(void)`-cast).
        if (stmt_top_call != 0) {
          MarkDiscardStatement(fn, stmt_first, idx_, stmt_top_call);
        }
        blocks.back().ends_with_exit = saw_exit_in_stmt;
        saw_exit_in_stmt = false;
        stmt_start = true;
        stmt_first = idx_ + 1;
        stmt_top_call = 0;
        ++idx_;
        continue;
      }
      if (x == "return" || x == "break" || x == "continue" || x == "abort") {
        saw_exit_in_stmt = true;
      }
      // MutexLock lock(&expr);
      if (x == "MutexLock" && Tok(idx_ + 1).kind == Token::kIdent &&
          Is(idx_ + 2, "(")) {
        size_t e = SkipBalanced(idx_ + 2, "(", ")");
        std::string expr;
        for (size_t r = idx_ + 3; r + 1 < e; ++r) {
          if (Tok(r).text != "&") expr += Tok(r).text;
        }
        std::string ref = ref_of(expr, idx_);
        fn->acquires.push_back(AcquireSite{ref, held_now(), t.line});
        blocks.back().scoped.push_back(ref);
        held.push_back(ref);
        idx_ = e;
        continue;
      }
      // expr.Lock() / expr->Lock() / TryLock / Unlock.
      if ((x == "Lock" || x == "TryLock" || x == "Unlock") && idx_ > 0 &&
          (Is(idx_ - 1, ".") || Is(idx_ - 1, "->")) && Is(idx_ + 1, "(")) {
        std::string expr = ReceiverEndingAt(idx_ - 1);
        std::string ref = ref_of(expr, idx_);
        if (x == "Unlock") {
          // Releasing a manually taken lock, or an entry-held one
          // (LoadInlineAndLock's contract) — entry refs come from
          // annotations, so match across ref spellings.
          if (!EraseMutexRef(&manual, ref)) EraseMutexRef(&held, ref);
        } else {
          fn->acquires.push_back(AcquireSite{ref, held_now(), t.line});
          manual.push_back(ref);
        }
        idx_ = SkipBalanced(idx_ + 1, "(", ")");
        continue;
      }
      // cv.Wait(&mu) / cv.WaitUntil(&mu, deadline): blocks while holding
      // everything except mu (released for the duration of the wait).
      if ((x == "Wait" || x == "WaitUntil") && idx_ > 0 &&
          (Is(idx_ - 1, ".") || Is(idx_ - 1, "->")) && Is(idx_ + 1, "(") &&
          Is(idx_ + 2, "&")) {
        size_t e = SkipBalanced(idx_ + 1, "(", ")");
        std::string expr;
        for (size_t r = idx_ + 3; r + 1 < e && !Is(r, ","); ++r) {
          expr += Tok(r).text;
        }
        WaitSite ws;
        ws.released_mutex_id = ref_of(expr, idx_);
        ws.held = held_now();
        ws.line = t.line;
        auto ann = LintAnnotationsAt(idx_);
        if (auto it = ann.find("blocking_ok"); it != ann.end()) {
          ws.blocking_reason = Trim(it->second);
        }
        fn->waits.push_back(ws);
        idx_ = e;
        continue;
      }
      // General call: IDENT '(' — record with receiver and held set.
      if (t.kind == Token::kIdent && Is(idx_ + 1, "(") &&
          !ControlKeywords().count(x) && !IsAnnotationMacro(x) &&
          x != "MutexLock") {
        bool is_method = idx_ > 0 && (Is(idx_ - 1, ".") || Is(idx_ - 1, "->"));
        CallSite call;
        call.callee_name = x;
        if (is_method) {
          // Receiver chain text minus the trailing `.`/`->` separator:
          // "env_->" → "env_", "options_.env." → "env".
          std::string chain = ReceiverEndingAt(idx_ - 1);
          size_t cut = chain.find_last_of(".>");
          call.receiver = cut == std::string::npos ? chain : chain.substr(0, cut);
          if (!call.receiver.empty() && call.receiver.back() == '-') {
            call.receiver.pop_back();
          }
          call.receiver = FinalNameOf(call.receiver);
        }
        call.held = held_now();
        call.line = t.line;
        auto ann = LintAnnotationsAt(idx_);
        if (auto it = ann.find("blocking_ok"); it != ann.end()) {
          call.blocking_reason = Trim(it->second);
          if (call.blocking_reason.empty()) {
            Diag(t.line, "lint-usage", "blocking_ok() waiver needs a reason");
          }
        }
        if (auto it = ann.find("discard_ok"); it != ann.end()) {
          call.discard_reason = Trim(it->second);
          if (call.discard_reason.empty()) {
            Diag(t.line, "lint-usage", "discard_ok() waiver needs a reason");
          }
        }
        fn->calls.push_back(call);
        // A same-class callee with a declared lock-state contract changes
        // the caller's held set: EvictUnitLocked releases s.mu,
        // LockAllShards exits holding every shard lock. Headers parse
        // before bodies, so the annotated declaration is already present.
        if (!is_method || call.receiver == "this") {
          ApplyCalleeContract(cls, x, &held, &manual);
        }
        if (paren_depth == 0) stmt_top_call = idx_;
        ++idx_;
        continue;
      }
      if (stmt_start && t.kind != Token::kEof) {
        stmt_start = false;
      }
      ++idx_;
    }

    // Net lock-state delta visible to callers (fall-through path).
    // Ref-spelling-insensitive: a re-taken entry lock comes back as a raw
    // body ref while the entry set uses annotation ids.
    auto contains = [](const std::vector<std::string>& list,
                       const std::string& ref) {
      for (const std::string& m : list) {
        if (SameMutexRef(m, ref)) return true;
      }
      return false;
    };
    for (const std::string& m : manual) {
      if (!contains(entry_held, m)) fn->computed_exit_holds.push_back(m);
    }
    for (const std::string& m : entry_held) {
      if (!contains(held, m) && !contains(manual, m)) {
        fn->computed_exit_releases.push_back(m);
      }
    }
  }

  // Classifies the statement [stmt_first, semi) as a discarded call if it
  // has the shape `[ (void) ] receiver-chain Call(...) ;`.
  void MarkDiscardStatement(FunctionInfo* fn, size_t stmt_first, size_t semi,
                            size_t call_idx) {
    // A brace group inside the statement (lambda, brace-init argument)
    // resets statement tracking past the call; such statements are never
    // plain discards.
    if (stmt_first > call_idx) return;
    size_t i = stmt_first;
    bool void_cast = false;
    if (Is(i, "(") && Is(i + 1, "void") && Is(i + 2, ")")) {
      void_cast = true;
      i += 3;
    }
    // The chain must be idents/separators only up to the call — and not a
    // value-consuming context like `return Status::Ok();`.
    for (size_t r = i; r < call_idx; ++r) {
      const Token& t = Tok(r);
      if (ControlKeywords().count(t.text) || t.text == "else" ||
          t.text == "do" || t.text == "case") {
        return;
      }
      if (t.kind == Token::kIdent || t.text == "." || t.text == "->" ||
          t.text == "::") {
        continue;
      }
      return;  // not a plain call statement
    }
    // After the call's closing paren there must be nothing before ';'.
    size_t close = SkipBalanced(call_idx + 1, "(", ")");
    if (close != semi) return;
    // Find the recorded CallSite (the last call with this token's line and
    // name).
    for (size_t k = fn->calls.size(); k > 0; --k) {
      CallSite& call = fn->calls[k - 1];
      if (call.line == Tok(call_idx).line &&
          call.callee_name == Tok(call_idx).text) {
        call.is_discard_stmt = true;
        call.is_void_cast = void_cast;
        return;
      }
    }
  }

  const LexedFile& f_;
  Model* model_;
  std::vector<Finding>* diags_;
  size_t idx_ = 0;
  std::map<std::string, size_t> fn_index_;
};

}  // namespace

void ExtractFile(const LexedFile& lexed, Model* model,
                 std::vector<Finding>* diags) {
  Extractor extractor(lexed, model, diags);
  extractor.Run();
}

void ParseRankDef(const std::string& path, const std::string& source,
                  Model* model, std::vector<Finding>* diags) {
  LexedFile lexed = Lex(path, source);
  for (size_t i = 0; i + 1 < lexed.tokens.size(); ++i) {
    const std::string& x = lexed.tokens[i].text;
    if (x != "GODIVA_LOCK_RANK" && x != "GODIVA_LOCK_RANK_RANGE") continue;
    if (lexed.tokens[i + 1].text != "(") continue;
    std::vector<std::vector<Token>> args;
    args.emplace_back();
    int depth = 0;
    size_t j = i + 1;
    for (; j < lexed.tokens.size(); ++j) {
      const std::string& y = lexed.tokens[j].text;
      if (y == "(") {
        ++depth;
        if (depth == 1) continue;
      }
      if (y == ")") {
        --depth;
        if (depth == 0) break;
      }
      if (y == "," && depth == 1) {
        args.emplace_back();
        continue;
      }
      args.back().push_back(lexed.tokens[j]);
    }
    auto text_of = [](const std::vector<Token>& ts) {
      std::string out;
      for (const Token& t : ts) {
        std::string piece = t.text;
        if (t.kind == Token::kString && piece.size() >= 2) {
          piece = piece.substr(1, piece.size() - 2);
        }
        out += piece;
      }
      return out;
    };
    RankEntry entry;
    if (x == "GODIVA_LOCK_RANK" && args.size() >= 4) {
      entry.symbol = text_of(args[0]);
      entry.rank = std::atoi(text_of(args[1]).c_str());
      entry.width = 1;
      entry.owner = text_of(args[2]);
    } else if (x == "GODIVA_LOCK_RANK_RANGE" && args.size() >= 6) {
      entry.symbol = text_of(args[0]);
      entry.rank = std::atoi(text_of(args[1]).c_str());
      entry.width = std::atoi(text_of(args[3]).c_str());
      entry.owner = text_of(args[4]);
    } else {
      diags->push_back(Finding{path, lexed.tokens[i].line, "lint-usage",
                               "malformed " + x + " entry"});
      i = j;
      continue;
    }
    model->rank_registry.push_back(entry);
    i = j;
  }
}

void ResolveMutexRefs(Model* model, std::vector<Finding>* diags) {
  // Apply ctor init-list rank bindings.
  for (MutexDecl& decl : model->mutexes) {
    if (decl.rank_symbol.empty()) {
      auto it = model->ctor_rank_bindings.find(decl.id);
      if (it != model->ctor_rank_bindings.end()) decl.rank_symbol = it->second;
    }
  }
  // member name → decl ids (for unique-name fallback).
  std::map<std::string, std::vector<const MutexDecl*>> by_member;
  std::map<std::string, const MutexDecl*> by_id;
  for (const MutexDecl& decl : model->mutexes) {
    by_member[decl.member].push_back(&decl);
    by_id[decl.id] = &decl;
  }

  auto resolve = [&](const std::string& raw, const std::string& file,
                     int line) -> std::string {
    if (!raw.empty() && raw[0] == '=') {
      // Pre-resolved via annotation: verify it names a real decl.
      std::string id = raw.substr(1);
      if (!by_id.count(id)) {
        diags->push_back(Finding{file, line, "lint-usage",
                                 "annotation names unknown mutex '" + id + "'"});
        return "";
      }
      return id;
    }
    size_t bar = raw.find('|');
    std::string cls = bar == std::string::npos ? "" : raw.substr(0, bar);
    std::string expr = bar == std::string::npos ? raw : raw.substr(bar + 1);
    std::string member = FinalNameOf(expr);
    // Walk the class nesting chain outward.
    std::string scope = cls;
    while (true) {
      auto it = by_id.find(scope.empty() ? member : scope + "::" + member);
      if (it != by_id.end()) return it->second->id;
      size_t cut = scope.rfind("::");
      if (cut == std::string::npos) {
        if (!scope.empty()) {
          auto git = by_id.find(member);
          if (git != by_id.end()) return git->second->id;
        }
        break;
      }
      scope = scope.substr(0, cut);
    }
    auto mit = by_member.find(member);
    if (mit != by_member.end() && mit->second.size() == 1) {
      return mit->second[0]->id;
    }
    if (mit != by_member.end() && mit->second.size() > 1) {
      diags->push_back(
          Finding{file, line, "lint-usage",
                  "ambiguous mutex reference '" + expr +
                      "'; disambiguate with // lint: mutex(Class::member)"});
    } else {
      diags->push_back(Finding{file, line, "lint-usage",
                               "cannot resolve mutex reference '" + expr +
                                   "' (enclosing class '" + cls + "')"});
    }
    return "";
  };

  auto resolve_list = [&](std::vector<std::string>* refs,
                          const std::string& file, int line) {
    std::vector<std::string> out;
    for (const std::string& r : *refs) {
      if (r == "=<declared>") continue;
      std::string id = resolve(r, file, line);
      if (!id.empty()) out.push_back(id);
    }
    *refs = out;
  };

  for (FunctionInfo& fn : model->functions) {
    // The sync primitives themselves (Mutex forwarding to std::mutex,
    // MutexLock's RAII body, CondVar's release/re-acquire) implement the
    // contracts the checks enforce; analyzing their bodies against those
    // same contracts is circular. Treat them as opaque.
    std::string tail = fn.cls;
    if (size_t cut = tail.rfind("::"); cut != std::string::npos) {
      tail = tail.substr(cut + 2);
    }
    if (tail == "Mutex" || tail == "MutexLock" || tail == "CondVar") {
      fn.acquires.clear();
      fn.calls.clear();
      fn.waits.clear();
      fn.computed_exit_holds.clear();
      fn.computed_exit_releases.clear();
      continue;
    }
    bool entry_declared =
        std::find(fn.requires_held.begin(), fn.requires_held.end(),
                  std::string("=<declared>")) != fn.requires_held.end();
    resolve_list(&fn.requires_held, fn.file, fn.line);
    if (entry_declared) fn.requires_held.push_back("=<declared>");
    resolve_list(&fn.holds_on_entry, fn.file, fn.line);
    resolve_list(&fn.on_exit_holds, fn.file, fn.line);
    resolve_list(&fn.on_exit_releases, fn.file, fn.line);
    const std::string& site_file =
        fn.body_file.empty() ? fn.file : fn.body_file;
    resolve_list(&fn.computed_exit_holds, site_file, fn.line);
    resolve_list(&fn.computed_exit_releases, site_file, fn.line);
    for (AcquireSite& site : fn.acquires) {
      std::string id = resolve(site.mutex_id, site_file, site.line);
      site.mutex_id = id;
      resolve_list(&site.held, site_file, site.line);
    }
    for (CallSite& call : fn.calls) {
      resolve_list(&call.held, site_file, call.line);
    }
    for (WaitSite& ws : fn.waits) {
      ws.released_mutex_id = resolve(ws.released_mutex_id, site_file, ws.line);
      resolve_list(&ws.held, site_file, ws.line);
    }
  }
}

}  // namespace godiva::lint
