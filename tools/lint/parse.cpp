#include "parse.hpp"

#include <algorithm>
#include <set>

namespace graffix::lint {

namespace {

using Kind = ScopeNode::Kind;

bool is_ident(const Token& t) { return t.kind == Token::Kind::Ident; }
bool is_text(const Token& t, std::string_view s) { return t.text == s; }

const std::set<std::string>& cv_storage_set() {
  static const std::set<std::string> kSet = {
      "const",    "constexpr", "static",       "inline",  "mutable",
      "volatile", "unsigned",  "signed",       "long",    "short",
      "typename", "auto",      "thread_local", "register", "extern",
      "struct",   "class",     "enum",         "union"};
  return kSet;
}

const std::set<std::string>& stmt_skip_set() {
  static const std::set<std::string> kSet = {
      "return", "if",       "for",     "while",         "do",
      "switch", "case",     "default", "break",         "continue",
      "goto",   "using",    "typedef", "template",      "friend",
      "else",   "try",      "catch",   "throw",         "delete",
      "new",    "operator", "namespace", "static_assert", "co_return",
      "co_yield", "co_await"};
  return kSet;
}

bool reserved_name(const std::string& s) {
  return cv_storage_set().count(s) > 0 || stmt_skip_set().count(s) > 0 ||
         s == "void" || s == "int" || s == "bool" || s == "char" ||
         s == "double" || s == "float" || s == "this" || s == "noexcept" ||
         s == "sizeof" || s == "decltype" || s == "nullptr" || s == "true" ||
         s == "false" || s == "public" || s == "private" || s == "protected";
}

/// Tries to parse tokens[lo, hi) as a single-declarator declaration.
/// `allow_ctor_paren` admits `Type name(args)` locals (off in class
/// bodies, where that shape is a method declaration). Returns true and
/// fills `out` (scope is left for the caller).
bool parse_decl(const std::vector<Token>& toks, std::size_t lo, std::size_t hi,
                bool allow_ctor_paren, Decl& out) {
  // Trim access-specifier labels glued to the front of the statement.
  while (lo + 1 < hi &&
         (is_text(toks[lo], "public") || is_text(toks[lo], "private") ||
          is_text(toks[lo], "protected")) &&
         is_text(toks[lo + 1], ":")) {
    lo += 2;
  }
  if (lo >= hi) return false;
  if (stmt_skip_set().count(toks[lo].text) > 0) return false;

  // Find the first top-level '=' (the initializer split).
  std::size_t end = hi;
  {
    int depth = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::string& t = toks[i].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (depth == 0 && t == "=") {
        end = i;
        break;
      }
    }
  }

  // Structured binding: auto [&]* '[' n1, n2, ... ']'
  {
    std::size_t i = lo;
    bool saw_auto = false;
    while (i < end &&
           (cv_storage_set().count(toks[i].text) > 0 || is_text(toks[i], "&") ||
            is_text(toks[i], "&&"))) {
      if (is_text(toks[i], "auto")) saw_auto = true;
      ++i;
    }
    if (saw_auto && i < end && is_text(toks[i], "[")) {
      // Register the first bound name as the decl (the caller only needs
      // existence + type for resolution; siblings share the type).
      for (std::size_t j = i + 1; j < end && !is_text(toks[j], "]"); ++j) {
        if (is_ident(toks[j])) {
          out.name = toks[j].text;
          out.type = "auto &";
          out.line = toks[j].line;
          out.tok = j;
          return true;
        }
      }
      return false;
    }
  }

  std::size_t name_idx = hi;  // sentinel: none
  int type_tokens = 0;
  std::size_t i = lo;
  std::string terminator;
  while (i < end) {
    const Token& t = toks[i];
    if (is_ident(t)) {
      if (cv_storage_set().count(t.text) > 0) {
        ++type_tokens;
        ++i;
        continue;
      }
      const std::size_t cand = i;
      ++i;
      if (i < end && is_text(toks[i], "<")) {
        // Template argument list -> `cand` was a type name. Bail to
        // "not a decl" if the angles never close (a comparison).
        int ad = 1;
        int pd = 0;
        ++i;
        while (i < end && ad > 0) {
          const std::string& u = toks[i].text;
          if (u == "(") ++pd;
          if (u == ")") --pd;
          if (pd == 0) {
            if (u == "<") ++ad;
            if (u == ">") --ad;
            if (u == ">>") ad -= 2;
          }
          ++i;
        }
        if (ad > 0) return false;
        ++type_tokens;
        continue;
      }
      if (name_idx != hi) ++type_tokens;  // previous candidate was a type
      name_idx = cand;
      continue;
    }
    if (is_text(t, "::") || is_text(t, "*") || is_text(t, "&") ||
        is_text(t, "&&")) {
      if (name_idx != hi) {
        ++type_tokens;  // qualifier/declarator mark demotes the candidate
        name_idx = hi;
      }
      ++type_tokens;
      ++i;
      continue;
    }
    terminator = t.text;
    break;
  }
  if (name_idx == hi || type_tokens == 0) return false;
  const std::string& name = toks[name_idx].text;
  if (reserved_name(name)) return false;

  bool sized = false;
  if (!terminator.empty()) {
    if (terminator == "[") {
      // array declarator: fine
    } else if (terminator == "(") {
      if (!allow_ctor_paren) return false;
      if (i + 1 < end && is_text(toks[i + 1], ")")) return false;  // fn decl
      sized = true;
    } else if (terminator == "{") {
      sized = !(i + 1 < end && is_text(toks[i + 1], "}"));
    } else if (terminator == ":") {
      // bitfield: fine
    } else {
      return false;
    }
  }
  std::string type;
  for (std::size_t k = lo; k < name_idx; ++k) {
    if (!type.empty()) type.push_back(' ');
    type += toks[k].text;
  }
  out.name = name;
  out.type = type;
  out.line = toks[name_idx].line;
  out.tok = name_idx;
  out.sized_ctor = sized;
  return true;
}

struct LambdaInfo {
  std::size_t intro = 0;       // '['
  std::size_t params_lo = 0;   // token after '(' (0,0 when no param list)
  std::size_t params_hi = 0;
  bool cap_ref_default = false;
  bool cap_val_default = false;
  bool cap_this = false;
  std::vector<Capture> captures;
};

}  // namespace

const Decl* FileModel::resolve(const std::string& name,
                               std::size_t tok) const {
  const auto it = decls_by_name.find(name);
  if (it == decls_by_name.end()) return nullptr;
  for (int s = tok < scope_of.size() ? scope_of[tok] : 0; s != -1;
       s = scopes[static_cast<std::size_t>(s)].parent) {
    for (const int di : it->second) {
      if (decls[static_cast<std::size_t>(di)].scope == s) {
        return &decls[static_cast<std::size_t>(di)];
      }
    }
  }
  return nullptr;
}

int FileModel::enclosing(std::size_t tok, ScopeNode::Kind kind) const {
  for (int s = tok < scope_of.size() ? scope_of[tok] : 0; s != -1;
       s = scopes[static_cast<std::size_t>(s)].parent) {
    if (scopes[static_cast<std::size_t>(s)].kind == kind) return s;
  }
  return -1;
}

bool FileModel::scope_within(int inner, int outer) const {
  for (int s = inner; s != -1; s = scopes[static_cast<std::size_t>(s)].parent) {
    if (s == outer) return true;
  }
  return false;
}

bool FileModel::in_parallel(std::size_t tok) const {
  for (int s = tok < scope_of.size() ? scope_of[tok] : 0; s != -1;
       s = scopes[static_cast<std::size_t>(s)].parent) {
    if (scopes[static_cast<std::size_t>(s)].parallel) return true;
  }
  return false;
}

FileModel build_model(const std::vector<ScannedLine>& lines) {
  FileModel m;
  m.tokens = tokenize(lines);
  const std::size_t n = m.tokens.size();
  const std::size_t npos = n;  // "no partner" sentinel

  // --- Bracket matching ----------------------------------------------------
  m.match.assign(n, npos);
  {
    std::vector<std::size_t> paren, bracket, brace;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& t = m.tokens[i].text;
      auto close = [&](std::vector<std::size_t>& stack) {
        if (!stack.empty()) {
          m.match[stack.back()] = i;
          m.match[i] = stack.back();
          stack.pop_back();
        }
      };
      if (t == "(") paren.push_back(i);
      else if (t == "[") bracket.push_back(i);
      else if (t == "{") brace.push_back(i);
      else if (t == ")") close(paren);
      else if (t == "]") close(bracket);
      else if (t == "}") close(brace);
    }
  }

  // --- Lambda pre-scan: map body '{' -> capture/param info -----------------
  std::map<std::size_t, LambdaInfo> lambda_at;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_text(m.tokens[i], "[")) continue;
    if (i + 1 < n && is_text(m.tokens[i + 1], "[")) {
      // [[attribute]] — not a capture list; its partner scan is cheap to
      // let the loop skip past.
      continue;
    }
    if (i > 0) {
      const Token& p = m.tokens[i - 1];
      const bool prev_expr_end =
          p.kind == Token::Kind::Number || p.kind == Token::Kind::String ||
          p.kind == Token::Kind::CharLit || is_text(p, ")") || is_text(p, "]");
      if (prev_expr_end) continue;
      if (is_ident(p)) {
        static const std::set<std::string> kAllowBefore = {
            "return", "case", "throw", "co_return", "co_yield",
            "else",   "do"};
        if (kAllowBefore.count(p.text) == 0) continue;  // subscript
      }
    }
    const std::size_t cl = m.match[i];
    if (cl == npos) continue;
    LambdaInfo info;
    info.intro = i;
    // Capture list: top-level comma-separated segments.
    std::size_t seg = i + 1;
    int depth = 0;
    auto take_segment = [&](std::size_t lo, std::size_t hi) {
      if (lo >= hi) return;
      if (hi - lo == 1 && is_text(m.tokens[lo], "&")) {
        info.cap_ref_default = true;
        return;
      }
      if (hi - lo == 1 && is_text(m.tokens[lo], "=")) {
        info.cap_val_default = true;
        return;
      }
      if (is_text(m.tokens[lo], "this") ||
          (is_text(m.tokens[lo], "*") && lo + 1 < hi &&
           is_text(m.tokens[lo + 1], "this"))) {
        info.cap_this = true;
        return;
      }
      Capture c;
      std::size_t p = lo;
      if (is_text(m.tokens[p], "&")) {
        c.by_ref = true;
        ++p;
      }
      while (p < hi && !is_ident(m.tokens[p])) ++p;
      if (p < hi) {
        c.name = m.tokens[p].text;
        info.captures.push_back(std::move(c));
      }
    };
    for (std::size_t j = i + 1; j < cl; ++j) {
      const std::string& t = m.tokens[j].text;
      if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
      if (t == ")" || t == "]" || t == "}" || t == ">") --depth;
      if (depth == 0 && t == ",") {
        take_segment(seg, j);
        seg = j + 1;
      }
    }
    take_segment(seg, cl);
    // Past the ']': optional (params), then declarator trailer, then '{'.
    std::size_t j = cl + 1;
    if (j < n && is_text(m.tokens[j], "(")) {
      const std::size_t pc = m.match[j];
      if (pc == npos) continue;
      info.params_lo = j + 1;
      info.params_hi = pc;
      j = pc + 1;
    }
    bool found = false;
    for (int guard = 0; j < n && guard < 48; ++guard) {
      const std::string& t = m.tokens[j].text;
      if (t == "{") {
        found = true;
        break;
      }
      if (t == ";" || t == "," || t == ")" || t == "]" || t == "=") break;
      if (t == "(") {
        const std::size_t pc = m.match[j];
        if (pc == npos) break;
        j = pc + 1;
        continue;
      }
      ++j;
    }
    if (found) lambda_at.emplace(j, std::move(info));
  }

  // --- Scope walk ----------------------------------------------------------
  m.scopes.push_back(
      {Kind::File, "", "", -1, 0, n, 0, false, false, false, {}, {}, false});
  m.scope_of.assign(n, 0);
  std::vector<int> stack = {0};

  auto add_decl = [&](Decl d, int scope) {
    d.scope = scope;
    m.decls_by_name[d.name].push_back(static_cast<int>(m.decls.size()));
    m.decls.push_back(std::move(d));
  };

  // Splits [lo, hi) on top-level commas (angles tracked when they follow
  // an identifier — the template-args case in a parameter list) and
  // parses each segment as a parameter declaration.
  auto parse_params = [&](std::size_t lo, std::size_t hi, int scope) {
    int depth = 0;
    int angle = 0;
    std::size_t seg = lo;
    auto one = [&](std::size_t a, std::size_t b) {
      Decl d;
      if (parse_decl(m.tokens, a, b, false, d)) {
        add_decl(d, scope);
        m.scopes[static_cast<std::size_t>(scope)].params.push_back(d.name);
      }
    };
    for (std::size_t j = lo; j < hi; ++j) {
      const std::string& t = m.tokens[j].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (depth == 0) {
        if (t == "<" && j > lo && is_ident(m.tokens[j - 1])) ++angle;
        if (t == ">" && angle > 0) --angle;
        if (t == ">>" && angle > 0) angle = std::max(0, angle - 2);
        if (t == "," && angle == 0) {
          one(seg, j);
          seg = j + 1;
        }
      }
    }
    one(seg, hi);
  };

  // Classifies the statement head [lo, hi) that precedes a '{'.
  auto classify = [&](std::size_t lo, std::size_t hi, ScopeNode& out) {
    // Strip leading template parameter lists.
    while (lo + 1 < hi && is_text(m.tokens[lo], "template") &&
           is_text(m.tokens[lo + 1], "<")) {
      int ad = 1;
      std::size_t j = lo + 2;
      while (j < hi && ad > 0) {
        const std::string& t = m.tokens[j].text;
        if (t == "<") ++ad;
        if (t == ">") --ad;
        if (t == ">>") ad -= 2;
        ++j;
      }
      lo = j;
    }
    if (lo >= hi) {
      out.kind = Kind::Block;
      return;
    }
    const std::string& first = m.tokens[lo].text;
    static const std::set<std::string> kControl = {
        "if", "for", "while", "switch", "catch", "do", "else", "try"};
    if (kControl.count(first) > 0) {
      out.kind = Kind::Block;
      return;
    }
    if (first == "namespace") {
      out.kind = Kind::Namespace;
      for (std::size_t j = lo + 1; j < hi; ++j) {
        if (is_ident(m.tokens[j])) out.name = m.tokens[j].text;
      }
      return;
    }
    if (first == "extern") {  // extern "C" { ... }
      out.kind = Kind::Namespace;
      return;
    }
    if (first == "enum") {
      out.kind = Kind::Enum;
      std::size_t j = lo + 1;
      if (j < hi &&
          (is_text(m.tokens[j], "class") || is_text(m.tokens[j], "struct"))) {
        ++j;
      }
      if (j < hi && is_ident(m.tokens[j])) out.name = m.tokens[j].text;
      return;
    }
    // Class key at top level (parens excluded: `void f(struct tm*)`).
    {
      int depth = 0;
      for (std::size_t j = lo; j < hi; ++j) {
        const std::string& t = m.tokens[j].text;
        if (t == "(") ++depth;
        if (t == ")") --depth;
        if (depth == 0 &&
            (t == "class" || t == "struct" || t == "union")) {
          out.kind = Kind::Class;
          for (std::size_t k = j + 1; k < hi; ++k) {
            if (is_ident(m.tokens[k])) {
              out.name = m.tokens[k].text;
              break;
            }
            if (is_text(m.tokens[k], ":") || is_text(m.tokens[k], "{")) break;
          }
          return;
        }
      }
    }
    // Function attempt: the last top-level (params) group before any
    // ctor-init/inheritance ':' whose preceding token is a plausible name.
    std::size_t search_hi = hi;
    {
      int depth = 0;
      bool ternary = false;
      for (std::size_t j = lo; j < hi; ++j) {
        const std::string& t = m.tokens[j].text;
        if (t == "(" || t == "[" || t == "{") ++depth;
        if (t == ")" || t == "]" || t == "}") --depth;
        if (depth == 0 && t == "?") ternary = true;
        if (depth == 0 && t == ":" && !ternary) {
          search_hi = j;
          break;
        }
      }
    }
    static const std::set<std::string> kNotFnName = {
        "noexcept", "if",     "while",    "for",   "switch",
        "return",   "sizeof", "alignof",  "decltype", "catch",
        "alignas"};
    int depth = 0;
    std::vector<std::size_t> groups;  // top-level '(' indices
    for (std::size_t j = lo; j < search_hi; ++j) {
      const std::string& t = m.tokens[j].text;
      if (t == "(") {
        if (depth == 0 && m.match[j] != npos && m.match[j] < search_hi) {
          groups.push_back(j);
        }
        ++depth;
      }
      if (t == ")") --depth;
    }
    for (auto it = groups.rbegin(); it != groups.rend(); ++it) {
      const std::size_t g = *it;
      if (g == lo) continue;
      const Token& p = m.tokens[g - 1];
      if (!is_ident(p) || kNotFnName.count(p.text) > 0) continue;
      out.kind = Kind::Function;
      out.name = p.text;
      if (g >= lo + 3 && is_text(m.tokens[g - 2], "::") &&
          is_ident(m.tokens[g - 3])) {
        out.class_name = m.tokens[g - 3].text;
      }
      out.open_tok = g;  // stash the param group for the caller
      return;
    }
    out.kind = Kind::Block;
  };

  auto flush_statement = [&](std::size_t lo, std::size_t hi,
                             bool at_brace) {
    if (lo >= hi) return;
    const int cur = stack.back();
    const Kind ck = m.scopes[static_cast<std::size_t>(cur)].kind;
    if (ck == Kind::Enum) return;
    if (is_text(m.tokens[lo], "for") && lo + 1 < hi &&
        is_text(m.tokens[lo + 1], "(")) {
      // for-init / range-for declaration: strip `for (` and cut at a
      // top-level ':' (range-for) when present.
      std::size_t cut = hi;
      int depth = 0;
      for (std::size_t j = lo + 2; j < hi; ++j) {
        const std::string& t = m.tokens[j].text;
        if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
        if (t == ")" || t == "]" || t == "}" || t == ">") --depth;
        if (depth == 0 && t == ":") {
          cut = j;
          break;
        }
      }
      Decl d;
      if (parse_decl(m.tokens, lo + 2, cut, true, d)) add_decl(d, cur);
      return;
    }
    Decl d;
    if (parse_decl(m.tokens, lo, hi, ck != Kind::Class, d)) {
      if (at_brace) {
        d.sized_ctor = hi + 1 < n && !is_text(m.tokens[hi + 1], "}");
      }
      add_decl(d, cur);
    }
  };

  // A '{' inside a parenthesized list the current statement opened (a
  // `= {}` default argument, a braced temporary argument) is an
  // initializer, not a scope: it and its partner are skipped, so the
  // statement still ends at the real body's '{' and is classified.
  // Lambda bodies inside argument lists still open scopes.
  std::vector<std::size_t> open_parens;
  std::vector<bool> initializer_close(n, false);
  std::size_t stmt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    m.scope_of[i] = stack.back();
    const std::string& t = m.tokens[i].text;
    if (t == "(") {
      open_parens.push_back(i);
    } else if (t == ")") {
      if (!open_parens.empty()) open_parens.pop_back();
    } else if (t == "{" && !open_parens.empty() &&
               open_parens.back() >= stmt && lambda_at.count(i) == 0) {
      if (m.match[i] != npos) initializer_close[m.match[i]] = true;
    } else if (t == "}" && initializer_close[i]) {
      // Partner of a skipped initializer '{'.
    } else if (t == "{") {
      ScopeNode sn;
      sn.parent = stack.back();
      sn.open_tok = i;
      sn.close_tok = m.match[i] == npos ? n : m.match[i];
      const auto lam = lambda_at.find(i);
      if (lam != lambda_at.end()) {
        const LambdaInfo& info = lam->second;
        sn.kind = Kind::Lambda;
        sn.intro_tok = info.intro;
        sn.cap_ref_default = info.cap_ref_default;
        sn.cap_val_default = info.cap_val_default;
        sn.cap_this = info.cap_this;
        sn.captures = info.captures;
        const int idx = static_cast<int>(m.scopes.size());
        m.scopes.push_back(std::move(sn));
        if (info.params_lo < info.params_hi) {
          parse_params(info.params_lo, info.params_hi, idx);
        }
        m.scope_of[i] = idx;
        stack.push_back(idx);
      } else {
        ScopeNode cls;
        cls.open_tok = 0;
        classify(stmt, i, cls);
        sn.kind = cls.kind;
        sn.name = cls.name;
        sn.class_name = cls.class_name;
        if (sn.kind == Kind::Function && sn.class_name.empty()) {
          // In-class definition: qualifier is the enclosing class.
          const int encl = m.scopes[static_cast<std::size_t>(sn.parent)]
                                   .kind == Kind::Class
                               ? sn.parent
                               : -1;
          if (encl != -1) {
            sn.class_name = m.scopes[static_cast<std::size_t>(encl)].name;
          }
        }
        // Only Block heads are statements (decl-with-brace-init or a
        // range-for head); class/function/namespace heads are signatures.
        if (sn.kind == Kind::Block) flush_statement(stmt, i, true);
        const std::size_t param_group = cls.open_tok;  // stashed by classify
        const int idx = static_cast<int>(m.scopes.size());
        m.scopes.push_back(std::move(sn));
        if (m.scopes.back().kind == Kind::Function && param_group != 0 &&
            m.match[param_group] != npos) {
          parse_params(param_group + 1, m.match[param_group], idx);
        }
        if (m.scopes.back().kind == Kind::Enum) {
          // Enumerators: identifiers at depth 0 following '{' or ','.
          const std::size_t close = m.scopes.back().close_tok;
          int depth = 0;
          bool expect = true;
          for (std::size_t j = i + 1; j < close && j < n; ++j) {
            const std::string& u = m.tokens[j].text;
            if (u == "(" || u == "[" || u == "{") ++depth;
            if (u == ")" || u == "]" || u == "}") --depth;
            if (depth == 0 && u == ",") {
              expect = true;
              continue;
            }
            if (depth == 0 && expect && is_ident(m.tokens[j])) {
              Decl d;
              d.name = m.tokens[j].text;
              d.type = "enumerator";
              d.line = m.tokens[j].line;
              d.tok = j;
              add_decl(d, idx);
              expect = false;
            }
          }
        }
        m.scope_of[i] = idx;
        stack.push_back(idx);
      }
      stmt = i + 1;
    } else if (t == "}") {
      flush_statement(stmt, i, false);
      if (stack.size() > 1) stack.pop_back();
      stmt = i + 1;
    } else if (t == ";") {
      flush_statement(stmt, i, false);
      stmt = i + 1;
    }
  }
  return m;
}

void mark_parallel(FileModel& m,
                   const std::vector<std::string>& entry_points) {
  const std::size_t n = m.tokens.size();
  const std::size_t npos = n;
  const std::set<std::string> entries(entry_points.begin(),
                                      entry_points.end());

  // Lambda variables (`auto name = [...]`) and same-TU functions, by name.
  std::map<std::string, std::vector<int>> lambda_var;
  std::map<std::string, std::vector<int>> fn_by_name;
  for (std::size_t s = 0; s < m.scopes.size(); ++s) {
    const ScopeNode& sn = m.scopes[s];
    if (sn.kind == ScopeNode::Kind::Lambda) {
      const std::size_t in = sn.intro_tok;
      if (in >= 2 && is_text(m.tokens[in - 1], "=") &&
          is_ident(m.tokens[in - 2])) {
        lambda_var[m.tokens[in - 2].text].push_back(static_cast<int>(s));
      }
    } else if (sn.kind == ScopeNode::Kind::Function && !sn.name.empty()) {
      fn_by_name[sn.name].push_back(static_cast<int>(s));
    }
  }

  auto mark = [&](int s, bool& changed) {
    if (!m.scopes[static_cast<std::size_t>(s)].parallel) {
      m.scopes[static_cast<std::size_t>(s)].parallel = true;
      changed = true;
    }
  };

  // Seeds: arguments of the substrate entry-point calls.
  bool changed = false;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!is_ident(m.tokens[i]) || entries.count(m.tokens[i].text) == 0 ||
        !is_text(m.tokens[i + 1], "(")) {
      continue;
    }
    if (i > 0 &&
        (is_text(m.tokens[i - 1], ".") || is_text(m.tokens[i - 1], "->"))) {
      continue;
    }
    const std::size_t close = m.match[i + 1];
    if (close == npos) continue;
    for (std::size_t s = 0; s < m.scopes.size(); ++s) {
      const ScopeNode& sn = m.scopes[s];
      if (sn.kind == ScopeNode::Kind::Lambda && sn.open_tok > i + 1 &&
          sn.open_tok < close) {
        mark(static_cast<int>(s), changed);
      }
    }
    for (std::size_t j = i + 2; j < close; ++j) {
      if (!is_ident(m.tokens[j])) continue;
      if (j + 1 < n && is_text(m.tokens[j + 1], "(")) continue;  // a call
      const auto lv = lambda_var.find(m.tokens[j].text);
      if (lv != lambda_var.end()) {
        for (const int s : lv->second) mark(s, changed);
      }
      const auto fv = fn_by_name.find(m.tokens[j].text);
      if (fv != fn_by_name.end()) {
        for (const int s : fv->second) mark(s, changed);
      }
    }
  }

  // Fixpoint: calls from marked scopes drag same-TU callees in.
  for (int round = 0; round < 64; ++round) {
    changed = false;
    for (std::size_t s = 0; s < m.scopes.size(); ++s) {
      if (!m.scopes[s].parallel) continue;
      const std::size_t lo = m.scopes[s].open_tok + 1;
      const std::size_t hi = std::min(m.scopes[s].close_tok, n);
      for (std::size_t j = lo; j < hi; ++j) {
        if (!is_ident(m.tokens[j]) || j + 1 >= n ||
            !is_text(m.tokens[j + 1], "(")) {
          continue;
        }
        const auto lv = lambda_var.find(m.tokens[j].text);
        if (lv != lambda_var.end()) {
          for (const int t : lv->second) mark(t, changed);
        }
        const auto fv = fn_by_name.find(m.tokens[j].text);
        if (fv != fn_by_name.end()) {
          for (const int t : fv->second) mark(t, changed);
        }
      }
    }
    if (!changed) break;
  }
}

}  // namespace graffix::lint
