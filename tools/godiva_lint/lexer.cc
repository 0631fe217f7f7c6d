#include <cctype>
#include <string>

#include "godiva_lint/lint.h"

namespace godiva::lint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

LexedFile Lex(const std::string& path, const std::string& source) {
  LexedFile out;
  out.path = path;
  size_t i = 0;
  const size_t n = source.size();
  int line = 1;
  // Comment accumulation: consecutive comment fragments (separated only by
  // whitespace/newlines) merge into one block so a waiver may wrap lines.
  bool comment_open = false;
  auto append_comment = [&](int at_line, const std::string& text) {
    if (comment_open && !out.comments.empty() &&
        at_line <= out.comments.back().last_line + 1) {
      out.comments.back().text += " " + text;
      out.comments.back().last_line = at_line;
    } else {
      out.comments.push_back(
          CommentBlock{at_line, at_line, text, out.tokens.size()});
    }
    comment_open = true;
  };

  while (i < n) {
    char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: skip the logical line (with continuations).
    // Only when '#' starts the line's non-whitespace content.
    if (c == '#') {
      bool at_line_start = true;
      for (size_t j = i; j > 0; --j) {
        char p = source[j - 1];
        if (p == '\n') break;
        if (!std::isspace(static_cast<unsigned char>(p))) {
          at_line_start = false;
          break;
        }
      }
      if (at_line_start) {
        while (i < n) {
          if (source[i] == '\\' && i + 1 < n && source[i + 1] == '\n') {
            ++line;
            i += 2;
            continue;
          }
          if (source[i] == '\n') break;
          ++i;
        }
        continue;
      }
      out.tokens.push_back(Token{Token::kPunct, "#", line});
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      size_t start = i + 2;
      while (i < n && source[i] != '\n') ++i;
      append_comment(line, source.substr(start, i - start));
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      int start_line = line;
      size_t start = i + 2;
      i += 2;
      while (i + 1 < n && !(source[i] == '*' && source[i + 1] == '/')) {
        if (source[i] == '\n') ++line;
        ++i;
      }
      std::string text = source.substr(start, i - start);
      for (char& ch : text) {
        if (ch == '\n') ch = ' ';
      }
      append_comment(start_line, text);
      if (!out.comments.empty()) out.comments.back().last_line = line;
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }
    comment_open = false;
    if (c == '"') {
      // Raw strings are not used in this codebase; plain escape handling.
      size_t start = i;
      ++i;
      while (i < n && source[i] != '"') {
        if (source[i] == '\\' && i + 1 < n) ++i;
        if (source[i] == '\n') ++line;
        ++i;
      }
      ++i;
      out.tokens.push_back(
          Token{Token::kString, source.substr(start, i - start), line});
      continue;
    }
    if (c == '\'') {
      size_t start = i;
      ++i;
      while (i < n && source[i] != '\'') {
        if (source[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      ++i;
      out.tokens.push_back(
          Token{Token::kString, source.substr(start, i - start), line});
      continue;
    }
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(source[i])) ++i;
      out.tokens.push_back(
          Token{Token::kIdent, source.substr(start, i - start), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n && (IsIdentChar(source[i]) || source[i] == '.' ||
                       ((source[i] == '+' || source[i] == '-') && i > start &&
                        (source[i - 1] == 'e' || source[i - 1] == 'E')))) {
        ++i;
      }
      out.tokens.push_back(
          Token{Token::kNumber, source.substr(start, i - start), line});
      continue;
    }
    // Multi-char punctuation the extractor cares about: :: -> punctuation
    // groups. Everything else is single-char.
    if (c == ':' && i + 1 < n && source[i + 1] == ':') {
      out.tokens.push_back(Token{Token::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && source[i + 1] == '>') {
      out.tokens.push_back(Token{Token::kPunct, "->", line});
      i += 2;
      continue;
    }
    // Left shift must be one token: two '<' tokens would read as nested
    // template-argument openers and derail the declaration scanner for the
    // rest of the file (e.g. `size_t limit = 1 << 20;` in a member init).
    // '>>' stays two tokens — in declaration context it is two template
    // closers (`vector<unique_ptr<T>>`), which is what the angle-depth
    // heuristic wants.
    if (c == '<' && i + 1 < n && source[i + 1] == '<') {
      out.tokens.push_back(Token{Token::kPunct, "<<", line});
      i += 2;
      continue;
    }
    out.tokens.push_back(Token{Token::kPunct, std::string(1, c), line});
    ++i;
  }
  out.tokens.push_back(Token{Token::kEof, "", line});
  return out;
}

std::string FormatFinding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.check + "] " + finding.message;
}

}  // namespace godiva::lint
