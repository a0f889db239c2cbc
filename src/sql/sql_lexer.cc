#include "sql/sql_lexer.h"

#include <cctype>

#include "common/string_util.h"

namespace iqs {

bool SqlToken::IsKeyword(const std::string& kw) const {
  return kind == SqlTokenKind::kIdent && EqualsIgnoreCase(text, kw);
}

Result<std::vector<SqlToken>> LexSql(const std::string& input) {
  std::vector<SqlToken> out;
  size_t i = 0;
  auto error = [&](const std::string& msg) {
    return Status::ParseError("SQL offset " + std::to_string(i) + ": " + msg);
  };
  while (i < input.size()) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < input.size() && input[i + 1] == '-') {
      while (i < input.size() && input[i] != '\n') ++i;
      continue;
    }
    int pos = static_cast<int>(i);
    // String literals: single quotes (SQL) or double quotes (QUEL — the
    // paper writes CLASS.TYPE = "SSBN"); a doubled quote escapes itself.
    if (c == '\'' || c == '"') {
      const char quote = c;
      std::string text;
      ++i;
      while (i < input.size()) {
        if (input[i] == quote) {
          if (i + 1 < input.size() && input[i + 1] == quote) {
            text += quote;
            i += 2;
            continue;
          }
          break;
        }
        text += input[i++];
      }
      if (i >= input.size()) return error("unterminated string literal");
      ++i;  // closing quote
      out.push_back({SqlTokenKind::kString, std::move(text), pos});
      continue;
    }
    // Numbers, optionally negative: the grammar has no binary minus, so a
    // '-' before a digit can only start a literal ("--" is a comment).
    bool neg_number = c == '-' && i + 1 < input.size() &&
                      std::isdigit(static_cast<unsigned char>(input[i + 1]));
    if (std::isdigit(static_cast<unsigned char>(c)) || neg_number) {
      std::string text;
      if (neg_number) {
        text += '-';
        ++i;
      }
      bool is_real = false;
      while (i < input.size()) {
        char d = input[i];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          text += d;
          ++i;
        } else if (d == '.' && !is_real && i + 1 < input.size() &&
                   std::isdigit(static_cast<unsigned char>(input[i + 1]))) {
          is_real = true;
          text += d;
          ++i;
        } else {
          break;
        }
      }
      out.push_back({is_real ? SqlTokenKind::kReal : SqlTokenKind::kInt,
                     std::move(text), pos});
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string text;
      while (i < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[i])) ||
              input[i] == '_')) {
        text += input[i++];
      }
      out.push_back({SqlTokenKind::kIdent, std::move(text), pos});
      continue;
    }
    auto match2 = [&](const char* sym) {
      return i + 1 < input.size() && input[i] == sym[0] &&
             input[i + 1] == sym[1];
    };
    if (match2("<=") || match2(">=") || match2("!=") || match2("<>")) {
      std::string sym = input.substr(i, 2);
      if (sym == "<>") sym = "!=";
      out.push_back({SqlTokenKind::kSymbol, sym, pos});
      i += 2;
      continue;
    }
    static const std::string kSingles = ".,()*=<>;";
    if (kSingles.find(c) != std::string::npos) {
      out.push_back({SqlTokenKind::kSymbol, std::string(1, c), pos});
      ++i;
      continue;
    }
    return error(std::string("unexpected character '") + c + "'");
  }
  out.push_back({SqlTokenKind::kEnd, "", static_cast<int>(input.size())});
  return out;
}

}  // namespace iqs
