#include "util/doc.hpp"

#include <charconv>
#include <stdexcept>
#include <unordered_set>

namespace ebrc::util {

namespace {

[[noreturn]] void fail(const std::string& format, std::size_t line, const std::string& what) {
  throw std::invalid_argument(format + " parse error at line " + std::to_string(line) + ": " +
                              what);
}

[[nodiscard]] bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v';
}

[[nodiscard]] std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

[[nodiscard]] bool valid_bare_key(std::string_view key) noexcept {
  if (key.empty()) return false;
  for (char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  out += '"';
}

/// Classifies and parses an unquoted scalar token (shared by both formats).
[[nodiscard]] DocValue parse_scalar(std::string_view token, const char* format,
                                    std::size_t line) {
  if (token == "true") return DocValue(true);
  if (token == "false") return DocValue(false);
  if (token.empty()) fail(format, line, "empty value");

  const bool floaty = token.find_first_of(".eE") != std::string_view::npos ||
                      token.find("inf") != std::string_view::npos ||
                      token.find("nan") != std::string_view::npos;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  if (floaty) {
    double d = 0.0;
    const auto r = std::from_chars(first, last, d);
    if (r.ec != std::errc{} || r.ptr != last) {
      fail(format, line, "malformed float '" + std::string(token) + "'");
    }
    return DocValue(d);
  }
  if (token.front() == '-') {
    std::int64_t i = 0;
    const auto r = std::from_chars(first, last, i);
    if (r.ec != std::errc{} || r.ptr != last) {
      fail(format, line, "malformed integer '" + std::string(token) + "'");
    }
    // "-0" is zero, which is emitted (and so must be stored) unsigned.
    if (i == 0) return DocValue(std::uint64_t{0});
    return DocValue(i);
  }
  std::uint64_t u = 0;
  const auto r = std::from_chars(first, last, u);
  if (r.ec != std::errc{} || r.ptr != last) {
    fail(format, line, "malformed integer '" + std::string(token) + "'");
  }
  return DocValue(u);
}

/// Decodes a quoted string starting at s[i] == '"'. Returns the decoded
/// string; i is left one past the closing quote.
[[nodiscard]] std::string parse_quoted(std::string_view s, std::size_t& i, const char* format,
                                       std::size_t line) {
  std::string out;
  ++i;  // opening quote
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"') {
      ++i;
      return out;
    }
    if (c == '\\') {
      if (i + 1 >= s.size()) fail(format, line, "dangling escape");
      const char e = s[++i];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          // \uXXXX (BMP, no surrogate pairs — the escapers here only emit
          // \u00XX for control characters), decoded to UTF-8.
          if (i + 4 >= s.size()) fail(format, line, "truncated \\u escape");
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[++i];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail(format, line, "malformed \\u escape");
          }
          if (cp >= 0xD800 && cp <= 0xDFFF) {
            fail(format, line, "surrogate \\u escape unsupported");
          }
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail(format, line, std::string("unknown escape \\") + e);
      }
      continue;
    }
    out += c;
  }
  fail(format, line, "unterminated string");
}

/// Keys already in one table, so a duplicate check costs O(1), not a scan.
using KeySet = std::unordered_set<std::string>;

void check_duplicate(KeySet& keys, const std::string& key, const char* format, std::size_t line) {
  if (!keys.insert(key).second) fail(format, line, "duplicate key '" + key + "'");
}

void emit_scalar(std::string& out, const DocValue& v) {
  if (const bool* b = v.if_bool()) {
    out += *b ? "true" : "false";
  } else if (const std::uint64_t* u = v.if_u64()) {
    out += std::to_string(*u);
  } else if (const std::int64_t* i = v.if_i64()) {
    out += std::to_string(*i);
  } else if (const double* d = v.if_double()) {
    out += format_double(*d);
  } else if (const std::string* s = v.if_string()) {
    append_escaped(out, *s);
  }
}

void json_emit(std::string& out, const DocTable& table, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
  out += "{";
  bool first = true;
  for (const auto& [key, value] : table) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad;
    append_escaped(out, key);
    out += ": ";
    if (const DocTable* sub = value.if_table()) {
      json_emit(out, *sub, indent + 2);
    } else {
      emit_scalar(out, value);
    }
  }
  out += '\n';
  out.append(static_cast<std::size_t>(indent), ' ');
  out += '}';
}

/// Deepest object nesting parse_json accepts. The scenario schema is two
/// deep; the cap keeps hostile input from overflowing the stack.
constexpr int kMaxJsonDepth = 64;

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  [[nodiscard]] DocTable parse() {
    skip_ws();
    DocTable root = parse_object(1);
    skip_ws();
    if (i_ != s_.size()) fail("json", line(), "trailing characters after document");
    return root;
  }

 private:
  /// The line of s_[i_]. The cursor only moves forward, so the count
  /// resumes where the last call stopped.
  [[nodiscard]] std::size_t line() noexcept {
    for (; line_pos_ < i_ && line_pos_ < s_.size(); ++line_pos_) {
      if (s_[line_pos_] == '\n') ++line_;
    }
    return line_;
  }

  void skip_ws() noexcept {
    while (i_ < s_.size() && (is_space(s_[i_]) || s_[i_] == '\n')) ++i_;
  }

  void expect(char c) {
    if (i_ >= s_.size() || s_[i_] != c) {
      fail("json", line(), std::string("expected '") + c + "'");
    }
    ++i_;
  }

  [[nodiscard]] DocTable parse_object(int depth) {
    if (depth > kMaxJsonDepth) {
      fail("json", line(), "objects nested deeper than " + std::to_string(kMaxJsonDepth));
    }
    expect('{');
    DocTable table;
    KeySet keys;
    skip_ws();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return table;
    }
    for (;;) {
      skip_ws();
      if (i_ >= s_.size() || s_[i_] != '"') fail("json", line(), "expected string key");
      std::string key = parse_quoted(s_, i_, "json", line());
      check_duplicate(keys, key, "json", line());
      skip_ws();
      expect(':');
      skip_ws();
      table.push_back({std::move(key), parse_value(depth)});
      skip_ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      expect('}');
      return table;
    }
  }

  /// A value inside an object at nesting `depth`.
  [[nodiscard]] DocValue parse_value(int depth) {
    if (i_ >= s_.size()) fail("json", line(), "unexpected end of input");
    const char c = s_[i_];
    if (c == '{') return DocValue(parse_object(depth + 1));
    if (c == '"') return DocValue(parse_quoted(s_, i_, "json", line()));
    // Bare token: runs to the next delimiter.
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' && !is_space(s_[i_]) &&
           s_[i_] != '\n') {
      ++i_;
    }
    return parse_scalar(s_.substr(start, i_ - start), "json", line());
  }

  std::string_view s_;
  std::size_t i_ = 0;
  std::size_t line_ = 1;
  std::size_t line_pos_ = 0;  // line_ counts the newlines before here
};

}  // namespace

const char* DocValue::type_name() const noexcept {
  switch (v_.index()) {
    case 0: return "bool";
    case 1:
    case 2: return "integer";
    case 3: return "float";
    case 4: return "string";
    default: return "table";
  }
}

bool operator==(const DocValue& a, const DocValue& b) { return a.v_ == b.v_; }

const DocValue* doc_find(const DocTable& table, std::string_view key) {
  for (const auto& entry : table) {
    if (entry.key == key) return &entry.value;
  }
  return nullptr;
}

std::string format_double(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  std::string s(buf, r.ptr);
  // "15000000" would read back as an integer token; keep floats float-shaped.
  if (s.find_first_of(".eEnN") == std::string::npos) s += ".0";
  return s;
}

std::string to_toml(const DocTable& root) {
  std::string out;
  for (const auto& [key, value] : root) {
    if (value.if_table() != nullptr) continue;
    out += key;
    out += " = ";
    emit_scalar(out, value);
    out += '\n';
  }
  for (const auto& [key, value] : root) {
    const DocTable* sub = value.if_table();
    if (sub == nullptr) continue;
    out += "\n[" + key + "]\n";
    for (const auto& [skey, svalue] : *sub) {
      if (svalue.if_table() != nullptr) {
        throw std::invalid_argument("to_toml: nested table '" + key + "." + skey +
                                    "' not supported (flat schema)");
      }
      out += skey;
      out += " = ";
      emit_scalar(out, svalue);
      out += '\n';
    }
  }
  return out;
}

DocTable parse_toml(std::string_view text) {
  DocTable root;
  // Sections are collected separately and appended after the scalars so a
  // pointer into `root` never dangles across push_backs.
  std::vector<std::pair<std::string, DocTable>> sections;
  std::ptrdiff_t current = -1;  // -1 = top level, else index into sections
  std::vector<KeySet> keys(1);  // keys[current + 1]: the keys of that table

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view raw = text.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    std::string_view sv = trim(raw);
    if (sv.empty() || sv.front() == '#') continue;

    if (sv.front() == '[') {
      const std::size_t close = sv.find(']');
      if (close == std::string_view::npos) fail("toml", line_no, "missing ']'");
      const std::string_view rest = trim(sv.substr(close + 1));
      if (!rest.empty() && rest.front() != '#') fail("toml", line_no, "text after ']'");
      std::string name(trim(sv.substr(1, close - 1)));
      if (!valid_bare_key(name)) fail("toml", line_no, "bad table name '" + name + "'");
      // Table names share the top level's key space.
      check_duplicate(keys[0], name, "toml", line_no);
      sections.emplace_back(std::move(name), DocTable{});
      keys.emplace_back();
      current = static_cast<std::ptrdiff_t>(sections.size()) - 1;
      continue;
    }

    const std::size_t eq = sv.find('=');
    if (eq == std::string_view::npos) fail("toml", line_no, "expected 'key = value'");
    std::string key(trim(sv.substr(0, eq)));
    if (!valid_bare_key(key)) fail("toml", line_no, "bad key '" + key + "'");

    std::string_view val = trim(sv.substr(eq + 1));
    DocValue parsed;
    if (!val.empty() && val.front() == '"') {
      std::size_t i = 0;
      parsed = DocValue(parse_quoted(val, i, "toml", line_no));
      const std::string_view rest = trim(val.substr(i));
      if (!rest.empty() && rest.front() != '#') fail("toml", line_no, "text after string value");
    } else {
      const std::size_t hash = val.find('#');
      if (hash != std::string_view::npos) val = trim(val.substr(0, hash));
      parsed = parse_scalar(val, "toml", line_no);
    }

    DocTable& target =
        current < 0 ? root : sections[static_cast<std::size_t>(current)].second;
    check_duplicate(keys[static_cast<std::size_t>(current + 1)], key, "toml", line_no);
    target.push_back({std::move(key), std::move(parsed)});
  }

  for (auto& [name, table] : sections) {
    root.push_back({std::move(name), DocValue(std::move(table))});
  }
  return root;
}

std::string to_json(const DocTable& root) {
  std::string out;
  json_emit(out, root, 0);
  out += '\n';
  return out;
}

DocTable parse_json(std::string_view text) { return JsonParser(text).parse(); }

}  // namespace ebrc::util
