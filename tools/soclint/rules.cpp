#include "rules.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>
#include <sstream>

namespace soclint {
namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Blanks comments and string/character literals to spaces, preserving every
// newline and column, so token scans see only code.  Handles //, /* */,
// escape sequences, and R"delim(...)delim" raw strings.
std::string scrub(const std::string& text) {
  std::string out = text;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_close;  // ")delim" for the active raw string.
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !ident_char(text[i - 1]))) {
          raw_close = ")";
          std::size_t j = i + 2;
          while (j < text.size() && text[j] != '(') raw_close += text[j++];
          raw_close += '"';
          state = State::kRaw;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
          out[i] = '"';  // keep the quotes; blank only the contents
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = '\'';
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRaw:
        if (text.compare(i, raw_close.size(), raw_close) == 0) {
          for (std::size_t j = 0; j < raw_close.size(); ++j) out[i + j] = ' ';
          i += raw_close.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type start = 0;
  while (start <= text.size()) {
    const auto nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

}  // namespace

// Shared with the whole-program passes (passes.cpp).
namespace detail {

std::vector<std::size_t> find_token(const std::string& line,
                                    const std::string& token) {
  std::vector<std::size_t> cols;
  std::string::size_type pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !ident_char(line[end]);
    if (left_ok && right_ok) cols.push_back(pos);
    pos = end;
  }
  return cols;
}

bool line_is_preprocessor(const std::string& code_line) {
  for (char c : code_line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return false;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace detail

namespace {

using detail::find_token;
using detail::line_is_preprocessor;
using detail::trim;

// ---------------------------------------------------------------------------
// Rule: banned-nondeterminism
// ---------------------------------------------------------------------------

struct BannedToken {
  const char* token;
  bool call_only;  ///< Require '(' after the token (for short names).
  const char* why;
};

constexpr BannedToken kBanned[] = {
    {"rand", true,
     "libc rand() is hidden-global-state nondeterminism; draw from soc::Rng"},
    {"srand", true,
     "libc srand() seeds hidden global state; seed a soc::Rng instead"},
    {"random_device", false,
     "std::random_device pulls OS entropy, so replays differ; use soc::Rng"},
    {"system_clock", false,
     "wall-clock reads are nondeterministic; simulated time is soc::SimTime"},
    {"steady_clock", false,
     "host-clock reads are nondeterministic; simulated time is soc::SimTime"},
    {"high_resolution_clock", false,
     "host-clock reads are nondeterministic; simulated time is soc::SimTime"},
    {"clock_gettime", true,
     "host-clock reads are nondeterministic; simulated time is soc::SimTime"},
    {"gettimeofday", true,
     "host-clock reads are nondeterministic; simulated time is soc::SimTime"},
};

void rule_banned(const SourceFile& file, std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    for (const BannedToken& banned : kBanned) {
      for (std::size_t col : find_token(line, banned.token)) {
        if (banned.call_only) {
          std::size_t j = col + std::string(banned.token).size();
          while (j < line.size() &&
                 std::isspace(static_cast<unsigned char>(line[j]))) {
            ++j;
          }
          if (j >= line.size() || line[j] != '(') continue;
        }
        out.push_back({file.path, i + 1, "banned-nondeterminism",
                       std::string(banned.token) + ": " + banned.why});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: getenv-in-library
// ---------------------------------------------------------------------------

void rule_getenv(const SourceFile& file, std::vector<Diagnostic>& out) {
  if (file.top_dir != "src") return;  // tools/tests may read their environment
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    for (const char* token : {"getenv", "secure_getenv"}) {
      if (!find_token(file.code_lines[i], token).empty()) {
        out.push_back({file.path, i + 1, "getenv-in-library",
                       std::string(token) +
                           ": library behavior must not depend on the "
                           "environment; thread configuration in explicitly"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered-in-sim-state
// ---------------------------------------------------------------------------

const std::set<std::string>& sim_state_modules() {
  static const std::set<std::string> kModules = {
      "sim", "msg", "cluster", "trace", "obs", "sweep", "prof"};
  return kModules;
}

void rule_unordered(const SourceFile& file, std::vector<Diagnostic>& out) {
  if (file.top_dir != "src" ||
      sim_state_modules().count(file.module_name) == 0) {
    return;
  }
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    for (const char* token : {"unordered_map", "unordered_multimap",
                              "unordered_set", "unordered_multiset"}) {
      if (!find_token(file.code_lines[i], token).empty()) {
        out.push_back(
            {file.path, i + 1, "unordered-in-sim-state",
             std::string(token) +
                 " in simulation-state code: hash iteration order is "
                 "unspecified, so any walk over it can reorder replays; use "
                 "soc::flat_map (insertion-order iteration), std::map, or a "
                 "sorted vector"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: pragma-once
// ---------------------------------------------------------------------------

void rule_pragma_once(const SourceFile& file, std::vector<Diagnostic>& out) {
  if (!file.is_header) return;
  for (const std::string& line : file.code_lines) {
    if (line.find("#pragma") != std::string::npos &&
        line.find("once") != std::string::npos) {
      return;
    }
  }
  out.push_back({file.path, 1, "pragma-once",
                 "header lacks #pragma once (the repo's include-guard "
                 "convention)"});
}

// ---------------------------------------------------------------------------
// Rule: soc-check-message
// ---------------------------------------------------------------------------

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i) text += '\n';
    text += lines[i];
  }
  return text;
}

void rule_check_message(const SourceFile& file, std::vector<Diagnostic>& out) {
  const std::string code = join(file.code_lines);
  const std::string raw = join(file.raw_lines);
  std::string::size_type pos = 0;
  while ((pos = code.find("SOC_CHECK", pos)) != std::string::npos) {
    const std::size_t token = pos;
    pos += 9;  // strlen("SOC_CHECK")
    if (token > 0 && ident_char(code[token - 1])) continue;
    if (pos < code.size() && ident_char(code[pos])) continue;
    const std::size_t line_no =
        1 + static_cast<std::size_t>(
                std::count(code.begin(),
                           code.begin() + static_cast<std::ptrdiff_t>(token),
                           '\n'));
    // Skip the macro's own #define.
    const std::size_t line_start = code.rfind('\n', token);
    const std::string head = code.substr(
        line_start == std::string::npos ? 0 : line_start + 1,
        token - (line_start == std::string::npos ? 0 : line_start + 1));
    if (head.find("#define") != std::string::npos) continue;

    std::size_t open = pos;
    while (open < code.size() &&
           std::isspace(static_cast<unsigned char>(code[open]))) {
      ++open;
    }
    if (open >= code.size() || code[open] != '(') continue;

    // Balance parens over the scrubbed text (literals cannot confuse it)
    // while remembering top-level comma positions.
    int depth = 0;
    std::size_t last_comma = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t j = open; j < code.size(); ++j) {
      const char c = code[j];
      if (c == '(' || c == '[' || c == '{') {
        ++depth;
      } else if (c == ')' || c == ']' || c == '}') {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      } else if (c == ',' && depth == 1) {
        last_comma = j;
      }
    }
    if (close == std::string::npos) continue;  // unterminated; not ours
    if (last_comma == std::string::npos) {
      out.push_back({file.path, line_no, "soc-check-message",
                     "SOC_CHECK has no message argument; every check must "
                     "say what invariant failed"});
      continue;
    }
    const std::string msg =
        trim(raw.substr(last_comma + 1, close - last_comma - 1));
    if (msg.empty() || msg == "\"\"") {
      out.push_back({file.path, line_no, "soc-check-message",
                     "SOC_CHECK message is empty; every check must say what "
                     "invariant failed"});
    }
  }
}

}  // namespace

bool SourceFile::suppressed(std::size_t line_no, const std::string& rule) const {
  if (line_no == 0 || line_no > raw_lines.size()) return false;
  const std::string& raw = raw_lines[line_no - 1];
  const auto mark = raw.find("soclint: allow(");
  if (mark == std::string::npos) return false;
  const auto close = raw.find(')', mark);
  if (close == std::string::npos) return false;
  const std::string waived = raw.substr(mark + 15, close - mark - 15);
  return waived == rule || waived == "*";
}

SourceFile make_source_file(std::string path, const std::string& text) {
  SourceFile file;
  file.path = std::move(path);
  const auto first_slash = file.path.find('/');
  file.top_dir = file.path.substr(0, first_slash);
  if (file.top_dir == "src" && first_slash != std::string::npos) {
    const auto second_slash = file.path.find('/', first_slash + 1);
    if (second_slash != std::string::npos) {
      file.module_name =
          file.path.substr(first_slash + 1, second_slash - first_slash - 1);
    }
  }
  file.is_header = file.path.size() >= 2 &&
                   file.path.compare(file.path.size() - 2, 2, ".h") == 0;
  file.raw_lines = split_lines(text);
  file.code_lines = split_lines(scrub(text));
  return file;
}

const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> kRules = {
      {"banned-nondeterminism",
       "no rand()/std::random_device/host clocks; use soc::Rng and SimTime",
       rule_banned},
      {"getenv-in-library",
       "src/ code may not read the process environment", rule_getenv},
      {"unordered-in-sim-state",
       "no std::unordered_{map,set} in "
       "src/{sim,obs,prof,msg,cluster,trace,sweep}",
       rule_unordered},
      {"pragma-once", "every header carries #pragma once", rule_pragma_once},
      {"soc-check-message", "every SOC_CHECK carries a non-empty message",
       rule_check_message},
  };
  return kRules;
}

void run_rules(const SourceFile& file, std::vector<Diagnostic>& out) {
  std::vector<Diagnostic> found;
  for (const Rule& rule : all_rules()) rule.fn(file, found);
  for (Diagnostic& d : found) {
    if (!file.suppressed(d.line, d.rule)) out.push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

namespace {

std::size_t count_rule(const std::vector<Diagnostic>& diags,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

struct SelfTest {
  int failures = 0;

  void expect(const char* name, bool ok) {
    if (!ok) {
      std::fprintf(stderr, "soclint self-test FAILED: %s\n", name);
      ++failures;
    }
  }

  /// Asserts that linting `text` (as repo file `path`) produces exactly
  /// `expected` findings of `rule`.
  void lint_case(const char* name, const std::string& path,
                 const std::string& text, const std::string& rule,
                 std::size_t expected) {
    std::vector<Diagnostic> diags;
    run_rules(make_source_file(path, text), diags);
    expect(name, count_rule(diags, rule) == expected);
  }
};

}  // namespace

int self_test() {
  SelfTest t;

  // banned-nondeterminism: calls flagged; comments, literals, and
  // lookalike identifiers are not.
  t.lint_case("rand call flagged", "src/sim/x.cpp", "int v = rand();\n",
              "banned-nondeterminism", 1);
  t.lint_case("rand in comment ignored", "src/sim/x.cpp",
              "// rand() would break replays\n", "banned-nondeterminism", 0);
  t.lint_case("rand in string ignored", "src/sim/x.cpp",
              "const char* s = \"rand()\";\n", "banned-nondeterminism", 0);
  t.lint_case("operand() not rand()", "src/sim/x.cpp", "operand(3);\n",
              "banned-nondeterminism", 0);
  t.lint_case("random_device flagged", "src/common/x.cpp",
              "std::random_device rd;\n", "banned-nondeterminism", 1);
  t.lint_case("steady_clock flagged in bench too", "bench/x.cpp",
              "auto t0 = std::chrono::steady_clock::now();\n",
              "banned-nondeterminism", 1);
  t.lint_case("waiver honored", "src/sim/x.cpp",
              "int v = rand();  // soclint: allow(banned-nondeterminism)\n",
              "banned-nondeterminism", 0);

  // getenv-in-library: src/ only.
  t.lint_case("getenv in src flagged", "src/net/x.cpp",
              "const char* e = std::getenv(\"HOME\");\n", "getenv-in-library",
              1);
  t.lint_case("getenv in tools allowed", "tools/socbench.cpp",
              "const char* e = std::getenv(\"HOME\");\n", "getenv-in-library",
              0);

  // unordered-in-sim-state: simulation-state modules only.
  t.lint_case("unordered_map in sim flagged", "src/sim/engine.h",
              "#pragma once\nstd::unordered_map<int, int> m;\n",
              "unordered-in-sim-state", 1);
  t.lint_case("unordered_set in trace flagged", "src/trace/chop.cpp",
              "std::unordered_set<int> seen;\n", "unordered-in-sim-state", 1);
  t.lint_case("unordered_map outside sim state ok", "src/workloads/npb.cpp",
              "std::unordered_map<int, int> m;\n", "unordered-in-sim-state",
              0);
  t.lint_case("unordered_map in obs flagged", "src/obs/metrics.cpp",
              "std::unordered_map<int, int> m;\n", "unordered-in-sim-state",
              1);
  t.lint_case("unordered_map in sweep flagged", "src/sweep/sweep.cpp",
              "std::unordered_map<int, int> m;\n", "unordered-in-sim-state",
              1);
  t.lint_case("flat_map in sim state ok", "src/sim/engine.h",
              "#pragma once\n#include \"common/flat_map.h\"\n"
              "soc::flat_map<int, int> pending;\n",
              "unordered-in-sim-state", 0);
  t.lint_case("flat_map next to unordered still flags the unordered",
              "src/sim/engine.h",
              "soc::flat_map<int, int> ok;\nstd::unordered_map<int, int> m;\n",
              "unordered-in-sim-state", 1);
  t.lint_case("unordered_map in prof flagged", "src/prof/critical_path.cpp",
              "std::unordered_map<int, int> m;\n", "unordered-in-sim-state",
              1);
  t.lint_case("flat_map in prof ok", "src/prof/profiler.cpp",
              "#include \"common/flat_map.h\"\n"
              "soc::flat_map<int, int> pending;\n",
              "unordered-in-sim-state", 0);

  // Layering cases live in passes_self_test() now (passes.cpp), where
  // the include-graph pass — which owns the rule — is exercised directly.

  // pragma-once.
  t.lint_case("header without pragma once flagged", "src/mem/dram.h",
              "struct Dram {};\n", "pragma-once", 1);
  t.lint_case("header with pragma once ok", "src/mem/dram.h",
              "#pragma once\nstruct Dram {};\n", "pragma-once", 0);
  t.lint_case("source file exempt", "src/mem/dram.cpp", "struct Dram {};\n",
              "pragma-once", 0);

  // soc-check-message.
  t.lint_case("empty message flagged", "src/sim/x.cpp",
              "SOC_CHECK(a > 0, \"\");\n", "soc-check-message", 1);
  t.lint_case("missing message flagged", "src/sim/x.cpp",
              "SOC_CHECK(a > 0);\n", "soc-check-message", 1);
  t.lint_case("good message ok", "src/sim/x.cpp",
              "SOC_CHECK(a > 0, \"a must be positive\");\n",
              "soc-check-message", 0);
  t.lint_case("multi-line call ok", "src/sim/x.cpp",
              "SOC_CHECK(a > 0 &&\n          b > 0,\n          \"sizes\");\n",
              "soc-check-message", 0);
  t.lint_case("comma inside args handled", "src/sim/x.cpp",
              "SOC_CHECK(f(a, b), \"f failed\");\n", "soc-check-message", 0);
  t.lint_case("macro definition exempt", "src/common/error.h",
              "#pragma once\n#define SOC_CHECK(cond, msg) do {} while (0)\n",
              "soc-check-message", 0);

  if (t.failures == 0) {
    std::printf("soclint self-test: all cases passed\n");
  }
  return t.failures;
}

}  // namespace soclint
