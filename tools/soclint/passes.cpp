#include "passes.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace soclint {
namespace {

using detail::find_token;
using detail::line_is_preprocessor;
using detail::trim;

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Appends a diagnostic unless the flagged line carries a waiver.
void emit(const SourceFile& file, std::size_t line, const char* rule,
          std::string message, std::vector<Diagnostic>& out) {
  if (file.suppressed(line, rule)) return;
  out.push_back({file.path, line, rule, std::move(message)});
}

/// FNV-1a over `text`, rendered as 16 hex digits (for baseline keys).
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool diag_less(const Diagnostic& a, const Diagnostic& b) {
  if (a.path != b.path) return a.path < b.path;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  return a.message < b.message;
}

std::string join_path_chain(const std::vector<std::string>& chain) {
  std::string out;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (i) out += " -> ";
    out += chain[i];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Include-graph pass
// ---------------------------------------------------------------------------

struct IncludeEdge {
  std::size_t line = 0;      ///< 1-based line of the #include.
  std::string target;        ///< Path as written, e.g. "sim/engine.h".
  std::string target_module; ///< "" for local headers.
  std::size_t to = kUnresolved;  ///< Index into the file list, if resolved.
  static constexpr std::size_t kUnresolved = static_cast<std::size_t>(-1);
};

/// Quoted includes of one file, in source order.
std::vector<IncludeEdge> parse_includes(const SourceFile& file) {
  std::vector<IncludeEdge> edges;
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& code = file.code_lines[i];
    if (!line_is_preprocessor(code)) continue;
    if (code.find("include") == std::string::npos) continue;
    // The scrubber keeps string quotes; include paths live in raw lines.
    const std::string& raw = file.raw_lines[i];
    const auto open = raw.find('"');
    if (open == std::string::npos) continue;
    const auto close = raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    IncludeEdge edge;
    edge.line = i + 1;
    edge.target = raw.substr(open + 1, close - open - 1);
    const auto slash = edge.target.find('/');
    if (slash != std::string::npos) {
      edge.target_module = edge.target.substr(0, slash);
    }
    edges.push_back(std::move(edge));
  }
  return edges;
}

struct IncludeGraph {
  std::vector<std::size_t> src_files;            ///< Indices into `files`.
  std::map<std::string, std::size_t> path_index; ///< "src/..." -> files idx.
  std::map<std::size_t, std::vector<IncludeEdge>> edges;  ///< By files idx.
};

IncludeGraph build_graph(const std::vector<SourceFile>& files) {
  IncludeGraph g;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].top_dir != "src") continue;
    g.src_files.push_back(i);
    g.path_index[files[i].path] = i;
  }
  for (std::size_t i : g.src_files) {
    std::vector<IncludeEdge> edges = parse_includes(files[i]);
    for (IncludeEdge& e : edges) {
      if (e.target_module.empty()) continue;  // local "foo.h" include
      const auto it = g.path_index.find("src/" + e.target);
      if (it != g.path_index.end()) e.to = it->second;
    }
    g.edges[i] = std::move(edges);
  }
  return g;
}

/// DFS cycle detection.  Emits one `include-cycle` diagnostic per back
/// edge, carrying the full chain, at the file whose include closes it.
void check_cycles(const std::vector<SourceFile>& files, const IncludeGraph& g,
                  std::vector<Diagnostic>& out) {
  enum class Color { kWhite, kGray, kBlack };
  std::map<std::size_t, Color> color;
  for (std::size_t i : g.src_files) color[i] = Color::kWhite;

  struct Frame {
    std::size_t node;
    std::size_t next_edge = 0;
  };
  for (std::size_t start : g.src_files) {
    if (color[start] != Color::kWhite) continue;
    std::vector<Frame> stack{{start}};
    color[start] = Color::kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& edges = g.edges.at(frame.node);
      if (frame.next_edge >= edges.size()) {
        color[frame.node] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      const IncludeEdge& edge = edges[frame.next_edge++];
      if (edge.to == IncludeEdge::kUnresolved) continue;
      if (color[edge.to] == Color::kWhite) {
        color[edge.to] = Color::kGray;
        stack.push_back({edge.to});
      } else if (color[edge.to] == Color::kGray) {
        // Reconstruct the cycle from the DFS stack.
        std::vector<std::string> chain;
        std::size_t at = 0;
        while (at < stack.size() && stack[at].node != edge.to) ++at;
        for (std::size_t k = at; k < stack.size(); ++k) {
          chain.push_back(files[stack[k].node].path);
        }
        chain.push_back(files[edge.to].path);
        emit(files[frame.node], edge.line, "include-cycle",
             "#include cycle: " + join_path_chain(chain) +
                 "; the include graph must be a DAG (cycles compile "
                 "silently under #pragma once but make layering and "
                 "rebuild order meaningless)",
             out);
      }
    }
  }
}

/// Direct-edge layering (the old per-line rule, now graph-aware) plus
/// transitive reachability against the DAG closure.
void check_layering(const std::vector<SourceFile>& files,
                    const IncludeGraph& g, std::vector<Diagnostic>& out) {
  for (std::size_t i : g.src_files) {
    const SourceFile& file = files[i];
    const std::string& module = file.module_name;
    if (module.empty()) continue;
    if (allowed_includes().count(module) == 0) {
      emit(file, 1, "layering",
           "src/" + module +
               " is not registered in the soclint module DAG; add it to "
               "allowed_includes() in tools/soclint/passes.cpp (mirroring "
               "src/CMakeLists.txt) so its edges are checked",
           out);
      continue;
    }
    const std::set<std::string>& direct = allowed_includes().at(module);
    for (const IncludeEdge& edge : g.edges.at(i)) {
      if (edge.target_module.empty()) continue;
      if (allowed_includes().count(edge.target_module) == 0) continue;
      if (edge.target_module == module) continue;
      if (direct.count(edge.target_module) == 0) {
        emit(file, edge.line, "layering",
             "src/" + module + " may not include \"" + edge.target +
                 "\": dependency edges flow strictly upward (see "
                 "src/CMakeLists.txt); add the edge there first if intended",
             out);
      }
    }
  }

  // Transitive reachability: BFS the real include graph from every file
  // and require each reached module to be inside the includer's DAG
  // closure.  Length-1 paths are the direct check's job; everything
  // longer names the chain that leaks the forbidden layer in.
  for (std::size_t i : g.src_files) {
    const SourceFile& file = files[i];
    const std::string& module = file.module_name;
    if (module.empty() || allowed_includes().count(module) == 0) continue;
    const std::set<std::string>& closure = module_closure(module);

    std::map<std::size_t, std::size_t> parent;  // reached -> predecessor
    std::vector<std::size_t> queue{i};
    parent[i] = i;
    std::set<std::string> reported;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t node = queue[head];
      for (const IncludeEdge& edge : g.edges.at(node)) {
        if (edge.to == IncludeEdge::kUnresolved || parent.count(edge.to)) {
          continue;
        }
        parent[edge.to] = node;
        queue.push_back(edge.to);
        const std::string& target_module = files[edge.to].module_name;
        if (target_module.empty() || target_module == module) continue;
        if (allowed_includes().count(target_module) == 0) continue;
        if (closure.count(target_module) != 0) continue;
        if (node == i) continue;  // direct edge: reported above
        if (!reported.insert(target_module).second) continue;
        // Walk parents back to the root to print the chain.
        std::vector<std::string> chain{files[edge.to].path};
        for (std::size_t at = node; at != i; at = parent.at(at)) {
          chain.push_back(files[at].path);
        }
        chain.push_back(file.path);
        std::reverse(chain.begin(), chain.end());
        emit(file, 1, "layering",
             "src/" + module + " transitively reaches src/" + target_module +
                 ", which its layer may not see, via: " +
                 join_path_chain(chain) +
                 "; break the chain or move the shared code down the DAG",
             out);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stream-seam pass
// ---------------------------------------------------------------------------

// Intra-module seam around the operation-stream API (finer-grained than
// the module DAG, which cannot see edges inside src/workloads):
//  - the engine seam (workloads/op_stream.*) must stay generic — no
//    generator backend headers and no scenario decorators, so the engine
//    side of the API never grows backend knowledge;
//  - the scenario decorators (workloads/scenario.*) wrap streams only —
//    no generator backends, and no reaching up into cluster/ or sweep/
//    (also a module-DAG violation, re-asserted here so the seam rule is
//    complete on its own).

constexpr const char* kStreamSeamFiles[] = {
    "src/workloads/op_stream.h", "src/workloads/op_stream.cpp"};

constexpr const char* kScenarioFiles[] = {
    "src/workloads/scenario.h", "src/workloads/scenario.cpp"};

/// Workload generator backends the seam must not depend on.
constexpr const char* kBackendHeaders[] = {
    "workloads/npb.h", "workloads/scientific.h", "workloads/dnn_workloads.h"};

void stream_seam_pass(const std::vector<SourceFile>& files,
                      std::vector<Diagnostic>& out) {
  const auto is_one_of = [](const std::string& path, const auto& list) {
    for (const char* p : list) {
      if (path == p) return true;
    }
    return false;
  };
  for (const SourceFile& file : files) {
    if (file.top_dir != "src") continue;
    const bool seam = is_one_of(file.path, kStreamSeamFiles);
    const bool scenario = is_one_of(file.path, kScenarioFiles);
    if (!seam && !scenario) continue;
    for (const IncludeEdge& edge : parse_includes(file)) {
      if (is_one_of(edge.target, kBackendHeaders)) {
        emit(file, edge.line, "stream-seam",
             file.path + " may not include \"" + edge.target +
                 "\": the op-stream seam stays generic over workloads; "
                 "backends plug in via sim::OpSource, never the "
                 "other way around",
             out);
      }
      if (seam && edge.target == "workloads/scenario.h") {
        emit(file, edge.line, "stream-seam",
             file.path + " may not include \"workloads/scenario.h\": "
                 "scenario decorators wrap the stream API; the engine seam "
                 "must not know they exist",
             out);
      }
      if (scenario && (edge.target_module == "cluster" ||
                       edge.target_module == "sweep")) {
        emit(file, edge.line, "stream-seam",
             file.path + " may not include \"" + edge.target +
                 "\": scenario decorators are workload-layer stream "
                 "wrappers and must not reach up into the run/sweep layers",
             out);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shared-mutable-state pass
// ---------------------------------------------------------------------------

/// True if the raw line (or the raw line above) justifies shared state:
/// a non-empty `SOC_SHARED(<guard>)` comment, or a checkable
/// SOC_GUARDED_BY / SOC_PT_GUARDED_BY annotation in the code.
bool shared_state_annotated(const SourceFile& file, std::size_t line_no) {
  const auto has_marker = [](const std::string& text) {
    for (const char* marker :
         {"SOC_SHARED(", "SOC_GUARDED_BY(", "SOC_PT_GUARDED_BY("}) {
      const auto pos = text.find(marker);
      if (pos == std::string::npos) continue;
      const auto open = text.find('(', pos);
      const auto close = text.find(')', open);
      if (close != std::string::npos && close > open + 1) return true;
    }
    return false;
  };
  if (line_no >= 1 && has_marker(file.raw_lines[line_no - 1])) return true;
  if (line_no >= 2 && has_marker(file.raw_lines[line_no - 2])) return true;
  return false;
}

/// Scope kinds the `static` check distinguishes.  kOther covers function
/// bodies, lambdas, and initializer lists, where `static` is local state
/// the determinism rules already police differently.
enum class Scope { kNamespace, kType, kOther };

struct SharedDecl {
  std::size_t line = 0;   ///< 1-based.
  std::string what;       ///< Human label ("std::atomic", "mutable", ...).
  std::string name;       ///< Declared identifier, when recoverable.
  bool is_fp = false;     ///< Declared type mentions float/double.
};

/// Last identifier before the first of ';', '=', '{' in `text` starting
/// at `from` — the declared-variable-name heuristic.
std::string declared_name(const std::string& text, std::size_t from) {
  std::string last;
  std::string current;
  int angle = 0;
  for (std::size_t i = from; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (ident_char(c)) {
      current += c;
      continue;
    }
    if (!current.empty() && angle == 0) last = current;
    current.clear();
    if (angle == 0 && (c == ';' || c == '=' || c == '{')) break;
  }
  if (!current.empty() && angle == 0) last = current;
  return last;
}

/// Collects every shared-mutable declaration in one src/ file, walking a
/// brace-scope tracker so namespace/class-scope statics are told apart
/// from function-local ones.
std::vector<SharedDecl> find_shared_decls(const SourceFile& file) {
  std::vector<SharedDecl> decls;

  struct TypeToken {
    const char* token;
    const char* label;
  };
  // Declaration pattern required: the token is not a member access
  // (no '.' / '->' before it) and is followed by '<' or an identifier.
  static constexpr TypeToken kPrimitives[] = {
      {"mutex", "std::mutex"},
      {"shared_mutex", "std::shared_mutex"},
      {"recursive_mutex", "std::recursive_mutex"},
      {"timed_mutex", "std::timed_mutex"},
      {"Mutex", "soc::Mutex"},
      {"atomic", "std::atomic"},
      {"atomic_flag", "std::atomic_flag"},
      {"once_flag", "std::once_flag"},
      {"condition_variable", "std::condition_variable"},
  };

  std::vector<Scope> stack;
  std::string stmt;  // code since the last ';', '{', or '}'

  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    if (line_is_preprocessor(line)) continue;

    const auto add = [&](const char* label, std::size_t col, bool fp_hint) {
      // One diagnostic per line is plenty.
      if (!decls.empty() && decls.back().line == i + 1) return;
      SharedDecl d;
      d.line = i + 1;
      d.what = label;
      d.name = declared_name(line, col);
      d.is_fp = fp_hint || !find_token(line, "double").empty() ||
                !find_token(line, "float").empty();
      decls.push_back(std::move(d));
    };

    // Primitive-type declarations (scope-independent).
    for (const TypeToken& prim : kPrimitives) {
      for (std::size_t col : find_token(line, prim.token)) {
        if (col >= 1 && line[col - 1] == '.') continue;
        if (col >= 2 && line[col - 2] == '-' && line[col - 1] == '>') continue;
        std::size_t j = col + std::string(prim.token).size();
        const bool template_args = j < line.size() && line[j] == '<';
        while (j < line.size() &&
               std::isspace(static_cast<unsigned char>(line[j]))) {
          ++j;
        }
        const bool declares =
            template_args ||
            (j < line.size() && ident_char(line[j]) && line[j] != '<');
        if (declares) add(prim.label, col, false);
      }
    }
    for (std::size_t col : find_token(line, "thread_local")) {
      add("thread_local", col, false);
    }
    for (std::size_t col : find_token(line, "mutable")) {
      add("mutable", col, false);
    }

    // `static` needs the scope tracker: walk the line's characters,
    // updating the brace stack, and evaluate each static token at its
    // actual position.
    const std::vector<std::size_t> statics = find_token(line, "static");
    std::size_t next_static = 0;
    for (std::size_t col = 0; col <= line.size(); ++col) {
      if (next_static < statics.size() && statics[next_static] == col) {
        ++next_static;
        const bool at_shared_scope =
            stack.empty() || stack.back() == Scope::kNamespace ||
            stack.back() == Scope::kType;
        const bool is_const = !find_token(line, "const").empty() ||
                              !find_token(line, "constexpr").empty() ||
                              !find_token(line, "constinit").empty();
        if (at_shared_scope && !is_const) {
          // Variable, not function: the declarator hits ';', '=' or '{'
          // before any '('.  Look across up to three lines for the
          // decision point.
          std::string window = line.substr(col + 6);
          for (std::size_t k = i + 1; k < file.code_lines.size() && k < i + 3;
               ++k) {
            window += ' ';
            window += file.code_lines[k];
          }
          const std::size_t stop = window.find_first_of(";={(");
          if (stop != std::string::npos && window[stop] != '(') {
            add("static non-const", col, false);
          }
        }
      }
      if (col == line.size()) break;
      const char c = line[col];
      if (c == '{') {
        Scope kind = Scope::kOther;
        if (!find_token(stmt, "namespace").empty()) {
          kind = Scope::kNamespace;
        } else if (stmt.find('(') == std::string::npos &&
                   stmt.find('=') == std::string::npos &&
                   (!find_token(stmt, "class").empty() ||
                    !find_token(stmt, "struct").empty() ||
                    !find_token(stmt, "union").empty() ||
                    !find_token(stmt, "enum").empty())) {
          kind = Scope::kType;
        }
        stack.push_back(kind);
        stmt.clear();
      } else if (c == '}') {
        if (!stack.empty()) stack.pop_back();
        stmt.clear();
      } else if (c == ';') {
        stmt.clear();
      } else {
        stmt += c;
      }
    }
  }
  return decls;
}

void shared_state_file(const SourceFile& file, std::vector<Diagnostic>& out) {
  for (const SharedDecl& decl : find_shared_decls(file)) {
    if (shared_state_annotated(file, decl.line)) continue;
    std::string subject = decl.what;
    if (!decl.name.empty()) subject += " '" + decl.name + "'";
    emit(file, decl.line, "shared-mutable-state",
         subject +
             " is shared mutable state with no justification; add "
             "`// SOC_SHARED(<guard>)` naming the discipline that makes it "
             "safe (a mutex, `atomic`, `once`, `join`, `single-thread`) or "
             "a checkable SOC_GUARDED_BY annotation "
             "(src/common/thread_safety.h)",
         out);
  }
}

// ---------------------------------------------------------------------------
// Determinism pass
// ---------------------------------------------------------------------------

constexpr const char* kUnorderedTokens[] = {
    "unordered_map", "unordered_multimap", "unordered_set",
    "unordered_multiset"};

constexpr const char* kStdEngines[] = {
    "mt19937",      "mt19937_64",   "minstd_rand",
    "minstd_rand0", "ranlux24",     "ranlux48",
    "knuth_b",      "default_random_engine"};

/// Files allowed to accumulate floating point into shared state: the
/// blessed reduction site (parallel_for's post-join, input-order
/// re-summation pattern lives next to it).
bool blessed_reduction_file(const std::string& path) {
  return path == "src/common/parallel.h" || path == "src/common/parallel.cpp";
}

/// Identifier ending the range expression of a range-for on this line
/// ("for (auto& x : expr)"), or "" if the line has none.
std::string range_for_target(const std::string& line) {
  for (std::size_t col : find_token(line, "for")) {
    std::size_t open = col + 3;
    while (open < line.size() &&
           std::isspace(static_cast<unsigned char>(line[open]))) {
      ++open;
    }
    if (open >= line.size() || line[open] != '(') continue;
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t j = open; j < line.size(); ++j) {
      const char c = line[j];
      if (c == '(') ++depth;
      if (c == ')') {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      }
      if (c == ':' && depth == 1 && colon == std::string::npos) {
        const bool scope_op = (j + 1 < line.size() && line[j + 1] == ':') ||
                              (j >= 1 && line[j - 1] == ':');
        if (!scope_op) colon = j;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    const std::string expr =
        trim(line.substr(colon + 1, close - colon - 1));
    // Last identifier of the expression: handles x, obj.member, p->member.
    std::string last;
    std::string current;
    for (char c : expr) {
      if (ident_char(c)) {
        current += c;
      } else {
        if (!current.empty()) last = current;
        current.clear();
      }
    }
    if (!current.empty()) last = current;
    if (!last.empty()) return last;
  }
  return {};
}

void determinism_file(const SourceFile& file,
                      const std::set<std::string>& shared_fp_names,
                      std::vector<Diagnostic>& out) {
  // Identifiers declared as unordered containers in this file.
  std::set<std::string> unordered_names;
  for (const std::string& line : file.code_lines) {
    for (const char* token : kUnorderedTokens) {
      for (std::size_t col : find_token(line, token)) {
        const std::string name = declared_name(line, col);
        if (!name.empty()) unordered_names.insert(name);
      }
    }
  }

  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];

    // Range-for over an unordered container: the iteration order is
    // unspecified, so anything it feeds can differ between runs.
    const std::string target = range_for_target(line);
    if (!target.empty() && unordered_names.count(target) != 0) {
      emit(file, i + 1, "unordered-range-for",
           "range-for over unordered container '" + target +
               "': hash iteration order is unspecified, so any state or "
               "artifact this loop feeds can reorder between runs; iterate "
               "a sorted view or use soc::flat_map",
           out);
    }

    // Unseeded std <random> engine construction.
    for (const char* engine : kStdEngines) {
      for (std::size_t col : find_token(line, engine)) {
        std::size_t j = col + std::string(engine).size();
        while (j < line.size() &&
               std::isspace(static_cast<unsigned char>(line[j]))) {
          ++j;
        }
        bool unseeded = false;
        if (j < line.size() && ident_char(line[j])) {
          // Declaration: `std::mt19937 rng;` / `rng{}` / `rng{seed}`.
          while (j < line.size() && ident_char(line[j])) ++j;
          while (j < line.size() &&
                 std::isspace(static_cast<unsigned char>(line[j]))) {
            ++j;
          }
          if (j >= line.size() || line[j] == ';') {
            unseeded = true;
          } else if (line[j] == '{' || line[j] == '(') {
            const char closer = line[j] == '{' ? '}' : ')';
            std::size_t k = j + 1;
            while (k < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[k]))) {
              ++k;
            }
            unseeded = k < line.size() && line[k] == closer;
          }
        } else if (j < line.size() && (line[j] == '(' || line[j] == '{')) {
          // Temporary: `std::mt19937()` / `std::mt19937{}`.
          const char closer = line[j] == '{' ? '}' : ')';
          std::size_t k = j + 1;
          while (k < line.size() &&
                 std::isspace(static_cast<unsigned char>(line[k]))) {
            ++k;
          }
          unseeded = k < line.size() && line[k] == closer;
        }
        if (unseeded) {
          emit(file, i + 1, "unseeded-rng",
               std::string(engine) +
                   " constructed without a seed draws an implementation-"
                   "defined default; route randomness through soc::Rng "
                   "with an explicit seed",
               out);
        }
      }
    }

    // Build timestamps bake wall-clock into artifacts and binaries.
    for (const char* macro : {"__DATE__", "__TIME__", "__TIMESTAMP__"}) {
      if (!find_token(line, macro).empty()) {
        emit(file, i + 1, "build-timestamp",
             std::string(macro) +
                 " bakes the build's wall clock into the binary, so two "
                 "builds of the same source differ; derive versions from "
                 "source-controlled data instead",
             out);
      }
    }

    // FP accumulation into shared state: order-dependent rounding makes
    // totals depend on thread interleaving.
    if (!blessed_reduction_file(file.path)) {
      for (const std::string& name : shared_fp_names) {
        for (std::size_t col : find_token(line, name)) {
          std::size_t j = col + name.size();
          while (j < line.size() &&
                 std::isspace(static_cast<unsigned char>(line[j]))) {
            ++j;
          }
          if (j + 1 < line.size() && (line[j] == '+' || line[j] == '-') &&
              line[j + 1] == '=') {
            emit(file, i + 1, "shared-fp-accumulation",
                 "floating-point accumulation into shared '" + name +
                     "': FP addition is not associative, so the total "
                     "depends on arrival order; accumulate per shard and "
                     "re-sum in input order after the join (the pattern "
                     "blessed in src/common/parallel.h and "
                     "src/sweep/sweep.cpp)",
                 out);
          }
        }
      }
    }

    // std::atomic<FP> is the same hazard in one token.
    for (std::size_t col : find_token(line, "atomic")) {
      std::size_t j = col + 6;
      if (j < line.size() && line[j] == '<') {
        const auto close = line.find('>', j);
        const std::string inner =
            close == std::string::npos ? line.substr(j + 1)
                                       : line.substr(j + 1, close - j - 1);
        if (!find_token(inner, "double").empty() ||
            !find_token(inner, "float").empty()) {
          emit(file, i + 1, "shared-fp-accumulation",
               "std::atomic over floating point invites order-dependent "
               "reductions (FP addition is not associative); accumulate "
               "per shard and re-sum in input order after the join",
               out);
        }
      }
    }
  }
}

/// Names of SOC_SHARED / SOC_GUARDED_BY declarations with floating-point
/// type, across every src/ file — the cross-file watch list for
/// shared-fp-accumulation.
std::set<std::string> collect_shared_fp_names(
    const std::vector<SourceFile>& files) {
  std::set<std::string> names;
  for (const SourceFile& file : files) {
    if (file.top_dir != "src") continue;
    for (const SharedDecl& decl : find_shared_decls(file)) {
      if (decl.is_fp && !decl.name.empty()) names.insert(decl.name);
    }
    // Guarded members are not SharedDecls (the annotation is their
    // justification) but still join the FP watch list.
    for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
      const std::string& line = file.code_lines[i];
      const auto annot = line.find("SOC_GUARDED_BY(");
      if (annot == std::string::npos) continue;
      // The declared name sits before the annotation; scanning past it
      // would pick up the guard's name instead.
      const std::string decl = line.substr(0, annot);
      if (find_token(decl, "double").empty() &&
          find_token(decl, "float").empty()) {
        continue;
      }
      const std::string name = declared_name(decl, 0);
      if (!name.empty()) names.insert(name);
    }
  }
  return names;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public pass entry points
// ---------------------------------------------------------------------------

const std::map<std::string, std::set<std::string>>& allowed_includes() {
  // Mirrors the dependency comment in src/CMakeLists.txt and the DEPS
  // lists of each module.  A module may always include itself.
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {}},
      {"stats", {"common"}},
      {"sim", {"common"}},
      {"obs", {"common", "sim"}},
      // prof (critical-path profiler) sits just above sim/obs/power —
      // power for the energy attribution; only cluster, sweep, bench,
      // and tools may depend on it.
      {"prof", {"common", "sim", "obs", "power"}},
      {"arch", {"common"}},
      {"mem", {"common"}},
      {"net", {"common", "sim"}},
      {"gpu", {"common", "arch", "sim"}},
      {"msg", {"common", "sim"}},
      {"power", {"common", "sim"}},
      {"trace", {"common", "sim"}},
      // core -> power: the energy-extended roofline prices its ceilings
      // with the same component power model the meter integrates.
      {"core", {"common", "stats", "sim", "arch", "trace", "power"}},
      {"systems", {"common", "arch", "gpu", "mem", "net", "power"}},
      {"workloads", {"common", "sim", "msg", "arch"}},
      {"cluster",
       {"common", "stats", "sim", "obs", "prof", "arch", "mem", "net", "gpu",
        "msg", "power", "trace", "core", "systems", "workloads"}},
      // sweep sits above cluster; only bench/ and tools/ sit above sweep,
      // so no src/ module lists it as an allowed include.
      {"sweep",
       {"common", "stats", "sim", "obs", "prof", "arch", "net", "trace",
        "systems", "workloads", "cluster"}},
  };
  return kAllowed;
}

const std::set<std::string>& module_closure(const std::string& module) {
  static const std::map<std::string, std::set<std::string>> kClosure = [] {
    std::map<std::string, std::set<std::string>> closure;
    for (const auto& [name, direct] : allowed_includes()) {
      std::set<std::string>& reach = closure[name];
      std::vector<std::string> queue(direct.begin(), direct.end());
      reach.insert(direct.begin(), direct.end());
      while (!queue.empty()) {
        const std::string at = queue.back();
        queue.pop_back();
        const auto it = allowed_includes().find(at);
        if (it == allowed_includes().end()) continue;
        for (const std::string& next : it->second) {
          if (reach.insert(next).second) queue.push_back(next);
        }
      }
    }
    return closure;
  }();
  static const std::set<std::string> kEmpty;
  const auto it = kClosure.find(module);
  return it == kClosure.end() ? kEmpty : it->second;
}

void include_graph_pass(const std::vector<SourceFile>& files,
                        std::vector<Diagnostic>& out) {
  const IncludeGraph g = build_graph(files);
  check_cycles(files, g, out);
  check_layering(files, g, out);
}

void shared_state_pass(const std::vector<SourceFile>& files,
                       std::vector<Diagnostic>& out) {
  for (const SourceFile& file : files) {
    if (file.top_dir != "src") continue;
    shared_state_file(file, out);
  }
}

void determinism_pass(const std::vector<SourceFile>& files,
                      std::vector<Diagnostic>& out) {
  const std::set<std::string> shared_fp = collect_shared_fp_names(files);
  for (const SourceFile& file : files) {
    if (file.top_dir != "src") continue;
    determinism_file(file, shared_fp, out);
  }
}

void run_passes(const std::vector<SourceFile>& files,
                std::vector<Diagnostic>& out) {
  std::vector<Diagnostic> found;
  include_graph_pass(files, found);
  stream_seam_pass(files, found);
  shared_state_pass(files, found);
  determinism_pass(files, found);
  std::sort(found.begin(), found.end(), diag_less);
  out.insert(out.end(), std::make_move_iterator(found.begin()),
             std::make_move_iterator(found.end()));
}

const std::vector<PassRule>& pass_rules() {
  static const std::vector<PassRule> kRules = {
      {"include-cycle", "the src/ #include graph must be acyclic"},
      {"layering",
       "#include edges (direct and transitive) must follow the src/ "
       "module DAG"},
      {"stream-seam",
       "the op-stream seam (workloads/op_stream.*) must not include "
       "workload backends or scenario decorators; scenario decorators "
       "must not include backends, cluster, or sweep"},
      {"shared-mutable-state",
       "sync primitives and shared-mutable declarations need "
       "SOC_SHARED(<guard>) or SOC_GUARDED_BY"},
      {"unordered-range-for",
       "no range-for over unordered containers anywhere in src/"},
      {"unseeded-rng", "std <random> engines must be explicitly seeded"},
      {"build-timestamp", "no __DATE__/__TIME__/__TIMESTAMP__"},
      {"shared-fp-accumulation",
       "no FP accumulation into shared state outside the blessed "
       "reduction sites"},
  };
  return kRules;
}

// ---------------------------------------------------------------------------
// Baseline + report
// ---------------------------------------------------------------------------

std::vector<std::string> diagnostic_keys(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> keys;
  keys.reserve(diags.size());
  std::map<std::string, std::size_t> seen;
  for (const Diagnostic& d : diags) {
    std::string key = d.path + "#" + d.rule + "#" + fnv1a_hex(d.message);
    const std::size_t n = seen[key]++;
    key += "#" + std::to_string(n);
    keys.push_back(std::move(key));
  }
  return keys;
}

bool parse_baseline(const std::string& text, std::set<std::string>& keys) {
  keys.clear();
  if (text.find("\"soclint-baseline/v1\"") == std::string::npos) return false;
  const auto anchor = text.find("\"violations\"");
  if (anchor == std::string::npos) return false;
  const auto open = text.find('[', anchor);
  if (open == std::string::npos) return false;
  const auto close = text.find(']', open);
  if (close == std::string::npos) return false;
  std::string::size_type pos = open;
  while (pos < close) {
    const auto q1 = text.find('"', pos);
    if (q1 == std::string::npos || q1 > close) break;
    const auto q2 = text.find('"', q1 + 1);
    if (q2 == std::string::npos || q2 > close) return false;
    keys.insert(text.substr(q1 + 1, q2 - q1 - 1));
    pos = q2 + 1;
  }
  return true;
}

std::string baseline_json(const std::vector<Diagnostic>& diags) {
  const std::vector<std::string> keys = diagnostic_keys(diags);
  std::vector<std::string> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  std::ostringstream out;
  out << "{\n  \"schema\": \"soclint-baseline/v1\",\n  \"violations\": [";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << '"' << json_escape(sorted[i]) << '"';
  }
  out << (sorted.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

std::string report_json(const std::vector<Diagnostic>& diags,
                        std::size_t files_scanned,
                        const std::set<std::string>& baseline) {
  const std::vector<std::string> keys = diagnostic_keys(diags);
  std::size_t baselined = 0;
  for (const std::string& key : keys) {
    if (baseline.count(key) != 0) ++baselined;
  }
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"soclint-report/v1\",\n";
  out << "  \"files_scanned\": " << files_scanned << ",\n";
  out << "  \"total\": " << diags.size() << ",\n";
  out << "  \"new\": " << (diags.size() - baselined) << ",\n";
  out << "  \"baselined\": " << baselined << ",\n";
  out << "  \"violations\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out << (i ? ",\n" : "\n");
    out << "    {\"key\": \"" << json_escape(keys[i]) << "\", \"path\": \""
        << json_escape(d.path) << "\", \"line\": " << d.line
        << ", \"rule\": \"" << json_escape(d.rule) << "\", \"baselined\": "
        << (baseline.count(keys[i]) != 0 ? "true" : "false")
        << ", \"message\": \"" << json_escape(d.message) << "\"}";
  }
  out << (diags.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

std::size_t new_violation_count(const std::vector<Diagnostic>& diags,
                                const std::set<std::string>& baseline) {
  const std::vector<std::string> keys = diagnostic_keys(diags);
  std::size_t fresh = 0;
  for (const std::string& key : keys) {
    if (baseline.count(key) == 0) ++fresh;
  }
  return fresh;
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

struct PassTest {
  int failures = 0;

  void expect(const char* name, bool ok) {
    if (!ok) {
      std::fprintf(stderr, "soclint pass self-test FAILED: %s\n", name);
      ++failures;
    }
  }

  /// Runs all passes over the (path, text) fixtures and asserts exactly
  /// `expected` findings of `rule`.
  void pass_case(const char* name,
                 const std::vector<std::pair<std::string, std::string>>& fx,
                 const std::string& rule, std::size_t expected) {
    std::vector<SourceFile> files;
    files.reserve(fx.size());
    for (const auto& [path, text] : fx) {
      files.push_back(make_source_file(path, text));
    }
    std::vector<Diagnostic> diags;
    run_passes(files, diags);
    if (count_rule(diags, rule) != expected) {
      std::fprintf(stderr, "  want %zu x [%s], got:\n", expected,
                   rule.c_str());
      for (const Diagnostic& d : diags) {
        std::fprintf(stderr, "    %s:%zu [%s] %s\n", d.path.c_str(), d.line,
                     d.rule.c_str(), d.message.c_str());
      }
      expect(name, false);
    } else {
      expect(name, true);
    }
  }
};

/// Fixture files on disk (tools/soclint/testdata/) with the repo path
/// each one pretends to live at, plus the pass findings it must produce.
struct FixtureExpectation {
  const char* disk_name;
  const char* pretend_path;
};

struct FixtureCase {
  const char* name;
  std::vector<FixtureExpectation> files;
  const char* rule;
  std::size_t expected;
};

const std::vector<FixtureCase>& fixture_cases() {
  static const std::vector<FixtureCase> kCases = {
      {"fixture: include cycle detected",
       {{"cycle_a.h", "src/sim/cycle_a.h"},
        {"cycle_b.h", "src/sim/cycle_b.h"}},
       "include-cycle",
       1},
      {"fixture: cycle files carry no layering finding",
       {{"cycle_a.h", "src/sim/cycle_a.h"},
        {"cycle_b.h", "src/sim/cycle_b.h"}},
       "layering",
       0},
      {"fixture: direct + transitive layer violation",
       {{"layer_top.h", "src/net/layer_top.h"},
        {"layer_mid.h", "src/sim/layer_mid.h"},
        {"layer_leaf.h", "src/arch/layer_leaf.h"}},
       "layering",
       2},
      {"fixture: unannotated shared state flagged",
       {{"shared_bad.cpp", "src/sim/shared_bad.cpp"}},
       "shared-mutable-state",
       3},
      {"fixture: annotated shared state clean",
       {{"shared_good.cpp", "src/sim/shared_good.cpp"}},
       "shared-mutable-state",
       0},
      {"fixture: determinism violations flagged",
       {{"determinism_bad.cpp", "src/workloads/determinism_bad.cpp"}},
       "unordered-range-for",
       1},
      {"fixture: unseeded rng flagged",
       {{"determinism_bad.cpp", "src/workloads/determinism_bad.cpp"}},
       "unseeded-rng",
       1},
      {"fixture: build timestamp flagged",
       {{"determinism_bad.cpp", "src/workloads/determinism_bad.cpp"}},
       "build-timestamp",
       1},
      {"fixture: atomic<double> flagged",
       {{"determinism_bad.cpp", "src/workloads/determinism_bad.cpp"}},
       "shared-fp-accumulation",
       2},
      {"fixture: clean determinism file",
       {{"determinism_good.cpp", "src/workloads/determinism_good.cpp"}},
       "unordered-range-for",
       0},
  };
  return kCases;
}

}  // namespace

int passes_self_test(const std::string& testdata_dir) {
  PassTest t;

  // --- include-graph: direct layering (ported from the v1 rule). ---
  using Fx = std::vector<std::pair<std::string, std::string>>;
  t.pass_case("common including sim flagged",
              Fx{{"src/common/units.h", "#pragma once\n#include \"sim/engine.h\"\n"}},
              "layering", 1);
  t.pass_case("sim including workloads flagged",
              Fx{{"src/sim/engine.cpp", "#include \"workloads/workload.h\"\n"}},
              "layering", 1);
  t.pass_case("sim including common ok",
              Fx{{"src/sim/engine.cpp", "#include \"common/units.h\"\n"}},
              "layering", 0);
  t.pass_case("cluster including workloads ok",
              Fx{{"src/cluster/cluster.cpp",
                  "#include \"workloads/workload.h\"\n"}},
              "layering", 0);
  t.pass_case("obs including cluster flagged",
              Fx{{"src/obs/metrics.cpp", "#include \"cluster/cluster.h\"\n"}},
              "layering", 1);
  t.pass_case("obs including sim ok",
              Fx{{"src/obs/observers.cpp", "#include \"sim/engine.h\"\n"}},
              "layering", 0);
  t.pass_case("sim including obs flagged",
              Fx{{"src/sim/engine.cpp", "#include \"obs/observers.h\"\n"}},
              "layering", 1);
  t.pass_case("system header ignored",
              Fx{{"src/common/units.cpp", "#include <vector>\n"}}, "layering",
              0);
  t.pass_case("sweep including cluster ok",
              Fx{{"src/sweep/sweep.cpp", "#include \"cluster/cluster.h\"\n"}},
              "layering", 0);
  t.pass_case("cluster including sweep flagged",
              Fx{{"src/cluster/cluster.cpp", "#include \"sweep/sweep.h\"\n"}},
              "layering", 1);
  t.pass_case("prof including obs ok",
              Fx{{"src/prof/profiler.cpp", "#include \"obs/observers.h\"\n"}},
              "layering", 0);
  t.pass_case("prof including cluster flagged",
              Fx{{"src/prof/profile.cpp", "#include \"cluster/cluster.h\"\n"}},
              "layering", 1);
  t.pass_case("obs including prof flagged",
              Fx{{"src/obs/metrics.cpp", "#include \"prof/profile.h\"\n"}},
              "layering", 1);
  t.pass_case("layering waiver honored",
              Fx{{"src/obs/metrics.cpp",
                  "#include \"cluster/cluster.h\"  // soclint: allow(layering)\n"}},
              "layering", 0);
  t.pass_case("unknown module flagged",
              Fx{{"src/newmod/thing.h", "#pragma once\n"}}, "layering", 1);

  // --- include-graph: cycles. ---
  t.pass_case("two-file cycle flagged",
              Fx{{"src/sim/a.h", "#pragma once\n#include \"sim/b.h\"\n"},
                 {"src/sim/b.h", "#pragma once\n#include \"sim/a.h\"\n"}},
              "include-cycle", 1);
  t.pass_case("self-include flagged",
              Fx{{"src/sim/a.h", "#pragma once\n#include \"sim/a.h\"\n"}},
              "include-cycle", 1);
  t.pass_case("diamond is not a cycle",
              Fx{{"src/sim/a.h", "#pragma once\n#include \"sim/b.h\"\n"
                                 "#include \"sim/c.h\"\n"},
                 {"src/sim/b.h", "#pragma once\n#include \"sim/d.h\"\n"},
                 {"src/sim/c.h", "#pragma once\n#include \"sim/d.h\"\n"},
                 {"src/sim/d.h", "#pragma once\n"}},
              "include-cycle", 0);

  // --- include-graph: transitive reachability. ---
  t.pass_case(
      "transitive leak reported at both ends",
      Fx{{"src/net/top.h", "#pragma once\n#include \"sim/mid.h\"\n"},
         {"src/sim/mid.h", "#pragma once\n#include \"arch/leaf.h\"\n"},
         {"src/arch/leaf.h", "#pragma once\n"}},
      "layering", 2);  // direct at mid.h + transitive path at top.h
  t.pass_case(
      "transitive reach inside closure ok",
      Fx{{"src/sweep/top.h", "#pragma once\n#include \"cluster/mid.h\"\n"},
         {"src/cluster/mid.h", "#pragma once\n#include \"core/leaf.h\"\n"},
         {"src/core/leaf.h", "#pragma once\n"}},
      "layering", 0);

  // --- stream-seam. ---
  t.pass_case("op_stream including a backend flagged",
              Fx{{"src/workloads/op_stream.cpp",
                  "#include \"workloads/op_stream.h\"\n"
                  "#include \"workloads/npb.h\"\n"}},
              "stream-seam", 1);
  t.pass_case("op_stream including scenario flagged",
              Fx{{"src/workloads/op_stream.h",
                  "#pragma once\n#include \"workloads/scenario.h\"\n"}},
              "stream-seam", 1);
  t.pass_case("scenario including a backend flagged",
              Fx{{"src/workloads/scenario.cpp",
                  "#include \"workloads/scenario.h\"\n"
                  "#include \"workloads/scientific.h\"\n"}},
              "stream-seam", 1);
  t.pass_case("scenario including cluster flagged",
              Fx{{"src/workloads/scenario.cpp",
                  "#include \"cluster/cluster.h\"\n"}},
              "stream-seam", 1);
  t.pass_case("scenario including sweep flagged",
              Fx{{"src/workloads/scenario.h",
                  "#pragma once\n#include \"sweep/grid.h\"\n"}},
              "stream-seam", 1);
  t.pass_case("scenario including op_stream ok",
              Fx{{"src/workloads/scenario.h",
                  "#pragma once\n#include \"workloads/op_stream.h\"\n"}},
              "stream-seam", 0);
  t.pass_case("op_stream including workload interface ok",
              Fx{{"src/workloads/op_stream.h",
                  "#pragma once\n#include \"sim/op.h\"\n"
                  "#include \"workloads/workload.h\"\n"}},
              "stream-seam", 0);
  t.pass_case("backend headers free to include each other",
              Fx{{"src/workloads/npb.cpp",
                  "#include \"workloads/npb.h\"\n"
                  "#include \"workloads/scientific.h\"\n"}},
              "stream-seam", 0);

  // --- shared-mutable-state. ---
  t.pass_case("bare std::mutex flagged",
              Fx{{"src/sim/x.cpp", "std::mutex m;\n"}}, "shared-mutable-state",
              1);
  t.pass_case("SOC_SHARED on same line ok",
              Fx{{"src/sim/x.cpp", "std::mutex m;  // SOC_SHARED(self)\n"}},
              "shared-mutable-state", 0);
  t.pass_case("SOC_SHARED on line above ok",
              Fx{{"src/sim/x.cpp",
                  "// SOC_SHARED(self)\nstd::mutex m;\n"}},
              "shared-mutable-state", 0);
  t.pass_case("empty SOC_SHARED guard still flagged",
              Fx{{"src/sim/x.cpp", "std::mutex m;  // SOC_SHARED()\n"}},
              "shared-mutable-state", 1);
  t.pass_case("guarded member needs no SOC_SHARED",
              Fx{{"src/sim/x.h",
                  "#pragma once\nint pending_ SOC_GUARDED_BY(mutex_);\n"}},
              "shared-mutable-state", 0);
  t.pass_case("bare atomic flagged",
              Fx{{"src/common/x.cpp", "std::atomic<int> hits{0};\n"}},
              "shared-mutable-state", 1);
  t.pass_case("atomic include line ignored",
              Fx{{"src/common/x.cpp", "#include <atomic>\n"}},
              "shared-mutable-state", 0);
  t.pass_case("mutable member flagged",
              Fx{{"src/sim/x.h",
                  "#pragma once\nstruct C { mutable int cache_ = 0; };\n"}},
              "shared-mutable-state", 1);
  t.pass_case("namespace-scope static flagged",
              Fx{{"src/sim/x.cpp",
                  "namespace {\nstatic int g_count = 0;\n}  // namespace\n"}},
              "shared-mutable-state", 1);
  t.pass_case("static const table ok",
              Fx{{"src/sim/x.cpp",
                  "namespace {\nstatic const int kTable[] = {1, 2};\n}\n"}},
              "shared-mutable-state", 0);
  t.pass_case("function-local static not this rule's job",
              Fx{{"src/sim/x.cpp",
                  "int f() {\n  static int calls = 0;\n  return ++calls;\n}\n"}},
              "shared-mutable-state", 0);
  t.pass_case("static member function not flagged",
              Fx{{"src/sim/x.h",
                  "#pragma once\nstruct C {\n  static int parse(int v);\n};\n"}},
              "shared-mutable-state", 0);
  t.pass_case("member access to a mutex not flagged",
              Fx{{"src/sim/x.cpp", "lock(slot.mutex);\n"}},
              "shared-mutable-state", 0);
  t.pass_case("soc::Mutex declaration flagged",
              Fx{{"src/sim/x.h", "#pragma once\nsoc::Mutex mu;\n"}},
              "shared-mutable-state", 1);
  t.pass_case("Mutex reference parameter not flagged",
              Fx{{"src/sim/x.h",
                  "#pragma once\nvoid lock_it(soc::Mutex& mu);\n"}},
              "shared-mutable-state", 0);
  t.pass_case("shared-state waiver honored",
              Fx{{"src/sim/x.cpp",
                  "std::mutex m;  // soclint: allow(shared-mutable-state)\n"}},
              "shared-mutable-state", 0);
  t.pass_case("tools files exempt from shared-state pass",
              Fx{{"tools/thing.cpp", "std::mutex m;\n"}},
              "shared-mutable-state", 0);

  // --- determinism. ---
  t.pass_case("range-for over unordered flagged",
              Fx{{"src/workloads/x.cpp",
                  "std::unordered_map<int, int> m;\n"
                  "void f() {\n  for (const auto& kv : m) use(kv);\n}\n"}},
              "unordered-range-for", 1);
  t.pass_case("range-for over member unordered flagged",
              Fx{{"src/workloads/x.cpp",
                  "std::unordered_set<int> seen_;\n"
                  "void f() {\n  for (int v : seen_) use(v);\n}\n"}},
              "unordered-range-for", 1);
  t.pass_case("range-for over vector ok",
              Fx{{"src/workloads/x.cpp",
                  "std::vector<int> v;\nvoid f() {\n"
                  "  for (int x : v) use(x);\n}\n"}},
              "unordered-range-for", 0);
  t.pass_case("iterator-for over unordered not a range-for",
              Fx{{"src/workloads/x.cpp",
                  "std::unordered_map<int, int> m;\n"
                  "void f() {\n  for (auto it = m.begin(); it != m.end(); "
                  "++it) use(*it);\n}\n"}},
              "unordered-range-for", 0);
  t.pass_case("unseeded mt19937 flagged",
              Fx{{"src/sim/x.cpp", "std::mt19937 rng;\n"}}, "unseeded-rng", 1);
  t.pass_case("unseeded brace-init flagged",
              Fx{{"src/sim/x.cpp", "std::mt19937 rng{};\n"}}, "unseeded-rng",
              1);
  t.pass_case("seeded mt19937 ok",
              Fx{{"src/sim/x.cpp", "std::mt19937 rng(seed);\n"}},
              "unseeded-rng", 0);
  t.pass_case("unseeded temporary flagged",
              Fx{{"src/sim/x.cpp", "shuffle(v.begin(), v.end(), "
                                   "std::mt19937());\n"}},
              "unseeded-rng", 1);
  t.pass_case("__DATE__ flagged",
              Fx{{"src/cluster/x.cpp",
                  "const char* built = __DATE__;\n"}},
              "build-timestamp", 1);
  t.pass_case("date in comment ignored",
              Fx{{"src/cluster/x.cpp", "// __DATE__ would be bad\n"}},
              "build-timestamp", 0);
  t.pass_case("atomic<double> flagged",
              Fx{{"src/sim/x.cpp",
                  "std::atomic<double> total{0};  // SOC_SHARED(atomic)\n"}},
              "shared-fp-accumulation", 1);
  t.pass_case("shared fp accumulation flagged",
              Fx{{"src/sim/x.h",
                  "#pragma once\n"
                  "double total_ SOC_GUARDED_BY(mutex_) = 0.0;\n"},
                 {"src/sim/x.cpp",
                  "void C::tick(double s) {\n  total_ += s;\n}\n"}},
              "shared-fp-accumulation", 1);
  t.pass_case("unshared fp accumulation ok",
              Fx{{"src/sim/x.cpp",
                  "void f() {\n  double sum = 0;\n  sum += 1.0;\n}\n"}},
              "shared-fp-accumulation", 0);

  // --- baseline + report machinery. ---
  {
    std::vector<SourceFile> files{
        make_source_file("src/sim/x.cpp", "std::mutex a;\nstd::mutex b;\n")};
    std::vector<Diagnostic> diags;
    run_passes(files, diags);
    t.expect("two findings for two mutexes", diags.size() == 2);
    const std::vector<std::string> keys = diagnostic_keys(diags);
    t.expect("duplicate messages get distinct keys",
             keys.size() == 2 && keys[0] != keys[1]);

    const std::string base = baseline_json(diags);
    std::set<std::string> parsed;
    t.expect("baseline round-trips", parse_baseline(base, parsed) &&
                                         parsed.size() == 2 &&
                                         new_violation_count(diags, parsed) == 0);
    t.expect("empty baseline means all new",
             new_violation_count(diags, {}) == 2);

    const std::string r1 = report_json(diags, files.size(), parsed);
    const std::string r2 = report_json(diags, files.size(), parsed);
    t.expect("report is byte-stable", r1 == r2);
    t.expect("report carries schema",
             r1.find("\"soclint-report/v1\"") != std::string::npos);

    std::set<std::string> bogus;
    t.expect("malformed baseline rejected",
             !parse_baseline("{\"schema\": \"other\"}", bogus));
  }

  // --- fixture files on disk. ---
  if (!testdata_dir.empty()) {
    namespace fs = std::filesystem;
    for (const FixtureCase& fc : fixture_cases()) {
      std::vector<std::pair<std::string, std::string>> fx;
      bool ok = true;
      for (const FixtureExpectation& fe : fc.files) {
        std::ifstream in(fs::path(testdata_dir) / fe.disk_name,
                         std::ios::binary);
        if (!in) {
          std::fprintf(stderr,
                       "soclint pass self-test FAILED: cannot read %s/%s\n",
                       testdata_dir.c_str(), fe.disk_name);
          ++t.failures;
          ok = false;
          break;
        }
        std::ostringstream text;
        text << in.rdbuf();
        fx.emplace_back(fe.pretend_path, text.str());
      }
      if (ok) t.pass_case(fc.name, fx, fc.rule, fc.expected);
    }
  }

  if (t.failures == 0) {
    std::printf("soclint pass self-test: all cases passed%s\n",
                testdata_dir.empty() ? " (embedded only; no --testdata)" : "");
  }
  return t.failures;
}

}  // namespace soclint
