// soclint v2 — whole-program passes.
//
// Where rules.h checks one line of one file at a time, the passes here see
// every scanned file at once and enforce whole-tree properties: the module
// layering, a stated discipline for every piece of shared mutable state
// (sweeps run simulations on host threads), and schedule determinism.
//
//   include-graph pass      parses every #include edge under src/,
//                           rejects cycles (`include-cycle`) with the
//                           offending chain printed, checks direct edges
//                           against the module DAG (`layering`), and
//                           checks *transitive* reachability against the
//                           DAG's closure so a low layer poisoned through
//                           an intermediate header is reported at the
//                           file that depends on it — with the path.
//   shared-mutable-state    every synchronization primitive or shared-
//                           mutable declaration in src/ (std::mutex,
//                           soc::Mutex, std::atomic, std::once_flag,
//                           thread_local, `mutable` members, non-const
//                           statics at namespace/class scope) must carry
//                           a `// SOC_SHARED(<guard>)` justification on
//                           its line or the line above, or a checkable
//                           SOC_GUARDED_BY annotation.
//   determinism pass        bans range-for over unordered containers
//                           anywhere in src/ (`unordered-range-for`),
//                           unseeded std <random> engine construction
//                           (`unseeded-rng`), __DATE__/__TIME__
//                           (`build-timestamp`), and floating-point
//                           accumulation into shared state outside the
//                           blessed reduction sites in src/common/parallel
//                           (`shared-fp-accumulation`).
//
// Findings are keyed (path + rule + message hash, line-number free) so CI
// diffs them against tools/soclint/baseline.json and fails only on *new*
// violations; the full run is exported as a "soclint-report/v1" JSON
// document that is byte-identical across repeated runs.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "rules.h"

namespace soclint {

/// Allowed direct #include edges between src/ modules; mirrors the
/// dependency comment in src/CMakeLists.txt and each module's DEPS list.
/// A module may always include itself.
const std::map<std::string, std::set<std::string>>& allowed_includes();

/// Transitive closure of allowed_includes(): everything `module` may
/// reach through any chain of allowed edges.
const std::set<std::string>& module_closure(const std::string& module);

/// The three passes.  Each appends diagnostics for the whole file set;
/// per-line `// soclint: allow(<rule>)` waivers are honored.
void include_graph_pass(const std::vector<SourceFile>& files,
                        std::vector<Diagnostic>& out);
void shared_state_pass(const std::vector<SourceFile>& files,
                       std::vector<Diagnostic>& out);
void determinism_pass(const std::vector<SourceFile>& files,
                      std::vector<Diagnostic>& out);

/// Runs all three passes and sorts the combined findings by
/// (path, line, rule, message) so downstream output is deterministic.
void run_passes(const std::vector<SourceFile>& files,
                std::vector<Diagnostic>& out);

/// Rule catalog for the passes (for --list-rules).
struct PassRule {
  const char* id;
  const char* summary;
};
const std::vector<PassRule>& pass_rules();

/// Stable baseline key per diagnostic, index-aligned with `diags`:
/// `<path>#<rule>#<fnv1a-hash-of-message>` plus a `#<n>` occurrence
/// counter for duplicates.  Line numbers are deliberately excluded so an
/// unrelated edit above a baselined finding does not invalidate it.
std::vector<std::string> diagnostic_keys(const std::vector<Diagnostic>& diags);

/// Parses a "soclint-baseline/v1" document into its key set.  Returns
/// false (leaving `keys` empty) on malformed input.
bool parse_baseline(const std::string& text, std::set<std::string>& keys);

/// Renders the "soclint-baseline/v1" document for the given findings.
std::string baseline_json(const std::vector<Diagnostic>& diags);

/// Renders the "soclint-report/v1" document: every finding with its key,
/// location, rule, message, and whether the baseline suppresses it.
/// Sorted input in, byte-identical output out — no timestamps, no
/// absolute paths, no environment.
std::string report_json(const std::vector<Diagnostic>& diags,
                        std::size_t files_scanned,
                        const std::set<std::string>& baseline);

/// Number of findings whose key is absent from `baseline` (the count CI
/// gates on).
std::size_t new_violation_count(const std::vector<Diagnostic>& diags,
                                const std::set<std::string>& baseline);

/// Proves the three passes on embedded snippets and, when `testdata_dir`
/// is non-empty, on the fixture files under tools/soclint/testdata/.
/// Returns the number of failed expectations (0 = pass).
int passes_self_test(const std::string& testdata_dir);

}  // namespace soclint
