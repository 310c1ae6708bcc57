#!/usr/bin/env python3
"""soccluster host-performance benchmark (see perfbench/README.md).

Run from the root of a soccluster checkout:

  python3 perfbench/run.py --workload run-cg16 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seconds 30 --trace 1
  python3 perfbench/run.py --self-check
  python3 perfbench/run.py --compare .bench_out/results-a .bench_out/results-b
  python3 perfbench/run.py --write-reference

A run builds perfbench/ (and the library under src/) into
.bench_build/perfbench, runs the socperf binary in its own process, checks
every simulated result against perfbench/reference.json, prints each
metric by name with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The exit code is 0 only when every result matched.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("run-cg16", "sweep-grid", "analyze-cg8")
# Extra processes started only to time set-up, after the measuring process
# has ended; setup_s is their median (with the measuring process's own
# set-up as one more sample).  One more untimed spawn warms them up.
SETUP_SPAWNS = 19
# Stamp fields that must agree before two result sets may be compared.
COMPARABLE = ("nproc", "hardware_concurrency", "compiler", "build_type",
              "benchmark_digest")


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def run_group(cmd, timeout, **kwargs):
    """subprocess.run for a command with children of its own (cmake runs
    make and the compilers): a timeout kills the whole process group."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise


def build():
    """Configures and builds socperf; raises BenchError on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    )
    with open(build_log, "w") as out:
        for cmd in steps:
            try:
                code = run_group(cmd, 840, stdout=out,
                                 stderr=subprocess.STDOUT, cwd=ROOT)
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}") from e
            if code != 0:
                tail = build_log.read_text(errors="replace").splitlines()[-15:]
                raise BenchError("build failed (" + " ".join(cmd[:2]) + "):\n"
                                 + "\n".join(tail))


# ------------------------------------------------------------------ stamps

def file_digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def tree_files(*dirs):
    return [p for d in dirs if d.is_dir() for p in d.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts]


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--", "src",
                                 "cmake", "perfbench", "BENCHMARK.json"],
                                cwd=ROOT, text=True, capture_output=True,
                                check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def make_stamp(child):
    """Host and build identity of a result.  git_sha/git_dirty are None in
    a checkout without git; source_digest identifies the code either way."""
    stamp = dict(child)
    stamp["nproc"] = len(os.sched_getaffinity(0))
    stamp["git_sha"], stamp["git_dirty"] = git_state()
    stamp["source_digest"] = file_digest(tree_files(ROOT / "src", ROOT / "cmake"))
    stamp["benchmark_digest"] = file_digest(
        tree_files(HERE) + [ROOT / "BENCHMARK.json"])
    return stamp


# ---------------------------------------------------------------- socperf

def run_socperf(binary, args, timeout):
    """Runs socperf; returns (parsed output, monotonic ns at spawn)."""
    exe = BUILD / binary
    spawn = time.monotonic_ns()
    try:
        proc = subprocess.run([str(exe)] + args, capture_output=True, text=True,
                              cwd=ROOT, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{binary} did not complete: {e}") from e
    if proc.returncode != 0:
        raise BenchError(f"{binary} exited {proc.returncode}: "
                         + proc.stderr.strip()[-2000:])
    try:
        return json.loads(proc.stdout), spawn
    except json.JSONDecodeError as e:
        raise BenchError(f"{binary} printed no JSON document: {e}") from e


def load_reference(size, workload, corrupt):
    ref = json.loads(REFERENCE.read_text())[size][workload]
    expected = {o["id"]: o for o in ref}
    if corrupt:
        first = ref[0]["id"]
        bad = dict(expected[first])
        bad["checksum"] = "0x%016x" % (int(bad["checksum"], 16) ^ 1)
        expected[first] = bad
    return expected


def check(iterations, expected):
    """Counts simulations attempted and those that threw or differ from
    the reference (a missing result counts as failed)."""
    attempted = failed = 0
    mismatches = []
    for it in iterations:
        got = {o["id"]: o for o in it["outcomes"]}
        for oid, ref in expected.items():
            attempted += 1
            if got.get(oid) != ref:
                failed += 1
                mismatches.append((oid, it.get("error"), got.get(oid), ref))
    for oid, err, got, ref in mismatches[:5]:
        log(f"MISMATCH {oid}: " + (f"threw: {err}" if err else
                                   f"got {got}, reference {ref}"))
    return attempted, failed


# ---------------------------------------------------------------- metrics

def end_to_end(out, setup_samples):
    its = [it for it in out["untraced"] if not it.get("error")]
    if not its:
        raise BenchError("every iteration failed")
    walls = [it["wall_ns"] / 1e9 for it in its]
    return {
        "wall_s": median(walls),
        "events_per_s": median([it["events"] / (it["wall_ns"] / 1e9)
                                for it in its]),
        "cpu_s": median([it["cpu_ns"] / 1e9 for it in its]),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        "setup_s": median(setup_samples),
    }, {"wall_s": walls, "setup_s": setup_samples}


# Span name -> the per-layer metric its self time lands in.  Every other
# span name N lands in "N_s".
SELF_METRIC = {
    "bench": "bench.other_s",
    "sweep.run": "sweep.imbalance_s",
    "sweep.request": "sweep.dispatch_s",
}
LAYER_TIMES = ("workloads.build_s", "cost_model.build_s", "sim.engine_s",
               "obs.observer_s", "trace.replay_s", "core.decompose_s",
               "prof.analyze_s", "prof.energy_s", "power.measure_s",
               "cluster.meter_s", "report.render_s", "sweep.dispatch_s",
               "sweep.imbalance_s", "bench.other_s")


def self_times(spans):
    """Self time per span in lane-ns: width x duration minus the children's
    width x duration.  Returns {span id: self ns}."""
    lane = {s["id"]: s["width"] * (s["end_ns"] - s["start_ns"]) for s in spans}
    own = dict(lane)
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= lane[s["id"]]
    bad = [s["name"] for s in spans if own[s["id"]] < 0]
    if bad:
        raise BenchError(f"spans overlap their parent: {bad[:5]}")
    return own


def per_layer(out, spans_file):
    traced = [(i, it) for i, it in enumerate(out["traced"])
              if not it.get("error")]
    if not traced:
        raise BenchError("every traced iteration failed")
    walls = sorted(traced, key=lambda p: p[1]["wall_ns"])
    index, chosen = walls[(len(walls) - 1) // 2]  # the median traced wall
    spans = [s for s in json.loads(spans_file.read_text())
             if s["iteration"] == index]
    root = chosen["root"]
    own = self_times(spans)

    ns = {name: 0 for name in LAYER_TIMES}
    counts = {}
    builds = 0
    request_sum = 0
    for s in spans:
        self_ns = own[s["id"]]
        c = s["counts"]
        for k, v in c.items():
            counts[k] = counts.get(k, 0) + v
        if s["name"] == "sim.engine" and "bare_ns" in c:
            # The profiled engine call: the bare run's duration is the
            # engine's share, the rest is the attached observer's.
            engine = min(self_ns, c["bare_ns"])
            ns["sim.engine_s"] += engine
            ns["obs.observer_s"] += self_ns - engine
            continue
        if s["name"] == "cost_model.build":
            builds += 1
        if s["name"] == "sweep.request":
            request_sum += s["end_ns"] - s["start_ns"]
        key = SELF_METRIC.get(s["name"], s["name"] + "_s")
        if key not in ns:
            raise BenchError(f"span {s['name']} maps to no layer")
        ns[key] += self_ns

    lanes = out["lanes"]
    root_span = next(s for s in spans if s["id"] == root)
    traced_ns = root_span["end_ns"] - root_span["start_ns"]
    # The zero-residual rule: layer self times plus bench.other_s are
    # exactly the traced region's lane time (lanes x traced wall).
    if sum(ns.values()) != lanes * traced_ns:
        raise BenchError("layer self times do not add up to the traced wall")

    fanout = [s for s in spans if s["name"] == "sweep.run"]
    fanout_ns = sum(s["end_ns"] - s["start_ns"] for s in fanout)
    sim_events = sum(s["counts"].get("events", 0) for s in spans
                     if s["name"] == "sim.engine")
    lookups = counts.get("memo_hits", 0) + counts.get("memo_misses", 0)
    untraced = [it["wall_ns"] for it in out["untraced"] if not it.get("error")]
    untraced_s = median(untraced) / 1e9 if untraced else 0.0
    traced_s = median([it["wall_ns"] for _, it in traced]) / 1e9

    m = {k: v / 1e9 for k, v in ns.items()}
    m.update({
        "sim.events": sim_events,
        "sim.ns_per_event": ns["sim.engine_s"] / sim_events if sim_events else 0.0,
        "sim.memo_hit_ratio": counts.get("memo_hits", 0) / lookups if lookups else 0.0,
        "sim.memo_lookups": lookups,
        "sim.allocs_per_event": (counts["allocs"] / sim_events
                                 if "allocs" in counts and sim_events else 0.0),
        "workloads.ops": counts.get("ops", 0),
        "workloads.ns_per_op": (ns["workloads.build_s"] / counts["ops"]
                                if counts.get("ops") else 0.0),
        "cost_model.builds": builds,
        "sweep.cost_model_hits": counts.get("cost_model_hits", 0),
        "sweep.request_sum_s": request_sum / 1e9,
        "sweep.parallel_efficiency": (request_sum / (lanes * fanout_ns)
                                      if fanout_ns else 0.0),
        "trace.replay_events": sum(s["counts"].get("events", 0) for s in spans
                                   if s["name"] == "trace.replay"),
        "prof.trace_ops": counts.get("trace_ops", 0),
        "report.bytes": counts.get("bytes", 0),
        "bench.lanes": lanes,
        "bench.traced_wall_s": traced_ns / 1e9,
        "bench.untraced_wall_s": untraced_s,
        "bench.trace_overhead_s": traced_s - untraced_s,
    })
    runner = (out["cost_models_built"], out["cost_model_hits"])
    if out["workload"] == "sweep-grid" and runner != (builds, m["sweep.cost_model_hits"]):
        log(f"warning: traced sweep built {builds} cost models with "
            f"{m['sweep.cost_model_hits']} hits; SweepRunner built {runner[0]} "
            f"with {runner[1]} hits")
    return m


# -------------------------------------------------------------------- run

def benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(workload, seed, seconds, trace, quick=False, corrupt=False):
    """One benchmark run; returns the result record (also written under
    .bench_out/results/)."""
    e2e_units, layer_units = benchmark_spec()
    size = "quick" if quick else "full"
    expected = load_reference(size, workload, corrupt)
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", repr(float(seconds))] + (["--quick"] if quick else [])
    timeout = seconds + 120
    OUT.mkdir(parents=True, exist_ok=True)

    if trace:
        spans_file = OUT / f"spans-{workload}-seed{seed}.json"
        out, _ = run_socperf(
            "socperf_traced",
            common + ["--mode", "trace", "--spans", str(spans_file)], timeout)
        attempted, failed = check(out["untraced"] + out["traced"], expected)
        values, units, samples = per_layer(out, spans_file), layer_units, {}
    else:
        out, spawn = run_socperf("socperf", common + ["--mode", "measure"],
                                 timeout)
        setup = [(out["setup_end_ns"] - spawn) / 1e9]
        setup_args = common + ["--mode", "setup"]
        run_socperf("socperf", setup_args, 60)
        for _ in range(SETUP_SPAWNS):
            o, spawn = run_socperf("socperf", setup_args, 60)
            setup.append((o["setup_end_ns"] - spawn) / 1e9)
        attempted, failed = check(out["untraced"], expected)
        values, samples = end_to_end(out, setup)
        units = e2e_units

    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"no value for metrics {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "quick": quick, "stamp": make_stamp(out["stamp"]),
        "iterations": len(out["untraced"]), "attempted": attempted,
        "failed": failed, "metrics": metrics, "samples": samples,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}{'-quick' if quick else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(records):
    """Prints every metric by name and unit, then the result line.  With
    several workloads the result line names metrics "<workload>/<metric>"."""
    for record in records:
        for name, m in record["metrics"].items():
            print(f"{record['workload']:<12} {name:<28} {m['value']:>16.6g} "
                  f"{m['unit']}")
        rate = record["failed"] / record["attempted"]
        print(f"{record['workload']:<12} {'error_rate':<28} {rate:>16.6g} "
              f"ratio ({record['failed']} of {record['attempted']} simulations)")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return failed


# ------------------------------------------------------------- self-check

def self_check():
    """Each workload once at reduced size, traced and untraced: every
    printed metric must match BENCHMARK.json by name and unit, every
    result must match the reference, and a corrupted reference checksum
    must be reported as a failure with a non-zero exit."""
    e2e_units, layer_units = benchmark_spec()
    problems = []
    for workload in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            rec = measure(workload, 1, 0, trace, quick=True)
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            if got != units:
                problems.append(f"{workload} trace {trace}: metrics {got} "
                                f"!= BENCHMARK.json {units}")
            if rec["failed"]:
                problems.append(f"{workload} trace {trace}: {rec['failed']} "
                                "results differ from the reference")
            log(f"self-check: {workload} trace {trace}: "
                f"{len(got)} metrics, {rec['attempted']} results checked")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         "run-cg16", "--seed", "1", "--seconds", "0", "--trace", "0",
         "--quick", "--corrupt-reference"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {}
    if proc.returncode == 0 or last.get("failed", 0) < 1 or last.get("correct"):
        problems.append("a corrupted reference checksum was not reported "
                        f"(exit {proc.returncode}, last line {lines[-1:]})")
    else:
        log("self-check: corrupted reference reported as "
            f"{last['failed']} failure(s), exit {proc.returncode}")
    for p in problems:
        log("self-check FAILED: " + p)
    print("self-check " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


# ---------------------------------------------------------------- compare

def load_results(path):
    """The full-size untraced result records in a directory (or one file)."""
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() else [Path(path)]
    records = [json.loads(f.read_text()) for f in files]
    return [r for r in records if r["trace"] == 0 and not r["quick"]]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / median(values)


def compare(a_path, b_path):
    """Medians of every end-to-end metric per workload, B against A, with
    the bound BENCHMARK.json fixes.  Refuses result sets whose host/build
    stamps differ.  A metric whose spread on A exceeds its bound is
    unresolved, not ok."""
    a, b = load_results(a_path), load_results(b_path)
    if not a or not b:
        log("compare: no result files")
        return 2
    stamps = {tuple(r["stamp"].get(k) for k in COMPARABLE) for r in a + b}
    if len(stamps) != 1:
        log("compare: refusing to compare results with different stamps "
            f"({', '.join(COMPARABLE)}): {sorted(stamps, key=str)}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    for workload in WORKLOADS:
        for m in spec["end_to_end"]:
            va, vb = ([r["metrics"][m["name"]]["value"] for r in side
                       if r["workload"] == workload] for side in (a, b))
            if not va or not vb:
                continue
            ma, mb = median(va), median(vb)
            change = (mb - ma) / ma
            regress = change if m["better"] == "lower" else -change
            if regress > m["bound"]:
                verdict = "worse"
            elif spread(va) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            worse += verdict == "worse"
            print(f"{workload:<12} {m['name']:<14} {ma:>14.6g} -> {mb:<14.6g} "
                  f"{100 * change:+7.2f}% (spread {100 * spread(va):.1f}%/"
                  f"{100 * spread(vb):.1f}%, bound {100 * m['bound']:.0f}%, "
                  f"n={len(va)}/{len(vb)}) {verdict}")
    return 1 if worse else 0


# ------------------------------------------------------------- reference

def write_reference():
    ref = {}
    for size in ("full", "quick"):
        ref[size] = {}
        for workload in WORKLOADS:
            args = ["--workload", workload, "--seed", "1", "--seconds", "0",
                    "--mode", "measure"] + (["--quick"] if size == "quick" else [])
            out, _ = run_socperf("socperf", args, 600)
            it = out["untraced"][0]
            if it.get("error"):
                raise BenchError(f"{workload}: {it['error']}")
            ref[size][workload] = it["outcomes"]
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    log(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced problem size (self-check)")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="flip one reference checksum (self-check)")
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (args.self_check or args.write_reference or args.workload):
        p.error("give --workload, --self-check, --write-reference or --compare")
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    try:
        build()
        if args.self_check:
            return self_check()
        if args.write_reference:
            return write_reference()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [measure(w, args.seed, args.seconds, args.trace,
                           quick=args.quick, corrupt=args.corrupt_reference)
                   for w in names]
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    return 0 if report(records) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
