#!/usr/bin/env python3
"""`socbench explain --dvfs` must agree with `socbench frontier`.

A DVFS what-if is a run at systems::with_dvfs(node, f), which is what
`frontier` sweeps.  For every registered workload on 2 nodes at --scale
0.05, this runs

  socbench frontier --workload all --nodes 2 --scale 0.05
                    --gpu-fractions 1.0 --dvfs 0.6,0.8 --report-json f.json
  socbench explain --workload W --nodes 2 --scale 0.05 --dvfs 0.6,0.8

and requires each `dvfs` line of explain to print the seconds (%.3f) and
joules (%.1f) of the matching frontier point.  Prints every disagreement.

  python3 tests/dvfs_agreement.py <socbench>
"""
import json
import os
import re
import subprocess
import sys
import tempfile

DVFS = ("0.6", "0.8")
COMMON = ["--nodes", "2", "--scale", "0.05", "--dvfs", ",".join(DVFS)]
LINE = re.compile(r"^  dvfs (\S+) +: (\S+) s \(\S+x\), (\S+) J ")


def main():
    socbench = os.path.abspath(sys.argv[1])
    env = dict(os.environ, SOC_SWEEP_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="dvfs-") as out_dir:
        report = os.path.join(out_dir, "f.json")
        subprocess.run([socbench, "frontier", "--workload", "all",
                        "--gpu-fractions", "1.0", "--report-json", report]
                       + COMMON, check=True, env=env,
                       stdout=subprocess.DEVNULL)
        with open(report) as f:
            points = json.load(f)["points"]

    want = {(p["workload"], f"{p['dvfs']:.2f}"):
            (f"{p['seconds']:.3f}", f"{p['joules']:.1f}") for p in points}
    workloads = sorted({p["workload"] for p in points})
    bad = 0
    for workload in workloads:
        stdout = subprocess.run([socbench, "explain", "--workload", workload]
                                + COMMON, check=True, env=env,
                                capture_output=True, text=True).stdout
        got = {(workload, m[1]): (m[2], m[3])
               for m in map(LINE.match, stdout.splitlines()) if m}
        for f in DVFS:
            key = (workload, f"{float(f):.2f}")
            if got.get(key) != want[key]:
                print(f"{workload} dvfs {key[1]}: explain {got.get(key)}, "
                      f"frontier {want[key]} (seconds, joules)")
                bad += 1
    if bad:
        print(f"{bad} of {len(want)} DVFS points disagree")
        return 1
    print(f"{len(want)} DVFS points agree over {len(workloads)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
