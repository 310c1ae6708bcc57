#!/usr/bin/env python3
"""Golden-output gate for the bench and example binaries.

Runs one binary in a fresh directory with SOC_BENCH_JSON_DIR pointing
there and SOC_SWEEP_THREADS=1, then compares its stdout (kept as
stdout.txt) and every artifact it wrote with the committed copies in
the golden directory, byte for byte.  A missing, extra or changed file
fails the check; a changed file prints a unified diff of every moved
line.  With --update the goldens are rewritten instead (the
`update_goldens` build target does this for every binary).

  python3 tests/golden.py [--update] <binary> <golden-dir>
"""
import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile

STDOUT = "stdout.txt"


def read_dir(path):
    files = {}
    for name in os.listdir(path):
        with open(os.path.join(path, name), "rb") as f:
            files[name] = f.read()
    return files


def run(binary):
    """Returns {file name: bytes} for one run of `binary`."""
    with tempfile.TemporaryDirectory(prefix="golden-") as out_dir:
        env = dict(os.environ, SOC_BENCH_JSON_DIR=out_dir,
                   SOC_SWEEP_THREADS="1")
        env.pop("SOC_SWEEP_PROGRESS", None)
        proc = subprocess.run([os.path.abspath(binary)], cwd=out_dir,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            sys.exit(f"{binary} exited {proc.returncode}")
        files = read_dir(out_dir)
        files[STDOUT] = proc.stdout
        return files


def compare(golden, actual):
    """Prints every difference; returns True when there is none."""
    ok = True
    for name in sorted(golden.keys() - actual.keys()):
        print(f"missing: {name} (in the goldens, not written by this run)")
        ok = False
    for name in sorted(actual.keys() - golden.keys()):
        print(f"extra: {name} (written by this run, not in the goldens)")
        ok = False
    for name in sorted(golden.keys() & actual.keys()):
        if golden[name] == actual[name]:
            continue
        ok = False
        sys.stdout.writelines(difflib.unified_diff(
            golden[name].decode(errors="replace").splitlines(keepends=True),
            actual[name].decode(errors="replace").splitlines(keepends=True),
            fromfile=f"golden/{name}", tofile=f"actual/{name}"))
        print()
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the goldens from this run")
    parser.add_argument("binary")
    parser.add_argument("golden_dir")
    args = parser.parse_args()

    actual = run(args.binary)
    if args.update:
        shutil.rmtree(args.golden_dir, ignore_errors=True)
        os.makedirs(args.golden_dir)
        for name, data in actual.items():
            with open(os.path.join(args.golden_dir, name), "wb") as f:
                f.write(data)
        print(f"wrote {len(actual)} goldens to {args.golden_dir}")
        return 0
    if not os.path.isdir(args.golden_dir):
        sys.exit(f"no goldens at {args.golden_dir} (build update_goldens)")
    if compare(read_dir(args.golden_dir), actual):
        print(f"{len(actual)} files match {args.golden_dir}")
        return 0
    print(f"{os.path.basename(args.binary)} no longer reproduces its goldens; "
          "if the change is intended, build update_goldens and say in "
          "CHANGES.md which numbers moved and why")
    return 1


if __name__ == "__main__":
    sys.exit(main())
