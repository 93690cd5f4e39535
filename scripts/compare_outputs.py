#!/usr/bin/env python3
"""Byte-identity check: run every shipped and benchmark config under two
source trees and diff what they write.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [--threads 0,1]

OLD_SRC and NEW_SRC are checkouts (a `git archive` or `git clone` of each
commit will do): each must hold src/lvfield and the configs to run.  Every
configs/*.ini and perfbench/configs/*.ini found in either tree runs with its
subcommand, once per --threads value, from the tree's own root with its own
src/ on PYTHONPATH; the two sides use the same --threads list.  Then every
output file except runtime.json is compared byte for byte, and so are the
exit statuses and stdout, with the output path masked.

One line per difference; a differing file reports the largest relative
change of its numeric cells, or "config_hash only" when nothing but the
config hash in its headers differs.  The last line counts the runs and the
differences.  Exit 0 when nothing differs, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# The subcommand of every config, by its path in a checkout.
COMMANDS = {
    "configs/kernel.ini": "kernel-check",
    "configs/noise.ini": "noise-check",
    "configs/logistic.ini": "simulate",
    "configs/mild_audit.ini": "simulate",
    "configs/benchmark.ini": "ensemble",
    "configs/linear_mean.ini": "ensemble",
    "configs/extinction.ini": "extinction",
    "configs/holder.ini": "holder",
    "configs/holder_rough.ini": "holder",
    "configs/invariant.ini": "invariant",
    "configs/invariant_control.ini": "invariant",
    "configs/density.ini": "density",
    "configs/density_control.ini": "density",
    "perfbench/configs/holder_fd128.ini": "holder",
    "perfbench/configs/extinction_spectral.ini": "extinction",
    "perfbench/configs/mild_audit_fd.ini": "simulate",
    "perfbench/configs/mild_audit_spectral.ini": "simulate",
}
CONFIG_GLOBS = ("configs/*.ini", "perfbench/configs/*.ini")
IGNORED = "runtime.json"      # the one file outside the byte-identity contract
OUT_MASK = "<out>"
HASH_KEY = "config_hash"  # its value changes with any hashed parameter

# Cells of CSV, JSON, NDJSON and `# key=value` lines; the separators are kept
# so that two files with the same cells in other places still differ.
_SPLIT = re.compile(r"([\s,:=\[\]{}\"]+)")


def configs_of(tree: Path) -> list:
    return sorted(str(p.relative_to(tree)) for pattern in CONFIG_GLOBS for p in tree.glob(pattern))


def run(tree: Path, config: str, threads: int, out: Path) -> tuple:
    """(exit status, stdout with the output path masked) of one run."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "lvfield", COMMANDS[config], "--config", config,
            "--out", str(out), "--threads", str(threads)]
    proc = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.returncode, proc.stdout.replace(str(out), OUT_MASK)


def largest_change(old: bytes, new: bytes) -> str:
    """The largest relative change of the numeric cells of two files of the
    same layout, or what else differs; "config_hash only" when the only cells
    that differ are config_hash values."""
    a = _SPLIT.split(old.decode(errors="replace"))
    b = _SPLIT.split(new.decode(errors="replace"))
    if len(a) != len(b):
        return f"layout differs ({len(a)} -> {len(b)} tokens)"
    worst, numeric, other, hashes = 0.0, 0, 0, 0
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        # cells and separators alternate: a value's key is two tokens back
        if i >= 2 and a[i - 2] == HASH_KEY:
            hashes += 1
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            other += 1
            continue
        numeric += 1
        scale = max(abs(fx), abs(fy))
        worst = max(worst, abs(fx - fy) / scale if scale > 0 else float("inf"))
    if hashes and not numeric and not other:
        return f"{HASH_KEY} only"
    other += hashes
    text = f"largest relative cell change {worst:.3g}"
    return text + (f", {other} non-numeric cells differ" if other else "")


def compare(old: Path, new: Path, config: str, threads: int, work: Path) -> list:
    """Difference lines of one config at one thread count."""
    tag = f"{config} --threads {threads}"
    present = [(tree / config).is_file() for tree in (old, new)]
    if not all(present):
        return [f"{tag}: only in {'OLD' if present[0] else 'NEW'}"]
    outs = [work / side / config.replace("/", "_").removesuffix(".ini") / f"t{threads}"
            for side in ("old", "new")]
    (rc_a, stdout_a), (rc_b, stdout_b) = (run(tree, config, threads, out)
                                          for tree, out in zip((old, new), outs))
    lines = []
    if rc_a != rc_b:
        lines.append(f"{tag}: exit status {rc_a} -> {rc_b}")
    if stdout_a != stdout_b:
        lines.append(f"{tag}: stdout {largest_change(stdout_a.encode(), stdout_b.encode())}")
    files = [{p.relative_to(out) for p in out.rglob("*") if p.is_file()} if out.is_dir()
             else set() for out in outs]
    for name in sorted(files[0] | files[1]):
        if name.name == IGNORED:
            continue
        if name not in files[0] or name not in files[1]:
            lines.append(f"{tag}: {name} only in {'OLD' if name in files[0] else 'NEW'}")
            continue
        a, b = ((out / name).read_bytes() for out in outs)
        if a != b:
            lines.append(f"{tag}: {name} {largest_change(a, b)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, metavar="OLD_SRC")
    ap.add_argument("new", type=Path, metavar="NEW_SRC")
    ap.add_argument("--threads", default="0",
                    help="comma-separated --threads values, each run on both sides (default 0)")
    ap.add_argument("--work", type=Path, default=None,
                    help="directory for the outputs (default: a new temporary one)")
    args = ap.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    try:
        thread_counts = [int(t) for t in args.threads.split(",")]
    except ValueError:
        ap.error(f"--threads takes comma-separated integers, got {args.threads!r}")
    for tree in (old, new):
        if not (tree / "src" / "lvfield").is_dir():
            ap.error(f"{tree} holds no src/lvfield")
    configs = sorted(set(configs_of(old)) | set(configs_of(new)))
    unknown = [c for c in configs if c not in COMMANDS]
    if unknown:
        ap.error(f"no subcommand known for {', '.join(unknown)}")
    work = (args.work or Path(tempfile.mkdtemp(prefix="compare_outputs."))).resolve()

    differences = 0
    for config in configs:
        for threads in thread_counts:
            for line in compare(old, new, config, threads, work):
                print(line, flush=True)
                differences += 1
    print(f"{len(configs)} configs x {len(thread_counts)} thread counts compared "
          f"(outputs in {work}): {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
