#!/usr/bin/env python3
"""Alternating A/B pairs of ``perfbench/run.py`` between two git refs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seed S \\
        --pairs N [--log runs.jsonl]

Run from inside the repository.  Both refs are exported with
``git archive`` into fresh temporary directories and byte-compiled the
same way (``python -m compileall -q src perfbench``), so neither side
reads ``setup_s`` from a warmer bytecode cache than the other.  Each
run lasts CHANGE's ``BENCHMARK.json`` ``run_seconds``.  Pair ``i`` runs
PARENT first when ``i`` is even and CHANGE first when it is
odd.  Every run is logged as one JSON line (side, pair, exit code,
perfbench's note line, the result's ``correct``/``failed`` and
metrics); the summary then prints, per end-to-end metric, both sides'
medians and interquartile ranges and how many pairs CHANGE won, using
the direction ``BENCHMARK.json`` declares.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def export(ref: str, dest: Path) -> None:
    """``git archive`` of ``ref`` into ``dest``, byte-compiled."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=dest, check=True)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in checkout ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    notes = [line for line in lines if line.startswith("perfbench:")]
    errors = proc.stderr.strip().splitlines()
    row = {"exit": proc.returncode,
           "note": notes[-1] if notes else (errors[-1] if errors else "")}
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return row
    row.update(correct=result["correct"], failed=result["failed"],
               metrics={name: spec["value"]
                        for name, spec in result["metrics"].items()})
    return row


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(rows: list[dict], better: dict[str, str]) -> list[str]:
    """Per-metric medians, IQRs and CHANGE's pair wins."""
    ok = [r for r in rows if r["exit"] == 0 and r.get("correct")]
    out = [f"{len(rows)} runs, {len(rows) - len(ok)} not exit 0 with "
           f"correct: true"]
    pairs: dict[int, dict[str, dict]] = {}
    for r in ok:
        pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    whole = [p for p in pairs.values() if len(p) == 2]
    out.append(f"{'metric':<22}{'parent med':>12}{'IQR':>10}"
               f"{'change med':>12}{'IQR':>10}{'wins':>8}")
    for name, direction in better.items():
        values = {side: [r["metrics"][name] for r in ok
                         if r["side"] == side and name in r["metrics"]]
                  for side in SIDES}
        if not all(values.values()):
            continue
        wins = sum(
            (p["change"][name] > p["parent"][name]) if direction == "higher"
            else (p["change"][name] < p["parent"][name])
            for p in whole
        )
        cells = []
        for side in SIDES:
            q1, q3 = quartiles(values[side])
            cells.append(f"{statistics.median(values[side]):>12.4g}"
                         f"{q3 - q1:>10.3g}")
        out.append(f"{name:<22}{''.join(cells)}{wins:>5}/{len(whole)}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--log", help="append the JSON lines here "
                        "(default: standard output)")
    args = parser.parse_args()

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    log = open(args.log, "a") if args.log else sys.stdout
    rows: list[dict] = []
    try:
        roots = {}
        for side, ref in zip(SIDES, (args.parent, args.change)):
            roots[side] = work / side
            roots[side].mkdir()
            export(ref, roots[side])
        spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                row = {"side": side, "pair": pair, "workload": args.workload,
                       "seed": args.seed}
                row.update(run_once(roots[side], args.workload, args.seed,
                                    spec["run_seconds"]))
                rows.append(row)
                log.write(json.dumps(row) + "\n")
                log.flush()
    finally:
        if log is not sys.stdout:
            log.close()
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(summarize(rows, better)))
    return 0 if all(r["exit"] == 0 and r.get("correct") for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
