#!/usr/bin/env python3
"""Runs bench_timeline twice, in two fresh directories, and checks its files.

The chrome trace, the CSV and the telemetry report must be byte-identical
across the runs. The trace must parse as JSON and carry all four kinds of
content the one chrome-trace writer emits for it: per-rank process_name
metadata, paired s/f flow events, critical-path span args and counter
events.

    check_bench_timeline.py <bench_timeline executable> <scratch dir>
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

OUTPUTS = ["bench_timeline.json", "bench_timeline.csv", "bench_timeline_report.json"]


def run(exe, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    subprocess.run([exe], cwd=workdir, check=True, stdout=subprocess.DEVNULL)
    return {name: (workdir / name).read_bytes() for name in OUTPUTS}


def main():
    exe, scratch = sys.argv[1], Path(sys.argv[2])
    first, second = run(exe, scratch / "a"), run(exe, scratch / "b")
    errors = [f"{name} differs between two runs" for name in OUTPUTS if first[name] != second[name]]

    events = json.loads(first["bench_timeline.json"])["traceEvents"]
    ranks = [e for e in events if e.get("name") == "process_name"
             and e["args"]["name"].startswith("rank ")]
    starts = {e["id"] for e in events if e["ph"] == "s"}
    finishes = {e["id"] for e in events if e["ph"] == "f"}
    critical = [e for e in events if e["ph"] == "X" and e["args"].get("critical") is True]
    counters = [e for e in events if e["ph"] == "C"]
    if not ranks:
        errors.append("no per-rank process_name metadata")
    if not starts or starts != finishes:
        errors.append(f"flow events unpaired: {len(starts)} s ids, {len(finishes)} f ids")
    if not critical or any("wait_us" not in e["args"] for e in critical):
        errors.append("no critical spans with wait_us args")
    if not counters:
        errors.append("no counter events")

    for e in errors:
        print(f"check_bench_timeline: {e}", file=sys.stderr)
    if not errors:
        print(f"bench_timeline trace: {len(ranks)} rank processes, {len(starts)} flows, "
              f"{len(critical)} critical spans, {len(counters)} counters; deterministic")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
