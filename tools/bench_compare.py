#!/usr/bin/env python3
"""Compare two bench-v1 JSON documents (or directories of them) and report
every row whose latency changed.

Every row in a bench-v1 document is keyed by (bench, label+config, variant);
for each key present in both baseline and candidate the median and p95
latencies are compared exactly. Any difference, faster or slower, is
reported as CHANGED: the committed baselines are virtual time, so a drift
of any size or sign is a model change, and a wrong speed-up needs the same
look as a slowdown.

Usage:
  bench_compare.py BASELINE CANDIDATE [--require]

BASELINE / CANDIDATE are either two bench-v1 .json files or two directories;
for directories, every BENCH_*.json in BASELINE is compared against the
same-named file in CANDIDATE (a missing candidate file is a failure — the
bench stopped emitting). Candidate-only files and rows — things with no
baseline yet — are reported as NEW, never as errors.

When an `EXPLAIN_<name>.json` (explain-v1, stencil::explain) sits next to a
`BENCH_<name>.json` on both sides, any changed row in that bench also
prints the decision-log diff — decisions whose chosen option or score
changed between baseline and candidate — so a perf delta arrives with its
why attached.

Exit status: 0 when clean or advisory (no --require); 1 with --require when
any changed row, schema problem, or missing file/key is found.
"""

import argparse
import json
import os
import sys


def load_doc(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "bench-v1":
        raise ValueError(f"{path}: schema is {doc.get('schema')!r}, expected 'bench-v1'")
    return doc


def row_key(row):
    # config is already folded into the label by the emitters ("2n/6r/6g/..."),
    # but include the distinguishing config fields anyway so two rows that
    # share a label but differ in shape never collide.
    cfg = row.get("config", {})
    cfg_sig = ",".join(
        str(cfg.get(k, "")) for k in ("arch", "nodes", "ranks_per_node", "domain", "radius")
    )
    return (row.get("label", ""), row.get("variant", ""), cfg_sig)


def index_rows(doc):
    rows = {}
    for row in doc.get("rows", []):
        key = row_key(row)
        if key in rows:
            raise ValueError(f"duplicate row key {key} in bench {doc.get('bench')!r}")
        rows[key] = row
    return rows


def compare_docs(base_doc, cand_doc, report):
    """Appends report lines; returns (changed, missing)."""
    bench = base_doc.get("bench", "?")
    base = index_rows(base_doc)
    cand = index_rows(cand_doc)
    changed = 0
    missing = 0

    for key in sorted(base):
        label, variant, _ = key
        name = f"{bench}: {label} [{variant}]"
        if key not in cand:
            report.append(f"MISSING  {name} — row dropped from candidate")
            missing += 1
            continue
        b = base[key].get("latency_ms") or {}
        c = cand[key].get("latency_ms") or {}
        deltas = []
        for stat in ("median", "p95"):
            bv, cv = b.get(stat, 0.0), c.get(stat, 0.0)
            if cv != bv:
                rel = f" ({100.0 * (cv - bv) / bv:+.1f}%)" if bv != 0.0 else ""
                deltas.append(f"{stat} {bv:.6g} -> {cv:.6g}{rel}")
        if deltas:
            report.append(f"CHANGED  {name} — " + ", ".join(deltas))
            changed += 1

    for key in sorted(set(cand) - set(base)):
        label, variant, _ = key
        report.append(f"NEW      {bench}: {label} [{variant}] — no baseline yet")
    return changed, missing


def pair_files(base, cand):
    """Yields (base_path_or_None, cand_path_or_None) pairs for the two
    arguments. (None, cand_path) marks a candidate-only file: a bench that
    has no baseline yet (reported as NEW, not an error)."""
    if os.path.isdir(base):
        if not os.path.isdir(cand):
            raise ValueError(f"{base} is a directory but {cand} is not")

        def bench_names(d):
            return {n for n in os.listdir(d) if n.startswith("BENCH_") and n.endswith(".json")}

        base_names = bench_names(base)
        cand_names = bench_names(cand)
        if not base_names and not cand_names:
            raise ValueError(f"no BENCH_*.json files in {base} or {cand}")
        for n in sorted(base_names):
            cpath = os.path.join(cand, n)
            yield os.path.join(base, n), (cpath if os.path.exists(cpath) else None)
        for n in sorted(cand_names - base_names):
            yield None, os.path.join(cand, n)
    else:
        yield base, (cand if os.path.exists(cand) else None)


def explain_path_for(bench_path):
    """EXPLAIN_<name>.json sibling of a BENCH_<name>.json, or None."""
    if bench_path is None:
        return None
    d, n = os.path.split(bench_path)
    if not n.startswith("BENCH_"):
        return None
    epath = os.path.join(d, "EXPLAIN_" + n[len("BENCH_"):])
    return epath if os.path.exists(epath) else None


def load_explain(path):
    """explain-v1 decisions keyed by (kind, subject): [(chosen, score), ...].
    Returns None when the file is unreadable or not explain-v1 — the diff is
    best-effort garnish, never a comparison failure."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError, json.JSONDecodeError):
        return None
    if doc.get("schema") != "explain-v1":
        return None
    decisions = {}
    for rec in doc.get("records", []):
        key = (rec.get("kind", "?"), rec.get("subject", "?"))
        decisions.setdefault(key, []).append(
            (rec.get("chosen", "?"), rec.get("chosen_score", 0.0))
        )
    return decisions


def diff_explain(base_path, cand_path, report, max_lines=20):
    """Appends EXPLAIN lines for decisions that changed between the two logs."""
    if base_path is None or cand_path is None:
        return
    base = load_explain(base_path)
    cand = load_explain(cand_path)
    if base is None or cand is None:
        return
    name = os.path.basename(cand_path)
    lines = []
    for key in sorted(set(base) | set(cand)):
        kind, subject = key
        b, c = base.get(key), cand.get(key)
        if b == c:
            continue
        if b is None:
            for chosen, score in c:
                lines.append(f"EXPLAIN  {name}: + {kind} {subject}: chose {chosen!r} (score {score:g})")
        elif c is None:
            for chosen, score in b:
                lines.append(f"EXPLAIN  {name}: - {kind} {subject}: chose {chosen!r} (score {score:g})")
        else:
            for (bch, bsc), (cch, csc) in zip(b, c):
                if (bch, bsc) == (cch, csc):
                    continue
                lines.append(
                    f"EXPLAIN  {name}: {kind} {subject}: "
                    f"{bch!r} (score {bsc:g}) -> {cch!r} (score {csc:g})"
                )
            for chosen, score in c[len(b):]:
                lines.append(f"EXPLAIN  {name}: + {kind} {subject}: chose {chosen!r} (score {score:g})")
            for chosen, score in b[len(c):]:
                lines.append(f"EXPLAIN  {name}: - {kind} {subject}: chose {chosen!r} (score {score:g})")
    if len(lines) > max_lines:
        dropped = len(lines) - max_lines
        lines = lines[:max_lines] + [f"EXPLAIN  {name}: ... {dropped} more changed decision(s)"]
    report.extend(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="bench-v1 file or directory of BENCH_*.json baselines")
    ap.add_argument("candidate", help="bench-v1 file or directory to compare against the baseline")
    ap.add_argument("--require", action="store_true",
                    help="exit 1 on any changed or missing row/file (default: advisory)")
    args = ap.parse_args()

    report = []
    changed = 0
    missing = 0
    compared = 0
    try:
        for base_path, cand_path in pair_files(args.baseline, args.candidate):
            if cand_path is None:
                report.append(f"MISSING  {os.path.basename(base_path)} — candidate file not found")
                missing += 1
                continue
            if base_path is None:
                cand_doc = load_doc(cand_path)  # still validate the schema
                report.append(
                    f"NEW      {os.path.basename(cand_path)} — "
                    f"{len(cand_doc.get('rows', []))} row(s), no baseline file yet"
                )
                continue
            base_doc = load_doc(base_path)
            cand_doc = load_doc(cand_path)
            r, m = compare_docs(base_doc, cand_doc, report)
            changed += r
            missing += m
            compared += 1
            if r > 0:
                # A change's "why": diff the decision logs, if both runs
                # exported them next to their bench files.
                diff_explain(explain_path_for(base_path), explain_path_for(cand_path), report)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench_compare: error: {e}", file=sys.stderr)
        return 1

    for line in report:
        print(line)
    verdict_bad = changed > 0 or missing > 0
    print(f"bench_compare: {compared} file(s) compared, {changed} changed, {missing} missing"
          + ("" if args.require else " (advisory)"))
    return 1 if (verdict_bad and args.require) else 0


if __name__ == "__main__":
    sys.exit(main())
