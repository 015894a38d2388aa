#!/usr/bin/env python3
"""slint — source-discipline lint for the stencil codebase.

The simulator owns time, randomness, and threads: every actor is a fiber
under sim::Engine virtual time (src/simtime), so OS-level time and concurrency
primitives in library, test, bench, or example code silently break
determinism and the virtual clock. This lint bans those constructs
statically, the same way stencil::verify bans protocol defects statically.

Rules (each a regex over comment- and string-stripped source):
  os-sleep        std::this_thread::sleep_for/sleep_until, sleep(), usleep(),
                  nanosleep() — real sleeps stall the virtual clock. Virtual
                  sleeps (sim::Engine::sleep_for / RankCtx timing) are fine.
  wall-clock      std::chrono::system_clock — wall time varies run to run;
                  sim::now() or std::chrono::steady_clock (for host-side
                  profiling only) are the sanctioned clocks.
  libc-rand       rand()/srand() — unseeded global state; use a seeded
                  std::mt19937 so failures reproduce.
  raw-thread      std::thread/std::jthread anywhere — actors are fibers that
                  sim::Engine schedules on one OS thread, never the OS.

Suppression: append `// slint: allow(<rule>)` to the offending line. The
lint reports the rule name so the suppression is greppable and auditable.

Usage:
  tools/slint.py [paths...]        # default: src tests bench examples
  tools/slint.py --list-rules
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ["src", "tests", "bench", "examples"]
SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc", ".cu", ".cuh"}

# (name, regex, explanation, path-predicate). The predicate receives the
# repo-relative posix path and returns True when the rule applies there.
RULES = [
    (
        "os-sleep",
        re.compile(
            r"std::this_thread::sleep_(for|until)"
            r"|(?<![\w:.])(sleep|usleep|nanosleep)\s*\("
        ),
        "OS sleep stalls the virtual clock; use sim::Engine::sleep_for",
        lambda p: not p.startswith("src/simtime/"),
    ),
    (
        "wall-clock",
        re.compile(r"std::chrono::system_clock"),
        "wall time is nondeterministic; use sim::now() or steady_clock",
        lambda p: not p.startswith("src/simtime/"),
    ),
    (
        "libc-rand",
        # Bare rand()/srand( and the std::-qualified spellings; other
        # qualified names (foo::rand) are someone's own RNG, not libc's.
        re.compile(r"(?:(?<![\w:.])|(?<=std::))s?rand\s*\("),
        "global libc RNG is unseedable per-test; use a seeded std::mt19937",
        lambda p: True,
    ),
    (
        "raw-thread",
        re.compile(r"std::j?thread\b"),
        "OS threads bypass the simulator; actors belong to sim::Engine",
        lambda p: True,
    ),
]

ALLOW = re.compile(r"//\s*slint:\s*allow\(([\w,\s-]+)\)")

# Comments and string/char literals, ordered so earlier alternatives win.
# Block comments may span lines; this runs on the whole file text.
_STRIP = re.compile(
    r"""
      /\*.*?\*/            # block comment
    | //[^\n]*             # line comment
    | "(?:\\.|[^"\\\n])*"  # string literal
    | '(?:\\.|[^'\\\n])*'  # char literal
    """,
    re.DOTALL | re.VERBOSE,
)


def _blank_preserving_newlines(match: re.Match) -> str:
    return re.sub(r"[^\n]", " ", match.group(0))


def strip_code(text: str) -> str:
    """Blank out comments and literals, preserving line structure."""
    return _STRIP.sub(_blank_preserving_newlines, text)


def lint_file(path: pathlib.Path, rel: str) -> list[str]:
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [f"{rel}: unreadable: {e}"]
    stripped = strip_code(raw)
    raw_lines = raw.splitlines()
    findings = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        raw_line = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        allow_m = ALLOW.search(raw_line)
        allowed = (
            {r.strip() for r in allow_m.group(1).split(",")} if allow_m else set()
        )
        for name, rx, why, applies in RULES:
            if not applies(rel):
                continue
            if name in allowed:
                continue
            m = rx.search(line)
            if m:
                findings.append(
                    f"{rel}:{lineno}: [{name}] `{raw_line.strip()}` — {why}"
                )
    return findings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=None)
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name, _, why, _ in RULES:
            print(f"{name}: {why}")
        return 0

    roots = [pathlib.Path(p) for p in (args.paths or DEFAULT_PATHS)]
    files: list[pathlib.Path] = []
    for root in roots:
        base = root if root.is_absolute() else REPO / root
        if base.is_file():
            files.append(base)
        elif base.is_dir():
            files.extend(
                p for p in sorted(base.rglob("*")) if p.suffix in SOURCE_SUFFIXES
            )
        else:
            print(f"slint: no such path: {root}", file=sys.stderr)
            return 2

    findings: list[str] = []
    for f in files:
        try:
            rel = f.resolve().relative_to(REPO).as_posix()
        except ValueError:
            rel = f.as_posix()
        findings.extend(lint_file(f, rel))

    for line in findings:
        print(line)
    print(
        f"slint: {len(files)} file(s), {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
