#!/usr/bin/env python3
"""flim_lint: the FLIM determinism/correctness lint.

The repo's core guarantee -- campaign results reproduce byte-identically
across serial/pooled/sharded/resumed executions -- is easy to break with one
innocent-looking line: an ad-hoc RNG, a wall-clock call, iteration over an
unordered container in an emission path. Generic linters cannot know these
project invariants, so this one encodes them as a small set of regex-lite
rules over the C++ tree (see docs/static-analysis.md#determinism-lint for
the rule catalog and the allowlist workflow):

  rng-source         no rand()/srand()/std::random_device/std::mt19937/
                     wall-clock seeding in src/ outside the seeded RNG
                     (src/core/rng.*). Everything random must flow from
                     core::Rng so seeds reproduce runs.
  unordered-emission no std::unordered_map/set in fingerprint/CSV/JSONL
                     emission paths (core/report, core/journal, exp/store,
                     exp/scenario, fault_registry canonical forms, cli,
                     reliability/ecc). Unordered iteration order is
                     unspecified and varies across libstdc++ versions --
                     emitted bytes must not.
  cout-in-library    no std::cout/printf in src/ (library code returns data
                     or uses core::log; stdout belongs to the CLI, which is
                     a vetted allowlist exception).
  float-keyed-map    no float/double-keyed std::map/set/unordered_map:
                     float key comparison makes container behaviour depend
                     on rounding environment.
  mutex-annotation   every mutex member declared in a header must live in a
                     file using GUARDED_BY thread-safety annotations
                     (core/annotations.hpp), so Clang's -Wthread-safety can
                     actually see the lock discipline.
  fleet-raw-mutex    no raw std::mutex / std::lock_guard / std::unique_lock
                     in src/fleet; the fleet's coordinator state is guarded
                     by core::Mutex + MutexLock/CondLock (core/sync.hpp) so
                     -Wthread-safety covers every lock site.
  fleet-naked-socket no raw POSIX socket calls in src/fleet outside the RAII
                     wrapper (src/fleet/wire.*); everything above the wire
                     layer handles Socket/LineChannel objects, never file
                     descriptors, so no path can leak or double-close one.
  serve-raw-mutex    fleet-raw-mutex, mirrored over src/serve: the serving
                     layer's shared state (plan cache, batcher queue) uses
                     core::Mutex + MutexLock/CondLock exclusively.
  serve-naked-socket fleet-naked-socket, mirrored over src/serve with no
                     exemption at all: serve has no wire layer of its own --
                     it reuses src/fleet/wire.*, so every serve file handles
                     Socket/LineChannel objects, never file descriptors.

Findings print as `path:line: [rule] message` and exit non-zero. Vetted
exceptions go in the allowlist file (default tools/lint_allowlist.txt), one
per line:

    <rule> <path> [<line-substring>]   # justification

With a substring the entry suppresses only offending lines containing it
(per-line vetting); without, the whole file is exempt from that rule (for
structural exceptions like CLI stdout). Entries that no longer suppress
anything are themselves an error, so the allowlist cannot rot.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

# Directories scanned relative to the root (library code only: benches,
# tests, and examples may time things and print freely).
SRC_DIR = "src"

# Emission-path files for unordered-emission: everything whose output bytes
# are fingerprinted, diffed, or resumed against.
EMISSION_PATHS = (
    "src/core/report",
    "src/core/journal",
    "src/exp/store",
    "src/exp/scenario",
    "src/fault/fault_registry",
    "src/reliability/ecc/",
    "src/cli/",
)

RNG_EXEMPT = ("src/core/rng.",)

# The fleet's RAII socket layer: the only files allowed to touch raw fds.
WIRE_EXEMPT = ("src/fleet/wire.",)


@dataclass
class Rule:
    name: str
    message: str
    pattern: re.Pattern
    applies: "callable"


@dataclass
class Finding:
    path: str  # root-relative, forward slashes
    line_no: int  # 1-based
    line: str
    rule: Rule

    def format(self) -> str:
        return f"{self.path}:{self.line_no}: [{self.rule.name}] {self.rule.message}"


@dataclass
class AllowEntry:
    rule: str
    path: str
    substring: str | None
    line_no: int  # line in the allowlist file, for stale reporting
    used: int = 0


def in_src(path: str) -> bool:
    return path.startswith(SRC_DIR + "/")


def rng_scope(path: str) -> bool:
    return in_src(path) and not any(path.startswith(p) for p in RNG_EXEMPT)


def emission_scope(path: str) -> bool:
    return any(path.startswith(p) for p in EMISSION_PATHS)


def header_scope(path: str) -> bool:
    return in_src(path) and Path(path).suffix in {".hpp", ".hh", ".h"}


def fleet_scope(path: str) -> bool:
    return path.startswith("src/fleet/")


def fleet_nonwire_scope(path: str) -> bool:
    return fleet_scope(path) and not any(
        path.startswith(p) for p in WIRE_EXEMPT
    )


def serve_scope(path: str) -> bool:
    return path.startswith("src/serve/")


RULES = [
    Rule(
        name="rng-source",
        message=(
            "nondeterministic randomness/time source in library code; all "
            "randomness must flow from the seeded core::Rng (core/rng.hpp)"
        ),
        pattern=re.compile(
            r"\brand\s*\(|\bsrand\s*\(|std::random_device"
            r"|std::mt19937|std::minstd_rand|std::default_random_engine"
            r"|\btime\s*\(|\bclock\s*\(|\bgettimeofday\s*\("
            r"|std::chrono::(system|steady|high_resolution)_clock::now"
        ),
        applies=rng_scope,
    ),
    Rule(
        name="unordered-emission",
        message=(
            "unordered container in an emission path; iteration order is "
            "unspecified and would leak into fingerprinted/emitted bytes -- "
            "use std::map/std::set or a sorted vector"
        ),
        pattern=re.compile(r"std::unordered_(map|set)\b"),
        applies=emission_scope,
    ),
    Rule(
        name="cout-in-library",
        message=(
            "stdout write in library code; return data to the caller or use "
            "core::log (stdout belongs to the CLI layer)"
        ),
        pattern=re.compile(r"std::cout\b|\bprintf\s*\(|\bputs\s*\("),
        applies=in_src,
    ),
    Rule(
        name="float-keyed-map",
        message=(
            "float-keyed associative container; float comparison/hashing "
            "makes behaviour depend on the rounding environment -- key on "
            "the label or a fixed-point/integer form"
        ),
        pattern=re.compile(
            r"std::(unordered_)?(map|set)\s*<\s*(float|double|long\s+double)\b"
        ),
        applies=in_src,
    ),
    Rule(
        name="mutex-annotation",
        message=(
            "mutex member in a header without thread-safety annotations; "
            "annotate the guarded members with FLIM_GUARDED_BY "
            "(core/annotations.hpp) so -Wthread-safety verifies the lock "
            "discipline"
        ),
        pattern=re.compile(
            r"^\s*(mutable\s+)?((std::)?(shared_)?mutex|(core::)?Mutex)\s+\w+"
        ),
        applies=header_scope,
    ),
    Rule(
        name="fleet-raw-mutex",
        message=(
            "raw standard-library mutex in fleet code; use core::Mutex with "
            "MutexLock/CondLock (core/sync.hpp) so Clang's -Wthread-safety "
            "verifies the lock discipline"
        ),
        pattern=re.compile(
            r"std::(recursive_|timed_|shared_)?mutex\b"
            r"|std::(scoped_lock|lock_guard|unique_lock|shared_lock)\b"
        ),
        applies=fleet_scope,
    ),
    Rule(
        name="fleet-naked-socket",
        message=(
            "raw socket call outside the wire layer; fleet code above "
            "src/fleet/wire.* must hold RAII Socket/LineChannel handles, "
            "never file descriptors"
        ),
        pattern=re.compile(
            r"\b(socket|bind|listen|accept|accept4|connect|send|recv"
            r"|recvfrom|sendto|setsockopt|getsockname|shutdown|poll"
            r"|inet_pton)\s*\("
            r"|::close\s*\("
        ),
        applies=fleet_nonwire_scope,
    ),
    Rule(
        name="serve-raw-mutex",
        message=(
            "raw standard-library mutex in serving code; use core::Mutex "
            "with MutexLock/CondLock (core/sync.hpp) so Clang's "
            "-Wthread-safety verifies the lock discipline"
        ),
        pattern=re.compile(
            r"std::(recursive_|timed_|shared_)?mutex\b"
            r"|std::(scoped_lock|lock_guard|unique_lock|shared_lock)\b"
        ),
        applies=serve_scope,
    ),
    Rule(
        name="serve-naked-socket",
        message=(
            "raw socket call in serving code; src/serve has no wire layer "
            "of its own -- it must hold RAII Socket/LineChannel handles "
            "from src/fleet/wire.*, never file descriptors"
        ),
        pattern=re.compile(
            r"\b(socket|bind|listen|accept|accept4|connect|send|recv"
            r"|recvfrom|sendto|setsockopt|getsockname|shutdown|poll"
            r"|inet_pton)\s*\("
            r"|::close\s*\("
        ),
        applies=serve_scope,
    ),
]


BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
LINE_COMMENT = re.compile(r"//[^\n]*")
STRING_LIT = re.compile(r'"(?:[^"\\\n]|\\.)*"')


def scrub(text: str) -> str:
    """Blanks comments and string literals, preserving line structure."""

    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    text = BLOCK_COMMENT.sub(blank, text)
    text = STRING_LIT.sub(blank, text)
    text = LINE_COMMENT.sub(blank, text)
    return text


def scan_file(root: Path, rel: str) -> list[Finding]:
    raw = (root / rel).read_text(encoding="utf-8", errors="replace")
    lines = scrub(raw).splitlines()
    findings: list[Finding] = []

    file_rules = [r for r in RULES if r.applies(rel)]
    if not file_rules:
        return findings

    # mutex-annotation is file-contextual: a mutex member only needs the
    # file to use GUARDED_BY somewhere (the annotation sits on the guarded
    # members, not on the mutex line itself).
    has_guarded_by = "GUARDED_BY(" in raw

    for i, line in enumerate(lines, start=1):
        for rule in file_rules:
            if rule.name == "mutex-annotation" and has_guarded_by:
                continue
            if rule.pattern.search(line):
                findings.append(Finding(rel, i, line, rule))
    return findings


def load_allowlist(path: Path) -> list[AllowEntry]:
    entries: list[AllowEntry] = []
    if not path.exists():
        return entries
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            raise SystemExit(
                f"{path}:{line_no}: allowlist entry needs '<rule> <path> "
                f"[<line-substring>]', got: {raw!r}"
            )
        rule, file_path = parts[0], parts[1]
        if rule not in {r.name for r in RULES}:
            raise SystemExit(
                f"{path}:{line_no}: unknown rule '{rule}' "
                f"(rules: {', '.join(r.name for r in RULES)})"
            )
        substring = parts[2].strip() if len(parts) == 3 else None
        entries.append(AllowEntry(rule, file_path, substring, line_no))
    return entries


def apply_allowlist(
    findings: list[Finding], entries: list[AllowEntry]
) -> list[Finding]:
    kept: list[Finding] = []
    for f in findings:
        suppressed = False
        for e in entries:
            if e.rule != f.rule.name or e.path != f.path:
                continue
            if e.substring is not None and e.substring not in f.line:
                continue
            e.used += 1
            suppressed = True
            break
        if not suppressed:
            kept.append(f)
    return kept


def iter_sources(root: Path) -> list[str]:
    out = []
    base = root / SRC_DIR
    if base.is_dir():
        for p in sorted(base.rglob("*")):
            if p.suffix in CXX_SUFFIXES and p.is_file():
                out.append(p.relative_to(root).as_posix())
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="FLIM determinism/correctness lint (see docs/static-analysis.md)"
    )
    ap.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repo root to scan (default: this checkout)",
    )
    ap.add_argument(
        "--allowlist",
        type=Path,
        default=None,
        help="vetted-exception file (default: <root>/tools/lint_allowlist.txt)",
    )
    ap.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name}: {rule.message}")
        return 0

    root = args.root.resolve()
    allowlist_path = args.allowlist or root / "tools" / "lint_allowlist.txt"
    entries = load_allowlist(allowlist_path)

    findings: list[Finding] = []
    files = iter_sources(root)
    for rel in files:
        findings.extend(scan_file(root, rel))
    findings = apply_allowlist(findings, entries)

    status = 0
    for f in findings:
        print(f.format())
        status = 1

    stale = [e for e in entries if e.used == 0]
    for e in stale:
        print(
            f"{allowlist_path}:{e.line_no}: stale allowlist entry "
            f"({e.rule} {e.path}"
            + (f" {e.substring}" if e.substring else "")
            + ") suppresses nothing -- remove it"
        )
        status = 1

    if status == 0:
        print(f"flim_lint: {len(files)} files clean ({len(entries)} vetted exceptions)")
    else:
        print(
            f"flim_lint: {len(findings)} violation(s), {len(stale)} stale "
            "allowlist entr(y/ies). Fix the code, or add a vetted exception "
            "to tools/lint_allowlist.txt with a justification comment "
            "(docs/static-analysis.md#determinism-lint)."
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
