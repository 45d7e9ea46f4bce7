#!/usr/bin/env python3
"""Repo-specific invariant lint (runs as the `lint_invariants` ctest).

Checks things no generic tool enforces:

1. Atomic discipline: in any file under src/ that uses std::atomic, every
   atomic access (.load/.store/.exchange/.fetch_*/.compare_exchange_*) must
   (a) pass an explicit std::memory_order argument -- never the seq_cst
       default, which hides the intent, and
   (b) sit next to a `// order:` comment stating the invariant the chosen
       ordering protects. "Next to" means: on the access line, inside the
       same (possibly multi-line) statement, or in the comment block
       immediately above the access cluster -- consecutive atomic-access
       lines share one comment; at most LOOKBACK_BUDGET unrelated lines may
       separate an access from its justification.
2. Hot-path headers stay mutex-free: headers under src/util/, src/core/,
   src/hh/, src/hhh/ must not include <mutex>, <shared_mutex>, or
   <condition_variable> (the engine's control plane lives in src/engine/,
   which may).
3. Every header under src/ and baselines/ starts with #pragma once.
4. Telemetry call-site discipline (src/, tests/, examples/, bench/):
   instruments are registry-owned -- `obs::Counter/Gauge/Histogram` must
   never be constructed directly outside src/obs/ (cache the reference
   `MetricsRegistry::counter()` returns instead), and registrations must
   carry a real metric name: `counter("")` & friends are rejected here
   before the runtime std::invalid_argument backstop fires.
5. Engine hot paths stay batched: files under src/engine/ must not call
   per-record `update(...)` on an algorithm -- popped batches go through
   `update_batch(...)` (the staged LatticeHhh pipeline; byte-identical by
   contract, so there is never a correctness reason to drop back to the
   scalar loop). A deliberate exception carries a `// per-record:` comment
   on the same or the preceding line stating why batching cannot apply.
6. Metric docs do not drift: the metric families registered in src/ (every
   `"rhhh_...` string literal, cut at a `{` label set) must be exactly the
   backticked `rhhh_...` names in the Family column of README's
   Observability table. Each name is written out in full there, so a
   family added, renamed or deleted in code without the table (or the
   reverse) is a finding.
7. Trace docs do not drift: the event names `to_string(TraceEvent)` returns
   (src/obs/trace_ring.hpp) must be exactly the backticked names in the
   Event column of README's trace event table, the same way rule 6 pins
   the metric families.
8. /health docs do not drift: the JSON keys `certificate_json()` writes
   (src/obs/health.cpp: each `append_*(out, "key", ...)` and each raw
   `\"key\":` literal in its body) must be exactly the backticked names in
   the Field column of README's certificate field table.
9. The atomics inventory does not drift: the `std::atomic` members declared
   under src/engine/, src/util/ and src/vswitch/ (named `Class::member`
   by their innermost enclosing class or struct) must be exactly the
   atomics README's memory-order table names in its Atomic column. A
   backticked `Class::member` names one; a bare backticked `member` after
   it in the same cell names `Class::member` too, so a grouped row lists
   `Lane::dropped`/`popped`.

Exit code 0 when clean, 1 with one line per finding otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

ACCESS_RE = re.compile(
    r"""(?:\.|->)
        (load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|
         fetch_xor|compare_exchange_weak|compare_exchange_strong)
        \s*\(""",
    re.VERBOSE,
)
ORDER_COMMENT_RE = re.compile(r"//.*\border:")
MEMORY_ORDER_RE = re.compile(r"\bmemory_order(_\w+|::\w+)")

# Unrelated (non-comment, non-atomic-access) lines allowed between an access
# and the `// order:` comment that justifies it.
LOOKBACK_BUDGET = 4
# Hard cap on how far the upward walk goes, whatever the line mix.
LOOKBACK_MAX = 30

HOT_PATH_DIRS = ("util", "core", "hh", "hhh")
FORBIDDEN_INCLUDES = re.compile(
    r"#\s*include\s*<(mutex|shared_mutex|condition_variable)>"
)

# Direct instrument construction (`obs::Counter c;` / `obs::Histogram h{...}`)
# -- pointer/reference declarations (`obs::Counter*`, `obs::Counter&`) don't
# match and stay legal. Constructors are private with a MetricsRegistry
# friend, so this is the readable early finding for what the compiler would
# reject anyway.
OBS_DIRECT_RE = re.compile(r"\bobs::(Counter|Gauge|Histogram)\s+\w+\s*[;{(=]")
# Empty metric name at a registration call site (matched on the raw line,
# before string stripping).
OBS_EMPTY_NAME_RE = re.compile(r"\b(gauge_fn|counter|gauge|histogram)\s*\(\s*\"\s*\"")

# Per-record algorithm update in engine code. `update` followed directly by
# `(` -- update_batch/update_weighted don't match. The member-access prefix
# keeps free functions and declarations out of scope.
PER_RECORD_UPDATE_RE = re.compile(r"(?:\.|->)update\s*\(")
PER_RECORD_WAIVER_RE = re.compile(r"//\s*per-record:")

# Metric family literals in src/ and backticked family names in README's
# Observability table; both stop at a `{` label set.
METRIC_LITERAL_RE = re.compile(r'"(rhhh_[A-Za-z0-9_:]+)')
README_FAMILY_RE = re.compile(r"`(rhhh_[A-Za-z0-9_:]+)")
README_TABLE_HEADER = "| Family | Kind | What it measures |"

# Trace event names: the `case TraceEvent::kX: return "x";` arms of
# to_string(TraceEvent), and the Event column of README's /trace table.
TRACE_HEADER = Path("src/obs/trace_ring.hpp")
TRACE_NAME_RE = re.compile(r'case\s+TraceEvent::\w+\s*:\s*return\s+"([^"]+)"')
README_EVENT_RE = re.compile(r"`([a-z_]+)`")
README_EVENT_HEADER = "| Event | arg0 | arg1 |"

# /health certificate keys: the body of certificate_json() in health.cpp,
# and the Field column of README's certificate table.
HEALTH_SOURCE = Path("src/obs/health.cpp")
CERT_JSON_DEF = "std::string certificate_json(const AccuracyCertificate& c) {"
CERT_APPEND_KEY_RE = re.compile(r'append_\w+\(\s*\w+\s*,\s*"([A-Za-z0-9_]+)"')
CERT_RAW_KEY_RE = re.compile(r'\\"([A-Za-z0-9_]+)\\":')
README_FIELD_RE = re.compile(r"`([a-z_]+)`")
README_FIELD_HEADER = "| Field | Type | Meaning |"

# Atomic members: the classes that declare them and README's Atomic column.
ATOMIC_DIRS = ("engine", "util", "vswitch")
ATOMIC_MEMBER_RE = re.compile(r"std::atomic<[^;()]*>\s+(\w+)\s*[{;=]")
CLASS_HEAD_RE = re.compile(r"\b(enum\s+)?(?:class|struct)\s+(\w+)")
README_ATOMIC_HEADER = "| Atomic | Written | Read | Invariant the ordering protects |"
README_ATOMIC_RE = re.compile(r"`(?:(\w+)::)?(\w+)`")


def strip_strings(line: str) -> str:
    """Blank out string/char literals so tokens inside them don't match."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def gather_statement(lines: list[str], row: int, col: int) -> str:
    """The full call expression starting at lines[row][col] (an opening
    paren), across physical lines until the parens balance."""
    depth = 0
    out = []
    r, c = row, col
    while r < len(lines):
        segment = strip_strings(lines[r])
        start = c if r == row else 0
        for i in range(start, len(segment)):
            ch = segment[i]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    out.append(segment[start : i + 1])
                    return "\n".join(out)
        out.append(segment[start:])
        r, c = r + 1, 0
    return "\n".join(out)


def has_adjacent_order_comment(lines: list[str], row: int) -> bool:
    """True when an `// order:` comment covers lines[row]'s access: same
    line, or found walking upward through the access cluster (comments and
    other atomic-access lines are free; anything else eats the budget)."""
    if ORDER_COMMENT_RE.search(lines[row]):
        return True
    budget = LOOKBACK_BUDGET
    for back in range(1, LOOKBACK_MAX + 1):
        j = row - back
        if j < 0:
            return False
        stripped = lines[j].strip()
        if stripped.startswith("//"):
            if ORDER_COMMENT_RE.search(stripped):
                return True
            continue  # non-order comment: keep walking, free
        if ACCESS_RE.search(strip_strings(stripped)) or MEMORY_ORDER_RE.search(
            stripped
        ):
            continue  # same access cluster: free
        budget -= 1
        if budget < 0:
            return False
    return False


def lint_atomics(path: Path, rel: str, findings: list[str]) -> None:
    text = path.read_text(encoding="utf-8")
    if "std::atomic" not in text and "memory_order" not in text:
        return
    lines = text.splitlines()
    for row, raw in enumerate(lines):
        code = strip_strings(raw)
        if code.lstrip().startswith("//"):
            continue
        for m in ACCESS_RE.finditer(code):
            # The paren ACCESS_RE matched is the last char of the match.
            call = gather_statement(lines, row, m.end() - 1)
            if not MEMORY_ORDER_RE.search(call):
                findings.append(
                    f"{rel}:{row + 1}: atomic .{m.group(1)}() without an "
                    "explicit std::memory_order argument (seq_cst by default "
                    "-- state the order you mean)"
                )
            if not has_adjacent_order_comment(lines, row):
                findings.append(
                    f"{rel}:{row + 1}: atomic .{m.group(1)}() without an "
                    "adjacent `// order:` justification comment"
                )


def lint_hot_path_header(path: Path, rel: str, findings: list[str]) -> None:
    for row, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        m = FORBIDDEN_INCLUDES.search(line)
        if m:
            findings.append(
                f"{rel}:{row + 1}: hot-path header includes <{m.group(1)}> "
                "(blocking primitives belong in src/engine/ or a .cpp)"
            )


def lint_obs_call_sites(path: Path, rel: str, findings: list[str]) -> None:
    in_obs = "src/obs/" in rel
    for row, raw in enumerate(path.read_text(encoding="utf-8").splitlines()):
        if raw.lstrip().startswith("//"):
            continue
        if not in_obs:
            m = OBS_DIRECT_RE.search(strip_strings(raw))
            if m:
                findings.append(
                    f"{rel}:{row + 1}: direct obs::{m.group(1)} construction "
                    "outside src/obs/ -- instruments are registry-owned; cache "
                    "the reference MetricsRegistry returns"
                )
        m = OBS_EMPTY_NAME_RE.search(raw)
        if m:
            findings.append(
                f"{rel}:{row + 1}: {m.group(1)}(\"\") registers an unnamed "
                "metric -- every instrument needs a Prometheus family name"
            )


def lint_engine_batching(path: Path, rel: str, findings: list[str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for row, raw in enumerate(lines):
        if raw.lstrip().startswith("//"):
            continue
        if not PER_RECORD_UPDATE_RE.search(strip_strings(raw)):
            continue
        waived = PER_RECORD_WAIVER_RE.search(raw) or (
            row > 0 and PER_RECORD_WAIVER_RE.search(lines[row - 1])
        )
        if not waived:
            findings.append(
                f"{rel}:{row + 1}: per-record update() in engine code -- feed "
                "whole batches through update_batch() (byte-identical by "
                "contract), or waive with a `// per-record:` comment"
            )


def lint_pragma_once(path: Path, rel: str, findings: list[str]) -> None:
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        if stripped != "#pragma once":
            findings.append(f"{rel}:1: header does not start with #pragma once")
        return


def registered_families(path: Path, families: set[str]) -> None:
    for raw in path.read_text(encoding="utf-8").splitlines():
        if raw.lstrip().startswith("//"):
            continue
        families.update(METRIC_LITERAL_RE.findall(raw))


def readme_column(
    readme: Path, header: str, name_re: re.Pattern[str], findings: list[str]
) -> set[str]:
    """Backticked names in the first column of the README table that starts
    with the `header` row."""
    names: set[str] = set()
    if not readme.is_file():
        findings.append("README.md: missing (the documented tables live there)")
        return names
    lines = readme.read_text(encoding="utf-8").splitlines()
    try:
        start = lines.index(header)
    except ValueError:
        findings.append(f"README.md: no table with the header '{header}'")
        return names
    for line in lines[start + 2:]:  # skip the header and its |---| rule
        if not line.startswith("|"):
            break
        names.update(name_re.findall(line.split("|")[1]))
    return names


def lint_metric_docs(
    registered: set[str], readme: Path, findings: list[str]
) -> None:
    documented = readme_column(readme, README_TABLE_HEADER, README_FAMILY_RE, findings)
    for name in sorted(registered - documented):
        findings.append(
            f"README.md: metric family `{name}` is registered in src/ but "
            "missing from the Observability table (write the full name)"
        )
    for name in sorted(documented - registered):
        findings.append(
            f"README.md: Observability table lists `{name}`, which nothing "
            "in src/ registers"
        )


def lint_trace_docs(root: Path, findings: list[str]) -> None:
    header = root / TRACE_HEADER
    if not header.is_file():
        findings.append(f"{TRACE_HEADER.as_posix()}: missing (TraceEvent lives there)")
        return
    emitted = set(TRACE_NAME_RE.findall(header.read_text(encoding="utf-8")))
    documented = readme_column(
        root / "README.md", README_EVENT_HEADER, README_EVENT_RE, findings
    )
    for name in sorted(emitted - documented):
        findings.append(
            f"README.md: trace event `{name}` is named by to_string(TraceEvent) "
            "but missing from the trace event table"
        )
    for name in sorted(documented - emitted):
        findings.append(
            f"README.md: trace event table lists `{name}`, which "
            "to_string(TraceEvent) does not name"
        )


def certificate_keys(source: Path, findings: list[str]) -> set[str]:
    """JSON keys written by certificate_json(): its body runs from the
    definition line to the first line that is a lone closing brace."""
    if not source.is_file():
        findings.append(f"{HEALTH_SOURCE.as_posix()}: missing (certificate_json lives there)")
        return set()
    lines = source.read_text(encoding="utf-8").splitlines()
    try:
        start = lines.index(CERT_JSON_DEF)
    except ValueError:
        findings.append(
            f"{HEALTH_SOURCE.as_posix()}: no certificate_json definition line "
            f"'{CERT_JSON_DEF}'"
        )
        return set()
    keys: set[str] = set()
    for line in lines[start + 1:]:
        if line == "}":
            break
        keys.update(CERT_APPEND_KEY_RE.findall(line))
        keys.update(CERT_RAW_KEY_RE.findall(line))
    return keys


def lint_health_docs(root: Path, findings: list[str]) -> None:
    written = certificate_keys(root / HEALTH_SOURCE, findings)
    documented = readme_column(
        root / "README.md", README_FIELD_HEADER, README_FIELD_RE, findings
    )
    for name in sorted(written - documented):
        findings.append(
            f"README.md: /health certificate key `{name}` is written by "
            "certificate_json() but missing from the certificate field table"
        )
    for name in sorted(documented - written):
        findings.append(
            f"README.md: certificate field table lists `{name}`, which "
            "certificate_json() does not write"
        )


def strip_comment(line: str) -> str:
    return strip_strings(line).split("//", 1)[0]


def declared_atomics(path: Path) -> set[str]:
    """`Class::member` for every std::atomic data member in `path`, the
    class being the innermost class/struct whose braces enclose it."""
    out: set[str] = set()
    stack: list[tuple[str, int]] = []  # (class, brace depth inside it)
    depth = 0
    pending = None  # the class whose body the next `{` opens
    for raw in path.read_text(encoding="utf-8").splitlines():
        code = strip_comment(raw)
        heads = list(CLASS_HEAD_RE.finditer(code))
        if heads:
            # The last head on the line (after any `template <class T>`);
            # one followed by `;` and no `{` is a forward declaration.
            m = heads[-1]
            rest = code[m.end():]
            if m.group(1) is None and ("{" in rest or ";" not in rest):
                pending = m.group(2)
        for ch in code:
            if ch == "{":
                depth += 1
                if pending is not None:
                    stack.append((pending, depth))
                    pending = None
            elif ch == "}":
                if stack and stack[-1][1] == depth:
                    stack.pop()
                depth -= 1
        for m in ATOMIC_MEMBER_RE.finditer(code):
            if stack:
                out.add(f"{stack[-1][0]}::{m.group(1)}")
    return out


def documented_atomics(readme: Path, findings: list[str]) -> set[str]:
    names: set[str] = set()
    if not readme.is_file():
        return names  # readme_column() already reported it
    lines = readme.read_text(encoding="utf-8").splitlines()
    try:
        start = lines.index(README_ATOMIC_HEADER)
    except ValueError:
        findings.append(f"README.md: no table with the header '{README_ATOMIC_HEADER}'")
        return names
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        owner = None
        for cls, member in README_ATOMIC_RE.findall(line.split("|")[1]):
            owner = cls or owner
            if owner is None:
                findings.append(
                    f"README.md: atomics table names `{member}` without a "
                    "class -- write `Class::member` first in its cell"
                )
                continue
            names.add(f"{owner}::{member}")
    return names


def lint_atomic_docs(root: Path, findings: list[str]) -> None:
    declared: set[str] = set()
    for d in ATOMIC_DIRS:
        for path in sorted((root / "src" / d).rglob("*")):
            if path.suffix in (".hpp", ".cpp") and path.is_file():
                declared |= declared_atomics(path)
    documented = documented_atomics(root / "README.md", findings)
    for name in sorted(declared - documented):
        findings.append(
            f"README.md: atomic `{name}` is declared in src/ but missing from "
            "the memory-order table"
        )
    for name in sorted(documented - declared):
        findings.append(
            f"README.md: memory-order table lists `{name}`, which no class "
            "under src/engine, src/util or src/vswitch declares as a std::atomic"
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, default=Path(__file__).parent.parent)
    args = ap.parse_args()
    src = args.root / "src"
    if not src.is_dir():
        print(f"lint_invariants: no src/ under {args.root}", file=sys.stderr)
        return 1

    findings: list[str] = []
    registered: set[str] = set()
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp") or not path.is_file():
            continue
        rel = path.relative_to(args.root).as_posix()
        registered_families(path, registered)
        lint_atomics(path, rel, findings)
        lint_obs_call_sites(path, rel, findings)
        if "src/engine/" in rel:
            lint_engine_batching(path, rel, findings)
        if path.suffix == ".hpp":
            lint_pragma_once(path, rel, findings)
            if path.parent.name in HOT_PATH_DIRS:
                lint_hot_path_header(path, rel, findings)

    baselines = args.root / "baselines"
    if baselines.is_dir():
        for path in sorted(baselines.rglob("*.hpp")):
            lint_pragma_once(path, path.relative_to(args.root).as_posix(), findings)

    # Telemetry call-site rules also cover the consumers of src/obs/.
    for extra in ("tests", "examples", "bench"):
        d = args.root / extra
        if not d.is_dir():
            continue
        for path in sorted(d.rglob("*")):
            if path.suffix not in (".hpp", ".cpp") or not path.is_file():
                continue
            rel = path.relative_to(args.root).as_posix()
            lint_obs_call_sites(path, rel, findings)

    lint_metric_docs(registered, args.root / "README.md", findings)
    lint_trace_docs(args.root, findings)
    lint_health_docs(args.root, findings)
    lint_atomic_docs(args.root, findings)

    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)")
        for f in findings:
            print(f"  {f}")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
