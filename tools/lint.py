#!/usr/bin/env python3
"""Project lint: determinism rules over the match pipeline + clang-tidy driver.

The match pipeline promises bit-reproducible output (DESIGN.md §10): the
batch/stream equivalence tests and the paper-accuracy tables only mean
something if a run is a pure function of (input trace, seed, config). The
rules below reject the failure classes that have bitten or nearly bitten
this codebase at review time instead of debug time.

Most rules exist twice: as the regex fallback in this file and as an
AST-accurate clang-tidy check in tools/tidy/ (the EvmTidyModule plugin,
DESIGN.md §15). Where a plugin check supersedes a regex rule the finding is
marked `deprecated-by: <check>` — the regex stays as the no-clang fallback
(this container, contributors without clang) and the plugin is the
authoritative implementation wherever clang-tidy is available. `--self-test`
and the shared fixture corpus (tools/tidy/fixtures/) pin the two
implementations to each other.

  banned-random      rand()/srand()/std::random_device anywhere in src/
                     outside common/rng (the single seeded entropy source).
                     [deprecated-by: evm-banned-entropy]
  wall-clock         system_clock / time() / gettimeofday / localtime in the
                     deterministic subsystems (src/core, src/esense,
                     src/vsense, src/stream). steady_clock is fine: it is
                     used for latency metrics, never for match decisions.
                     [deprecated-by: evm-banned-entropy]
  unordered-iter     ranged-for over a std::unordered_{map,set} in the
                     deterministic subsystems. Hash-order iteration feeding
                     output order is the classic silent determinism bug;
                     iteration that is genuinely order-independent (pure
                     accumulation, sorted right after) is annotated at the
                     loop with `// det-ok: <reason>`.
                     [deprecated-by: evm-unordered-iter]
  unordered-in-migrated
                     any std::unordered_* in a file listed in MIGRATED_FILES.
                     Those hot paths were moved to common::FlatMap/FlatSet
                     (open addressing, DESIGN.md §12); reintroducing a node
                     hash table silently reverts the optimization, so this
                     rule is NOT det-ok suppressible. (No plugin equivalent:
                     a file list is exactly what regex is good at.)
  flatmap-iter       ranged-for over a common::FlatMap/FlatSet in the
                     deterministic subsystems. FlatMap iterators walk probe
                     order (insertion/hash dependent); deterministic
                     consumers must use ForEachSorted, which visits keys in
                     ascending order. Order-independent accumulation may be
                     annotated with `// det-ok: <reason>`.
                     [deprecated-by: evm-flatmap-iter]
  lock-order         a Mutex acquired while another is held must run down
                     the documented lock hierarchy (DESIGN.md §10,
                     tools/tidy/lock_hierarchy.txt): undocumented edges,
                     edges out of a leaf and order inversions are findings.
                     Suppress with `// lock-ok: <reason>`.
                     [deprecated-by: evm-lock-order]
  lock-blocking      a known-blocking call (IngestQueue::Push, Dfs I/O,
                     CondVar::Wait on anything but the innermost held lock)
                     under a live MutexLock. Suppress with `// lock-ok:`.
                     [deprecated-by: evm-lock-order]
  counter-dynamic    a metric name reaching the evm::obs registry that is
                     not a compile-time constant; dynamic names defeat the
                     static parity audit. Suppress with `// det-ok:`.
                     [deprecated-by: evm-counter-parity]
  counter-manifest   a metric name in an audited namespace (mr.*, match.*,
                     stream.*, stage.*, gallery.*) missing from
                     tools/tidy/counters.txt — or a manifest entry no code
                     references (stale vocabulary).
                     [deprecated-by: evm-counter-parity]
  counter-parity     a metric referenced from a path its manifest roles do
                     not cover, or declared for both the serial and
                     MapReduce match paths but referenced from only one —
                     the stats-drift bug the snapshot/delta design exists
                     to prevent. [deprecated-by: evm-counter-parity]

Suppression: a `det-ok:` comment (with a reason) on the flagged line or the
line directly above it; lock rules use `lock-ok:` the same way. Suppressions
are part of the invariant map — grep them to audit every intentionally
unordered loop and every intentionally off-hierarchy lock site.

Usage:
  tools/lint.py --root .                 # all fallback rules over src/
  tools/lint.py --root . --tidy -p build # + clang-tidy (needs compile db)
  tools/lint.py --root . --tidy -p build --plugin build/tools/tidy/libEvmTidyModule.so
  tools/lint.py --list-rules             # rule inventory + deprecation map
  tools/lint.py --root . --dump-lock-graph graph.json   # merged edge set
  tools/lint.py --self-test              # prove the rules catch violations
  tools/lint.py --root . --fixtures      # fallback over the shared corpus

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# Subsystems whose behaviour must be a pure function of (input, seed, config).
DETERMINISTIC_DIRS = ("src/core", "src/esense", "src/vsense", "src/stream")
# The single place allowed to own entropy.
RNG_ALLOWLIST = ("src/common/rng.hpp", "src/common/rng.cpp")

# Hot-path files migrated from std::unordered_* to common::FlatMap/FlatSet.
# std::unordered_* may not reappear in these (rule unordered-in-migrated).
MIGRATED_FILES = (
    "src/core/parallel_split.cpp",
    "src/core/set_splitting.cpp",
    "src/core/vid_filter.cpp",
    "src/dist/cluster.cpp",
    "src/dist/cluster.hpp",
    "src/dist/task_registry.cpp",
    "src/dist/task_registry.hpp",
    "src/esense/e_scenario.cpp",
    "src/esense/e_scenario.hpp",
    "src/mapreduce/dfs.cpp",
    "src/mapreduce/dfs.hpp",
    "src/stream/windowed_store.cpp",
    "src/stream/windowed_store.hpp",
    "src/vsense/gallery.cpp",
    "src/vsense/gallery.hpp",
    "src/vsense/v_scenario.cpp",
    "src/vsense/v_scenario.hpp",
)

SUPPRESS_TOKEN = "det-ok:"
LOCK_SUPPRESS_TOKEN = "lock-ok:"

# Role partition for the counter-parity audit (mirrors the plugin defaults).
SERIAL_FILES = ("src/core/match_stages.cpp",)
MAPREDUCE_FILES = ("src/core/matcher.cpp", "src/core/parallel_split.cpp")
STREAM_DIRS = ("src/stream",)
ENGINE_DIRS = ("src/mapreduce",)
AUDITED_PREFIXES = ("mr.", "match.", "stream.", "stage.", "gallery.")
# The registry implementation forwards parameters, not literals.
COUNTER_EXEMPT_DIRS = ("src/obs",)

COUNTER_MANIFEST = "tools/tidy/counters.txt"
LOCK_HIERARCHY = "tools/tidy/lock_hierarchy.txt"
FIXTURES_DIR = "tools/tidy/fixtures"

# rule name -> (one-line description, superseding evm-tidy check or None).
RULES = {
    "banned-random": ("entropy outside common/rng", "evm-banned-entropy"),
    "wall-clock": ("wall-clock reads in deterministic subsystems",
                   "evm-banned-entropy"),
    "unordered-iter": ("hash-order ranged-for in deterministic subsystems",
                       "evm-unordered-iter"),
    "unordered-in-migrated": ("std::unordered_* in a FlatMap-migrated file",
                              None),
    "flatmap-iter": ("probe-order ranged-for in deterministic subsystems",
                     "evm-flatmap-iter"),
    "lock-order": ("lock acquisition against the documented hierarchy",
                   "evm-lock-order"),
    "lock-blocking": ("known-blocking call under a live MutexLock",
                      "evm-lock-order"),
    "counter-dynamic": ("metric name not a compile-time constant",
                        "evm-counter-parity"),
    "counter-manifest": ("metric vocabulary vs tools/tidy/counters.txt",
                         "evm-counter-parity"),
    "counter-parity": ("metric roles vs serial/MapReduce/stream paths",
                       "evm-counter-parity"),
}

RANDOM_PATTERNS = [
    (re.compile(r"\brand\s*\("), "rand() is unseeded global state"),
    (re.compile(r"\bsrand\s*\("), "srand() mutates global RNG state"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is nondeterministic entropy"),
]

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "system_clock is a wall clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday reads the wall clock"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)?\s*\)"),
     "time() reads the wall clock"),
    (re.compile(r"\b(?:localtime|gmtime)(?:_r)?\s*\("),
     "calendar time depends on the host"),
]

UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_ANY = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
FLATMAP_DECL = re.compile(r"\bFlat(?:Map|Set)\s*<")
RANGED_FOR = re.compile(r"\bfor\s*\(([^;()]*?):([^;]*?)\)", re.DOTALL)
TRAILING_IDENT = re.compile(r"(\w+)\s*$")

LOCK_ACQ = re.compile(
    r"\b(?:common::)?((?:Reader|Writer)?MutexLock)\s+(\w+)\s*\(([^;()]*)\)")
LOCK_UNLOCK = re.compile(r"\b(\w+)\s*\.\s*Unlock\s*\(\s*\)")
CLASS_HEAD = re.compile(r"\b(?:class|struct)\s+(\w+)\b(?!\s*;)")
FUNC_QUAL = re.compile(r"\b(\w+(?:::\w+)*)::~?\w+\s*\(")
BLOCKING_CALL = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*"
    r"(Push|Read|Write|Append|Remove|Wait|WaitFor)\s*\(\s*(\w*)")
# receiver-name heuristic per blocking method (the plugin resolves the real
# receiver class; a fallback can only look at the spelled receiver).
BLOCKING_RECEIVER_HINTS = {
    "Push": ("queue",),
    "Read": ("dfs",),
    "Write": ("dfs",),
    "Append": ("dfs",),
    "Remove": ("dfs",),
    "Wait": ("cv", "cond"),
    "WaitFor": ("cv", "cond"),
}

CONST_NAME_DEF = re.compile(
    r"constexpr\s+char\s+(\w+)\s*\[\]\s*=\s*\"([^\"]*)\"", re.DOTALL)
COUNTER_MEMBER_USE = re.compile(
    r"(?:\.|->)\s*(counter|gauge|latency)\s*\(\s*([^();]*?)\s*\)")
COUNTER_HELPER_USE = re.compile(
    r"\bGet(Counter|Gauge|Latency)\s*\(\s*[^,()]*,\s*([^();]*?)\s*\)")
STRING_LITERAL = re.compile(r'^"([^"]*)"$')
IDENT_ONLY = re.compile(r"^\w+$")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        deprecated_by = RULES.get(self.rule, ("", None))[1]
        tag = f" (deprecated-by: {deprecated_by})" if deprecated_by else ""
        return f"{self.path}:{self.line}: [{self.rule}]{tag} {self.message}"


def strip_comments(text: str) -> str:
    """Blanks comments (preserving newlines) so patterns never match prose."""

    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2 if i + 1 < n else 1
        elif ch in "\"'":
            quote = ch
            out.append(ch)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("..")
                    i += 2
                    continue
                out.append(text[i] if text[i] == "\n" else ".")
                i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def strip_comments_keep_strings(text: str) -> str:
    """Like strip_comments but preserves string-literal contents (the counter
    rules need the actual metric names)."""

    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2 if i + 1 < n else 1
        elif ch in "\"'":
            quote = ch
            out.append(ch)
            i += 1
            while i < n and text[i] != quote:
                out.append(text[i])
                i += 2 if text[i] == "\\" else 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def suppressed(raw_lines: list[str], line: int,
               token: str = SUPPRESS_TOKEN) -> bool:
    """Suppression token on the flagged line or the line directly above."""

    for candidate in (line - 1, line - 2):
        if 0 <= candidate < len(raw_lines) and token in raw_lines[candidate]:
            return True
    return False


def source_files(root: Path, subdirs: tuple[str, ...]) -> list[Path]:
    files: list[Path] = []
    for sub in subdirs:
        base = root / sub
        if base.is_dir():
            files.extend(sorted(base.rglob("*.hpp")))
            files.extend(sorted(base.rglob("*.cpp")))
    return files


def collect_decl_names(code_by_file: dict[Path, str],
                       decl_pattern: re.Pattern[str]) -> set[str]:
    """Names declared (or bound as parameters) with a matching type."""

    names: set[str] = set()
    for code in code_by_file.values():
        for match in decl_pattern.finditer(code):
            # Walk the template argument list to its closing '>'.
            depth, i = 1, match.end()
            while i < len(code) and depth > 0:
                if code[i] == "<":
                    depth += 1
                elif code[i] == ">":
                    depth -= 1
                i += 1
            # Skip refs/pointers/whitespace, then take the declared name.
            rest = code[i:i + 120]
            m = re.match(r"\s*[&*]*\s*(\w+)", rest)
            if m and not m.group(1)[0].isdigit():
                names.add(m.group(1))
    return names


# --------------------------------------------------------------------------
# Lock-order analysis (fallback for evm-lock-order).
#
# A line/brace state machine per file: RAII MutexLock constructions open a
# held-lock scope that closes at the matching '}' (or an explicit Unlock()).
# Acquiring with locks already held records hierarchy edges. Labels are
# `<Owner>::<argument>` where Owner is the enclosing `Class::Method`
# qualifier (out-of-line definitions) or the enclosing class/struct stack
# (inline methods); the plugin resolves the real member (`Record::field`),
# so the hierarchy manifest carries both spellings as `|`-aliases.
# --------------------------------------------------------------------------

class LockHierarchy:
    def __init__(self) -> None:
        # canonical label -> (level, is_leaf); every alias maps to the entry.
        self.entries: dict[str, tuple[int, bool]] = {}
        self.loaded = False

    @staticmethod
    def load(path: Path) -> "LockHierarchy":
        hier = LockHierarchy()
        if not path.is_file():
            return hier
        hier.loaded = True
        level = 0
        for raw_line in path.read_text(encoding="utf-8").splitlines():
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("order:"):
                aliases = [a.strip() for a in line[len("order:"):].split("|")
                           if a.strip()]
                for alias in aliases:
                    hier.entries[alias] = (level, False)
                level += 1
            elif line.startswith("leaf:"):
                aliases = [a.strip() for a in line[len("leaf:"):].split("|")
                           if a.strip()]
                for alias in aliases:
                    hier.entries[alias] = (-1, True)
        return hier

    def check_edge(self, src: str, dst: str) -> str | None:
        """Returns a violation message for edge src->dst, or None."""

        if not self.loaded:
            return None
        from_entry = self.entries.get(src)
        to_entry = self.entries.get(dst)
        if from_entry is None or to_entry is None:
            missing = src if from_entry is None else dst
            return (f"lock '{missing}' is not in the documented hierarchy "
                    f"({LOCK_HIERARCHY}); document the edge "
                    f"'{src}' -> '{dst}' or restructure")
        from_level, from_leaf = from_entry
        to_level, to_leaf = to_entry
        if from_leaf:
            return (f"'{src}' is documented as a leaf lock but is held while "
                    f"acquiring '{dst}'; leaves must be innermost")
        if to_leaf:
            return None  # ordered lock -> leaf is always fine.
        if from_level >= to_level:
            return (f"acquisition order '{src}' -> '{dst}' inverts the "
                    f"documented hierarchy (level {from_level} -> "
                    f"{to_level})")
        return None


def _normalize_lock_arg(arg: str) -> str:
    arg = arg.strip().replace("this->", "").replace("->", ".")
    arg = re.sub(r"[\s*&]", "", arg)
    return arg


def analyze_lock_file(rel: Path, raw: str, hierarchy: LockHierarchy,
                      findings: list[Finding], edges: list[dict],
                      blocking: list[dict]) -> None:
    code = strip_comments(raw)
    raw_lines = raw.splitlines()
    lines = code.splitlines()

    depth = 0
    # (kind, name, depth_at_open); kind in {class, func, block}.
    owner_stack: list[tuple[str, str | None, int]] = []
    pending: tuple[str, str | None] | None = None
    held: list[dict] = []  # {var, label, depth, line}
    seen_edges: set[tuple[str, str]] = set()

    def owner() -> str:
        parts = [name for kind, name, _ in owner_stack
                 if kind in ("class", "func") and name]
        return "::".join(parts)

    for lineno, line in enumerate(lines, start=1):
        head = CLASS_HEAD.search(line)
        if head and "{" not in line[:head.start()]:
            pending = ("class", head.group(1))
        else:
            qual = FUNC_QUAL.search(line)
            if qual and not line.strip().endswith(";"):
                pending = ("func", qual.group(1))

        for match in LOCK_ACQ.finditer(line):
            var, arg = match.group(2), _normalize_lock_arg(match.group(3))
            if not arg:
                continue
            base = owner()
            label = f"{base}::{arg}" if base else arg
            if held:
                for outer in held:
                    key = (outer["label"], label)
                    if key in seen_edges:
                        continue
                    seen_edges.add(key)
                    edges.append({"from": outer["label"], "to": label,
                                  "file": str(rel), "line": lineno})
                    if suppressed(raw_lines, lineno, LOCK_SUPPRESS_TOKEN):
                        continue
                    if (label, outer["label"]) in seen_edges:
                        findings.append(Finding(
                            rel, lineno, "lock-order",
                            f"'{outer['label']}' -> '{label}' inverts an "
                            "acquisition order used elsewhere in this file; "
                            "pick one order or suppress with "
                            "'// lock-ok: <reason>'"))
                        continue
                    why = hierarchy.check_edge(outer["label"], label)
                    if why is not None:
                        findings.append(Finding(rel, lineno, "lock-order",
                                                why))
            held.append({"var": var, "label": label, "depth": depth + 1,
                         "line": lineno})

        for match in LOCK_UNLOCK.finditer(line):
            var = match.group(1)
            held = [h for h in held if h["var"] != var]

        if held:
            for match in BLOCKING_CALL.finditer(line):
                recv, method, arg0 = match.groups()
                hints = BLOCKING_RECEIVER_HINTS.get(method, ())
                if not any(h in recv.lower() for h in hints):
                    continue
                if method in ("Wait", "WaitFor"):
                    # Waiting on the innermost (sole) held lock is the
                    # blessed CondVar pattern; anything else blocks a
                    # foreign lock.
                    if len(held) == 1 and arg0 == held[0]["var"]:
                        continue
                site = {"call": f"{recv}.{method}", "held":
                        held[-1]["label"], "file": str(rel), "line": lineno}
                blocking.append(site)
                if suppressed(raw_lines, lineno, LOCK_SUPPRESS_TOKEN):
                    continue
                findings.append(Finding(
                    rel, lineno, "lock-blocking",
                    f"{recv}.{method}() can block while "
                    f"'{held[-1]['label']}' is held; blocking under a lock "
                    "is how the sealer/consumer deadlocks started — move "
                    "the call out of the critical section or suppress with "
                    "'// lock-ok: <reason>'"))

        # Brace accounting last: locks acquired on this line live until the
        # *closing* brace of their scope, which cannot be on the same line
        # for the RAII pattern this matches.
        for ch in line:
            if ch == "{":
                depth += 1
                owner_stack.append((pending[0] if pending else "block",
                                    pending[1] if pending else None, depth))
                pending = None
            elif ch == "}":
                while owner_stack and owner_stack[-1][2] >= depth:
                    owner_stack.pop()
                held = [h for h in held if h["depth"] <= depth - 1]
                depth = max(0, depth - 1)
            elif ch == ";" and pending is not None:
                pending = None


def check_locks(root: Path) -> tuple[list[Finding], list[dict], list[dict]]:
    hierarchy = LockHierarchy.load(root / LOCK_HIERARCHY)
    findings: list[Finding] = []
    edges: list[dict] = []
    blocking: list[dict] = []
    for path in source_files(root, ("src",)):
        raw = path.read_text(encoding="utf-8", errors="replace")
        if "MutexLock" not in raw:
            continue
        if str(path.relative_to(root)).startswith("src/common/mutex"):
            continue  # the wrappers themselves.
        analyze_lock_file(path.relative_to(root), raw, hierarchy, findings,
                          edges, blocking)
    return findings, edges, blocking


def find_lock_cycle(edges: list[dict]) -> list[str] | None:
    """DFS cycle detection over the merged edge set; returns one cycle as a
    label path, or None."""

    graph: dict[str, list[str]] = {}
    for edge in edges:
        graph.setdefault(edge["from"], []).append(edge["to"])
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    stack_path: list[str] = []

    def visit(node: str) -> list[str] | None:
        color[node] = GRAY
        stack_path.append(node)
        for nxt in sorted(graph.get(node, ())):
            state = color.get(nxt, WHITE)
            if state == GRAY:
                return stack_path[stack_path.index(nxt):] + [nxt]
            if state == WHITE:
                cycle = visit(nxt)
                if cycle is not None:
                    return cycle
        stack_path.pop()
        color[node] = BLACK
        return None

    for start in sorted(graph):
        if color.get(start, WHITE) == WHITE:
            cycle = visit(start)
            if cycle is not None:
                return cycle
    return None


# --------------------------------------------------------------------------
# Counter-parity analysis (fallback for evm-counter-parity).
# --------------------------------------------------------------------------

class CounterManifest:
    def __init__(self) -> None:
        self.roles: dict[str, set[str]] = {}
        self.lines: dict[str, int] = {}
        self.loaded = False

    @staticmethod
    def load(path: Path) -> "CounterManifest":
        manifest = CounterManifest()
        if not path.is_file():
            return manifest
        manifest.loaded = True
        for lineno, raw_line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            name = parts[0]
            roles = parts[1] if len(parts) > 1 else ""
            manifest.roles[name] = {r.strip() for r in roles.split(",")
                                    if r.strip()}
            manifest.lines[name] = lineno
        return manifest


def role_of(rel: str) -> str:
    if rel in SERIAL_FILES:
        return "serial"
    if rel in MAPREDUCE_FILES:
        return "mapreduce"
    if any(rel.startswith(d + "/") for d in STREAM_DIRS):
        return "stream"
    if any(rel.startswith(d + "/") for d in ENGINE_DIRS):
        return "engine"
    return "other"


def collect_metric_constants(root: Path) -> dict[str, str]:
    constants: dict[str, str] = {}
    for path in source_files(root, ("src",)):
        code = strip_comments_keep_strings(
            path.read_text(encoding="utf-8", errors="replace"))
        for match in CONST_NAME_DEF.finditer(code):
            constants[match.group(1)] = match.group(2)
    return constants


def check_counters(root: Path) -> tuple[list[Finding], list[dict]]:
    manifest = CounterManifest.load(root / COUNTER_MANIFEST)
    constants = collect_metric_constants(root)
    findings: list[Finding] = []
    uses: list[dict] = []

    for path in source_files(root, ("src",)):
        rel = str(path.relative_to(root))
        if any(rel.startswith(d + "/") for d in COUNTER_EXEMPT_DIRS):
            continue
        raw = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        code = strip_comments_keep_strings(raw)
        role = role_of(rel)

        sites = [(m.start(), m.group(2)) for m in
                 COUNTER_MEMBER_USE.finditer(code)]
        sites += [(m.start(), m.group(2)) for m in
                  COUNTER_HELPER_USE.finditer(code)]
        for offset, arg in sites:
            arg = arg.strip()
            lineno = line_of(code, offset)
            literal = STRING_LITERAL.match(arg)
            if literal:
                name = literal.group(1)
            elif IDENT_ONLY.match(arg) and arg in constants:
                name = constants[arg]
            elif not arg:
                continue  # declaration, e.g. `Counter counter(...)`.
            else:
                if not suppressed(raw_lines, lineno):
                    findings.append(Finding(
                        Path(rel), lineno, "counter-dynamic",
                        f"metric name '{arg}' is not a compile-time "
                        "constant; dynamic names defeat the static parity "
                        "audit — name the metric in a header constant and "
                        f"list it in {COUNTER_MANIFEST}"))
                continue
            if not name.startswith(AUDITED_PREFIXES):
                continue
            uses.append({"name": name, "role": role, "file": rel,
                         "line": lineno})
            if not manifest.loaded:
                continue
            if name not in manifest.roles:
                if not suppressed(raw_lines, lineno):
                    findings.append(Finding(
                        Path(rel), lineno, "counter-manifest",
                        f"metric '{name}' is not declared in "
                        f"{COUNTER_MANIFEST}; add it with the set of paths "
                        "(serial, mapreduce, stream, engine) expected to "
                        "touch it"))
                continue
            allowed = manifest.roles[name]
            if "any" in allowed or role in allowed:
                continue
            if not suppressed(raw_lines, lineno):
                findings.append(Finding(
                    Path(rel), lineno, "counter-parity",
                    f"metric '{name}' is declared for "
                    f"{{{', '.join(sorted(allowed))}}} but referenced from "
                    f"the {role} path; update the code or the manifest "
                    "roles"))

    # Whole-tree direction checks: the per-use pass cannot see absences.
    if manifest.loaded:
        used_roles: dict[str, set[str]] = {}
        for use in uses:
            used_roles.setdefault(use["name"], set()).add(use["role"])
        for name, allowed in sorted(manifest.roles.items()):
            seen = used_roles.get(name, set())
            if not seen:
                findings.append(Finding(
                    Path(COUNTER_MANIFEST), manifest.lines[name],
                    "counter-manifest",
                    f"manifest entry '{name}' is referenced by no audited "
                    "code; delete the stale entry or wire the counter up"))
                continue
            # A counter promised to both match paths moving in only one is
            # exactly the serial/MapReduce stats drift this audit exists
            # to catch.
            if {"serial", "mapreduce"} <= allowed:
                for missing in ("serial", "mapreduce") :
                    if missing not in seen:
                        findings.append(Finding(
                            Path(COUNTER_MANIFEST), manifest.lines[name],
                            "counter-parity",
                            f"metric '{name}' is declared for both match "
                            f"paths but the {missing} path never touches "
                            "it; the two modes' MatchStats have drifted"))
    return findings, uses


# --------------------------------------------------------------------------
# Original determinism rules.
# --------------------------------------------------------------------------

def check_tree(root: Path,
               migrated: tuple[str, ...] = MIGRATED_FILES) -> list[Finding]:
    findings: list[Finding] = []

    # Rule 1: banned randomness anywhere under src/ except common/rng.
    allow = {root / p for p in RNG_ALLOWLIST}
    for path in source_files(root, ("src",)):
        if path in allow:
            continue
        raw = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        code = strip_comments(raw)
        for pattern, why in RANDOM_PATTERNS:
            for match in pattern.finditer(code):
                line = line_of(code, match.start())
                if not suppressed(raw_lines, line):
                    findings.append(Finding(
                        path.relative_to(root), line, "banned-random",
                        f"{why}; route randomness through common/rng"))

    # Rule: migrated hot-path files must not reintroduce std::unordered_*.
    # Not det-ok suppressible — a node hash table here is a silent perf
    # regression even when the iteration order is harmless.
    for rel_str in migrated:
        path = root / rel_str
        if not path.is_file():
            findings.append(Finding(
                Path(rel_str), 1, "unordered-in-migrated",
                "file listed in MIGRATED_FILES does not exist; update the "
                "list in tools/lint.py"))
            continue
        code = strip_comments(
            path.read_text(encoding="utf-8", errors="replace"))
        for match in UNORDERED_ANY.finditer(code):
            findings.append(Finding(
                Path(rel_str), line_of(code, match.start()),
                "unordered-in-migrated",
                "std::unordered_* in a FlatMap-migrated hot path; use "
                "common::FlatMap/FlatSet (not suppressible)"))

    # Rules 2 and 3 apply to the deterministic subsystems only.
    det_files = source_files(root, DETERMINISTIC_DIRS)
    code_by_file = {
        p: strip_comments(p.read_text(encoding="utf-8", errors="replace"))
        for p in det_files
    }
    unordered_names = collect_decl_names(code_by_file, UNORDERED_DECL)
    flatmap_names = collect_decl_names(code_by_file, FLATMAP_DECL)

    for path, code in code_by_file.items():
        raw_lines = path.read_text(
            encoding="utf-8", errors="replace").splitlines()
        rel = path.relative_to(root)

        for pattern, why in WALL_CLOCK_PATTERNS:
            for match in pattern.finditer(code):
                line = line_of(code, match.start())
                if not suppressed(raw_lines, line):
                    findings.append(Finding(
                        rel, line, "wall-clock",
                        f"{why}; match stages must not read wall time"))

        for match in RANGED_FOR.finditer(code):
            ident = TRAILING_IDENT.search(match.group(2).strip())
            if ident is None:
                continue
            name = ident.group(1)
            line = line_of(code, match.start())
            if name in unordered_names and not suppressed(raw_lines, line):
                findings.append(Finding(
                    rel, line, "unordered-iter",
                    f"iterates unordered container '{name}' in hash "
                    "order; sort first, or annotate the loop with "
                    "'// det-ok: <why order cannot reach output>'"))
            if name in flatmap_names and not suppressed(raw_lines, line):
                findings.append(Finding(
                    rel, line, "flatmap-iter",
                    f"iterates FlatMap/FlatSet '{name}' in probe order; use "
                    "ForEachSorted for deterministic visitation, or annotate "
                    "the loop with '// det-ok: <why order cannot reach "
                    "output>'"))

    findings.sort(key=lambda f: (str(f.path), f.line))
    return findings


def check_all(root: Path,
              migrated: tuple[str, ...] = MIGRATED_FILES
              ) -> tuple[list[Finding], list[dict], list[dict]]:
    """Every fallback rule over `root`; returns (findings, lock edges,
    blocking sites) so callers can dump the merged lock graph."""

    findings = check_tree(root, migrated=migrated)
    lock_findings, edges, blocking = check_locks(root)
    findings.extend(lock_findings)
    cycle = find_lock_cycle(edges)
    if cycle is not None:
        findings.append(Finding(
            Path("src"), 1, "lock-order",
            "merged acquisition graph has a cycle: " + " -> ".join(cycle)))
    counter_findings, _ = check_counters(root)
    findings.extend(counter_findings)
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings, edges, blocking


# --------------------------------------------------------------------------
# Fixture agreement: the shared corpus under tools/tidy/fixtures/ pins this
# fallback to the clang-tidy plugin. expected.json lists, per fixture file,
# the fallback rules and the plugin checks that must fire; here we assert
# the fallback half (tools/tidy/run_fixtures.py asserts the plugin half
# against the same file).
# --------------------------------------------------------------------------

def check_fixtures(fixtures_dir: Path) -> int:
    expected_path = fixtures_dir / "expected.json"
    if not expected_path.is_file():
        print(f"lint: error: {expected_path} missing", file=sys.stderr)
        return 2
    expected = json.loads(expected_path.read_text(encoding="utf-8"))

    # The fixture corpus has its own file set; the migrated-file list
    # belongs to the real tree.
    findings, _, _ = check_all(fixtures_dir, migrated=())
    by_file: dict[str, set[str]] = {}
    for finding in findings:
        by_file.setdefault(str(finding.path), set()).add(finding.rule)

    failures: list[str] = []
    for rel, rules in sorted(expected.get("fallback", {}).items()):
        got = by_file.get(rel, set())
        for rule in rules:
            if rule not in got:
                failures.append(
                    f"{rel}: expected fallback rule '{rule}' did not fire")
    for rel in expected.get("clean", []):
        extra = by_file.get(rel, set())
        # The whole-tree manifest checks report against counters.txt, not
        # the clean file, so any rule attributed to a clean file is real.
        if extra:
            failures.append(
                f"{rel}: clean fixture raised {sorted(extra)}")

    for finding in findings:
        print(f"  fixture: {finding}")
    if failures:
        for failure in failures:
            print(f"fixture agreement FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"lint: fixture agreement passed "
          f"({len(expected.get('fallback', {}))} bad fixtures, "
          f"{len(expected.get('clean', []))} clean)")
    return 0


def run_tidy(root: Path, build_dir: str, required: bool,
             plugin: str | None = None,
             fragments_dir: str | None = None) -> int:
    tidy = shutil.which("clang-tidy")
    if tidy is None:
        message = "clang-tidy not found on PATH"
        if required:
            print(f"lint: error: {message}", file=sys.stderr)
            return 2
        print(f"lint: note: {message}; skipping tidy pass")
        return 0
    compile_db = Path(build_dir) / "compile_commands.json"
    if not compile_db.is_file():
        print(f"lint: error: {compile_db} missing "
              "(configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)",
              file=sys.stderr)
        return 2
    sources = [str(p) for p in source_files(root, ("src",))
               if p.suffix == ".cpp"]
    cmd = [tidy, "-p", build_dir, "--quiet", "--warnings-as-errors=*"]
    if plugin is not None:
        plugin_path = Path(plugin)
        if not plugin_path.is_file():
            message = f"plugin {plugin} not built"
            if required:
                print(f"lint: error: {message}", file=sys.stderr)
                return 2
            print(f"lint: note: {message}; skipping evm-* checks")
            plugin = None
        else:
            options = [
                {"key": "evm-lock-order.HierarchyFile",
                 "value": str(root / LOCK_HIERARCHY)},
                {"key": "evm-counter-parity.ManifestFile",
                 "value": str(root / COUNTER_MANIFEST)},
            ]
            if fragments_dir is not None:
                # Each TU drops lockgraph-*.json / counters-*.json here;
                # tools/tidy/postpass.py merges them for the cross-TU
                # cycle and coverage checks.
                frag = Path(fragments_dir).resolve()
                frag.mkdir(parents=True, exist_ok=True)
                options += [
                    {"key": "evm-lock-order.GraphDir", "value": str(frag)},
                    {"key": "evm-counter-parity.CountersDir",
                     "value": str(frag)},
                ]
            config = json.dumps({"Checks": "-*,evm-*",
                                 "CheckOptions": options})
            cmd += ["--load", str(plugin_path.resolve()),
                    f"--config={config}"]
    print(f"lint: clang-tidy over {len(sources)} files"
          + (" (with EvmTidyModule)" if plugin else "") + "...")
    result = subprocess.run(cmd + sources, cwd=root)
    return 1 if result.returncode != 0 else 0


def self_test() -> int:
    """Seeds violations into a scratch tree; every rule must fire, clean and
    suppressed code must not."""

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "src/core").mkdir(parents=True)
        (root / "src/stream").mkdir(parents=True)
        (root / "src/common").mkdir(parents=True)
        (root / "src/vsense/index").mkdir(parents=True)
        (root / "tools/tidy").mkdir(parents=True)

        (root / "src/core/bad_random.cpp").write_text(
            "#include <random>\n"
            "int Draw() {\n"
            "  std::random_device rd;  // nondeterministic seed\n"
            "  return rand() + static_cast<int>(rd());\n"
            "}\n")
        (root / "src/stream/bad_clock.cpp").write_text(
            "#include <chrono>\n"
            "long Stamp() {\n"
            "  return std::chrono::system_clock::now()"
            ".time_since_epoch().count();\n"
            "}\n")
        (root / "src/core/bad_iter.cpp").write_text(
            "#include <unordered_map>\n"
            "#include <vector>\n"
            "std::vector<int> Keys(const std::unordered_map<int, int>& table) {\n"
            "  std::vector<int> keys;\n"
            "  for (const auto& [key, value] : table) keys.push_back(key);\n"
            "  return keys;\n"
            "}\n")
        (root / "src/core/clean.cpp").write_text(
            "#include <chrono>\n"
            "#include <unordered_set>\n"
            "// rand() in a comment must not fire\n"
            "std::size_t Count(const std::unordered_set<int>& seen) {\n"
            "  std::size_t n = 0;\n"
            "  // det-ok: pure count, order cannot reach output\n"
            "  for (const int value : seen) n += value >= 0 ? 1 : 1;\n"
            "  return n + static_cast<std::size_t>(\n"
            "      std::chrono::steady_clock::now().time_since_epoch().count() & 0);\n"
            "}\n")
        (root / "src/common/rng.cpp").write_text(
            "#include <random>\n"
            "unsigned Seed() { std::random_device rd; return rd(); }\n")
        (root / "src/core/bad_flat_iter.cpp").write_text(
            "#include \"common/flat_map.hpp\"\n"
            "int Sum(const common::FlatMap<int, int>& ftable) {\n"
            "  int sum = 0;\n"
            "  for (const auto& [key, value] : ftable) sum += value;\n"
            "  return sum;\n"
            "}\n")
        (root / "src/core/clean_flat_iter.cpp").write_text(
            "#include \"common/flat_map.hpp\"\n"
            "int Count(const common::FlatSet<int>& seen) {\n"
            "  int n = 0;\n"
            "  // det-ok: pure count, order cannot reach output\n"
            "  for (const int value : seen) n += value >= 0 ? 1 : 1;\n"
            "  return n;\n"
            "}\n")
        # det-ok must NOT silence the migrated-file rule.
        (root / "src/core/bad_migrated.cpp").write_text(
            "#include <unordered_map>\n"
            "// det-ok: trying to sneak a hash table back in\n"
            "std::unordered_map<int, int> Table() { return {}; }\n")
        # Migrated files in nested subsystem directories (src/vsense/index/)
        # must be matched by their full relative path, not just basename.
        (root / "src/vsense/index/bad_nested_migrated.cpp").write_text(
            "#include <unordered_set>\n"
            "std::unordered_set<int> Postings() { return {}; }\n")
        (root / "src/vsense/index/clean_nested_migrated.cpp").write_text(
            "#include \"common/flat_map.hpp\"\n"
            "common::FlatMap<int, int> Postings() { return {}; }\n")

        # Lock rules: hierarchy says a_ before b_; the bad file holds b_ and
        # takes a_, and blocks on a queue under a lock. The clean file runs
        # down the hierarchy and waits on its own innermost lock.
        (root / "tools/tidy/lock_hierarchy.txt").write_text(
            "order: Widget::a_\n"
            "order: Widget::b_\n"
            "leaf: Widget::leaf_\n")
        (root / "src/core/bad_lock.cpp").write_text(
            "#include \"common/mutex.hpp\"\n"
            "void Widget::Backwards() {\n"
            "  common::MutexLock lock_b(b_);\n"
            "  {\n"
            "    common::MutexLock lock_a(a_);\n"
            "  }\n"
            "}\n"
            "void Widget::BlockUnderLock() {\n"
            "  common::MutexLock lock_a(a_);\n"
            "  queue_.Push(1);\n"
            "}\n")
        (root / "src/core/clean_lock.cpp").write_text(
            "#include \"common/mutex.hpp\"\n"
            "void Widget::Forward() {\n"
            "  common::MutexLock lock_a(a_);\n"
            "  {\n"
            "    common::MutexLock lock_leaf(leaf_);\n"
            "  }\n"
            "  cv_.Wait(lock_a);\n"
            "}\n"
            "void Widget::Suppressed() {\n"
            "  common::MutexLock lock_b(b_);\n"
            "  // lock-ok: self-test suppression\n"
            "  common::MutexLock lock_a(a_);\n"
            "}\n")

        # Counter rules: manifest declares roles + one stale entry; the bad
        # file (serial path) touches a mapreduce-only counter, a dynamic
        # name and an undeclared name.
        (root / "tools/tidy/counters.txt").write_text(
            "match.good serial,mapreduce\n"
            "match.mr_only mapreduce\n"
            "match.stale serial\n")
        (root / "src/core/match_stages.cpp").write_text(
            "#include \"obs/metrics.hpp\"\n"
            "inline constexpr char kGood[] = \"match.good\";\n"
            "void Count(evm::obs::MetricsRegistry& reg, "
            "const std::string& stage) {\n"
            "  reg.counter(kGood).Add();\n"
            "  reg.counter(\"match.mr_only\").Add();\n"
            "  reg.counter(\"match.undeclared\").Add();\n"
            "  reg.counter(\"match.\" + stage).Add();\n"
            "}\n")
        (root / "src/core/matcher.cpp").write_text(
            "#include \"obs/metrics.hpp\"\n"
            "void CountMr(evm::obs::MetricsRegistry& reg) {\n"
            "  reg.counter(\"match.good\").Add();\n"
            "  reg.counter(\"match.mr_only\").Add();\n"
            "}\n")

        findings = check_tree(
            root, migrated=("src/core/bad_migrated.cpp",
                            "src/core/missing_migrated.cpp",
                            "src/vsense/index/bad_nested_migrated.cpp",
                            "src/vsense/index/clean_nested_migrated.cpp"))
        lock_findings, edges, _ = check_locks(root)
        findings.extend(lock_findings)
        counter_findings, _ = check_counters(root)
        findings.extend(counter_findings)

        got = {(str(f.path), f.rule) for f in findings}
        expected = {
            ("src/core/bad_random.cpp", "banned-random"),
            ("src/stream/bad_clock.cpp", "wall-clock"),
            ("src/core/bad_iter.cpp", "unordered-iter"),
            ("src/core/bad_flat_iter.cpp", "flatmap-iter"),
            ("src/core/bad_migrated.cpp", "unordered-in-migrated"),
            ("src/core/missing_migrated.cpp", "unordered-in-migrated"),
            ("src/vsense/index/bad_nested_migrated.cpp",
             "unordered-in-migrated"),
            ("src/core/bad_lock.cpp", "lock-order"),
            ("src/core/bad_lock.cpp", "lock-blocking"),
            ("src/core/match_stages.cpp", "counter-parity"),
            ("src/core/match_stages.cpp", "counter-manifest"),
            ("src/core/match_stages.cpp", "counter-dynamic"),
            ("tools/tidy/counters.txt", "counter-manifest"),
        }
        failures = []
        for want in expected:
            if want not in got:
                failures.append(f"expected finding missing: {want}")
        for path, rule in got:
            if path in ("src/core/clean.cpp", "src/core/clean_flat_iter.cpp",
                        "src/common/rng.cpp", "src/core/clean_lock.cpp",
                        "src/vsense/index/clean_nested_migrated.cpp"):
                failures.append(f"false positive: {path} [{rule}]")
        # bad_random.cpp must fire for both rand() and random_device.
        random_hits = [f for f in findings
                       if str(f.path) == "src/core/bad_random.cpp"]
        if len(random_hits) < 2:
            failures.append(
                f"expected 2 banned-random hits, got {len(random_hits)}")
        # The lock analyzer must have recorded the inverted edge both ways
        # is wrong — exactly the Widget::b_ -> Widget::a_ edge appears.
        edge_pairs = {(e["from"], e["to"]) for e in edges}
        if ("Widget::b_", "Widget::a_") not in edge_pairs:
            failures.append(f"lock edge extraction broken: {edge_pairs}")
        # matcher.cpp's own uses are legal; the stale-entry finding must
        # point at the manifest, not at code.
        if any(str(f.path) == "src/core/matcher.cpp" for f in findings):
            failures.append("false positive in src/core/matcher.cpp")

        for f in findings:
            print(f"  seeded: {f}")
        if failures:
            for failure in failures:
                print(f"self-test FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"self-test passed: {len(findings)} seeded findings caught, "
              "clean/suppressed files quiet")
        return 0


def list_rules() -> int:
    width = max(len(name) for name in RULES)
    for name, (description, deprecated_by) in sorted(RULES.items()):
        marker = (f"  [deprecated-by: {deprecated_by}]"
                  if deprecated_by else "  [fallback only]")
        print(f"{name:<{width}}  {description}{marker}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/)")
    parser.add_argument("--tidy", action="store_true",
                        help="also run clang-tidy (needs a compile database)")
    parser.add_argument("-p", "--build-dir", default="build",
                        help="build dir with compile_commands.json")
    parser.add_argument("--plugin", default=None,
                        help="EvmTidyModule shared object to --load into "
                        "clang-tidy (adds the evm-* checks)")
    parser.add_argument("--fragments-dir", default=None, metavar="DIR",
                        help="with --tidy --plugin: direct the plugin's "
                        "per-TU lock-graph / counter fragments here for "
                        "tools/tidy/postpass.py")
    parser.add_argument("--require-tidy", action="store_true",
                        help="fail (not skip) when clang-tidy is unavailable")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the determinism rules catch seeded bugs")
    parser.add_argument("--fixtures", nargs="?", const=FIXTURES_DIR,
                        default=None, metavar="DIR",
                        help="run the fallback rules over the shared fixture "
                        f"corpus (default: {FIXTURES_DIR}) and assert "
                        "expected.json agreement")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule inventory and which evm-tidy "
                        "check supersedes each rule")
    parser.add_argument("--dump-lock-graph", default=None, metavar="PATH",
                        help="write the merged lock acquisition graph "
                        "(edges + blocking sites) as JSON")
    args = parser.parse_args()

    if args.list_rules:
        return list_rules()
    if args.self_test:
        return self_test()

    root = Path(args.root).resolve()
    if args.fixtures is not None:
        fixtures_dir = Path(args.fixtures)
        if not fixtures_dir.is_absolute():
            fixtures_dir = root / fixtures_dir
        return check_fixtures(fixtures_dir)

    if not (root / "src").is_dir():
        print(f"lint: error: {root} has no src/", file=sys.stderr)
        return 2

    findings, edges, blocking = check_all(root)

    if args.dump_lock_graph is not None:
        graph = {"edges": edges, "blocking": blocking}
        Path(args.dump_lock_graph).write_text(
            json.dumps(graph, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"lint: lock graph ({len(edges)} edges, {len(blocking)} "
              f"blocking sites) -> {args.dump_lock_graph}")

    for finding in findings:
        print(finding)
    if findings:
        print(f"lint: {len(findings)} determinism finding(s)", file=sys.stderr)
        return 1
    print("lint: determinism rules clean")

    if args.tidy:
        return run_tidy(root, args.build_dir, args.require_tidy, args.plugin,
                        args.fragments_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
