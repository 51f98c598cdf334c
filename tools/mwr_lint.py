#!/usr/bin/env python3
"""mwr-lint: determinism and lock-discipline linter for the MWR tree.

A libclang-free token pass over C++ sources.  Comments and string
literals are masked out (line numbers preserved) before rules run, so
banned identifiers may be *discussed* freely in prose.

Rule domains
------------
Bit-identity domains (src/core, src/apr, src/costmodel, src/datasets)
must produce byte-identical results for a fixed seed regardless of
thread count or host, so anything that injects ambient entropy is
banned there:

  nondeterministic-seed   std::random_device, rand()/srand()
  wall-clock              std::chrono::{system,steady,high_resolution}_clock,
                          time(...) — clocks must never feed seeds/weights
  thread-id               std::this_thread::get_id()
  pointer-hash            std::hash<T*>, reinterpret_cast<[u]intptr_t>
                          (address-space layout leaking into hashes)
  unordered-iteration     range-for / .begin() over a std::unordered_*
                          variable declared in the same file — iteration
                          order is load-factor and libstdc++ dependent

Everywhere under src/ (minus each rule's own whitelist):

  naked-mutex             std::mutex / lock_guard / unique_lock /
                          scoped_lock / condition_variable — use the
                          annotated util::Mutex / util::MutexLock /
                          util::CondVar wrappers (src/util/sync.hpp) so
                          Clang thread-safety analysis sees every lock
  raw-ipc                 naked OS IPC primitives (mmap, shm_open, futex,
                          socket/bind/connect, fork/waitpid, ...) outside
                          src/parallel/transport/ — every process boundary
                          must go through the Transport abstraction so the
                          wire format, abort propagation, and congestion
                          accounting stay in one place
  raw-simd                direct SIMD intrinsics (immintrin.h, _mm/_mm256/
                          _mm512 calls, __m128/256/512 types, target
                          attributes) outside src/util/simd/ — every
                          vector loop must live behind the weight-kernel
                          dispatch seam so the scalar/AVX2 bit-identity
                          contract stays auditable in one place

Whitelist entries ending in "/" exempt a whole directory subtree; other
entries exempt exactly one file.

Suppressions
------------
    // mwr-lint: allow(<rule>) reason=<non-empty text>

placed on the offending line or on the line directly above it.  A
suppression without a reason, or naming an unknown rule, is itself an
error.  Used suppressions are counted and reported in the summary so
reviewers can watch the number.

Known limitation: unordered-iteration tracks only variables whose
declaration spells std::unordered_* in the same file; a type alias
evades it.  Keep unordered containers keyed-only in bit-identity code.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

BIT_IDENTITY_DOMAINS = ("src/core", "src/apr", "src/costmodel", "src/datasets")
SOURCE_SUFFIXES = {".hpp", ".h", ".cpp", ".cc", ".cxx", ".hh"}

SUPPRESS_RE = re.compile(
    r"//\s*mwr-lint:\s*allow\(([a-z-]+)\)(?:\s+reason=(\S.*))?"
)


class Rule:
    def __init__(self, name, message, patterns, bit_identity_only,
                 whitelist=()):
        self.name = name
        self.message = message
        self.patterns = [re.compile(p) for p in patterns]
        self.bit_identity_only = bit_identity_only
        # Paths exempt from this rule: "dir/" prefixes or exact files.
        self.whitelist = tuple(whitelist)

    def whitelists(self, rel):
        return any(
            rel.startswith(entry) if entry.endswith("/") else rel == entry
            for entry in self.whitelist
        )


RULES = [
    Rule(
        "nondeterministic-seed",
        "ambient entropy source in a bit-identity domain; seed from "
        "util::RngStream / the run config instead",
        [r"std\s*::\s*random_device", r"\bsrand\s*\(", r"\brand\s*\("],
        bit_identity_only=True,
    ),
    Rule(
        "wall-clock",
        "wall/steady clock read in a bit-identity domain; clocks must not "
        "feed seeds, weights, or serialized output",
        [
            r"std\s*::\s*chrono\s*::\s*system_clock",
            r"std\s*::\s*chrono\s*::\s*steady_clock",
            r"std\s*::\s*chrono\s*::\s*high_resolution_clock",
            r"\btime\s*\(",
            r"\bclock\s*\(\s*\)",
            r"\bgettimeofday\s*\(",
        ],
        bit_identity_only=True,
    ),
    Rule(
        "thread-id",
        "thread identity in a bit-identity domain; pass an explicit rank "
        "instead of std::this_thread::get_id()",
        [r"std\s*::\s*this_thread\s*::\s*get_id"],
        bit_identity_only=True,
    ),
    Rule(
        "pointer-hash",
        "pointer value flowing into a hash/integer in a bit-identity "
        "domain; addresses differ across runs (ASLR) — hash stable ids",
        [
            r"std\s*::\s*hash\s*<[^>]*\*",
            r"reinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t",
        ],
        bit_identity_only=True,
    ),
    Rule(
        "naked-mutex",
        "raw std synchronization primitive; use util::Mutex / "
        "util::MutexLock / util::CondVar (src/util/sync.hpp) so Clang "
        "thread-safety analysis sees the lock",
        [
            r"std\s*::\s*(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b",
            r"std\s*::\s*lock_guard\b",
            r"std\s*::\s*unique_lock\b",
            r"std\s*::\s*scoped_lock\b",
            r"std\s*::\s*condition_variable(?:_any)?\b",
        ],
        bit_identity_only=False,
        # The annotated wrappers are the one place allowed to touch std
        # primitives.
        whitelist=("src/util/sync.hpp",),
    ),
    Rule(
        "raw-ipc",
        "naked OS IPC/process primitive outside the transport layer; route "
        "process boundaries through parallel::transport (FrameStream, "
        "Endpoint, run_process_world) so wire format, abort propagation, "
        "and congestion accounting stay centralized",
        [
            r"\bmmap\s*\(",
            r"\bmunmap\s*\(",
            r"\bshm_open\s*\(",
            r"\bshm_unlink\s*\(",
            r"\bmemfd_create\s*\(",
            r"\bftruncate\s*\(",
            r"\bsocket\s*\(",
            r"\bsocketpair\s*\(",
            r"\bbind\s*\(",
            r"\blisten\s*\(",
            r"\baccept\s*\(",
            r"\bconnect\s*\(",
            r"\bsendmsg\s*\(",
            r"\brecvmsg\s*\(",
            # fd read/write only when explicitly global-qualified; a bare
            # read(/write( would drown in method-call false positives.
            r"::\s*read\s*\(",
            r"::\s*write\s*\(",
            r"\bsendto\s*\(",
            r"\brecvfrom\s*\(",
            r"\bSYS_futex\b",
            r"\bfutex\s*\(",
            r"\bv?fork\s*\(",
            r"\bwaitpid\s*\(",
            r"\bkill\s*\(",
            r"\b_exit\s*\(",
        ],
        bit_identity_only=False,
        # The transport layer itself (FrameStream — every socket the
        # repository opens, the control socket included — Endpoint, and
        # the fork-based run_process_world) plus the checkpoint codec's
        # durable-write path (tmp + ::write + fsync + rename — durability
        # needs raw fds; iostreams cannot fsync).  The rest of src/serve
        # must stay IPC-free.
        whitelist=(
            "src/parallel/transport/",
            "src/serve/checkpoint.cpp",
        ),
    ),
    Rule(
        "raw-simd",
        "direct SIMD intrinsics outside the kernel layer; route vector "
        "loops through util::simd (src/util/simd/weight_kernels.hpp) so "
        "the scalar/AVX2 bit-identity contract stays auditable in one "
        "place",
        [
            r"[<\"]\s*(?:x|e|w|z|i)mmintrin\.h\s*[>\"]",
            r"[<\"]\s*immintrin\.h\s*[>\"]",
            r"\b_mm(?:256|512)?_[a-z0-9_]+\s*\(",
            r"\b__m(?:128|256|512)[id]?\b",
            r"__attribute__\s*\(\s*\(\s*target\b",
            r"\[\[\s*gnu\s*::\s*target\b",
        ],
        bit_identity_only=False,
        # The dispatch seam itself: the one directory allowed to spell
        # intrinsics.
        whitelist=("src/util/simd/",),
    ),
]
RULE_NAMES = {rule.name for rule in RULES} | {"unordered-iteration"}

UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
)
UNORDERED_ITER_MESSAGE = (
    "iteration over an unordered container in a bit-identity domain; "
    "iteration order is implementation-defined — keep the container "
    "keyed-only or switch to std::map/std::vector"
)


def mask_comments_and_strings(text):
    """Replaces comment/string contents with spaces, preserving newlines."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE, BLOCK, STR, CHR, RAW = range(6)
    state = NORMAL
    raw_close = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK
                out.append("  ")
                i += 2
            elif c == '"':
                # R"delim( ... )delim"
                m = re.match(r'R"([^()\\ \t\n]{0,16})\(', text[i - 1 : i + 18])
                if i > 0 and text[i - 1] == "R" and m:
                    raw_close = ")" + m.group(1) + '"'
                    state = RAW
                    out.append('"')
                    i += 1 + len(m.group(1)) + 1
                    out.append(" " * (len(m.group(1)) + 1))
                else:
                    state = STR
                    out.append('"')
                    i += 1
            elif c == "'":
                state = CHR
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == LINE:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            elif c == "\\" and nxt == "\n":  # line-continued comment
                out.append(" \n")
                i += 1
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in (STR, CHR):
            quote = '"' if state == STR else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = NORMAL
                out.append(quote)
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # RAW
            if text.startswith(raw_close, i):
                state = NORMAL
                out.append(" " * (len(raw_close) - 1) + '"')
                i += len(raw_close)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def find_unordered_names(masked):
    """Names of variables declared with a std::unordered_* type."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(masked):
        depth, j = 1, m.end()
        while j < len(masked) and depth:
            if masked[j] == "<":
                depth += 1
            elif masked[j] == ">":
                depth -= 1
            j += 1
        if depth:
            continue
        tail = masked[j : j + 160]
        decl = re.match(r"\s*(?:&|\*)?\s*([A-Za-z_]\w*)", tail)
        if decl and decl.group(1) not in ("const",):
            names.add(decl.group(1))
    return names


def collect_suppressions(raw_lines, rel, findings):
    """Maps line number -> set of allowed rules; validates the comments."""
    allowed = {}
    for lineno, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2)
        if rule not in RULE_NAMES:
            findings.append(
                (rel, lineno, "bad-suppression",
                 f"suppression names unknown rule '{rule}'")
            )
            continue
        if not reason or not reason.strip():
            findings.append(
                (rel, lineno, "bad-suppression",
                 f"suppression of '{rule}' has no reason= justification")
            )
            continue
        # Applies to its own line and, for standalone comments, the next.
        for covered in (lineno, lineno + 1):
            allowed.setdefault(covered, set()).add(rule)
    return allowed


def lint_file(path, rel, in_bit_identity):
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    findings = []
    allowed = collect_suppressions(raw_lines, rel, findings)
    masked = mask_comments_and_strings(raw)
    masked_lines = masked.splitlines()

    raw_findings = []
    for rule in RULES:
        if rule.bit_identity_only and not in_bit_identity:
            continue
        if rule.whitelists(rel):
            continue
        for lineno, line in enumerate(masked_lines, start=1):
            for pat in rule.patterns:
                if pat.search(line):
                    raw_findings.append((lineno, rule.name, rule.message))
                    break

    if in_bit_identity:
        names = find_unordered_names(masked)
        if names:
            alt = "|".join(re.escape(n) for n in sorted(names))
            iter_pats = [
                re.compile(r"for\s*\([^;)]*:\s*(?:" + alt + r")\b"),
                re.compile(r"\b(?:" + alt + r")\s*\.\s*c?r?begin\s*\("),
            ]
            for lineno, line in enumerate(masked_lines, start=1):
                for pat in iter_pats:
                    if pat.search(line):
                        raw_findings.append(
                            (lineno, "unordered-iteration",
                             UNORDERED_ITER_MESSAGE)
                        )
                        break

    used_suppressions = 0
    for lineno, rule_name, message in sorted(set(raw_findings)):
        if rule_name in allowed.get(lineno, ()):
            used_suppressions += 1
            continue
        findings.append((rel, lineno, rule_name, message))
    return findings, used_suppressions


def iter_sources(root, scan_paths):
    for scan in scan_paths:
        base = root / scan
        if base.is_file():
            yield base
            continue
        if not base.is_dir():
            raise FileNotFoundError(f"scan path does not exist: {base}")
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mwr_lint", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="tree root that src/-relative domains resolve against "
        "(default: the repository checkout containing this script)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="paths (relative to --root) to scan; default: src",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULE_NAMES):
            print(name)
        return 0

    root = args.root.resolve()
    started = time.monotonic()
    all_findings = []
    total_suppressions = 0
    files_scanned = 0
    try:
        sources = list(iter_sources(root, args.paths or ["src"]))
    except FileNotFoundError as err:
        print(f"mwr-lint: error: {err}", file=sys.stderr)
        return 2

    for path in sources:
        rel = path.relative_to(root).as_posix()
        in_bit_identity = any(
            rel == d or rel.startswith(d + "/") for d in BIT_IDENTITY_DOMAINS
        )
        findings, used = lint_file(path, rel, in_bit_identity)
        all_findings.extend(findings)
        total_suppressions += used
        files_scanned += 1

    for rel, lineno, rule, message in all_findings:
        print(f"{rel}:{lineno}: error: [{rule}] {message}")
    elapsed = time.monotonic() - started
    print(
        f"mwr-lint: {len(all_findings)} finding(s), "
        f"{total_suppressions} suppression(s) in {files_scanned} file(s) "
        f"({elapsed:.2f}s)"
    )
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main())
