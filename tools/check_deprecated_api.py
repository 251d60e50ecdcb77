#!/usr/bin/env python3
"""Lint: no positional stage APIs — declared OR called.

PR 5 replaced every positional ``(capacity, name)`` operator tail with
the unified ``stream::StageOptions`` struct, and PR 10 deleted the
``[[deprecated]]`` delegate overloads outright: StageOptions is now the
only spelling. This script enforces both halves without a configured
build tree, so it can run first (and locally) in seconds:

- **no declarations**: any ``[[deprecated`` attribute under ``src/`` is
  an error — the positional shims must not be reintroduced;
- **no call sites**: first-party code (src/, tests/, bench/, examples/)
  must not pass positional capacity tails to the stage APIs (a guard
  against resurrecting the overloads together with their callers).

CI still configures with ``-DTCMF_WERROR_DEPRECATED=ON``; with zero
``[[deprecated]]`` declarations left that flag is a no-op backstop.

What it flags, per call to a stage API name
(Flow operators, FusedChain::Emit, and the insitu/synopses/mlog stage
helpers):

- a *bare integer* (or ``kDefaultCapacity``-style constant) passed as
  the **last** top-level argument — the positional ``capacity`` tail
  (``.Map<Out>(fn, 256)``, ``Emit(512)``, ``SynopsesStage(f, c, 2,
  256)``);
- a bare integer immediately **followed by a string literal** — the
  positional ``(capacity, name)`` pair (``.Map<Out>(fn, 256, "x")``).

Bare integers in *non-capacity* positions stay legal: the parallelism
slot of ``KeyedProcessParallel``/``SynopsesStage`` (argument index 2)
is exempted outright — with flush/options defaulted it can land as the
final argument of a perfectly modern call. StageOptions call sites
spell capacity as ``{.capacity = 256}`` — inside braces, not a
top-level argument — and never match either.

Comments and the contents of string literals are stripped before
matching, so doc examples showing the old spelling don't trip it.

Usage:
    tools/check_deprecated_api.py [--root REPO_ROOT] [-v]

Exit status 1 when any offending call site is found.
"""

import argparse
import os
import re
import sys

# Directories holding first-party sources, relative to the repo root.
SCAN_DIRS = ["src", "tests", "bench", "examples"]
EXTENSIONS = {".h", ".hpp", ".cc", ".cpp"}

# Stage APIs that grew a StageOptions overload in PR 5. Every name is
# matched as `Name` or `Name<...>` immediately followed by `(`.
API_NAMES = [
    "FromVector",
    "FromGenerator",
    "FromBatchGenerator",
    "Map",
    "FlatMap",
    "Filter",
    "KeyedProcess",
    "KeyedProcessParallel",
    "KeyedTumblingWindow",
    "Emit",
    "CleaningStage",
    "AreaEventStage",
    "SynopsesStage",
    "LogSink",
]

CALL_RE = re.compile(
    r"\b(" + "|".join(API_NAMES) + r")\s*(<[^;(){}]*>)?\s*\(")

# APIs with a legitimate positional size_t that is NOT a capacity:
# name -> zero-based argument index to exempt (the parallelism slot).
PARALLELISM_ARG = {
    "KeyedProcessParallel": 2,
    "SynopsesStage": 2,
}

# A top-level argument that is a positional capacity: a bare integer
# literal or a kCamelCase constant (kDefaultCapacity and friends).
BARE_INT_RE = re.compile(r"^(?:\d+[uUlL]*|k[A-Z]\w*)$")
STRING_ARG_RE = re.compile(r'^"')

# The attribute itself: matched against comment-stripped source under
# src/ only (docs and tests may mention it in prose; first-party
# headers may not declare it).
DEPRECATED_ATTR_RE = re.compile(r"\[\[\s*deprecated")


def find_deprecated_declarations(text):
    """Line numbers of ``[[deprecated`` attributes (comments stripped)."""
    clean = strip_comments_and_strings(text)
    return [clean.count("\n", 0, m.start()) + 1
            for m in DEPRECATED_ATTR_RE.finditer(clean)]


def is_digit_separator(text, i):
    """True when the `'` at text[i] sits inside a numeric literal — a
    C++14 digit separator such as 10'000 or 0xFF'FF — rather than opening
    a char literal (which may carry a prefix, as in u8'a')."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "'."):
        j -= 1
    return j < i and text[j].isdigit()


def strip_comments_and_strings(text):
    """Remove comments; collapse string/char literals to `""`/`''`.

    Keeps the literal's quotes (so "is this arg a string literal?"
    still works) while dropping contents that could confuse the
    paren/brace scanner.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j  # keep the newline for line numbers
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            # Preserve newlines inside the comment for line numbers.
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "'" and is_digit_separator(text, i):
            out.append(c)
            i += 1
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                elif text[j] == quote:
                    j += 1
                    break
                else:
                    j += 1
            out.append(quote + quote)
            out.append("\n" * text.count("\n", i, j))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def split_call_args(text, open_paren):
    """Split the balanced argument list starting at `(` into top-level
    argument strings. Returns (args, end_index) or (None, open_paren)
    when the parens never balance (macro soup — skip it)."""
    depth = 0
    args = []
    current = []
    i = open_paren
    n = len(text)
    while i < n:
        c = text[i]
        if c in "([{":
            depth += 1
            if depth > 1:
                current.append(c)
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append("".join(current).strip())
                return args, i
            current.append(c)
        elif c == "," and depth == 1:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(c)
        i += 1
    return None, open_paren


def find_offences(path, text):
    clean = strip_comments_and_strings(text)
    offences = []
    for m in CALL_RE.finditer(clean):
        name = m.group(1)
        args, _ = split_call_args(clean, m.end() - 1)
        if args is None or not args or args == [""]:
            continue
        line = clean.count("\n", 0, m.start()) + 1
        for idx, arg in enumerate(args):
            if not BARE_INT_RE.match(arg):
                continue
            if PARALLELISM_ARG.get(name) == idx:
                continue  # parallelism, not capacity
            is_last = idx == len(args) - 1
            followed_by_string = (idx + 1 < len(args) and
                                  STRING_ARG_RE.match(args[idx + 1]))
            if is_last or followed_by_string:
                offences.append(
                    (line, name,
                     f"positional capacity argument '{arg}'"
                     + (" followed by a name string"
                        if followed_by_string else " as final argument")))
                break
    return offences


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root to scan")
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print every file scanned")
    args = parser.parse_args()

    offences = []
    scanned = 0
    for rel in SCAN_DIRS:
        base = os.path.join(args.root, rel)
        if not os.path.isdir(base):
            continue
        for dirpath, _, files in os.walk(base):
            for fname in sorted(files):
                if os.path.splitext(fname)[1] not in EXTENSIONS:
                    continue
                path = os.path.join(dirpath, fname)
                scanned += 1
                if args.verbose:
                    print(f"scan {os.path.relpath(path, args.root)}")
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                for line, name, why in find_offences(path, text):
                    offences.append(
                        f"{os.path.relpath(path, args.root)}:{line}: "
                        f"{name}(...): {why} — use the StageOptions "
                        f"overload ({{.name = ..., .capacity = ...}})")
                if rel == "src":
                    for line in find_deprecated_declarations(text):
                        offences.append(
                            f"{os.path.relpath(path, args.root)}:{line}: "
                            f"[[deprecated]] declaration — the positional "
                            f"shims were deleted in PR 10; StageOptions is "
                            f"the only spelling, do not reintroduce them")

    print(f"check_deprecated_api: scanned {scanned} files under "
          f"{', '.join(SCAN_DIRS)}")
    if offences:
        print("positional stage-API offences found:", file=sys.stderr)
        for off in offences:
            print(f"  - {off}", file=sys.stderr)
        print("(fix the spelling rather than the lint; StageOptions is "
              "the only stage-configuration surface)",
              file=sys.stderr)
        return 1
    print("check_deprecated_api OK — no positional stage-API uses, no "
          "[[deprecated]] declarations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
