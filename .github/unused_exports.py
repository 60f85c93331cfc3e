#!/usr/bin/env python3
"""Exports nothing calls: every `val` in lib/**/*.mli whose name occurs as
a whole word in no .ml under lib/, bin/, test/, spine/, bench/ or
examples/ other than its own module's, or only in .ml files under test/
(listed with "tests only"), and every optional parameter `?label:` of
such a `val` that no such .ml passes (as `~label` or `?label`), listed
as `name?label`.  Comments and string and char literals are not
searched, and neither is a directory other than the module's own that
has a module of the same file name (spine/stats.ml for
lib/util/stats.mli): its words name its own module's functions.  Each
one must be listed in the allowlist with its reason (one
`path name — reason` a line); the check fails on any other.  Run from
the repository root."""
import os
import re
import sys

ROOTS = ["lib", "bin", "test", "spine", "bench", "examples"]
ALLOW = os.path.join(os.path.dirname(os.path.abspath(__file__)), "unused_exports.allow")
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
# a val's type runs to the next item, doc comment or blank line
VAL_TYPE = re.compile(
    r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:(.*?)"
    r"(?=^\s*$|^\s*(?:val|type|module|exception|external|end|include|\(\*)\b|\Z)",
    re.M | re.S,
)
OPTIONAL = re.compile(r"\?([a-z_][A-Za-z0-9_']*)\s*:")
# a comment opener or closer, a string, a quoted string or a char literal
LEXEME = re.compile(
    r"""\(\*|\*\)|"(?:[^"\\]|\\.)*"|\{([a-z_]*)\|.*?\|\1\}"""
    r"""|(?<![A-Za-z0-9_'])'(?:[^'\\\n]|\\(?:[\\'"ntbr ]|[0-9]{3}|x[0-9A-Fa-f]{2}|o[0-7]{3}))'""",
    re.S,
)


def word(w):
    return re.compile(r"(?<![A-Za-z0-9_'])" + re.escape(w) + r"(?![A-Za-z0-9_'])")


def code(text):
    """The text with its (nested) comments and its string and char
    literals blanked out."""
    out, depth, last = [], 0, 0
    for m in LEXEME.finditer(text):
        if depth == 0:
            out.append(text[last : m.start()])
        tok = m.group(0)
        if tok == "(*":
            depth += 1
        elif tok == "*)":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(" ")
        last = m.end()
    if depth == 0:
        out.append(text[last:])
    return "".join(out)


def sources(ext):
    for root in ROOTS:
        for d, _, fs in os.walk(root):
            if "_build" in d:
                continue
            for f in sorted(fs):
                if f.endswith(ext):
                    yield os.path.join(d, f)


def main():
    texts = {p: code(open(p, encoding="utf-8").read()) for p in sources(".ml")}
    unused = []
    tests_only = set()
    for mli in sorted(p for p in sources(".mli") if p.startswith("lib" + os.sep)):
        own = mli[:-1]
        base, home = os.path.basename(own), os.path.dirname(own)
        others = {
            p: t
            for p, t in texts.items()
            if p != own
            and (os.path.dirname(p) == home
                 or not os.path.exists(os.path.join(os.path.dirname(p), base)))
        }
        text = open(mli, encoding="utf-8").read()
        for name in sorted(set(VAL.findall(text))):
            callers = [p for p, t in others.items() if word(name).search(t)]
            if all(p.startswith("test" + os.sep) for p in callers):
                unused.append(f"{mli} {name}")
                if callers:
                    tests_only.add(f"{mli} {name}")
        for name, ty in VAL_TYPE.findall(text):
            for label in sorted(set(OPTIONAL.findall(ty))):
                passed = re.compile(r"[~?]" + re.escape(label) + r"(?![A-Za-z0-9_'])")
                if not any(passed.search(t) for t in others.values()):
                    unused.append(f"{mli} {name}?{label}")
    allowed = set()
    for line in open(ALLOW, encoding="utf-8"):
        line = line.strip()
        if line and not line.startswith("#"):
            allowed.add(" ".join(line.split()[:2]))
    for u in unused:
        note = " (tests only)" if u in tests_only else ""
        print(("allowed  " if u in allowed else "UNLISTED ") + u + note)
    missing = [u for u in unused if u not in allowed]
    stale = sorted(allowed - set(unused))
    for s in stale:
        print("stale allowlist line (now called, or gone): " + s)
    if missing or stale:
        print(f"{len(missing)} unlisted, {len(stale)} stale: unexport the name or list it with its reason")
        sys.exit(1)
    print(f"{len(unused)} exports with no outside caller but tests, all in the allowlist")


if __name__ == "__main__":
    main()
