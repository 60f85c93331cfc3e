#!/usr/bin/env python3
"""Exports nothing calls: every `val` in lib/**/*.mli whose name occurs as
a whole word in no .ml under lib/, bin/, test/, spine/, bench/ or
examples/ other than its own module's, and every optional parameter
`?label:` of such a `val` that no such .ml passes (as `~label` or
`?label`), listed as `name?label`.  Each one must be listed in the
allowlist with its reason (one `path name — reason` a line); the check
fails on any other.  Run from the repository root."""
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


def word(w):
    return re.compile(r"(?<![A-Za-z0-9_'])" + re.escape(w) + r"(?![A-Za-z0-9_'])")


def sources(ext):
    for root in ROOTS:
        for d, _, fs in os.walk(root):
            if "_build" in d:
                continue
            for f in sorted(fs):
                if f.endswith(ext):
                    yield os.path.join(d, f)


def main():
    texts = {p: open(p, encoding="utf-8").read() for p in sources(".ml")}
    unused = []
    for mli in sorted(p for p in sources(".mli") if p.startswith("lib" + os.sep)):
        own = mli[:-1]
        others = [t for p, t in texts.items() if p != own]
        text = open(mli, encoding="utf-8").read()
        for name in sorted(set(VAL.findall(text))):
            if not any(word(name).search(t) for t in others):
                unused.append(f"{mli} {name}")
        for name, ty in VAL_TYPE.findall(text):
            for label in sorted(set(OPTIONAL.findall(ty))):
                passed = re.compile(r"[~?]" + re.escape(label) + r"(?![A-Za-z0-9_'])")
                if not any(passed.search(t) for t in others):
                    unused.append(f"{mli} {name}?{label}")
    allowed = set()
    for line in open(ALLOW, encoding="utf-8"):
        line = line.strip()
        if line and not line.startswith("#"):
            allowed.add(" ".join(line.split()[:2]))
    for u in unused:
        print(("allowed  " if u in allowed else "UNLISTED ") + u)
    missing = [u for u in unused if u not in allowed]
    stale = sorted(allowed - set(unused))
    for s in stale:
        print("stale allowlist line (now called, or gone): " + s)
    if missing or stale:
        print(f"{len(missing)} unlisted, {len(stale)} stale: unexport the name or list it with its reason")
        sys.exit(1)
    print(f"{len(unused)} exports with no outside caller, all in the allowlist")


if __name__ == "__main__":
    main()
