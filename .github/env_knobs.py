#!/usr/bin/env python3
"""Environment knobs: the names that the .ml and .mli files under lib/
and bin/ pass to `getenv` or `getenv_opt` (Sys's or Unix's), read as
string literals in code; comments are skipped.  The check fails unless
the names are exactly NDSIM_WORKERS, the worker count, which is a
deployment setting: anything else that changes an answer belongs on
the command line.  A getenv whose name is not a string literal, and a
read of the whole environment (`Unix.environment`), fail too.  Run from
the repository root."""
import os
import re
import sys

ROOTS = ["lib", "bin"]
ALLOWED = {"NDSIM_WORKERS"}
# a comment opener or closer, a string, a quoted string or a char literal
LEXEME = re.compile(
    r"""\(\*|\*\)|"(?:[^"\\]|\\.)*"|\{([a-z_]*)\|.*?\|\1\}"""
    r"""|(?<![A-Za-z0-9_'])'(?:[^'\\\n]|\\(?:[\\'"ntbr ]|[0-9]{3}|x[0-9A-Fa-f]{2}|o[0-7]{3}))'""",
    re.S,
)
READ = re.compile(
    r"""(?<![A-Za-z0-9_'])(getenv(?:_opt)?|Unix\.environment)(?![A-Za-z0-9_'])"""
    r"""\s*("(?:[^"\\]|\\.)*")?"""
)


def blank(text):
    return re.sub(r"[^\n]", " ", text)


def code(text):
    """The text with its (nested) comments blanked out, line breaks and
    literals kept, and the spans of the literals."""
    out, literals, depth, last = [], [], 0, 0
    for m in LEXEME.finditer(text):
        tok = m.group(0)
        gap = text[last : m.start()]
        out.append(gap if depth == 0 else blank(gap))
        if tok == "(*":
            depth += 1
            out.append(blank(tok))
        elif tok == "*)":
            depth = max(0, depth - 1)
            out.append(blank(tok))
        elif depth == 0:
            out.append(tok)
            literals.append((m.start(), m.end()))
        else:
            out.append(blank(tok))
        last = m.end()
    rest = text[last:]
    out.append(rest if depth == 0 else blank(rest))
    return "".join(out), literals


def main():
    names, unreadable = {}, []
    for root in ROOTS:
        for d, _, fs in os.walk(root):
            if "_build" in d:
                continue
            for f in sorted(fs):
                if not f.endswith((".ml", ".mli")):
                    continue
                path = os.path.join(d, f)
                text, literals = code(open(path, encoding="utf-8").read())
                for m in READ.finditer(text):
                    if any(lo <= m.start() < hi for lo, hi in literals):
                        continue
                    where = "%s:%d" % (path, text.count("\n", 0, m.start()) + 1)
                    if m.group(2) is None:
                        unreadable.append(where)
                    else:
                        names.setdefault(m.group(2)[1:-1], []).append(where)
    for name in sorted(names):
        print("%s  %s" % (name, " ".join(names[name])))
    ok = True
    for where in unreadable:
        print("%s: reads the environment without a literal name" % where)
        ok = False
    if set(names) != ALLOWED:
        print(
            "lib/ and bin/ must read exactly %s; they read %s"
            % (sorted(ALLOWED), sorted(names))
        )
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
