#!/usr/bin/env python3
"""Every fact about a builtin lives on its registry record.

Reads the builtin names registered in lib/runtime/builtins.ml and fails
when any of them appears as an OCaml string literal in lib/ or bin/
outside the registry itself and the bundled workload sources (which are
miniC programs that call builtins by name). A literal elsewhere is a
second table keyed by name, which the registry record replaces.

Usage: python3 ci/check_builtin_names.py [repo-root]
Exit 0 when clean, 1 with one line per offending literal otherwise.
"""

import os
import re
import sys

ROOT = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
REGISTRY = os.path.join("lib", "runtime", "builtins.ml")
EXEMPT_DIRS = (os.path.join("lib", "workloads"),)

# a registry entry: one of the builder helpers applied to the name
ENTRY = re.compile(r'^\s*(?:b|update|bitmap\s+\w+)\s+"([a-z_0-9]+)"', re.M)
LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')


def registry_names():
    with open(os.path.join(ROOT, REGISTRY), encoding="utf-8") as f:
        names = set(ENTRY.findall(f.read()))
    if len(names) < 40:
        sys.exit("found only %d builtin names in %s; has the registry syntax changed?"
                 % (len(names), REGISTRY))
    return names


def sources():
    for top in ("lib", "bin"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            rel_dir = os.path.relpath(d, ROOT)
            if rel_dir.startswith(EXEMPT_DIRS):
                continue
            for f in sorted(files):
                rel = os.path.join(rel_dir, f)
                if f.endswith((".ml", ".mli")) and rel != REGISTRY:
                    yield rel


def main():
    names = registry_names()
    bad = []
    for rel in sources():
        with open(os.path.join(ROOT, rel), encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for lit in LITERAL.findall(line):
                    if lit in names:
                        bad.append("%s:%d: builtin name \"%s\" outside the registry"
                                   % (rel, lineno, lit))
    for b in bad:
        print(b)
    if bad:
        sys.exit(1)
    print("builtin names: %d registered, none spelled outside the registry" % len(names))


if __name__ == "__main__":
    main()
