#!/usr/bin/env python3
"""The reference interpreter is a test oracle, not an engine.

Every run in lib/ and bin/ executes a prepared program
(Runtime.Precompile). The tree-walking Runtime.Interp stays as the
differential oracle the tests compare against and as the dynamic
verifier's replay engine. This check fails when Interp.create or
Interp.run_main appears in lib/ or bin/ outside those two places: such
a call is a second engine for work the prepared engine already does.

Usage: python3 ci/check_interp_oracle.py [repo-root]
Exit 0 when clean, 1 with one line per offending use otherwise.
"""

import os
import re
import sys

ROOT = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
ALLOWED = {
    os.path.join("lib", "runtime", "interp.ml"),
    os.path.join("lib", "verify", "dynamic.ml"),
}
USE = re.compile(r"\bInterp\.(create|run_main)\b")


def sources():
    for top in ("lib", "bin"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            rel_dir = os.path.relpath(d, ROOT)
            for f in sorted(files):
                rel = os.path.join(rel_dir, f)
                if f.endswith((".ml", ".mli")) and rel not in ALLOWED:
                    yield rel


def main():
    bad = []
    for rel in sources():
        with open(os.path.join(ROOT, rel), encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for m in USE.finditer(line):
                    bad.append("%s:%d: Interp.%s outside the oracle and the replay engine"
                               % (rel, lineno, m.group(1)))
    for b in bad:
        print(b)
    if bad:
        sys.exit(1)
    print("Interp.create/run_main: used only by the oracle and the replay engine")


if __name__ == "__main__":
    main()
