"""Record the reference stdout hashes in references.json.

    PYTHONPATH=src python3 perfbench/record_references.py

Runs every operation that has a reference (each value its truncation can
take) through ascount.cli.main and stores the SHA-256 of its stdout.
Before storing, the outputs are cross-checked once against paths that do
not go through the CLI or the Euler product:

  - global series: coefficients up to a small degree against the
    brute-force enumerate_global tally;
  - local series: every coefficient against local_direct_series, which
    sums the Euler factors term by term instead of using the rational form;
  - truncations of one context must agree on their common coefficients;
  - every output must come out the same on a second run.

Run it only where the recorded outputs are known to be right: the
benchmark then requires them byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
from fractions import Fraction
from pathlib import Path

import workloads
from ascount import cli
from ascount.counting import enumerate_global
from ascount.dirichlet import local_direct_series
from ascount.fields import make_context

# largest degree at which enumerate_global is cheap enough to cross-check
ORACLE_DEGREE = {(2, 1, 2): 6, (2, 1, 1): 10, (3, 1, 2): 6, (2, 1, 3): 5,
                 (2, 2, 2): 4}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def _context(argv):
    return tuple(int(argv[argv.index(flag) + 1]) for flag in ("--p", "--n", "--r"))


def _coefficients(argv, text) -> list:
    if "--format" in argv:
        return [Fraction(c) for c in json.loads(text)["coefficients"]]
    return [Fraction(c) for c in text.splitlines()[0].split(",")]


def main() -> int:
    outputs, series = {}, {}
    for op in workloads.reference_ops():
        argv = op["argv"]
        text = _stdout(argv)
        if _stdout(argv) != text:
            raise SystemExit(f"{op['id']}: output differs between two runs")
        outputs[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
        if argv[0] == "series":
            series.setdefault((argv[1], _context(argv)), []).append(
                _coefficients(argv, text))
        print(f"recorded {op['id']}", flush=True)

    for (mode, pnr), runs in sorted(series.items()):
        shortest = min(len(c) for c in runs)
        if any(c[:shortest] != runs[0][:shortest] for c in runs):
            raise SystemExit(f"{mode} {pnr}: truncations disagree")
        ctx = make_context(*pnr)
        longest = max(runs, key=len)
        if mode == "global":
            d_max = ORACLE_DEGREE[pnr]
            brute = [0] * (d_max + 1)
            for divisor, count in enumerate_global(ctx, d_max).items():
                brute[divisor.degree()] += count
            if longest[:d_max + 1] != brute:
                raise SystemExit(f"global {pnr}: series {longest[:d_max + 1]} "
                                 f"!= enumeration {brute}")
            print(f"global {pnr}: degrees <= {d_max} match enumerate_global")
        else:
            direct = list(local_direct_series(ctx, len(longest) - 1).coefficients())
            if longest != direct:
                raise SystemExit(f"local {pnr}: differs from local_direct_series")
            print(f"local {pnr}: {len(longest)} coefficients match "
                  "local_direct_series")

    path = Path(__file__).with_name("references.json")
    path.write_text(json.dumps({"python": platform.python_version(),
                                "outputs": outputs}, indent=1, sort_keys=True)
                    + "\n")
    print(f"wrote {len(outputs)} references to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
