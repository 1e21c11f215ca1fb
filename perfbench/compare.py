"""Compare two benchmark records of one workload.

    python3 perfbench/compare.py BASE.json NEW.json

The records are the files ``run.py`` writes to ``.perfbench-out/results/``
(or the committed ones in ``perfbench/baseline/``).  Records whose
environment facts differ are refused with exit code 2.  Otherwise each
end-to-end metric is printed with both medians and quartiles and judged
against its bound from ``BENCHMARK.json``; exit code 1 means a metric got
worse by more than its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def env_mismatch(base: dict, new: dict) -> list[str]:
    a, b = base["environment"], new["environment"]
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def verdict(base: dict, new: dict, bound: float) -> str:
    """Judge one metric (lower is better) by its medians and the base's spread."""
    b, n = base["median"], new["median"]
    if n > b * (1.0 + bound):
        return "WORSE beyond bound"
    if (base["q3"] - base["q1"]) / b > bound:
        return "unresolved (base spread exceeds bound)"
    return "within bound"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    if base["workload"] != new["workload"]:
        print(f"refused: workloads differ ({base['workload']} vs {new['workload']})", file=sys.stderr)
        return 2
    diffs = env_mismatch(base, new)
    if diffs:
        print("refused: environment facts differ: " + "; ".join(diffs), file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    worse = False
    print(f"workload {base['workload']}: base seed {base['seed']}, new seed {new['seed']}")
    for name, bound in bounds.items():
        b, n = base["summary"][name], new["summary"][name]
        v = verdict(b, n, bound)
        worse |= v.startswith("WORSE")
        print(f"  {name:12s} base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] n={b['n']}  "
              f"new {n['median']:.6g} [{n['q1']:.6g}, {n['q3']:.6g}] n={n['n']}  "
              f"change {n['median'] / b['median'] - 1:+.1%}  bound {bound:.0%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
