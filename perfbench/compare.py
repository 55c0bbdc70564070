"""Compare two result sets metric by metric.

A result set is a directory of per-run result files as ``run.py``
writes them (``<workload>/seed<n>-trace<t>.json``).  For every workload
and metric both sides' medians and quartiles are printed with the ratio
new/base, and a verdict:

* ``worse`` — the new median is worse than the base median by more than
  the metric's bound (end-to-end metrics only; per-layer metrics have
  no bound);
* ``better`` — the new side wins at least nine tenths of all base/new
  pairs, ties counting for neither, and the medians differ by more than
  the base side's own spread (the distance between its quartiles);
* ``within-bound`` — neither, and the base side's spread is within the
  bound, so a regression larger than the bound would have shown;
* ``unresolved`` — neither, and the spread is wider than the bound (or
  there is no bound), so the runs cannot tell.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import spec
from harness import summary

Key = Tuple[str, int, str]  # workload, trace, metric


def load(directory: Path) -> Dict[Key, List[float]]:
    values: Dict[Key, List[float]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*/seed*-trace*.json")):
        record = json.loads(path.read_text())
        for name, entry in record["metrics"].items():
            values[(record["workload"], record["trace"], name)].append(entry["value"])
    return values


def verdict(base: List[float], new: List[float], better: str,
            bound: Optional[float]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b, n = summary(base), summary(new)
    scale = abs(b["median"])
    if scale == 0.0:
        return "unresolved" if n["median"] != 0.0 else "within-bound"
    gain = sign * (n["median"] - b["median"]) / scale
    spread = (b["q3"] - b["q1"]) / scale
    pairs = [sign * (y - x) for x in base for y in new]
    wins = sum(1 for d in pairs if d > 0)
    if bound is not None and gain < -bound:
        return "worse"
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "better"
    if bound is not None and spread <= bound:
        return "within-bound"
    return "unresolved"


def main(base_dir: Path, new_dir: Path) -> int:
    base, new = load(base_dir), load(new_dir)
    if not base or not new:
        print(f"no per-run results under {base_dir if not base else new_dir}")
        return 2
    worse = 0
    print(f"{'workload':17s} {'metric':42s} {'unit':9s} {'base median [q1, q3] n':>34s} "
          f"{'new median [q1, q3] n':>34s} {'new/base':>9s}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, _trace, name = key
        b, n = summary(base[key]), summary(new[key])
        ratio = n["median"] / b["median"] if b["median"] else float("nan")
        result = verdict(base[key], new[key], spec.BETTER[name], spec.BOUNDS.get(name))
        worse += result == "worse"

        def cell(s):
            return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {s['n']}"

        print(f"{workload:17s} {name:42s} {spec.UNITS[name]:9s} {cell(b):>34s} "
              f"{cell(n):>34s} {ratio:9.4f}  {result}"
              + (f" (bound {spec.BOUNDS[name]})" if name in spec.BOUNDS else ""))
    return 1 if worse else 0
