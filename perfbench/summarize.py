"""Summarise benchmark result files: medians, quartile spreads, tracing overhead.

    python3 perfbench/summarize.py [perfbench/out/result-*.json ...]

For each workload it prints, over the untraced runs, the median of every
end-to-end metric and the spread (Q3 - Q1) / median that the bounds in
BENCHMARK.json are set against, and the same for the unscaled wall time of
an operation; over the traced runs, the median of every per-layer metric;
and, for seeds run both ways, the tracing overhead as the median of traced
minus untraced op_s.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(paths) -> None:
    paths = paths or sorted((Path(__file__).parent / "out").glob("result-*.json"))
    runs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        bad = [r["seed"] for r in mine if not r["correct"] or r["failed"]]
        print(f"{workload}: {len(plain)} untraced, {len(traced)} traced runs; "
              f"seeds with a failed check or operation: {bad or 'none'}")
        for name in (plain[0]["end_to_end"] if plain else ()):
            values = [r["end_to_end"][name]["value"] for r in plain]
            print(f"  {name:<12} median {statistics.median(values):10.4f} "
                  f"{plain[0]['end_to_end'][name]['unit']:<3} spread {_spread(values):.3f} "
                  f"(min {min(values):.4f}, max {max(values):.4f})")
        if plain:
            values = [r["wall"]["op_s"] for r in plain]
            print(f"  {'op_s wall':<12} median {statistics.median(values):10.4f} s   "
                  f"spread {_spread(values):.3f} (unscaled, for comparison)")
        for name in (traced[0]["per_layer"] if traced else ()):
            values = [r["per_layer"][name]["value"] for r in traced]
            if any(values):
                print(f"  {name:<26} median {statistics.median(values):14.6g} "
                      f"{traced[0]['per_layer'][name]['unit']}")
        by_seed = {r["seed"]: r for r in plain}
        pairs = [(r["end_to_end"]["op_s"]["value"], by_seed[r["seed"]]["end_to_end"]["op_s"]["value"])
                 for r in traced if r["seed"] in by_seed]
        if pairs:
            diffs = [t - u for t, u in pairs]
            print(f"  tracing overhead on op_s: median {statistics.median(diffs):+.4f} s "
                  f"({statistics.median(d / u for d, (_, u) in zip(diffs, pairs)):+.1%}) "
                  f"over {len(pairs)} seeds")


if __name__ == "__main__":
    main(sys.argv[1:])
