#!/usr/bin/env python3
"""Tally how often the random model produces a face poset.

Replays the sampling experiment behind the package's statistical tests:
draw a batch of random simplicial posets and report the face-poset
fraction, optionally sweeping one of the probability parameters.

    python3 scripts/tally_experiment.py --n 6 --p1 0.5 --p2 0.5 --count 100 --seed 7
    python3 scripts/tally_experiment.py --n 6 --sweep 0.1 0.3 0.5 0.7 0.9 --count 200 --seed 7

Parameters the random model rejects (n above its cap, a probability outside
[0, 1], a count below 1) print ``error: ...`` and exit 2, as
``simposets random`` does.
"""

import argparse
import json
import math
import sys

from simposets import RandomModelParams, SizeLimitError, run_batch


def tally_line(batch) -> str:
    k, n = batch["face_poset_count"], batch["samples"]
    f = k / n
    se = math.sqrt(f * (1 - f) / n)
    p = batch["params"]
    return (
        f"n={p['n']} p1={p['p1']} p2={p['p2']} seed={p['seed']}: "
        f"faceposet {k}/{n} = {f:.3f} (se {se:.3f})"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--p1", type=float, default=0.5)
    ap.add_argument("--p2", type=float, default=0.5)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument(
        "--sweep",
        type=float,
        nargs="+",
        metavar="P",
        help="run once per value, using it for both p1 and p2",
    )
    ap.add_argument("--json", metavar="FILE", help="also dump all batches as JSON")
    args = ap.parse_args()

    if args.sweep:
        settings = [(p, p) for p in args.sweep]
    else:
        settings = [(args.p1, args.p2)]

    try:
        params = [RandomModelParams(n=args.n, p1=p1, p2=p2, seed=args.seed) for p1, p2 in settings]
        batches = [run_batch(p, args.count) for p in params]
    except (SizeLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    for batch in batches:
        print(tally_line(batch))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(batches, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
