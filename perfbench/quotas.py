"""How often the unconstrained generators draw each cost class.

Usage (from the root of a checkout):

    python3 perfbench/quotas.py [--draws N] [--seed S]

Draws N ``fillings`` and N ``closed_forms`` inputs without quotas and prints,
per cost class, the count and share of the kept draws, the share of draws
left out for being too large, the share of deep ``fillings`` ops, and the
per-block quotas these counts give.  ``FILLINGS_COUNTS`` and
``CLOSED_COUNTS`` in ``perfbench/workloads.py`` are the counts this script
prints with its defaults; the last line is the same figures as JSON.
"""

import argparse
import json
import random
from typing import Dict, List

import run

run.import_library()

import workloads as W  # noqa: E402


def fillings_census(rng: random.Random, draws: int) -> Dict[str, object]:
    counts = [0] * len(W.FILLINGS_BOUNDS)
    deep = [0] * len(W.FILLINGS_BOUNDS)
    over_cap = over_cap_deep = 0
    for _ in range(draws):
        cls, op = W.draw_fillings(rng)
        is_deep = op.M >= 64
        if cls < 0:
            over_cap += 1
            over_cap_deep += is_deep
        else:
            counts[cls] += 1
            deep[cls] += is_deep
    kept = sum(counts)
    quotas = W.block_quotas(counts, W.FILLINGS_BLOCK)
    return {
        "draws": draws,
        "counts": counts,
        "shares": [c / kept for c in counts],
        "left_out_share": over_cap / draws,
        "left_out_deep_share": over_cap_deep / max(1, over_cap),
        "deep_share_of_draws": (sum(deep) + over_cap_deep) / draws,
        "deep_share_of_kept": sum(deep) / kept,
        "deep_share_of_blocks": sum(q * d / c for q, d, c in zip(quotas, deep, counts) if c) / W.FILLINGS_BLOCK,
        "block": W.FILLINGS_BLOCK,
        "quotas": list(quotas),
    }


def closed_census(rng: random.Random, draws: int) -> Dict[str, object]:
    counts: List[int] = [0] * W.CLOSED_CLASSES
    invalid = too_large = 0
    for _ in range(draws):
        cls, op = W.draw_checkerboard(rng)
        if op is None:
            invalid += 1
        elif cls < 0:
            too_large += 1
        else:
            counts[cls] += 1
    kept = sum(counts)
    return {
        "draws": draws,
        "invalid_shapes": invalid,
        "counts": counts,
        "shares": [c / kept for c in counts],
        "left_out_share_of_valid": too_large / (kept + too_large),
        "block": W.CLOSED_BLOCK,
        "quotas": list(W.block_quotas(counts, W.CLOSED_BLOCK)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=20_000)
    parser.add_argument("--seed", default="quotas")
    args = parser.parse_args()
    out = {
        "fillings": fillings_census(random.Random(f"fillings:{args.seed}"), args.draws),
        "closed_forms": closed_census(random.Random(f"closed_forms:{args.seed}"), args.draws),
    }
    for name, census in out.items():
        print(f"{name}: {census['draws']} draws, block of {census['block']}")
        for c, (n, share, q) in enumerate(zip(census["counts"], census["shares"], census["quotas"])):
            print(f"  class {c:2d}  {n:6d} draws  share {share:.4f}  quota {q:2d} ({q / census['block']:.3f})")
        for key, value in census.items():
            if isinstance(value, float):
                print(f"  {key} = {value:.4f}")
    print(f"FILLINGS_COUNTS = {tuple(out['fillings']['counts'])}")
    print(f"CLOSED_COUNTS = {tuple(out['closed_forms']['counts'])}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
