"""Record the reference results the checks compare against.

    python3 perfbench/golden.py FIRST_SEED LAST_SEED

For every seed in the range it stores the digest of each raytrace curve and
the error of each LOS-model fit, computed by the checkout's own mmwpl, in
``perfbench/golden.json``.  Record only from a commit whose results are
known to be right: later commits must reproduce the curves bit for bit and
fit no worse.
"""

from __future__ import annotations

import json
import sys

import env


def record(seed: int) -> dict:
    import checks
    import gen
    from mmwpl import fit_p_los, los_probability_curve

    inp = gen.generate(seed)
    return {
        "curves": {
            sc.name: checks.curve_digest(los_probability_curve(sc.db, sc.tx, *inp.sizes.grid))
            for sc in inp.scenes
        },
        "fit_mse": [fit_p_los(syn.curve)[1] for syn in inp.synthetic],
    }


def main(argv) -> int:
    env.use_checkout_sources()
    import checks
    import gen

    first, last = int(argv[0]), int(argv[1])
    golden = {"sizes": repr(gen.DEFAULT), "seeds": {}}
    for seed in range(first, last + 1):
        golden["seeds"][str(seed)] = record(seed)
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
