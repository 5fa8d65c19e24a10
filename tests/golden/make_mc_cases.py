"""Write mc_cases.json: the exact bits of Monte-Carlo estimates on fixed draws.

    python tests/golden/make_mc_cases.py

Each row is one estimator call on one of nine Monte-Carlo oracle cases:
the eight of the benchmark's Monte-Carlo workload, with their specs
copied here (absorption in d = 2, 3, 4, Gauss-Bonnet areas in d = 2,
ideal polytopes with n = 6, 10, 12 vertices, the inner/outer simplex
volume in d = 3), and the ideal tetrahedron, n = 4, the smallest hull
the ideal-polytope estimator takes.  Each case runs with a small sample
count on 1 and on 3 streams; absorption in d = 2 and the n = 4 and n = 6
ideal polytopes also run 65,537 samples on one stream, across a
sample-block boundary.  A row records
``float.hex`` of the mean and the standard error, the sample count and
the resample count: a kernel change that keeps every draw and every
rounding keeps every row.  Regenerate only for a change meant to alter
the draws or the arithmetic.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypvol import mcsim
from hypvol.expect import BetaSpec

OUT = Path(__file__).with_name("mc_cases.json")

SPECS = {
    "absorption-d2": {"d": 2, "betas": [3.146, -1.0, -0.967, 0.574, 3.358], "exponent": -0.113},
    "absorption-d3": {"d": 3, "betas": [-0.166, 2.134, -1.0, -0.582, 2.011, 0.044], "exponent": 0.926},
    "absorption-d4": {"d": 4, "betas": [2.827, 2.585, -0.505, 2.139, 2.223, -0.805], "exponent": -0.778},
    "gauss-bonnet-d2": {"d": 2, "betas": [1.408, 0.975, -0.699, -1.0, 1.215, -0.4]},
    "lobachevsky-n4": {"d": 3, "betas": [-1.0] * 4},
    "lobachevsky-n6": {"d": 3, "betas": [-1.0] * 6},
    "lobachevsky-n10": {"d": 3, "betas": [-1.0] * 10},
    "lobachevsky-n12": {"d": 3, "betas": [-1.0] * 12},
    "simplex-mc-d3": {"d": 3, "betas": [1.486, 1.018, -0.185, -0.397]},
}
SAMPLES = {
    "absorption-d2": 3000,
    "absorption-d3": 1500,
    "absorption-d4": 6000,
    "gauss-bonnet-d2": 300,
    "lobachevsky-n4": 3000,
    "lobachevsky-n6": 1500,
    "lobachevsky-n10": 300,
    "lobachevsky-n12": 40,
    "simplex-mc-d3": 300,
}
BLOCK_BOUNDARY = ("absorption-d2", "lobachevsky-n4", "lobachevsky-n6")

CASES = [
    *({"case": case, "samples": SAMPLES[case], "streams": streams, "seed": 20 + streams} for case in SPECS for streams in (1, 3)),
    *({"case": case, "samples": 65537, "streams": 1, "seed": 29} for case in BLOCK_BOUNDARY),
]


def estimate(row: dict) -> dict:
    """The estimator's (mean, stderr, n, resampled) for one case, floats as float.hex."""
    spec = SPECS[row["case"]]
    cfg = mcsim.SampleConfig(seed=row["seed"], n_samples=row["samples"], streams=row["streams"])
    kind = row["case"].rsplit("-", 1)[0]
    if kind == "absorption":
        est = mcsim.mc_absorption(BetaSpec(spec["d"], spec["betas"]), spec["exponent"], cfg)
    elif kind == "gauss-bonnet":
        est = mcsim.mc_hyp_area_d2(BetaSpec(spec["d"], spec["betas"]), cfg)
    elif kind == "lobachevsky":
        est = mcsim.mc_ideal_polytope3_volume(len(spec["betas"]), cfg)
    else:
        est = mcsim.mc_simplex_hyp_volume(BetaSpec(spec["d"], spec["betas"]), cfg)
    return {"mean": est.mean.hex(), "stderr": est.stderr.hex(), "n": est.n, "resampled": est.resampled}


def main():
    rows = []
    for case in CASES:
        rows.append({**case, **estimate(case)})
        print(rows[-1], flush=True)
    OUT.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
