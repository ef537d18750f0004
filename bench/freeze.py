"""Regenerate the frozen inputs of the f1-apply workload.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        python3 bench/freeze.py

Fits musec.cfg at scale 0.02 with its own seed (73001), cold and at
workers 1, exactly as ``reproduce("T1", scale=0.02)`` does, and writes
into bench/frozen/:

- bundle.json: the fitted test, as ``save_bundle`` writes it;
- n2_table.csv: the 86 x 86 reassessment table;
- manifest.json: the sha256 of both files, this command, the
  validation rows of the bundle on the T1 grid at ten times desk size
  (b_val 2,000,000, the config's own validation stream), and the row
  means of both F1 heatmap panels at 5,000 reps (12.5 times the
  benchmark's 400, from a stream no benchmark run draws from).
  f1-apply compares its own rows, drawn at smaller sizes, with these;
  at 6.7 and 12.5 times the size the reference adds little to the
  combined standard error.

Later benchmark runs of every commit read these bytes, so they compare
the read path on identical inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

from workloads import F1_PANELS, F1_REFERENCE_STREAM, FROZEN, f1_heatmaps, heatmap_reference, sha256_file

SCALE = 0.02
REFERENCE_B_VAL = 2_000_000
REFERENCE_REPS = 5_000
COMMAND = (
    "PYTHONPATH=src OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 OMP_NUM_THREADS=1 "
    "python3 bench/freeze.py"
)


def main() -> None:
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(name) != "1":
            raise SystemExit(f"set {name}=1: BLAS thread count changes the fitted bits")
    import numpy as np

    from deeptest.harness import fit_test, load_config, packaged_config, scaled_config, validate
    from deeptest.pipeline import save_bundle
    from deeptest.streams import RandomStream

    (desk,) = load_config(packaged_config("musec.cfg"))
    test, n2_table = fit_test(scaled_config(desk, SCALE), workers=1)
    FROZEN.mkdir(exist_ok=True)
    (FROZEN / "bundle.json").write_text(save_bundle(test), encoding="utf-8")
    np.savetxt(FROZEN / "n2_table.csv", n2_table, fmt="%d", delimiter=",")
    reference = replace(desk, sizes=replace(desk.sizes, b_val=REFERENCE_B_VAL))
    table = validate(test, reference, workers=1, n2_table=n2_table)
    stream = RandomStream(seed=desk.seed).child(F1_REFERENCE_STREAM)
    grids = f1_heatmaps(test, desk.design, n2_table, REFERENCE_REPS, stream)
    manifest = {
        "command": COMMAND,
        "source": {"config": "musec.cfg", "scale": SCALE, "seed": desk.seed, "workers": 1},
        "sha256": {name: sha256_file(FROZEN / name) for name in ("bundle.json", "n2_table.csv")},
        "validation_b_val": REFERENCE_B_VAL,
        "validation": [
            [r.point, r.method, r.metric, r.value, r.mc_se, r.reps] for r in table.rows
        ],
        "heatmaps": {
            panel: heatmap_reference(grid, REFERENCE_REPS) for (panel, _, _), grid in zip(F1_PANELS, grids)
        },
    }
    (FROZEN / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {', '.join(sorted(p.name for p in Path(FROZEN).iterdir()))}")


if __name__ == "__main__":
    main()
