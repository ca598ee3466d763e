"""Print one SHA-256 digest per experiment output file.

Runs all seven experiments through the `locmor run` entry point, so the
BLAS pin applies, at fixed small configs with seed 3, and prints
`<sha256>  <file name>` per output file.  The wall-time rows of
example1-cputable.csv (keys ending in `_s`) are left out of its digest.
Two commits that print the same lines write byte-identical outputs.

    PYTHONPATH=src python tools/output_digests.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from locmor.cli import main

CONFIGS = {
    "example1-fixed": {"h_inv": 20, "n_values": [0, 2, 4, 6], "runs": 10},
    "example1-adaptive": {"h_inv": 20, "tols": [1e-2, 1e-4], "n_t": 10,
                          "runs": 10},
    "example1-hdep": {"h_invs": [10, 20], "n_values": [2, 4], "runs": 10},
    "example1-effectivity": {"h_inv": 20, "n_t_values": [5, 10],
                             "runs": 50},
    "example1-cputable": {"h_inv": 20, "width": 2.0},
    "example2-helmholtz": {"h_inv": 20, "kappas": [0.0, 10.0],
                           "sigma_count": 10},
    "example4-gfem": {"n_cells": 20, "tols": [1e-2, 1e-4], "runs": 2},
}


def _digest(path):
    data = path.read_bytes()
    if path.name == "example1-cputable.csv":
        lines = data.decode("utf-8").splitlines(keepends=True)
        data = "".join(line for line in lines
                       if not line.split(",")[1].endswith("_s")).encode()
    return hashlib.sha256(data).hexdigest()


def output_digests():
    """(file name, digest) of every output file, in run order."""
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for experiment, params in CONFIGS.items():
            config = Path(tmp) / f"{experiment}.json"
            config.write_text(json.dumps({
                "schema_version": 1, "experiment": experiment,
                "seed": 3, "params": params}), encoding="utf-8")
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                status = main(["run", "--config", str(config),
                               "--out", str(Path(tmp) / "out")])
            if status != 0:
                raise SystemExit(f"{experiment} exited with {status}")
            for line in printed.getvalue().splitlines():
                path = Path(line)
                digests.append((path.name, _digest(path)))
    return digests


if __name__ == "__main__":
    for name, digest in output_digests():
        print(f"{digest}  {name}")
