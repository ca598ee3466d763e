"""Print one SHA-256 digest per experiment output file.

Runs all seven experiments through `run_experiment` at fixed small
configs with seed 3 and prints `<sha256>  <file name>` per output file.
It bypasses the `locmor` command, whose BLAS pin would hold both OpenBLAS
copies at one thread, so a run under `OPENBLAS_NUM_THREADS=2` really
uses two threads and shows whether the outputs depend on the count.
The wall-time rows of example1-cputable.csv (keys ending in `_s`) are
left out of its digest.  Two commits that print the same lines write
byte-identical outputs.

    PYTHONPATH=src python tools/output_digests.py
"""

import hashlib
import tempfile

from locmor.experiments import ExperimentConfig, run_experiment

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
            cfg = ExperimentConfig.from_dict({
                "schema_version": 1, "experiment": experiment, "seed": 3,
                "out": tmp, "params": params})
            for path in run_experiment(cfg):
                digests.append((path.name, _digest(path)))
    return digests


if __name__ == "__main__":
    for name, digest in output_digests():
        print(f"{digest}  {name}")
