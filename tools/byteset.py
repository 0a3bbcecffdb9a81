"""Write the byte set that must not change between commits, and list its digests.

    PYTHONPATH=src python3 tools/byteset.py OUT

Under OUT (which must not exist yet) it runs, each command at one BLAS
thread and with its stdout kept in <step>.stdout:

  train          a default `train` with [run] iterations = 3
  sim-trr        `simulate` on train's records, default TRR
  sim-no-trr     the same with [dram] trr_capacity = 0
  sim-flips      the same with the low thresholds of flips_thresholds.txt,
                 so that rows flip and flips.txt is not empty
  feasibility    `feasibility --golden`
  sim-synthetic  `simulate` on a seeded synthetic 10,000-round records file
  sim-synthetic-flips  the same with flips_thresholds.txt and the default
                 TRR, so that flips.txt depends on the sampler's ranking

Then it prints `sha256  path` for every file under OUT except timing.txt,
which holds wall-clock times.  Every config path is relative to OUT, since
the config hash covers `records_file`, so the digests do not depend on
where OUT is.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np

import hammersim
from hammersim.config import load_config
from hammersim.federation import RoundRecord, write_round_records

SYNTHETIC_ROUNDS = 10_000
SYNTHETIC_SEED = 2024
# one pattern class, low enough that the default train's hottest rows flip
FLIPS_THRESHOLDS = "# published_average=300\n00,00,single,300\n00,00,double,200\n"

STEPS = [  # (name, config text or None, command line)
    ("train", "[run]\niterations = 3\n", ["train"]),
    ("sim-trr", "[run]\nrecords_file = train/records.txt\n", ["simulate"]),
    ("sim-no-trr", "[run]\nrecords_file = train/records.txt\n[dram]\ntrr_capacity = 0\n", ["simulate"]),
    ("sim-flips", "[run]\nrecords_file = train/records.txt\n[dram]\ntrr_capacity = 0\n"
                  "[thresholds]\nsource = flips_thresholds.txt\n", ["simulate"]),
    ("feasibility", None, ["feasibility", "--golden"]),
    ("sim-synthetic", "[run]\nrecords_file = synthetic.txt\n", ["simulate"]),
    ("sim-synthetic-flips", "[run]\nrecords_file = synthetic.txt\n[thresholds]\nsource = flips_thresholds.txt\n",
     ["simulate"]),
]


def synthetic_records(total_params: int) -> list[RoundRecord]:
    """Learned-like rounds: about 70% of a fixed base set, most of a hot run
    and 40 fresh indices each."""
    rng = np.random.default_rng(SYNTHETIC_SEED)
    base = rng.choice(total_params, 220, replace=False)
    hot = np.arange(total_params // 3, total_params // 3 + 120)
    records = []
    for r in range(SYNTHETIC_ROUNDS):
        parts = [base[rng.random(base.size) < 0.7], hot[rng.random(hot.size) < 0.8],
                 rng.choice(total_params, 40, replace=False)]
        records.append(RoundRecord(r, np.unique(np.concatenate(parts))))
    return records


def main(out: str) -> int:
    os.makedirs(out)
    total_params = load_config(None).model_spec().total_params
    write_round_records(os.path.join(out, "synthetic.txt"), synthetic_records(total_params),
                        {"total_params": str(total_params)})
    with open(os.path.join(out, "flips_thresholds.txt"), "w", encoding="ascii") as f:
        f.write(FLIPS_THRESHOLDS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(hammersim.__file__))))
    for name, text, command in STEPS:
        args = command + ["--out", name]
        if text is not None:
            with open(os.path.join(out, f"{name}.ini"), "w", encoding="ascii") as f:
                f.write(text)
            args += ["--config", f"{name}.ini"]
        with open(os.path.join(out, f"{name}.stdout"), "wb") as stdout:
            subprocess.run([sys.executable, "-c", "import sys; from hammersim.cli import main; sys.exit(main())",
                            *args], cwd=out, env=env, stdout=stdout, check=True)
    for root, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            if name == "timing.txt":
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                print(f"{hashlib.sha256(f.read()).hexdigest()}  {os.path.relpath(path, out)}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
