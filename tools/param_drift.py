#!/usr/bin/env python3
"""Largest parameter and loss differences between two output_digests.sh runs.

    tools/param_drift.py OLD_OUT NEW_OUT

OLD_OUT and NEW_OUT are OUT_DIRs written by ``tools/output_digests.sh``.
Each ``params.bin`` under OLD_OUT is paired with the file at the same
relative path under NEW_OUT. Both are read with ``adret.cache.load_tensors``,
and one line per tensor gives the path, the tensor name and the largest
``|new - old|``. Each ``train_log.csv`` is paired the same way; one line per
log gives the number of training iterations, how many of them picked a
different K, and the largest ``|new loss - old loss|`` (validation rows are
not iterations). The last two lines give the largest parameter difference
over all files, and the K flips and largest loss difference over all logs.
A file or tensor on one side only, a tensor whose shape changed, or a log
whose iterations differ in number or order is reported and makes the exit
code 1. A change that only rounds differently shows here as differences
near the last bits of the values and no K flip.

The adret package is imported from the ``src/`` next to this script.
"""

import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from adret.cache import load_tensors  # noqa: E402


def paired(old_root: Path, new_root: Path, name: str) -> tuple[list[Path], bool]:
    """Relative paths of the files called ``name`` under both roots, and
    whether every one is under both; one under a single root is reported."""
    old = {p.relative_to(old_root) for p in old_root.rglob(name)}
    new = {p.relative_to(new_root) for p in new_root.rglob(name)}
    for rel in sorted(old ^ new):
        print(f"{rel}  only in {'OLD_OUT' if rel in old else 'NEW_OUT'}")
    return sorted(old & new), old == new


def iterations(path: Path) -> list[tuple[str, str, str, float]]:
    """(epoch, iter, k, loss) of each training iteration in a train_log.csv."""
    with open(path, newline="") as fh:
        return [(row["epoch"], row["iter"], row["k"], float(row["loss"]))
                for row in csv.DictReader(fh) if row["iter"] != "-1"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {Path(sys.argv[0]).name} OLD_OUT NEW_OUT", file=sys.stderr)
        return 1
    old_root, new_root = map(Path, argv)
    params, params_paired = paired(old_root, new_root, "params.bin")
    logs, logs_paired = paired(old_root, new_root, "train_log.csv")
    status = 0 if params_paired and logs_paired else 1
    largest = 0.0
    for rel in params:
        old, new = load_tensors(str(old_root / rel)), load_tensors(str(new_root / rel))
        for name in sorted(old.keys() | new.keys()):
            if name not in old or name not in new:
                side = "OLD_OUT" if name in old else "NEW_OUT"
                print(f"{rel}  {name}  only in {side}")
                status = 1
            elif old[name].shape != new[name].shape:
                print(f"{rel}  {name}  shape {old[name].shape} -> {new[name].shape}")
                status = 1
            else:
                diff = float(np.abs(new[name] - old[name]).max(initial=0.0))
                largest = max(largest, diff)
                print(f"{rel}  {name}  {diff:.3e}")
    flips, largest_loss = 0, 0.0
    for rel in logs:
        old, new = iterations(old_root / rel), iterations(new_root / rel)
        if [row[:2] for row in old] != [row[:2] for row in new]:
            print(f"{rel}  iterations differ: {len(old)} -> {len(new)}")
            status = 1
            continue
        k_diff = sum(a[2] != b[2] for a, b in zip(old, new))
        loss_diff = max((abs(b[3] - a[3]) for a, b in zip(old, new)), default=0.0)
        flips += k_diff
        largest_loss = max(largest_loss, loss_diff)
        print(f"{rel}  {len(old)} iterations  K differs at {k_diff}  "
              f"largest |dloss| {loss_diff:.3e}")
    print(f"largest over {len(params)} params.bin files: {largest:.3e}")
    print(f"over {len(logs)} train_log.csv files: K differs at {flips} "
          f"iterations, largest |dloss| {largest_loss:.3e}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
