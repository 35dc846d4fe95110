#!/usr/bin/env python3
"""Largest absolute parameter difference between two output_digests.sh runs.

    tools/param_drift.py OLD_OUT NEW_OUT

OLD_OUT and NEW_OUT are OUT_DIRs written by ``tools/output_digests.sh``.
Each ``params.bin`` under OLD_OUT is paired with the file at the same
relative path under NEW_OUT. Both are read with ``adret.cache.load_tensors``,
and one line per tensor gives the path, the tensor name and the largest
``|new - old|``. The last line gives the largest difference over all files.
A file or tensor on one side only, or a tensor whose shape changed, is
reported and makes the exit code 1. A change that only rounds differently
shows here as differences near the last bits of the values.

The adret package is imported from the ``src/`` next to this script.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from adret.cache import load_tensors  # noqa: E402


def params_files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("params.bin")}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {Path(sys.argv[0]).name} OLD_OUT NEW_OUT", file=sys.stderr)
        return 1
    old_root, new_root = map(Path, argv)
    old_files, new_files = params_files(old_root), params_files(new_root)
    status = 0
    for rel in sorted(old_files ^ new_files):
        side = "OLD_OUT" if rel in old_files else "NEW_OUT"
        print(f"{rel}  only in {side}")
        status = 1
    largest = 0.0
    for rel in sorted(old_files & new_files):
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
    print(f"largest over {len(old_files & new_files)} params.bin files: {largest:.3e}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
