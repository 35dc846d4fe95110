#!/usr/bin/env python3
"""Cost of Recall@K ranking across recall levels, for one source tree.

    tools/rank_sweep.py SRC_DIR

SRC_DIR is the directory that holds the adret package (a checkout's src/).
The script builds one seeded 10000 x 2000 text-by-image score matrix at
the COCO shape (5 captions per image, caption t describing image t // 5):
a standard normal draw, scaled by a noise level, plus 1 on every relevant
pair. Noise 0.05 ranks nearly every query's relevant candidate first, and
noise 5 leaves R@1 near chance. For each noise level it prints both
directions' R@1, the RSUM and the median milliseconds of REPEATS (7) calls to
``evaluation.rank_pairs``, the ranking that ``adret eval`` runs. Running
it on two trees shows whether their RSUMs are equal and what each costs
at every recall level:

    tools/rank_sweep.py old/src > old.txt
    tools/rank_sweep.py new/src > new.txt

The matrix takes 160 MB; the script holds two at a time.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

IMAGES, CAPTIONS = 2000, 5
NOISE = (0.05, 0.2, 0.25, 0.3, 0.4, 0.6, 1.0, 5.0)
REPEATS = 7


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", type=Path)
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from adret import evaluation

    tids = [f"t{t:05d}" for t in range(IMAGES * CAPTIONS)]
    iids = [f"i{j:04d}" for j in range(IMAGES)]
    truth = {tid: {iids[t // CAPTIONS]} for t, tid in enumerate(tids)}
    truth.update({iid: set(tids[j * CAPTIONS:(j + 1) * CAPTIONS])
                  for j, iid in enumerate(iids)})
    text_pairs = evaluation.relevant_pairs(tids, iids, truth)
    image_pairs = evaluation.relevant_pairs(iids, tids, truth)
    draw = np.random.default_rng(0).standard_normal((len(tids), IMAGES))
    relevant = (np.arange(len(tids)), np.arange(len(tids)) // CAPTIONS)

    print("noise  cr_r1  ir_r1   rsum      ms")
    for noise in NOISE:
        scores = noise * draw
        scores[relevant] += 1.0
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = evaluation.rank_pairs(scores, text_pairs, image_pairs)
            times.append(time.perf_counter() - start)
        print(f"{noise:5.2f} {result.cr_r1:6.2f} {result.ir_r1:6.2f} "
              f"{result.rsum:6.2f} {1e3 * statistics.median(times):7.1f}",
              flush=True)
        del scores
    return 0


if __name__ == "__main__":
    sys.exit(main())
