#!/usr/bin/env bash
# Run the adret CLI end to end for every loss mode and pooling method, then
# `adret gradcheck` at seeds 0-4, and print one `sha256  path` line per output.
#
# Each of the 18 runs (3 losses x 6 poolers) generates a 120/30/30-group
# corpus, trains 3 epochs at batch size 32 and lr 2e-3 and evaluates with 2
# folds. At that lr the test RSUM lands mid-range (about 410-430 of 600 for
# the adpool and mean runs), so results.json can show a ranking change: at the
# default lr of 5e-4 the runs stay near chance (RSUM 133-135), and at 5e-3
# they reach 600. Per
# loss, one more `manual` run, LOSS-manual-b120, trains at batch size 120, the
# whole training split: the wide shape, where K stays near B - 1. That is one
# Adam step per epoch, so these runs train 10 epochs: after 3 they end near
# chance (test RSUM 139-143), after 10 mid-range (421-433). Then,
# per loss, `adret eval --ensemble` scores the adpool and mean runs' parameter
# files together under the adpool run's config, writing into LOSS-ensemble/
# (a copy of the test split), so no run's results.json is overwritten, and
# the adpool, mean and max runs' files into LOSS-ensemble3/: past two
# members, the order of the running sum shows in the digests too. Each
# ensemble directory also holds scores.sha256, the sha256 of the averaged
# score matrix that `evaluate_split` ranks, so a change in how the members
# combine shows even where Recall@K cannot separate it. It is taken in the
# outermost `evaluation.evaluate_scores` call, the whole matrix, not in the
# per-fold calls that recurse into it. Per
# loss, LOSS-flags repeats the adpool run with --seed/--out/--loss/--k/--epochs
# given on the command line over an INI that holds other values for them
# (--out to every verb, the rest to `train`, the one verb that takes them);
# the script exits 1 unless its outputs are byte-equal to LOSS-adpool's, and
# prints no digests for it. Last, inspect-pool/ holds `adret inspect-pool` on
# one fixed 7 x 32 matrix (rng seed 0) for every pooling method, both manual
# modalities, and adpool once more with infonce-adaptive-adpool's weights.
# Before gradcheck, fixed-length-POOL runs each pooler once more under
# infonce-adaptive on a corpus whose images all have 6 rows and captions 8:
# every training batch then has one length, so the digests cover the
# pooler's unpadded path in training (VJP included), not only in eval.
# Next, tied-rows-POOL runs each pooler once more under infonce-adaptive
# with corpus.noise_scale = 0: every row of an instance is the same, so
# every column of a ragged batch ties. The adpool token branch then takes
# its fallback sort (a stable argsort in the VJP) on every ragged training
# batch, and the top-k poolers (max, kmax, visual manual) pick their rows
# through ``top_k_mask``'s tie branch; mean and text manual sum tied rows.
# The desk corpus never ties, so never takes these paths.
# block-edges/ only generates, a 200/70/130-group corpus whose splits each
# cross several generation blocks and end in a partial one. hinge-k/ holds,
# for K = 1, 3 and 15, the value and gradient bytes of `contrastive_loss`
# under hard-triplet (margin 0.2) on one seeded 16 x 16 matrix at its
# K-hardest selection, or the exception's class and message where the
# source tree refuses that K.
# Paths are printed relative to OUT_DIR, so two source trees compare with diff:
#
#   tools/output_digests.sh old/src /tmp/old > old.txt
#   tools/output_digests.sh new/src /tmp/new > new.txt
#   diff old.txt new.txt
#
# Where params.bin digests differ, `tools/param_drift.py /tmp/old /tmp/new`
# prints how far each tensor moved.
#
# SRC_DIR is the directory that holds the adret package (a checkout's src/).
# OUT_DIR must not exist yet or be empty. Takes about 35 s on 2 vCPUs.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC_DIR OUT_DIR" >&2
    exit 1
fi
src=$(cd "$1" && pwd)
[ -f "$src/adret/__init__.py" ] || { echo "$0: no adret package in $src" >&2; exit 1; }
mkdir -p "$2"
out=$(cd "$2" && pwd)
[ -z "$(ls -A "$out")" ] || { echo "$0: $out is not empty" >&2; exit 1; }

export PYTHONPATH="$src" ADRET_LOG=error
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
adret() { python3 -m adret.cli "$@"; }

# ensemble LOSS NAME POOL...: `adret eval --ensemble` of the LOSS-POOL runs'
# parameter files under LOSS-adpool's config, into LOSS-NAME/, with the
# averaged score matrix's sha256 in LOSS-NAME/scores.sha256
ensemble() {
    local loss=$1 dir="$out/$1-$2" params=() pool
    shift 2
    for pool in "$@"; do params+=("$out/$loss-$pool/params.bin"); done
    mkdir -p "$dir/corpus"
    cp "$out/$loss-adpool"/corpus/test_* "$dir/corpus/"
    python3 -c 'import hashlib, sys
from adret import cli, evaluation
rank = evaluation.evaluate_scores
def digest(scores, *args):
    evaluation.evaluate_scores = rank  # the fold calls recurse: digest once
    with open(sys.argv[1], "w") as fh:
        fh.write(hashlib.sha256(scores.tobytes()).hexdigest() + "\n")
    return rank(scores, *args)
evaluation.evaluate_scores = digest
sys.exit(cli.main(sys.argv[2:]))' "$dir/scores.sha256" \
        eval --config "$out/$loss-adpool/exp.ini" --out "$dir" \
        --ensemble "${params[@]}" > "$dir/eval.out"
}

# run_case RUN POOL LOSS BATCH EPOCHS [CORPUS_LINES]: write RUN/exp.ini (the
# 120/30/30-group corpus, plus CORPUS_LINES in its [corpus] section), then
# generate, train and evaluate into RUN/
run_case() {
    local run=$1 pool=$2 loss=$3 batch=$4 epochs=$5 corpus=${6:-} option=""
    mkdir "$run"
    case $pool in
        kmax) option="k = 3" ;;
        fixed-balance) option="weights = 0.75, 0.25" ;;
    esac
    cat > "$run/exp.ini" <<INI
[corpus]
seed = 1234
train_groups = 120
val_groups = 30
test_groups = 30
$corpus

[pooling.visual]
method = $pool
$option

[pooling.text]
method = $pool
$option

[train]
seed = 7
batch_size = $batch
epochs = $epochs
lr = 2e-3
loss = $loss
fixed_k = 10

[eval]
folds = 2

[output]
dir = $run
INI
    adret generate --config "$run/exp.ini" > "$run/generate.out"
    adret train --config "$run/exp.ini" > "$run/train.out"
    adret eval --config "$run/exp.ini" > "$run/eval.out"
}

for loss in hard-triplet infonce-adaptive infonce-fixed; do
    for pool in mean max kmax adpool manual fixed-balance; do
        run_case "$out/$loss-$pool" "$pool" "$loss" 32 3
    done
    run_case "$out/$loss-manual-b120" manual "$loss" 120 10
    # The adpool run again, but with --seed/--out/--loss/--k/--epochs set
    # over an INI that says otherwise: every output must equal its twin's.
    twin="$out/$loss-adpool" flagged="$out/$loss-flags"
    other=hard-triplet
    [ "$loss" != hard-triplet ] || other=infonce-fixed
    mkdir "$flagged"
    sed -e 's/^seed = 7$/seed = 99/' -e "s/^loss = .*/loss = $other/" \
        -e 's/^fixed_k = 10$/fixed_k = 4/' -e 's/^epochs = 3$/epochs = 1/' \
        -e "s|^dir = .*|dir = $out/unused|" "$twin/exp.ini" > "$flagged/exp.ini"
    flags=(--config "$flagged/exp.ini" --out "$flagged")
    adret generate "${flags[@]}" > "$flagged/generate.out"
    adret train "${flags[@]}" --seed 7 --loss "$loss" --k 10 --epochs 3 \
        > "$flagged/train.out"
    adret eval "${flags[@]}" > "$flagged/eval.out"
    if ! diff -r -x exp.ini "$twin" "$flagged" > /dev/null; then
        echo "$0: outputs of $flagged differ from $twin" >&2
        exit 1
    fi
    ensemble "$loss" ensemble adpool mean
    ensemble "$loss" ensemble3 adpool mean max
done
# Every image 6 rows, every caption 8: each batch has one length, so the
# pooler runs unpadded, in training (its VJP too) as in eval.
for pool in mean max kmax adpool manual fixed-balance; do
    run_case "$out/fixed-length-$pool" "$pool" infonce-adaptive 32 3 "visual_len_min = 6
visual_len_max = 6
text_len_min = 8
text_len_max = 8"
done
# Every row of an instance equal: each ragged batch ties in every column.
for pool in mean max kmax adpool manual fixed-balance; do
    run_case "$out/tied-rows-$pool" "$pool" infonce-adaptive 32 3 "noise_scale = 0"
done
# Generate only, 200/70/130 groups: each split crosses several blocks of
# data.GENERATE_BLOCK groups and ends in a partial one.
edges="$out/block-edges"
mkdir "$edges"
cat > "$edges/exp.ini" <<INI
[corpus]
seed = 1234
train_groups = 200
val_groups = 70
test_groups = 130

[output]
dir = $edges
INI
adret generate --config "$edges/exp.ini" > "$edges/generate.out"
mkdir "$out/hinge-k"
python3 -c 'import sys, numpy as np
from adret.objectives import LossConfig, contrastive_loss, select_negatives
s = np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 16))
for k in (1, 3, 15):
    with open(f"{sys.argv[1]}/k{k}.out", "w") as fh:
        try:
            value, grad = contrastive_loss(s, select_negatives(s, k),
                                           LossConfig("hard-triplet", margin=0.2))
            fh.write(f"{value!r}\n{grad.tobytes().hex()}\n")
        except Exception as error:
            fh.write(f"{type(error).__name__}: {error}\n")' "$out/hinge-k"
for seed in 0 1 2 3 4; do
    adret gradcheck --seed "$seed" > "$out/gradcheck-$seed.out"
done

inspect="$out/inspect-pool"
mkdir "$inspect"
python3 -c 'import sys, numpy as np; from adret.cache import cache_write
cache_write(sys.argv[1], np.random.default_rng(0).standard_normal((7, 32)), [])' \
    "$inspect/matrix.bin"
inspect_pool() {
    name=$1; shift
    adret inspect-pool "$inspect/matrix.bin" "$@" > "$inspect/$name.out"
}
inspect_pool mean --method mean
inspect_pool max --method max
inspect_pool kmax --method kmax --k 3
inspect_pool adpool --method adpool
inspect_pool manual-visual --method manual --modality visual
inspect_pool manual-text --method manual --modality text
inspect_pool fixed-balance --method fixed-balance --weights 0.75,0.25
inspect_pool adpool-params --method adpool \
    --params "$out/infonce-adaptive-adpool/params.bin"

cd "$out"
find . -type f ! -name exp.ini ! -path './*-flags/*' | LC_ALL=C sort \
    | xargs sha256sum
