"""The gradient-check suite's coverage and determinism. That every check
passes on ten seeds is the acceptance gate's ``test_gradient_suite``."""

from adret.gradcheck import build_checks, run_all
from adret.objectives import LOSS_MODES
from adret.pooling import POOL_METHODS

import numpy as np


def test_suite_covers_at_least_ten_operations():
    reports = run_all(0)
    assert len(reports) >= 10
    assert len({r.op_name for r in reports}) == len(reports)


def test_checks_are_seed_deterministic():
    a = [(r.op_name, r.max_rel_err) for r in run_all(3)]
    b = [(r.op_name, r.max_rel_err) for r in run_all(3)]
    assert a == b


def test_build_checks_inputs_are_finite():
    for op, inputs in build_checks(np.random.default_rng(1)):
        for x in inputs:
            assert np.all(np.isfinite(x)), op.name


def test_every_pooler_and_loss_mode_is_checked_through_the_encoder():
    names = {op.name for op, _ in build_checks(np.random.default_rng(0))}
    for method in POOL_METHODS:
        labels = ([f"{method}-visual", f"{method}-text"] if method == "manual"
                  else [method])
        for label in labels:
            assert f"encode[{label}]" in names
    pipeline_of = {"hard-triplet": "hard_triplet", "infonce-fixed": "infonce",
                   "infonce-adaptive": "adopt"}
    assert set(pipeline_of) == set(LOSS_MODES)
    for loss in pipeline_of.values():
        assert f"pipeline[encode->{loss}]" in names


def test_encoder_checks_take_the_parameters_alone():
    # the features are fixed data: a check with more inputs would be
    # differentiating with respect to them
    arity = {op.name: len(inputs)
             for op, inputs in build_checks(np.random.default_rng(0))}
    assert arity["project"] == 2
    encode = [name for name in arity if name.startswith("encode[")]
    assert len(encode) == 7
    assert all(arity[name] == 4 for name in encode)
