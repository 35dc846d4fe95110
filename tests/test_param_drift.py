"""tools/param_drift.py on two tiny output trees."""

import importlib.util
from pathlib import Path

import numpy as np

from adret.cache import save_tensors

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "param_drift.py"
_SPEC = importlib.util.spec_from_file_location("param_drift", _TOOL)
param_drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(param_drift)

_LOG = "epoch,iter,loss,gamma_align,gamma_uniform,k,lr\n"


def _out_dir(root: Path, tensors: dict, ks: list[int]) -> Path:
    """An OUT_DIR holding run/params.bin and run/train_log.csv, one
    iteration per K in ``ks`` and one validation row."""
    run = root / "run"
    run.mkdir(parents=True)
    save_tensors(str(run / "params.bin"), tensors)
    rows = [f"0,{i},0.5,0.1,0.2,{k},0.001\n" for i, k in enumerate(ks)]
    (run / "train_log.csv").write_text(_LOG + "".join(rows) + "0,-1,300.0,,,,\n")
    return root


def test_reports_each_tensor_and_the_k_flips(tmp_path, capsys):
    a, b = np.full((2, 3), 0.5), np.arange(4.0).reshape(4, 1)
    moved = a.copy()
    moved[1, 2] += 1e-12
    old = _out_dir(tmp_path / "old", {"a": a, "b": b}, [5, 4, 3])
    new = _out_dir(tmp_path / "new", {"a": moved, "b": b}, [5, 3, 3])
    assert param_drift.main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    params, log = Path("run", "params.bin"), Path("run", "train_log.csv")
    assert lines == [
        f"{params}  a  {abs(moved[1, 2] - 0.5):.3e}",
        f"{params}  b  0.000e+00",
        f"{log}  3 iterations  K differs at 1  largest |dloss| 0.000e+00",
        f"largest over 1 params.bin files: {abs(moved[1, 2] - 0.5):.3e}",
        "over 1 train_log.csv files: K differs at 1 iterations, "
        "largest |dloss| 0.000e+00",
    ]
    assert lines[0].endswith("1.000e-12")


def test_a_tensor_on_one_side_only_exits_1(tmp_path, capsys):
    a = np.ones((2, 2))
    old = _out_dir(tmp_path / "old", {"a": a}, [3])
    new = _out_dir(tmp_path / "new", {"a": a, "extra": a}, [3])
    assert param_drift.main([str(old), str(new)]) == 1
    assert f"{Path('run', 'params.bin')}  extra  only in NEW_OUT" in (
        capsys.readouterr().out.splitlines())
