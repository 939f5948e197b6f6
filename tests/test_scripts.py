"""The scripts under ``scripts/`` run end to end on small inputs.

Only the form of their output is checked: their values are pinned
elsewhere, and a digest's value depends on the BLAS thread count.
"""

import importlib.util
import pathlib
import re
import sys

import pytest

from ia_lab import SchemeConfig

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
NUMBER = r"-?\d+\.\d+(e[+-]\d+)?"


def load(monkeypatch, name):
    # output_digest pins BLAS threads in os.environ; restored after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(monkeypatch, capsys, name, *args):
    module = load(monkeypatch, name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    module.main()
    return module, capsys.readouterr().out.splitlines()


def test_run_dof_slopes(monkeypatch, capsys):
    module, lines = run_main(monkeypatch, capsys, "run_dof_slopes", "--trials", "2")
    header, *rows = lines
    assert header.split()[0] == "scheme"
    assert len(rows) == len(module.CASES)
    for (name, _, _), row in zip(module.CASES, rows):
        assert re.fullmatch(rf"{re.escape(name)} +[\d,]+( +{NUMBER}){{3}}", row)


def test_run_gap_probe(monkeypatch, capsys):
    _, lines = run_main(monkeypatch, capsys, "run_gap_probe", "--trials", "2")
    mimo = [line for line in lines if line.startswith("  M=")]
    grids = [line for line in lines if line.startswith("  grid ")]
    assert [line.split(":")[0].strip() for line in mimo] == ["M=2", "M=3", "M=4"]
    assert len(grids) == 4
    for line in mimo + grids:
        assert re.search(rf"oscillation={NUMBER} bits$", line)


def test_output_digest(monkeypatch):
    module = load(monkeypatch, "output_digest")
    monkeypatch.setattr(module, "CONFIGS", [SchemeConfig("siso-k3", n=1),
                                            SchemeConfig("mimo", M=2)])
    assert re.fullmatch(r"[0-9a-f]{64}", module.digest())
    # one digest per configuration, in order, and the same overall digest
    each = []
    overall = module.digest(lambda config, hexdigest: each.append((config, hexdigest)))
    assert overall == module.digest()
    assert [config for config, _ in each] == module.CONFIGS
    assert all(re.fullmatch(r"[0-9a-f]{64}", hexdigest) for _, hexdigest in each)
    assert len({hexdigest for _, hexdigest in each}) == 2
    assert module.label(module.CONFIGS[0]) == "siso-k3 K=3 M=1 n=1 a_min=0.5 a_max=2.0"
