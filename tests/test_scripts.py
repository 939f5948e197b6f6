"""The scripts under ``scripts/`` run end to end on small inputs.

The form of their output is checked in process, and the full output
digest's value once, in a subprocess that pins BLAS to one thread before
numpy loads: a digest's value depends on the BLAS thread count.
"""

import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

from ia_lab import SchemeConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
# the overall digest of ``scripts/output_digest.py`` at one BLAS thread, as
# recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64; a change that
# keeps every output bit for bit keeps it
OUTPUT_DIGEST = "1562d34dc6452025a08fbc11a9df05c0f77a0760c99c6e3403543018b778f871"
# its verdict digest, recorded alike: a change to the numerics that moves no
# build error, rank, relation flag, report verdict or sweep status keeps it
VERDICT_DIGEST = "2bc3fb9d8654da9c1dc0dc36faabe0d50680680d3924d8a3c56adc7a679133c6"
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
    overall, verdicts = module.digest()
    assert re.fullmatch(r"[0-9a-f]{64}", overall)
    assert re.fullmatch(r"[0-9a-f]{64}", verdicts)
    # one digest per configuration, in order, and the same two overall digests
    each = []
    assert module.digest(lambda config, hexdigest: each.append((config, hexdigest))) == (
        overall, verdicts)
    assert [config for config, _ in each] == module.CONFIGS
    assert all(re.fullmatch(r"[0-9a-f]{64}", hexdigest) for _, hexdigest in each)
    assert len({hexdigest for _, hexdigest in each}) == 2
    assert module.label(module.CONFIGS[0]) == "siso-k3 K=3 M=1 n=1 a_min=0.5 a_max=2.0"


def test_output_digest_is_pinned():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(SCRIPTS / "output_digest.py")], env=env,
                         capture_output=True, text=True, check=True, timeout=300).stdout
    lines = out.splitlines()
    assert len(lines) == 22
    assert lines[-2] == f"{VERDICT_DIGEST}  verdicts"
    assert lines[-1] == OUTPUT_DIGEST
