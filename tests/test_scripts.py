"""The scripts under ``scripts/`` run end to end on small inputs.

The form of their output is checked in process, and the full output
digest's value once, in a subprocess that pins BLAS to one thread before
numpy loads: a digest's value depends on the BLAS thread count.
"""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

from ia_lab import SchemeConfig

from conftest import SCRIPTS, load

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the overall digest of ``scripts/output_digest.py`` at one BLAS thread, as
# recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64; a change that
# keeps every output bit for bit keeps it
OUTPUT_DIGEST = "9c9a46340b4a676af430a298b124be861d1e79f6f0a7ad8582f520d014fa1558"
# its verdict digest, recorded alike: a change to the numerics that moves no
# build error, rank, relation flag, report verdict or sweep status keeps it
VERDICT_DIGEST = "2bc3fb9d8654da9c1dc0dc36faabe0d50680680d3924d8a3c56adc7a679133c6"
NUMBER = r"-?\d+\.\d+(e[+-]\d+)?"


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


def test_output_digest_saves_rates_and_compares_against_them(monkeypatch, capsys, tmp_path):
    module = load(monkeypatch, "output_digest")
    monkeypatch.setattr(module, "CONFIGS", [SchemeConfig("siso-k3", n=1),
                                            SchemeConfig("mimo", M=2)])
    labels = [module.label(config) for config in module.CONFIGS]
    saved = tmp_path / "rates.json"

    def run(*args):
        module.main(list(args))
        return capsys.readouterr().out.splitlines()

    lines = run("--save", str(saved))
    # the flag prints nothing more: one line per configuration and two digests
    assert len(lines) == len(labels) + 2
    rates = json.loads(saved.read_text())
    assert list(rates) == labels
    # four seeds, then the sweep's 6 trials x 3 points, each a list of rates
    assert all(len(per) == 4 + 6 * len(module.GRID) for per in rates.values())
    first = rates[labels[0]][0]
    assert len(first) == len(module.RHOS) and len(first[0]) == 3

    # the run compared with itself has moved nothing; a rate scaled by
    # 1 + 1e-9 in the saved file reads as that change, at its configuration
    rates[labels[1]][-1][2] *= 1.0 + 1e-9
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(rates))
    for against, changes in ((saved, [0.0, 0.0]), (moved, [0.0, 1e-9])):
        lines = run("--against", str(against))
        head, tail = lines[:len(labels) + 2], lines[len(labels) + 2:]
        assert [line.split("  ", 1)[1] for line in head[:-1]] == labels + ["verdicts"]
        assert [line.split("  ", 1)[1] for line in tail] == labels
        got = [float(line.split("  ", 1)[0]) for line in tail]
        assert got[0] == changes[0] and math.isclose(got[1], changes[1], rel_tol=1e-6,
                                                     abs_tol=0.0)


def test_largest_change_marks_a_rate_of_one_run_only(monkeypatch):
    module = load(monkeypatch, "output_digest")
    assert module.largest_change([None, [[1.0, 2.0]]], [None, [[1.0, 2.0]]]) == 0.0
    assert module.largest_change([[[1.0, 2.0]]], [[[1.0, 2.5]]]) == 0.25
    assert module.largest_change([[[1.0]]], [None]) == math.inf
    assert module.largest_change([[0.0]], [[0.0]]) == 0.0


def test_output_digest_is_pinned():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(SCRIPTS / "output_digest.py")], env=env,
                         capture_output=True, text=True, check=True, timeout=300).stdout
    lines = out.splitlines()
    assert len(lines) == 22
    assert lines[-2] == f"{VERDICT_DIGEST}  verdicts"
    assert lines[-1] == OUTPUT_DIGEST
