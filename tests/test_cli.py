import csv
import dataclasses
import json

import pytest

from ia_lab import SchemeConfig, load_channels, snr_sweep
from ia_lab.cli import build_parser, main
from ia_lab.evaluation import _trial_seed
from ia_lab.families import FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_loadable_file(tmp_path, capsys):
    path = tmp_path / "ch.json"
    code, out, err = run(capsys, "gen", "--k", "3", "--m", "1", "--f", "3",
                         "--seed", "7", "--out", str(path))
    assert code == 0
    assert json.loads(out)["written"] == str(path)
    assert '"config"' in err  # reproducibility echo
    ch = load_channels(path)
    assert (ch.K, ch.M, ch.F, ch.seed) == (3, 1, 3, 7)


def test_precode_exports_scheme(tmp_path, capsys):
    path = tmp_path / "scheme.json"
    code, out, _ = run(capsys, "precode", "--scheme", "siso-k3", "--n", "1",
                       "--seed", "3", "--out", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["stream_counts"] == [2, 1, 1]
    doc = json.loads(path.read_text())
    assert doc["L"] == 3 and doc["n"] == 1
    assert len(doc["precoders"][0]["entries"]) == 6  # 3 rows x 2 cols


def test_verify_passes_for_valid_scheme(capsys):
    code, out, _ = run(capsys, "verify", "--scheme", "mimo", "--m", "3",
                       "--seed", "5")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_against_channel_file(tmp_path, capsys):
    path = tmp_path / "ch.json"
    run(capsys, "gen", "--k", "3", "--m", "1", "--f", "5", "--seed", "11",
        "--out", str(path))
    code, out, _ = run(capsys, "verify", "--scheme", "siso-k3", "--n", "2",
                       "--channels", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_sweep_writes_csv(tmp_path, capsys):
    path = tmp_path / "rates.csv"
    code, out, _ = run(capsys, "sweep", "--scheme", "designed", "--k", "4",
                       "--snr", "60,80", "--trials", "2", "--seed", "0",
                       "--out", str(path))
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "snr_db"
    assert len(rows) == 1 + 4 * 4  # 2 snr x 2 trials x K users


def test_dof_reports_slope_near_four_thirds(capsys):
    code, out, _ = run(capsys, "dof", "--scheme", "siso-k3", "--n", "1",
                       "--snr", "60,80", "--trials", "5", "--seed", "7")
    assert code == 0
    summary = json.loads(out)
    assert abs(summary["slope"] - 4.0 / 3.0) <= 0.02 * (4.0 / 3.0)
    assert summary["claimed_dof"] == pytest.approx(4.0 / 3.0)
    assert "gap_oscillation" not in summary  # grid spans only 20 dB


def test_region_membership_failure_exits_one(capsys):
    code, out, _ = run(capsys, "region", "--point", "0.6,0.6,0.6")
    assert code == 1
    assert json.loads(out)["in_region"] is False


def test_region_decomposes_valid_point(capsys):
    code, out, _ = run(capsys, "region", "--point", "0.5,0.5,0.4")
    assert code == 0
    doc = json.loads(out)
    assert doc["weights"] == pytest.approx([0.1, 0.1, 0.0, 0.8, 0.0])


def test_region_wrong_arity_is_usage_error(capsys):
    code, _, _ = run(capsys, "region", "--point", "0.5,0.5")
    assert code == 2


@pytest.mark.parametrize("point", ["nan,0,0", "inf,0,0", "0,-inf,0.2"])
def test_region_rejects_a_non_finite_point_before_the_echo(capsys, point):
    code, out, err = run(capsys, "region", "--point", point)
    assert code == 1
    assert out == ""
    assert err == "error: a degrees-of-freedom point must be finite\n"


@pytest.mark.parametrize("case,expected", [(1, "3/2"), (2, "2"), (3, "3/2"), (4, "2")])
def test_cognitive_prints_value(capsys, case, expected):
    code, out, _ = run(capsys, "cognitive", "--case", str(case))
    assert code == 0
    assert out.strip() == expected


def test_delay_valid_schedule(tmp_path, capsys):
    path = tmp_path / "delays.csv"
    path.write_text("2,1,1\n1,2,1\n1,1,2\n")
    code, out, _ = run(capsys, "delay", "--delays", str(path), "--slots", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["parity_valid"] is True
    assert doc["interference_free_fraction"] == [0.5, 0.5, 0.5]


def test_delay_invalid_parity_exits_one(tmp_path, capsys):
    path = tmp_path / "delays.csv"
    path.write_text("1,1,1\n1,2,1\n1,1,2\n")
    code, out, _ = run(capsys, "delay", "--delays", str(path))
    assert code == 1
    assert json.loads(out)["parity_valid"] is False


def test_infeasible_demo(capsys):
    code, out, _ = run(capsys, "infeasible", "--m", "2", "--seeds", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["diagonal_rank_deficient"] == 5
    assert doc["dense_control_full_rank"] == 5
    assert doc["joint_ranks_seen"] == [1]  # desired and interference share one line


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_infeasible_without_a_seed_is_a_parameter_error(capsys, seeds):
    # as --trials 0 is: exit 1 with an error line, and no summary
    code, out, err = run(capsys, "infeasible", "--m", "2", "--seeds", seeds)
    assert code == 1 and out == ""
    assert f"error: need at least one seed, got {seeds}" in err
    code, out, err = run(capsys, "dof", "--scheme", "siso-k3", "--trials", "0")
    assert code == 1 and out == "" and "error: " in err


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dof", "--scheme", "siso-k3", "--bogus"])
    assert exc.value.code == 2


def test_error_from_library_becomes_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--scheme", "siso-k3",
                       "--channels", str(path))
    assert code == 1
    assert "error:" in err


def test_scheme_choices_are_the_family_table():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for command in ("precode", "verify", "sweep", "dof"):
        scheme = next(a for a in sub.choices[command]._actions if a.dest == "scheme")
        assert list(scheme.choices) == list(FAMILIES)


@pytest.mark.parametrize("config,shape_flags,flags", [
    (SchemeConfig(family="siso-k3", n=2), [], ["--n", "2"]),
    (SchemeConfig(family="siso-general", K=4, n=1), ["--k", "4"], ["--n", "1"]),
    (SchemeConfig(family="mimo", M=2), ["--m", "2"], []),
    (SchemeConfig(family="mimo", M=3), ["--m", "3"], []),
])
def test_channel_file_and_seed_take_one_build_path(tmp_path, capsys, config,
                                                   shape_flags, flags):
    K, M, F = FAMILIES[config.family].channel_shape(config)
    path = tmp_path / "ch.json"
    seed = "13"
    assert run(capsys, "gen", "--k", str(K), "--m", str(M), "--f", str(F),
               "--seed", seed, "--out", str(path))[0] == 0
    verify = ["verify", "--scheme", config.family, *flags]
    from_seed = run(capsys, *verify, *shape_flags, "--seed", seed)
    assert from_seed[0] == 0
    # K and M given as flags that agree with the file, or taken from it
    for given in (shape_flags, []):
        from_file = run(capsys, *verify, *given, "--channels", str(path))
        assert from_file[:2] == from_seed[:2]


@pytest.mark.parametrize("argv,file_shape,message", [
    (["precode", "--scheme", "siso-k3", "--k", "5"], None, "siso-k3 requires K=3, M=1"),
    (["verify", "--scheme", "siso-k3", "--m", "2"], None, "siso-k3 requires K=3, M=1"),
    (["dof", "--scheme", "siso-general", "--k", "2"], None, "siso-general requires K>=3, M=1"),
    (["dof", "--scheme", "mimo", "--m", "1"], None, "mimo requires K=3, M>=2"),
    (["precode", "--scheme", "mimo", "--k", "4"], None, "mimo requires K=3, M>=2"),
    (["verify", "--scheme", "designed", "--m", "2"], None, "designed requires K>=2, M=1"),
    (["verify", "--scheme", "siso-k3"], (3, 2, 3), "siso-k3 requires K=3, M=1"),
    (["verify", "--scheme", "mimo"], (3, 1, 1), "mimo requires K=3, M>=2"),
    (["precode", "--scheme", "siso-general", "--k", "3"], (4, 1, 33),
     "channel set has K=4, M=1, but the scheme is configured for K=3, M=1"),
    (["verify", "--scheme", "mimo", "--m", "2"], (3, 4, 1),
     "channel set has K=3, M=4, but the scheme is configured for K=3, M=2"),
    (["verify", "--scheme", "designed"], (3, 1, 2),
     "designed fixes its own channels and takes no channel set"),
    (["verify", "--scheme", "mimo", "--n", "5"], None, "mimo does not read --n"),
    (["dof", "--scheme", "designed", "--n", "2"], None, "designed does not read --n"),
    (["precode", "--scheme", "designed", "--a-min", "1"], None,
     "designed does not read --a-min"),
    (["dof", "--scheme", "designed", "--a-max", "1", "--trials", "1"], None,
     "designed does not read --a-max"),
    (["verify", "--scheme", "siso-k3", "--a-min", "1"], (3, 1, 3),
     "--a-min does not apply with --channels: the channel file fixes the magnitude law"),
    (["verify", "--scheme", "designed", "--seed", "5"], None,
     "designed does not read --seed"),
    (["precode", "--scheme", "designed", "--seed", "0"], None,
     "designed does not read --seed"),
    (["verify", "--scheme", "mimo", "--seed", "3"], (3, 2, 1),
     "--seed does not apply with --channels: the channel file fixes the channels"),
    (["precode", "--scheme", "siso-k3", "--seed", "0"], (3, 1, 3),
     "--seed does not apply with --channels: the channel file fixes the channels"),
    (["sweep", "--scheme", "siso-k3", "--snr", "40,nan,60", "--trials", "1",
      "--out", "unused.csv"], None,
     "snr grid must be nonempty, finite and strictly increasing"),
    (["dof", "--scheme", "mimo", "--snr", "40,60,inf", "--trials", "1"], None,
     "snr grid must be nonempty, finite and strictly increasing"),
    (["dof", "--scheme", "mimo", "--snr=-inf,60", "--trials", "1"], None,
     "snr grid must be nonempty, finite and strictly increasing"),
    (["sweep", "--scheme", "siso-k3", "--snr", "60,80", "--trials", "1", "--seed", "-1",
      "--out", "unused.csv"], None, "seed must fit in an unsigned 64-bit integer"),
    (["dof", "--scheme", "mimo", "--snr", "60,80", "--trials", "2", "--seed", "-5"], None,
     "seed must fit in an unsigned 64-bit integer"),
    (["dof", "--scheme", "siso-k3", "--snr", "60,80", "--trials", "2",
      "--seed", str(2 ** 64)], None, "seed must fit in an unsigned 64-bit integer"),
    (["dof", "--scheme", "siso-k3", "--snr", "40,4000"], None,
     "snr point 4000.0 dB overflows float64 as a linear power"),
])
def test_contradictory_scheme_flags_fail_fast(tmp_path, capsys, argv, file_shape, message):
    if file_shape is not None:
        path = tmp_path / "ch.json"
        K, M, F = file_shape
        run(capsys, "gen", "--k", str(K), "--m", str(M), "--f", str(F), "--out", str(path))
        argv = argv + ["--channels", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"error: {message}"


@pytest.mark.parametrize("scheme,echoed", [
    ("siso-k3", {"n": 1, "a_min": 0.5, "a_max": 2.0}),
    ("mimo", {"a_min": 0.5, "a_max": 2.0}),
    ("designed", {}),
])
def test_echo_holds_the_defaults_of_the_flags_the_family_reads(capsys, scheme, echoed):
    code, _, err = run(capsys, "verify", "--scheme", scheme)
    assert code == 0
    options = json.loads(err.splitlines()[0])["config"]["options"]
    assert {key: options[key] for key in ("n", "a_min", "a_max")
            if key in options} == echoed


@pytest.mark.parametrize("argv,seed", [
    (["verify", "--scheme", "siso-k3"], 0),
    (["verify", "--scheme", "mimo", "--seed", "4"], 4),
    (["verify", "--scheme", "designed"], None),
    (["dof", "--scheme", "designed", "--snr", "60,80", "--trials", "1"], 0),
    (["dof", "--scheme", "designed", "--snr", "60,80", "--trials", "1", "--seed", "9"], 9),
])
def test_seed_echoes_where_it_is_read(capsys, argv, seed):
    code, _, err = run(capsys, *argv)
    assert code == 0
    options = json.loads(err.splitlines()[0])["config"]["options"]
    assert options.get("seed") == seed


def test_designed_sweep_seed_names_the_trials(tmp_path, capsys):
    path = tmp_path / "rates.csv"
    code, _, _ = run(capsys, "sweep", "--scheme", "designed", "--snr", "60",
                     "--trials", "1", "--seed", "5", "--out", str(path))
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert {r[1] for r in rows[1:]} == {str(_trial_seed(5, 0))}


def test_dof_summary_counts_failed_trials(capsys, monkeypatch):
    import ia_lab.cli

    def one_failed(config, snr_db, trials, seed):
        table = snr_sweep(config, snr_db, trials, seed)
        bad = table.records[0].seed
        return dataclasses.replace(table, records=tuple(
            dataclasses.replace(r, rates=None, status="failed") if r.seed == bad else r
            for r in table.records))

    monkeypatch.setattr(ia_lab.cli, "snr_sweep", one_failed)
    code, out, _ = run(capsys, "dof", "--scheme", "mimo", "--snr", "60,80",
                       "--trials", "3")
    assert code == 0
    summary = json.loads(out)
    assert (summary["trials_used"], summary["failures"]) == (2, 1)


@pytest.mark.parametrize("argv", [
    ["gen", "--a-max", "inf"],
    ["gen", "--a-min", "nan"],
    ["sweep", "--scheme", "siso-k3", "--a-max", "inf", "--snr", "40,60", "--trials", "2"],
])
def test_non_finite_magnitude_bounds_fail_before_the_echo(tmp_path, capsys, argv):
    out_path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.startswith("error: magnitude bounds must satisfy 0 < a_min <= a_max < inf")
    assert "config" not in err and not out_path.exists()
