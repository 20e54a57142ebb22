import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import fuzzyshadow
from fuzzyshadow import fuzzy_metric as fm
from fuzzyshadow import orbits, shadowing, systems
from fuzzyshadow.cli import build_parser, main
from fuzzyshadow.fuzzy_metric import Ball, StandardFuzzyMetric
from fuzzyshadow.orbits import perturbed_orbit
from fuzzyshadow.systems import example43_map, tent


@pytest.fixture
def orbit_file(tmp_path):
    seq = perturbed_orbit(tent(2.0), 0.3, 200, noise=0.05, seed=1)
    path = tmp_path / "orbit.csv"
    seq.to_csv(path)
    return str(path)


def read_report(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def test_check_metric_pass(tmp_path):
    assert main(["check-metric", "ratio-phi", "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path, "check-metric-ratio-phi.json")
    assert report["report"]["all_passed"] is True


def test_a_report_replaces_what_sits_at_its_path(tmp_path):
    elsewhere = tmp_path / "elsewhere.json"
    elsewhere.write_text("kept")
    out = tmp_path / "out"
    out.mkdir()
    (out / "check-metric-ratio-phi.json").symlink_to(elsewhere)
    (out / "check-tnorm-lukasiewicz.json").write_text("x" * 10_000)
    assert main(["check-metric", "ratio-phi", "--out", str(out)]) == 0
    assert main(["check-tnorm", "lukasiewicz", "--out", str(out)]) == 0
    report = out / "check-metric-ratio-phi.json"
    assert not report.is_symlink() and elsewhere.read_text() == "kept"
    assert read_report(out, report.name)["report"]["all_passed"] is True
    assert read_report(out, "check-tnorm-lukasiewicz.json")["report"]["all_passed"] is True


def test_check_tnorm_pass(tmp_path):
    assert main(["check-tnorm", "lukasiewicz", "--out", str(tmp_path)]) == 0


# the proof table's verdicts: ratio and ratio-phi fail the triangle under
# minimum, at an exact counterexample, and everything else passes
_AXIOM_EXITS = [
    *((["check-metric", m, "--tnorm", t], int(t == "minimum" and m != "standard"))
      for m in ("standard", "ratio-phi", "ratio") for t in ("product", "minimum", "lukasiewicz")),
    *((["check-tnorm", t], 0) for t in ("product", "minimum", "lukasiewicz")),
]


@pytest.mark.parametrize("sampling", [[], ["--samples", "7", "--seed", "3"]],
                         ids=["plain", "sampling-flags"])
@pytest.mark.parametrize("argv, code", _AXIOM_EXITS, ids=[" ".join(a) for a, _ in _AXIOM_EXITS])
def test_axiom_commands_exit_codes(tmp_path, argv, code, sampling):
    # --samples and --seed are accepted and change nothing
    assert main(argv + sampling + ["--out", str(tmp_path)]) == code
    report = read_report(tmp_path, f"{argv[0]}-{argv[1]}.json")["report"]
    assert report["all_passed"] is (code == 0)
    for check in report["checks"]:
        assert check["passed"] is (check["counterexample"] is None)
        if not check["passed"]:
            # the counterexample breaks the minimum triangle in the float
            # kernel too, with the exact sides reported
            assert check["name"] == "triangle"
            w = check["counterexample"]
            m = fm.metric_from_name(argv[1])
            lhs = m.eval(w["x"], w["z"], w["t"] + w["s"])
            rhs = min(m.eval(w["x"], w["y"], w["t"]), m.eval(w["y"], w["z"], w["s"]))
            assert (lhs, rhs) == (0.25, 0.5) == (Fraction(w["lhs"]), Fraction(w["rhs"]))


def test_check_metric_unknown_name(tmp_path, capsys):
    assert main(["check-metric", "bogus", "--out", str(tmp_path)]) == 2
    assert "unknown metric" in capsys.readouterr().err


def test_shadow_command(tmp_path, orbit_file):
    rc = main(["shadow", "--map", "tent:2", "--metric", "standard",
               "--eps", "0.1", "--t0", "9.5", "--orbit", orbit_file,
               "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path, "shadow.json")
    assert report["verdict"] == "witness-found"
    assert report["witness"] == 0.0

    rc = main(["shadow", "--map", "tent:2", "--metric", "standard",
               "--eps", "0.01", "--t0", "0.5", "--orbit", orbit_file,
               "--out", str(tmp_path)])
    assert rc == 1


def test_chain_command(tmp_path):
    rc = main(["chain", "--map", "example43", "--metric", "ratio-phi",
               "--from", "0.9", "--to", "0.1", "--delta", "0.05",
               "--out", str(tmp_path)])
    assert rc == 1
    rc = main(["chain", "--map", "tent:2", "--metric", "standard",
               "--from", "0.2", "--to", "0.8", "--delta", "0.1", "--lengths",
               "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path, "chain.json")
    assert report["found"] is True
    assert report["length_spectrum"]["n0"] is not None
    assert "grid" not in report
    # --n-max bounds the search too: the shortest chain 0.2 -> 0.8 has 3 states
    rc = main(["chain", "--map", "tent:2", "--metric", "standard",
               "--from", "0.2", "--to", "0.8", "--delta", "0.1", "--n-max", "2",
               "--out", str(tmp_path)])
    assert rc == 1
    assert read_report(tmp_path, "chain.json")["found"] is False


def test_chain_at_a_float_tie(tmp_path):
    # y is inside the exact ball of f(0.2) = 0.4 but not inside its float ball
    rc = main(["chain", "--map", "tent:2", "--metric", "standard", "--from", "0.2",
               "--to", "0.5111111111111111", "--delta", "0.1", "--lengths",
               "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path, "chain.json")
    assert report["length"] == 3 and report["length_spectrum"]["present"][0] == 3


def _two_calls(*args, **kwargs):
    return orbits.chain_search(*args, **kwargs), orbits.chain_mixing_check(*args, **kwargs)


@pytest.mark.parametrize("map_spec, metric, src, dst", [
    ("tent:2", "standard", "0.2", "0.8"), ("example43", "ratio-phi", "0.26", "0.74"),
    ("example43", "ratio-phi", "0.9", "0.1")])
def test_chain_lengths_from_one_pass_match_two_calls(tmp_path, capsys, monkeypatch, map_spec,
                                                     metric, src, dst):
    # one pass over the reach sets writes the bytes and prints the line that
    # chain_search and chain_mixing_check, one after the other, gave
    argv = ["chain", "--map", map_spec, "--metric", metric, "--from", src, "--to", dst,
            "--delta", "0.1", "--lengths", "--out"]
    runs = []
    for name in ("one-pass", "two-calls"):
        if name == "two-calls":
            monkeypatch.setattr(orbits, "chain_with_lengths", _two_calls)
        rc = main([*argv, str(tmp_path / name)])
        line = capsys.readouterr().out.replace(str(tmp_path / name), "<out>")
        runs.append((rc, (tmp_path / name / "chain.json").read_bytes(), line))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["length_spectrum"] is not None


def test_failed_reverification_exits_3(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise orbits.VerificationError("chain re-verification failed at index 0")

    monkeypatch.setattr(orbits, "chain_search", failing)
    rc = main(["chain", "--map", "tent:2", "--metric", "standard", "--from", "0.2",
               "--to", "0.8", "--delta", "0.1", "--out", str(tmp_path)])
    assert rc == 3
    assert "error: chain re-verification failed" in capsys.readouterr().err


def test_mix_command(tmp_path):
    rc = main(["mix", "--map", "tent:2", "--metric", "standard",
               "--u-center", "0.2", "--u-radius", "0.1",
               "--v-center", "0.8", "--v-radius", "0.1",
               "--n-max", "48", "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path, "mix.json")
    assert report["n0"] is not None


def test_density_construction(tmp_path):
    rc = main(["density", "--construction", "theorem-3.3", "--n", "100000",
               "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path, "density.json")
    assert report["report"]["plausibly_zero"] is True
    assert (tmp_path / "density.csv").read_text().startswith("n,density\n")


def test_density_orbit_mode(tmp_path, orbit_file):
    rc = main(["density", "--orbit", orbit_file, "--map", "tent:2",
               "--metric", "standard", "--delta", "0.2", "--t0", "1.0",
               "--out", str(tmp_path)])
    assert rc == 0


def _exit_code(argv) -> int:
    """main's exit code, whether returned or raised by the argument parser."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["--construction", "theorem-3.3", "--n", "1000", "--orbit", "ORBIT", "--map", "tent:2",
     "--metric", "standard", "--delta", "0.01"],
    [],
    ["--orbit", "ORBIT", "--map", "tent:2", "--metric", "standard"],
], ids=["both-sources", "no-source", "orbit-without-delta"])
def test_density_takes_exactly_one_source(tmp_path, capsys, orbit_file, argv):
    out = tmp_path / "out"
    argv = [orbit_file if a == "ORBIT" else a for a in argv]
    assert _exit_code(["density", *argv, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["--construction", "theorem-3.3", "--map", "tent:2"], "--map"),
    (["--construction", "theorem-3.3", "--metric", "standard"], "--metric"),
    (["--construction", "theorem-3.3", "--delta", "0.1"], "--delta"),
    # given its default value, a flag is still one the construction ignores
    (["--construction", "theorem-3.3", "--t0", "1.0"], "--t0"),
    (["--orbit", "ORBIT", "--map", "tent:2", "--metric", "standard", "--delta", "0.1",
      "--n", "1000000"], "--n"),
], ids=["construction-map", "construction-metric", "construction-delta", "construction-t0",
        "orbit-n"])
def test_density_rejects_the_other_sources_flags(tmp_path, capsys, orbit_file, argv, flag):
    out = tmp_path / "out"
    argv = [orbit_file if a == "ORBIT" else a for a in argv]
    assert main(["density", *argv, "--out", str(out)]) == 2
    assert f"error: density {argv[0]} does not take {flag}\n" in capsys.readouterr().err
    assert not out.exists()


def test_density_records_its_defaults(tmp_path, orbit_file):
    main(["density", "--construction", "theorem-3.3", "--out", str(tmp_path / "c")])
    assert read_report(tmp_path / "c", "density.json")["n"] == 10**6
    main(["density", "--orbit", orbit_file, "--map", "tent:2", "--metric", "standard",
          "--delta", "0.2", "--out", str(tmp_path / "o")])
    assert read_report(tmp_path / "o", "density.json")["t0"] == 1.0


@pytest.mark.parametrize("argv, message", [
    (["chain", "--map", "tent:2", "--metric", "standard", "--from", "0.2", "--to", "0.8",
      "--delta", "0.1", "--lengths", "--n-max", "1000001"], "n_max in [1, 1000000]"),
    (["mix", "--map", "tent:2", "--metric", "standard", "--u-center", "0.3", "--u-radius",
      "0.1", "--v-center", "0.6", "--v-radius", "0.1", "--n-max", "1000001"],
     "n_max must lie in [1, 1000000]"),
    (["density", "--construction", "theorem-3.3", "--n", "1000000000001"],
     "universe too long"),
], ids=["chain", "mix", "density"])
def test_sizes_over_the_caps_exit_2_without_a_report(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_command(tmp_path, orbit_file):
    rc = main(["sweep", "--map", "tent:2", "--metric", "standard",
               "--orbit", orbit_file, "--eps-list", "0.1,0.2",
               "--delta-list", "0.05", "--t0-list", "9.5",
               "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path, "sweep.json")
    assert len(report["rows"]) == 2
    assert (tmp_path / "sweep.csv").read_text().splitlines()[0] == \
        "delta,t0,eps,orbit_valid,witness"


def test_sweep_searches_each_eps_and_t0_once(tmp_path, orbit_file, monkeypatch):
    epss, deltas, t0s = (0.05, 0.1, 0.2), (0.01, 0.05), (1.0, 9.5)
    f, m = tent(2.0), StandardFuzzyMetric()
    seq = orbits.OrbitSequence.from_csv(orbit_file)
    # the rows as a search per (delta, t0, eps) gives them
    expected = [{"delta": delta, "t0": t0, "eps": eps,
                 "orbit_valid": orbits.validate_f_pseudo_orbit(seq, f, m, delta, t0).is_empty,
                 "witness": shadowing.shadow_search(seq, f, m, eps, t0).witness}
                for delta in deltas for t0 in t0s for eps in epss]
    calls = []
    search = shadowing.shadow_search

    def counting_search(*args, **kwargs):
        calls.append(kwargs)
        return search(*args, **kwargs)

    monkeypatch.setattr(shadowing, "shadow_search", counting_search)
    assert main(["sweep", "--map", "tent:2", "--metric", "standard", "--orbit", orbit_file,
                 "--eps-list", "0.05,0.1,0.2", "--delta-list", "0.01,0.05",
                 "--t0-list", "1,9.5", "--out", str(tmp_path)]) == 0
    assert len(calls) == len(epss) * len(t0s)
    assert read_report(tmp_path, "sweep.json")["rows"] == expected


def test_malformed_orbit_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("index,value\n0,0.3\nbad,row\n")
    rc = main(["shadow", "--map", "tent:2", "--metric", "standard",
               "--eps", "0.1", "--t0", "9.5", "--orbit", str(bad),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


def test_reproduce_case(tmp_path):
    rc = main(["reproduce", "example-4.3c", "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path, "example-4.3c.json")
    assert report["passed"] is True
    svg = (tmp_path / "example-4.3c.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def _run_in_process(argv, out, capsys):
    """Exit code, stdout and every report's bytes of one in-process call."""
    rc = main(argv + ["--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return rc, capsys.readouterr().out, files


@pytest.mark.parametrize("argv", [
    ["check-tnorm", "product"],
    ["reproduce", "example-4.3b"],
    ["sweep", "--map", "tent:2", "--metric", "standard", "--orbit", "ORBIT",
     "--eps-list", "0.1", "--delta-list", "0.05"],  # the default --t0-list
], ids=lambda argv: " ".join(argv[:2]))
def test_repeated_calls_in_one_process_agree(tmp_path, capsys, orbit_file, argv):
    argv = [orbit_file if a == "ORBIT" else a for a in argv]
    first = _run_in_process(argv, tmp_path / "out", capsys)
    assert first == _run_in_process(argv, tmp_path / "out", capsys)
    # a usage error in between leaves the parser as it was
    with pytest.raises(SystemExit) as err:
        main(argv + ["--bogus"])
    assert err.value.code == 2
    capsys.readouterr()
    assert first == _run_in_process(argv, tmp_path / "out", capsys)


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    argv = ["check-tnorm", "minimum", "--samples", "10", "--out", str(tmp_path)]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    assert built == []
    # build_parser still builds a fresh parser on every call
    assert build_parser() is not build_parser()
    assert built


def test_sweep_default_t0_list_is_immutable():
    args = build_parser().parse_args(["sweep", "--map", "tent:2", "--metric", "standard",
                                      "--orbit", "o.csv", "--eps-list", "0.1",
                                      "--delta-list", "0.1"])
    assert args.t0s == (1.0,)


def test_module_entrypoint_help():
    # the child imports the same package as this test, with or without PYTHONPATH
    src = str(Path(fuzzyshadow.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzyshadow", "--help"],
        capture_output=True, text=True, check=False, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "reproduce" in proc.stdout


def test_unknown_case_rejected(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["reproduce", "example-9.9", "--out", str(tmp_path)])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["shadow", "--map", "tent:2", "--metric", "standard", "--eps", "0.1", "--grid", "0"],
    ["shadow", "--map", "tent:2", "--metric", "standard", "--eps", "1.5"],
    ["shadow", "--map", "tent:2", "--metric", "standard", "--eps", "0.1", "--t0", "-1"],
    ["chain", "--map", "tent:2", "--metric", "standard", "--from", "0.2", "--to", "0.8",
     "--delta", "0.1", "--grid", "0"],
    ["chain", "--map", "tent:2", "--metric", "standard", "--from", "0.2", "--to", "0.8",
     "--delta", "0.1", "--n-max", "0"],
    ["chain", "--map", "tent:2", "--metric", "standard", "--from", "0.2", "--to", "0.8",
     "--delta", "0.1", "--t0", "nan"],
    ["chain", "--map", "tent:2", "--metric", "standard", "--from", "0.2", "--to", "0.8",
     "--delta", "0.1", "--t0", "inf"],
    ["mix", "--map", "tent:2", "--metric", "standard", "--u-center", "0.2",
     "--u-radius", "0.1", "--v-center", "0.8", "--v-radius", "0.1", "--grid", "0"],
    ["mix", "--map", "tent:2", "--metric", "standard", "--u-center", "0.2",
     "--u-radius", "0.1", "--v-center", "0.8", "--v-radius", "0.1", "--n-max", "0"],
    ["density", "--construction", "theorem-3.3", "--n", "0"],
    ["density", "--map", "tent:2", "--metric", "standard", "--delta", "2"],
    ["sweep", "--map", "tent:2", "--metric", "standard", "--eps-list", "0.1",
     "--delta-list", "2"],
    ["sweep", "--map", "tent:2", "--metric", "standard", "--eps-list", "0,0.1",
     "--delta-list", "0.1"],
    ["sweep", "--map", "tent:2", "--metric", "standard", "--eps-list", "0.1",
     "--delta-list", "0.1", "--t0-list", "1,0"],
    ["sweep", "--map", "tent:2", "--metric", "standard", "--eps-list", ",",
     "--delta-list", "0.1"],
    ["check-metric", "standard", "--samples", "0"],
], ids=lambda argv: " ".join(argv))
def test_out_of_range_parameters_exit_2(tmp_path, orbit_file, capsys, argv):
    if argv[0] in ("shadow", "sweep", "density") and "--construction" not in argv:
        argv = argv + ["--orbit", orbit_file]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(out)])
    assert err.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_chain_endpoint_outside_domain(tmp_path, capsys, flag):
    ends = {"--from": "0.2", "--to": "0.8"}
    ends[flag] = "1.5"
    rc = main(["chain", "--map", "tent:2", "--metric", "standard",
               "--from", ends["--from"], "--to", ends["--to"], "--delta", "0.1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert f"{flag} 1.5 outside domain" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--u-center", "--v-center"])
def test_mix_center_outside_domain(tmp_path, capsys, flag):
    centers = {"--u-center": "0.2", "--v-center": "0.8"}
    centers[flag] = "5"
    out = tmp_path / "out"
    rc = main(["mix", "--map", "tent:2", "--metric", "standard",
               "--u-center", centers["--u-center"], "--u-radius", "0.9",
               "--v-center", centers["--v-center"], "--v-radius", "0.9",
               "--n-max", "4", "--out", str(out)])
    assert rc == 2
    assert f"{flag[2].upper()} center 5.0 outside domain of tent:2" in capsys.readouterr().err
    assert not out.exists()


def test_overlong_orbit_field_exits_2(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_bytes(b"index,value\r\n0,0." + b"1" * 140_000 + b"\r\n")
    out = tmp_path / "out"
    rc = main(["shadow", "--map", "tent:2", "--metric", "standard", "--eps", "0.1",
               "--orbit", str(big), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: line 2: field larger than field limit (131072)\n"
    assert not out.exists()


def _e43_standard_reports(orbit_path):
    """What shadow, chain --lengths and mix report on example43 under the
    standard metric on the domain (0, 1] itself."""
    f, m = example43_map(), StandardFuzzyMetric(lo_open=True)
    seq = orbits.OrbitSequence.from_csv(orbit_path)
    chain = orbits.chain_search(0.2, 0.45, f, m, 0.1, 1.0)
    return {
        "shadow": shadowing.shadow_search(seq, f, m, 0.2, 10.0).to_dict(),
        "chain": {"states": chain.states.tolist(),
                  "length_spectrum": orbits.chain_mixing_check(0.2, 0.45, f, m, 0.1,
                                                               1.0).to_dict()},
        "mix": shadowing.topological_mixing_probe(f, Ball(0.55, 0.1, 1.0), Ball(0.9, 0.1, 1.0),
                                                  m, 16, 1e-3).to_dict(),
    }


@pytest.mark.parametrize("argv", [
    ["shadow", "--eps", "0.2", "--t0", "10", "--orbit", "ORBIT"],
    ["chain", "--from", "0.2", "--to", "0.45", "--delta", "0.1", "--lengths"],
    ["mix", "--u-center", "0.55", "--u-radius", "0.1", "--v-center", "0.9",
     "--v-radius", "0.1", "--n-max", "16"],
], ids=lambda argv: argv[0])
def test_example43_under_the_standard_metric(tmp_path, argv):
    # the grid and the reach sets live in the map's domain (0, 1], not on
    # the standard metric's default space [0, 1]
    orbit = tmp_path / "crossing.csv"
    shadowing.build_nonshadowable_orbit(0.01).to_csv(orbit)
    out = tmp_path / "out"
    argv = [str(orbit) if a == "ORBIT" else a for a in argv]
    assert main(argv + ["--map", "example43", "--metric", "standard", "--out", str(out)]) == 0
    report = read_report(out, f"{argv[0]}.json")
    expected = _e43_standard_reports(orbit)[argv[0]]
    assert {k: report[k] for k in expected} == expected


@pytest.mark.parametrize("argv", [
    ["density", "--delta", "0.1"],
    ["sweep", "--eps-list", "0.1", "--delta-list", "0.1"],
    ["shadow", "--eps", "0.1"],
], ids=lambda argv: argv[0])
def test_orbit_states_outside_map_domain(tmp_path, capsys, argv):
    # tent:2 would extrapolate f(1.7) = -1.4 and count transition 2 as valid
    bad = tmp_path / "escaping.csv"
    bad.write_text("index,value\n0,0.3\n1,0.6\n2,1.7\n3,-1.4\n4,0.5\n")
    out = tmp_path / "out"
    rc = main(argv + ["--orbit", str(bad), "--map", "tent:2", "--metric", "standard",
                      "--out", str(out)])
    assert rc == 2
    assert "-1.4 outside domain of tent:2" in capsys.readouterr().err
    assert not out.exists()


def test_nonfinite_orbit_file_rejected(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("index,value\n0,0.3\n1,nan\n")
    rc = main(["density", "--orbit", str(bad), "--map", "tent:2",
               "--metric", "standard", "--delta", "0.1", "--out", str(tmp_path)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["shadow", "--map", "tent:2", "--metric", "ratio", "--eps", "0.1", "--grid", "1e-2",
     "--orbit", "ORBIT"],
    ["density", "--map", "tent:2", "--metric", "ratio-phi", "--delta", "0.1",
     "--orbit", "ORBIT"],
    ["chain", "--map", "tent:sqrt2", "--metric", "ratio", "--from", "0.2", "--to", "0.8",
     "--delta", "0.1"],
], ids=["shadow-ratio", "density-ratio-phi", "chain-ratio"])
def test_map_domain_outside_metric_space(tmp_path, capsys, argv):
    # tent orbits reach 0, where a ratio metric divides 0 by 0
    orbit = tmp_path / "to-zero.csv"
    orbit.write_text("index,value\n0,0.5\n1,1.0\n2,0.0\n3,0.0\n")
    out = tmp_path / "out"
    argv = [str(orbit) if a == "ORBIT" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv + ["--out", str(out)])
    assert rc == 2
    assert "is not inside the" in capsys.readouterr().err
    assert not out.exists()


# 1e12 grid points: numpy would refuse so large an array at once, and the
# grid cap refuses it first
_FINE_GRID = ["--grid", "1e-12"]


@pytest.mark.parametrize("argv", [
    *(["shadow", "--map", f"g:{alpha}", "--metric", "ratio", "--eps", "0.1", "--orbit", "ORBIT"]
      for alpha in ("inf", "-inf", "1e400", "nan")),
    ["shadow", "--map", "tent:2", "--metric", "standard", *_FINE_GRID, "--eps", "0.1",
     "--orbit", "ORBIT"],
    ["mix", "--map", "tent:2", "--metric", "standard", *_FINE_GRID, "--u-center", "0.2",
     "--u-radius", "0.1", "--v-center", "0.8", "--v-radius", "0.1"],
    ["sweep", "--map", "tent:2", "--metric", "standard", *_FINE_GRID, "--orbit", "ORBIT",
     "--eps-list", "0.1", "--delta-list", "0.01"],
], ids=lambda argv: " ".join(a for a in argv if a != "ORBIT"))
def test_bad_input_is_a_usage_error(tmp_path, capsys, orbit_file, argv):
    # an exception escaping main would fail the test; a usage error exits 2
    argv = [orbit_file if a == "ORBIT" else a for a in argv]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# the true float orbit of 0.3 under tent:sqrt2, 51 states: below float
# resolution shadow answered "no witness" and chain "none"
_SQRT2 = "tent:sqrt2"


def _sqrt2_slack_bound():
    """The greatest float at or below the standard metric's float slack on
    tent:sqrt2 at t0 = 1."""
    f = systems.map_from_spec(_SQRT2)
    slack = StandardFuzzyMetric().float_slack(f, 1.0)
    bound = float(slack)
    return math.nextafter(bound, -math.inf) if bound > slack else bound


@pytest.fixture
def sqrt2_orbit(tmp_path):
    path = tmp_path / "sqrt2.csv"
    systems.map_from_spec(_SQRT2).orbit(0.3, 50).to_csv(path)
    return str(path)


_TINY_RADIUS_CASES = [
    (["shadow", "--eps", "1e-17"], "--eps 1e-17"),
    (["shadow", "--eps", "1e-15"], "--eps 1e-15"),
    (["shadow", "--eps", "BOUND"], "--eps BOUND"),
    (["density", "--delta", "1e-17"], "--delta 1e-17"),
    (["sweep", "--eps-list", "0.1,1e-17", "--delta-list", "0.1"], "--eps-list 1e-17"),
    (["sweep", "--eps-list", "0.1", "--delta-list", "0.1,1e-17"], "--delta-list 1e-17"),
]


@pytest.mark.parametrize("argv, named", _TINY_RADIUS_CASES,
                         ids=[" ".join(argv) for argv, _ in _TINY_RADIUS_CASES])
def test_radii_below_float_resolution_exit_2(tmp_path, capsys, sqrt2_orbit, argv, named):
    bound = repr(_sqrt2_slack_bound())
    argv = [bound if a == "BOUND" else a for a in argv]
    out = tmp_path / "out"
    rc = main(argv + ["--map", _SQRT2, "--metric", "standard", "--orbit", sqrt2_orbit,
                      "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"error: {named.replace('BOUND', bound)} is too small to decide in floats: "
                   f"it must exceed {bound}, the float slack of standard on tent:1.41421 "
                   "at t0 1.0\n")
    assert not out.exists()


def test_a_chain_below_float_resolution_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["chain", "--map", _SQRT2, "--metric", "standard", "--from", "0.3",
               "--to", "0.4242640687119285", "--delta", "1e-17", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: delta 1e-17 is too small to decide in floats: it must exceed ")
    assert "Traceback" not in err and not out.exists()


_MIX = ["mix", "--map", "tent:2", "--metric", "standard", "--u-center", "0.2",
        "--v-center", "0.8", "--n-max", "8"]


def _tent2_slack_bound(t0):
    """The greatest float at or below the standard metric's float slack on
    tent:2 at t0."""
    slack = StandardFuzzyMetric().float_slack(tent(2.0), t0)
    bound = float(slack)
    return math.nextafter(bound, -math.inf) if bound > slack else bound


@pytest.mark.parametrize("u_radius, v_radius, t0, named", [
    ("1e-17", "0.1", 1.0, "--u-radius 1e-17"),  # was "no grid point inside the source ball"
    ("0.1", "0.1", 1e-300, "--u-radius 0.1"),  # was exit 0, with a slack of 2.2e285
    ("0.1", "1e-17", 1.0, "--v-radius 1e-17"),
])
def test_mix_radii_below_float_resolution_exit_2(tmp_path, capsys, u_radius, v_radius, t0,
                                                 named):
    out = tmp_path / "out"
    rc = main(_MIX + ["--u-radius", u_radius, "--v-radius", v_radius, "--t0", repr(t0),
                      "--out", str(out)])
    assert rc == 2
    bound = repr(_tent2_slack_bound(t0))
    assert capsys.readouterr().err == (
        f"error: {named} is too small to decide in floats: it must exceed {bound}, "
        f"the float slack of standard on tent:2 at t0 {t0!r}\n")
    assert not out.exists()


_SUBNORMAL_HORIZON_CASES = [
    ["shadow", "--eps", "0.1", "--orbit", "ORBIT"],
    ["density", "--delta", "0.1", "--orbit", "ORBIT"],
    ["sweep", "--eps-list", "0.1", "--delta-list", "0.1", "--orbit", "ORBIT"],
    ["mix", "--u-center", "0.2", "--u-radius", "0.1", "--v-center", "0.8", "--v-radius", "0.1"],
    ["chain", "--from", "0.2", "--to", "0.8", "--delta", "0.1"],
]


@pytest.mark.parametrize("t0", ["5e-324", "1e-323"])
@pytest.mark.parametrize("argv", _SUBNORMAL_HORIZON_CASES, ids=lambda argv: argv[0])
def test_subnormal_horizons_exit_2_naming_the_largest_float(tmp_path, capsys, orbit_file,
                                                             argv, t0):
    # the float slack passes the largest float, which overflowed with a traceback
    argv = [orbit_file if a == "ORBIT" else a for a in argv]
    horizon = ["--t0-list" if argv[0] == "sweep" else "--t0", t0]
    out = tmp_path / "out"
    rc = main(argv + horizon + ["--map", "tent:2", "--metric", "standard", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "is too small to decide in floats: it must exceed 1.7976931348623157e+308" in err
    assert not out.exists()


def test_mix_radius_just_above_float_resolution_runs(tmp_path, capsys):
    above = repr(math.nextafter(_tent2_slack_bound(1.0), math.inf))
    rc = main(_MIX + ["--u-radius", above, "--v-radius", "0.1", "--out", str(tmp_path)])
    assert rc in (0, 1) and capsys.readouterr().err == ""
    assert read_report(tmp_path, "mix.json")["u"]["radius"] == float(above)


@pytest.mark.parametrize("argv", [
    ["shadow", "--eps", "ABOVE", "--orbit", "ORBIT"],
    ["density", "--delta", "ABOVE", "--orbit", "ORBIT"],
    ["sweep", "--eps-list", "ABOVE", "--delta-list", "ABOVE", "--orbit", "ORBIT"],
    ["chain", "--from", "0.3", "--to", "0.4242640687119285", "--delta", "CHAIN_ABOVE"],
], ids=lambda argv: argv[0])
def test_radii_just_above_float_resolution_still_run(tmp_path, capsys, sqrt2_orbit, argv):
    f = systems.map_from_spec(_SQRT2)
    least = 4 * Fraction(2.0**-52) + 2 * StandardFuzzyMetric().float_slack(f, 1.0)
    # the float after the nearest float of a bound exceeds the bound
    subs = {"ABOVE": repr(math.nextafter(_sqrt2_slack_bound(), math.inf)), "ORBIT": sqrt2_orbit,
            "CHAIN_ABOVE": repr(math.nextafter(float(least), math.inf))}
    argv = [subs.get(a, a) for a in argv]
    rc = main(argv + ["--map", _SQRT2, "--metric", "standard", "--out", str(tmp_path)])
    assert rc in (0, 1) and capsys.readouterr().err == ""
    if argv[0] == "shadow":
        assert rc == 0 and read_report(tmp_path, "shadow.json")["witness"] == 0.3
