import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covertower.characteristic import mod2_homology_cover
from covertower.cli import main
from covertower.covers import enumerate_covers
from covertower.documents import (
    counterexample_document,
    cover_document,
    cycle_document,
    dumps_canonical,
    element_document,
    parse_cover,
    parse_element,
    track_document,
    vaut_document,
)
from covertower.homology import surface_complex
from covertower.limits import base_class_element, cycle_element, limit_equal, track_element
from covertower.traintrack import lift_track, three_branch_example
from covertower.vauts import identity_vaut, vaut_act
from conftest import double_cover_from_signs


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps_canonical(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_enumerate_streams_json_lines(capsys):
    code, out = run(capsys, "enumerate", "--genus", "2", "--degree", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    parsed = {parse_cover(json.loads(line)) for line in lines}
    assert parsed == set(enumerate_covers(2, 2))


def test_enumerate_budget_exit(capsys):
    code, _ = run(capsys, "enumerate", "--genus", "2", "--degree", "3", "--budget", "10")
    assert code == 3


def test_genus_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    path = write_doc(tmp_path, "cover.json", cover_document(cover))
    code, out = run(capsys, "genus", "--cover", path)
    assert code == 0
    assert out.strip() == "3"
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps_canonical(cover_document(cover))))
    code, out = run(capsys, "genus", "--cover", "-")
    assert code == 0
    assert out.strip() == "3"


def test_fiber_product_document(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", cover_document(double_cover_from_signs(2, (1, 0, 0, 0))))
    b = write_doc(tmp_path, "b.json", cover_document(double_cover_from_signs(2, (0, 1, 0, 0))))
    code, out = run(capsys, "fiber-product", a, b)
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "fiber-product"
    assert parse_cover(doc["cover"]).degree == 4
    assert sorted(doc["to_first"]) == [1, 1, 2, 2]
    assert sorted(doc["to_second"]) == [1, 1, 2, 2]


def test_lift_cycle_matches_transfer(tmp_path, capsys):
    cover = double_cover_from_signs(2, (0, 0, 1, 0))
    path = write_doc(tmp_path, "cover.json", cover_document(cover))
    code, out = run(capsys, "lift-cycle", "--cover", path, "--class", "[1,0,0,0]")
    assert code == 0
    got = parse_element(json.loads(out))
    want = cycle_element(cover, surface_complex(cover).transfer((1, 0, 0, 0)))
    assert limit_equal(got, want)


def test_pairing_prints_rational(tmp_path, capsys):
    e1 = write_doc(tmp_path, "e1.json", element_document(base_class_element(2, (1, 0, 0, 0))))
    e2 = write_doc(tmp_path, "e2.json", element_document(base_class_element(2, (0, 1, 0, 0))))
    code, out = run(capsys, "pairing", "--e1", e1, "--e2", e2)
    assert code == 0
    assert out.strip() == "1"


def test_lift_track_document(tmp_path, capsys):
    track = write_doc(tmp_path, "track.json", track_document(three_branch_example()))
    cover = write_doc(
        tmp_path, "cover.json", cover_document(double_cover_from_signs(2, (1, 0, 0, 0)))
    )
    code, out = run(capsys, "lift-track", "--track", track, "--cover", cover)
    assert code == 0
    doc = json.loads(out)
    matrix = doc["matrix"]
    assert len(matrix) == 6
    for j in range(3):
        assert sum(row[j] for row in matrix) == 2


def test_char_refine_and_budget(tmp_path, capsys):
    path = write_doc(
        tmp_path, "cover.json", cover_document(double_cover_from_signs(2, (1, 1, 1, 1)))
    )
    code, out = run(capsys, "char-refine", "--cover", path)
    assert code == 0
    assert parse_cover(json.loads(out)) == mod2_homology_cover(2)
    code, _ = run(capsys, "char-refine", "--cover", path, "--budget", "8")
    assert code == 3


def test_is_char_builtin(tmp_path, capsys):
    yes = write_doc(tmp_path, "mod2.json", cover_document(mod2_homology_cover(2)))
    code, out = run(capsys, "is-char", "--cover", yes, "--auts", "builtin")
    assert code == 0
    assert out.strip() == "true"
    no = write_doc(
        tmp_path, "swap.json", cover_document(double_cover_from_signs(2, (1, 0, 0, 0)))
    )
    code, out = run(capsys, "is-char", "--cover", no, "--auts", "builtin")
    assert code == 0
    assert out.strip() == "false"


def test_vaut_act_roundtrip(tmp_path, capsys):
    vaut = identity_vaut(2)
    elem = base_class_element(2, (1, 2, 0, -1))
    vp = write_doc(tmp_path, "vaut.json", vaut_document(vaut))
    ep = write_doc(tmp_path, "elem.json", element_document(elem))
    code, out = run(capsys, "vaut-act", "--vaut", vp, "--elem", ep)
    assert code == 0
    got = parse_element(json.loads(out))
    assert limit_equal(got, vaut_act(vaut, elem))


def test_verify_suite_ok(capsys):
    code, out = run(capsys, "verify", "--suite", "riemann-hurwitz", "--max-degree", "2")
    assert code == 0
    assert out.startswith("suite riemann-hurwitz: ok")


def test_verify_needs_mode(capsys):
    code, _ = run(capsys, "verify")
    assert code == 2


def test_verify_replay_exit_codes(tmp_path, capsys):
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    cx = surface_complex(cover)
    c1 = cycle_document(cycle_element(cover, cx.transfer((1, 0, 0, 0))))
    c2 = cycle_document(cycle_element(cover, cx.transfer((0, 1, 0, 0))))
    holds = counterexample_document(
        "pairing-invariance",
        {"cover": cover_document(cover), "c1": c1, "c2": c2, "moved1": c1, "moved2": c2},
    )
    path = write_doc(tmp_path, "holds.json", holds)
    code, out = run(capsys, "verify", "--replay", path)
    assert code == 0
    assert "property holds" in out

    moved = cycle_document(cycle_element(cover, cx.transfer((1, 0, 1, 0))))
    fails = counterexample_document(
        "pairing-invariance",
        {"cover": cover_document(cover), "c1": c1, "c2": c2, "moved1": moved, "moved2": c2},
    )
    path = write_doc(tmp_path, "fails.json", fails)
    code, out = run(capsys, "verify", "--replay", path)
    assert code == 1
    assert "reproduces" in out


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("vector", ["[1.5,0,0,0.9]", "[true,0,0,0]", '[1,"2",0,0]', "[0,0,0,1.0]", "5"])
def test_lift_cycle_takes_integer_class_entries_only(tmp_path, capsys, vector):
    cp = write_doc(tmp_path, "cover.json", cover_document(double_cover_from_signs(2, (1, 0, 0, 0))))
    code, err = run_err(capsys, "lift-cycle", "--cover", cp, "--class", vector)
    assert code == 2
    assert "bad class vector" in err and "--class" in err and "Traceback" not in err
    assert capsys.readouterr().out == ""


def test_verify_suite_choices_are_the_suites():
    from covertower.cli import build_parser
    from covertower.verify import _REPLAYS, SUITES

    commands = next(a for a in build_parser()._actions if a.dest == "command")
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert list(suite.choices) == list(SUITES) == list(_REPLAYS)


def test_verify_replay_missing_field_exit_2(tmp_path, capsys):
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    for data in ({}, {"cover": 5}, {"cover": {"genus": 2}}):
        doc = counterexample_document("riemann-hurwitz", data)
        path = write_doc(tmp_path, "rh.json", doc)
        code, err = run_err(capsys, "verify", "--replay", path)
        assert code == 2
        assert "'cover'" in err and "Traceback" not in err
    holds = counterexample_document("riemann-hurwitz", {"cover": cover_document(cover)})
    code, _ = run(capsys, "verify", "--replay", write_doc(tmp_path, "ok.json", holds))
    assert code == 0
    vaut = counterexample_document("theorem3", {"what": "vaut-preservation", "e1": {}})
    code, err = run_err(capsys, "verify", "--replay", write_doc(tmp_path, "t3.json", vaut))
    assert code == 2
    assert "'vaut'" in err


def test_verify_replay_cycles_on_another_cover_exit_2(tmp_path, capsys):
    # cycles on cover A under a 'cover' field naming cover B are bad input,
    # not a property that holds on B
    a = double_cover_from_signs(2, (1, 0, 0, 0))
    b = double_cover_from_signs(2, (0, 1, 0, 0))
    cx = surface_complex(a)
    c1 = cycle_document(cycle_element(a, cx.transfer((1, 0, 0, 0))))
    c2 = cycle_document(cycle_element(a, cx.transfer((0, 1, 0, 0))))
    data = {"cover": cover_document(b), "c1": c1, "c2": c2, "moved1": c1, "moved2": c2}
    doc = counterexample_document("pairing-invariance", data)
    code, err = run_err(capsys, "verify", "--replay", write_doc(tmp_path, "ab.json", doc))
    assert code == 2
    assert "'c1'" in err and "Traceback" not in err


def test_lift_track_of_a_48_branch_track(tmp_path, capsys):
    # the cone check on this source used to exceed the ray-search budget: exit 3
    lifted, _ = lift_track(three_branch_example(), mod2_homology_cover(2))
    track = write_doc(tmp_path, "track.json", track_document(lifted.track))
    cover = write_doc(
        tmp_path, "cover.json", cover_document(double_cover_from_signs(2, (1, 0, 0, 0)))
    )
    code, out = run(capsys, "lift-track", "--track", track, "--cover", cover)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["branches"]) == 96
    assert all(sum(col) == 2 for col in zip(*doc["matrix"]))


def test_out_of_range_word_letters_exit_2(tmp_path, capsys):
    doc = vaut_document(identity_vaut(2))
    doc["identification"]["fwd"][0] = [9]
    vp = write_doc(tmp_path, "vaut.json", doc)
    ep = write_doc(tmp_path, "elem.json", element_document(base_class_element(2, (1, 0, 0, 0))))
    code, err = run_err(capsys, "vaut-act", "--vaut", vp, "--elem", ep)
    assert code == 2
    assert "identification.fwd[0]" in err

    doc = track_document(three_branch_example())
    doc["branch_words"][0] = [9]
    track = write_doc(tmp_path, "track.json", doc)
    cover = write_doc(
        tmp_path, "cover.json", cover_document(double_cover_from_signs(2, (1, 0, 0, 0)))
    )
    code, err = run_err(capsys, "lift-track", "--track", track, "--cover", cover)
    assert code == 2
    assert "branch_words[0]" in err


def test_bad_documents_exit_2(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    code, _ = run(capsys, "genus", "--cover", str(garbage))
    assert code == 2
    code, _ = run(capsys, "genus", "--cover", str(tmp_path / "missing.json"))
    assert code == 2
    wrong = write_doc(tmp_path, "wrong.json", {"schema": "covertower/1", "type": "mystery"})
    code, _ = run(capsys, "genus", "--cover", wrong)
    assert code == 2


def test_orbit_report(capsys):
    code, out = run(capsys, "orbit", "--steps", "64", "--targets", "16", "--seed", "0")
    assert code == 0
    assert out.startswith("# seed\t0")
    assert "steps\torbit_size\tcovering_radius" in out


@pytest.mark.parametrize(
    "argv, option",
    [
        (("enumerate", "--genus", "1", "--degree", "2"), "--genus"),
        (("verify", "--suite", "riemann-hurwitz", "--genus", "0"), "--genus"),
        (("orbit", "--steps", "-5"), "--steps"),
        (("orbit", "--targets", "0"), "--targets"),
        (("enumerate", "--genus", "2", "--degree", "0"), "--degree"),
        (("enumerate", "--genus", "2", "--degree", "-1"), "--degree"),
        (("enumerate", "--genus", "2", "--degree", "2", "--budget", "-5"), "--budget"),
        (("char-refine", "--cover", "-", "--budget", "0"), "--budget"),
        (("verify", "--suite", "riemann-hurwitz", "--max-degree", "0"), "--max-degree"),
        (("orbit", "--seed", "-1"), "--seed"),
    ],
)
def test_numeric_options_are_range_checked(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"argument {option}: must be at least" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--genus", "2", "--degree", "2", "--jobs", "2"),
        ("verify", "--suite", "riemann-hurwitz", "--jobs", "2"),
    ],
)
def test_jobs_is_an_unknown_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_budget_variable_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("COVERTOWER_BUDGET", value)
    assert main(["enumerate", "--genus", "2", "--degree", "2"]) == 2
    assert "COVERTOWER_BUDGET" in capsys.readouterr().err


def test_closed_pipe_exits_quietly():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from covertower.cli import main; sys.exit(main())",
         "enumerate", "--genus", "2", "--degree", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # no reader is left, so the first write breaks the pipe
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_internal_errors_exit_4_with_a_traceback(tmp_path, capsys, monkeypatch):
    import covertower.cli as cli

    def broken(cover):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "surface_complex", broken)
    path = write_doc(tmp_path, "cover.json", cover_document(double_cover_from_signs(2, (1, 0, 0, 0))))
    code, err = run_err(capsys, "genus", "--cover", path)
    assert code == 4
    assert "internal error: ValueError: boom" in err
    assert "Traceback" in err


def test_bad_input_still_exits_2_without_a_traceback(tmp_path, capsys):
    doc = vaut_document(identity_vaut(2))
    doc["base_genus"] = "two"
    vp = write_doc(tmp_path, "vaut.json", doc)
    ep = write_doc(tmp_path, "elem.json", element_document(base_class_element(2, (1, 0, 0, 0))))
    code, err = run_err(capsys, "vaut-act", "--vaut", vp, "--elem", ep)
    assert code == 2
    assert "base_genus" in err and "Traceback" not in err
    cp = write_doc(tmp_path, "cover.json", cover_document(double_cover_from_signs(2, (1, 0, 0, 0))))
    code, err = run_err(capsys, "lift-cycle", "--cover", cp, "--class", "[1e999,0,0,0]")
    assert code == 2
    assert "bad class vector" in err and "Traceback" not in err


@pytest.mark.parametrize("branch_words", [[[5], [5], []], [[1], [1], []]])
def test_track_element_of_another_genus_exits_2(tmp_path, capsys, branch_words):
    track, cover = three_branch_example(), double_cover_from_signs(2, (1, 0, 0, 0))
    _, matrix = lift_track(track, cover)
    doc = element_document(track_element(track, cover, matrix.apply((2, 1, 1))))
    doc["track"].update(genus=3, branch_words=branch_words)
    vp = write_doc(tmp_path, "vaut.json", vaut_document(identity_vaut(2)))
    ep = write_doc(tmp_path, "elem.json", doc)
    code, err = run_err(capsys, "vaut-act", "--vaut", vp, "--elem", ep)
    assert code == 2
    assert "track has genus 3, cover has base genus 2" in err and "Traceback" not in err



@pytest.mark.parametrize(
    "argv, env, code, message",
    [
        (["--budget", "0"], {}, 2, "argument --budget: must be at least 1, got 0"),
        (["--genus", "1"], {}, 2, "argument --genus: must be at least 2, got 1"),
        (["--max-degree", "0"], {}, 2, "argument --max-degree: must be at least 1, got 0"),
        (["--max-degree", "x"], {}, 2, "argument --max-degree: invalid int value"),
        ([], {"COVERTOWER_BUDGET": "abc"}, 2, "COVERTOWER_BUDGET"),
        (["--max-degree", "3", "--budget", "10"], {}, 3, "budget exceeded"),
        (["--max-degree", "2"], {}, 0, ""),
    ],
)
def test_census_script_checks_its_options(argv, env, code, message):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **env)
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "enumerate_census.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert [row.split("\t")[:3] for row in proc.stdout.splitlines()[1:]] == [
            ["1", "1", "2"],
            ["2", "15", "3"],
        ]
