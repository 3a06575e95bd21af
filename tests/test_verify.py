import ast
import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from covertower import verify

from covertower.characteristic import shipped_automorphisms
from covertower.covers import (
    enumerate_covers,
    factors_through,
    trivial_cover,
)
from covertower.documents import (
    DocumentError,
    counterexample_document,
    cover_document,
    cycle_document,
    dumps_canonical,
    element_document,
    parse_counterexample,
    rational_str,
    vaut_document,
)
from covertower.errors import BadDegree, CovertowerError
from covertower.homology import CoverComplex, surface_complex
from covertower.limits import (
    base_class_element,
    cycle_element,
    lift_element,
    normalized_pairing,
)
from covertower.surface import standard_symplectic
from covertower.vauts import restrict_vaut
from covertower.verify import SUITES, replay_counterexample, run_suite
from conftest import double_cover_from_signs


def transfer_doc(cover, v):
    cx = surface_complex(cover)
    return cycle_document(cycle_element(cover, cx.transfer(v)))


def test_all_suites_pass_at_degree2():
    for suite in SUITES:
        result = run_suite(suite, genus=2, max_degree=2, seed=0, jobs=1)
        assert result.ok, f"{suite}: {result.lines}"
        assert result.counterexample is None
        assert result.lines
        assert result.report().startswith(f"suite {suite}: ok")
    sweep = run_suite("riemann-hurwitz", genus=2, max_degree=2)
    assert "degree 2: 15 covers checked" in sweep.lines


def test_run_suite_accepts_only_one_job():
    with pytest.raises(ValueError, match="jobs"):
        run_suite("riemann-hurwitz", genus=2, max_degree=2, jobs=2)


@pytest.mark.parametrize("genus, max_degree, message", [
    (2, 0, "max_degree must be an integer at least 1, got 0"),
    (2, -1, "max_degree must be an integer at least 1, got -1"),
    (2, True, "max_degree must be an integer at least 1, got True"),
    (2, 2.5, r"max_degree must be an integer at least 1, got 2\.5"),
    (2, "3", "max_degree must be an integer at least 1, got '3'"),
    (1, 2, "genus must be an integer at least 2, got 1"),
    (2.0, 2, r"genus must be an integer at least 2, got 2\.0"),
])
def test_run_suite_names_a_bad_genus_or_degree_before_it_runs(genus, max_degree, message):
    """Never a vacuous ok with no lines, a bool read as degree 1, or a bare TypeError."""
    for suite in SUITES:
        with pytest.raises(BadDegree, match=f"^{message}$"):
            run_suite(suite, genus, max_degree)


@pytest.mark.parametrize("seed, shown", [
    (True, "True"), (2.0, r"2\.0"), (None, "None"), ([1], r"\[1\]"), ("x", "'x'"),
], ids=["bool", "float", "none", "list", "str"])
def test_run_suite_names_a_seed_that_is_not_an_integer(seed, shown):
    """Never an ok run on a seed that is no integer, nor True read apart from 1."""
    for suite in SUITES:
        with pytest.raises(CovertowerError, match=f"^seed must be an integer, got {shown}$"):
            run_suite(suite, 2, 2, seed)
    assert run_suite("pairing-invariance", 2, 2, -3).ok


def _with_check(monkeypatch, suite, check):
    """Run the suite's first stage with check in place of its own."""
    first, *rest = SUITES[suite]
    monkeypatch.setitem(SUITES, suite, (dataclasses.replace(first, check=check), *rest))


def test_sweep_stops_at_first_failure(monkeypatch):
    # degree 1 has one cover, so the 4th cover is the 3rd of degree 2
    order = list(enumerate_covers(2, 1) + enumerate_covers(2, 2))
    calls = []

    def check(cover):
        calls.append(cover)
        return {} if len(calls) == 4 else None

    _with_check(monkeypatch, "riemann-hurwitz", check)
    result = run_suite("riemann-hurwitz", 2, 3)
    assert calls == order[:4]
    assert not result.ok
    assert result.lines == ("degree 1: 1 covers checked", "degree 2: counterexample found")
    assert result.counterexample == counterexample_document(
        "riemann-hurwitz", {"cover": cover_document(order[3])}
    )


def test_unknown_suite():
    with pytest.raises(DocumentError):
        run_suite("no-such-suite")
    with pytest.raises(DocumentError):
        replay_counterexample("no-such-suite", {})


def test_replay_riemann_hurwitz_holds():
    cover = enumerate_covers(2, 2)[4]
    data = {"cover": cover_document(cover)}
    assert replay_counterexample("riemann-hurwitz", data)


def test_riemann_hurwitz_never_builds_the_faces():
    # the suite traces the faces for the genus and keeps none; the faces are
    # kept on first read, which only the homology data and the boundaries make
    surface_complex.cache_clear()
    result = run_suite("riemann-hurwitz", 2, 4)
    assert result.ok
    assert result.lines[-1] == "degree 4: 5275 covers checked"
    size = 1 + 15 + 220 + 5275
    assert surface_complex.cache_info().currsize == size
    for d in range(1, 5):
        for cover in enumerate_covers(2, d):
            assert surface_complex(cover)._faces is None
    # every complex read above was a cached one
    assert surface_complex.cache_info().currsize == size


def test_riemann_hurwitz_reports_a_corrupted_rotation(monkeypatch):
    # the genus is traced from the rotation system, not read off the lifted
    # faces, so a wrong rotation is a counterexample and not a definition
    cover = enumerate_covers(2, 2)[0]
    cx = surface_complex(cover)
    ring = list(cx.rotation[0])
    ring[0], ring[1] = ring[1], ring[0]
    monkeypatch.setattr(cx, "rotation", [ring, *cx.rotation[1:]])
    assert cx.genus != cover.total_genus
    result = run_suite("riemann-hurwitz", genus=2, max_degree=2)
    assert not result.ok
    data = {"cover": cover_document(cover), "expected_genus": 3, "got_genus": cx.genus}
    assert result.counterexample == counterexample_document("riemann-hurwitz", data)
    assert not replay_counterexample("riemann-hurwitz", data)
    monkeypatch.undo()
    assert replay_counterexample("riemann-hurwitz", data)


def test_replay_transfer_scaling_holds():
    cover = double_cover_from_signs(2, (1, 1, 0, 0))
    assert replay_counterexample("transfer-scaling", {"cover": cover_document(cover)})


def test_replay_pairing_invariance_both_ways():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    cx = surface_complex(cover)
    c1 = transfer_doc(cover, (1, 0, 0, 0))
    c2 = transfer_doc(cover, (0, 1, 0, 0))
    holds = {"cover": cover_document(cover), "c1": c1, "c2": c2, "moved1": c1, "moved2": c2}
    assert replay_counterexample("pairing-invariance", holds)
    # moving c1 by a full extra class is not a boundary move, so the claimed
    # equality genuinely fails and the replay reproduces the failure
    shifted = cx.transfer((1, 0, 1, 0))
    fails = dict(holds)
    fails["moved1"] = cycle_document(cycle_element(cover, shifted))
    assert not replay_counterexample("pairing-invariance", fails)


def test_replay_vaut_laws():
    e = base_class_element(2, (1, 0, 0, 0))
    data = {"law": "identity", "element": element_document(e)}
    assert replay_counterexample("vaut-laws", data)
    with pytest.raises(DocumentError):
        replay_counterexample("vaut-laws", {"law": "mystery"})
    # only theorem3 reads a missing tag as its first stage
    with pytest.raises(DocumentError, match="'law'"):
        replay_counterexample("vaut-laws", {"element": element_document(e)})

    auts = {a.name: a for a in shipped_automorphisms(2)}
    twist = auts["twist_b1_along_a1"]
    swap = auts["handle_swap"]
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    restricted = restrict_vaut(swap, cover)
    for v in (twist, swap, restricted):
        data = {"law": "inverse", "vaut": vaut_document(v), "element": element_document(e)}
        assert replay_counterexample("vaut-laws", data)

    fine = lift_element(e, factors_through(cover, trivial_cover(2)))
    data = {
        "law": "representative-independence",
        "vaut": vaut_document(twist),
        "element": element_document(e),
        "fine": element_document(fine),
    }
    assert replay_counterexample("vaut-laws", data)
    # a "fine" representative of a different class: the law genuinely fails
    other = cycle_element(cover, surface_complex(cover).transfer((0, 1, 0, 0)))
    assert not replay_counterexample("vaut-laws", dict(data, fine=element_document(other)))

    for v1, v2 in ((twist, swap), (swap, restricted)):
        data = {
            "law": "composition",
            "vaut1": vaut_document(v1),
            "vaut2": vaut_document(v2),
            "element": element_document(e),
        }
        assert replay_counterexample("vaut-laws", data)


def test_replay_theorem3_detects_orientation_reversal():
    lift_ok = {"cover": cover_document(double_cover_from_signs(2, (0, 1, 1, 0)))}
    assert replay_counterexample("theorem3", lift_ok)
    flip = next(a for a in shipped_automorphisms(2) if a.name == "ab_flip")
    data = {
        "what": "vaut-preservation",
        "vaut": vaut_document(flip),
        "e1": element_document(base_class_element(2, (1, 0, 0, 0))),
        "e2": element_document(base_class_element(2, (0, 1, 0, 0))),
    }
    assert not replay_counterexample("theorem3", data)


@pytest.mark.parametrize("suite, key", [("theorem3", "what"), ("vaut-laws", "law")])
@pytest.mark.parametrize("name", ["mystery", 3, ["lift-invariance"], "pushforward"])
def test_replay_names_an_unknown_stage(suite, key, name):
    """An unknown stage tag is bad input, never read as another stage."""
    data = {key: name, "cover": cover_document(double_cover_from_signs(2, (0, 1, 1, 0)))}
    with pytest.raises(DocumentError, match=f"^counterexample field '{key}': unknown stage"):
        replay_counterexample(suite, data)


def test_counterexample_documents_serialize():
    cover = enumerate_covers(2, 2)[0]
    doc = counterexample_document("riemann-hurwitz", {"cover": cover_document(cover)})
    suite, data = parse_counterexample(json.loads(dumps_canonical(doc)))
    assert replay_counterexample(suite, data)


def _perturbed_forms(call, i, j):
    """standard_symplectic stand-in, off by one at [i][j], [i][j+1] and [j][i] on one call.

    Wrong entries in one row and in one column make the order of pairs
    matter, and the call number picks the cover that fails first.
    """
    calls = []

    def form(genus):
        calls.append(genus)
        out = [list(row) for row in standard_symplectic(genus)]
        if len(calls) == call:
            for a, b in {(i, j), (i, (j + 1) % len(out)), (j, i)}:
                out[a][b] += 1
        return out

    return form


def _reference_failure(suite, form_of, max_degree):
    """First failure of a suite, found with one pairing call per pair."""
    n = 4
    basis = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    for degree in range(1, max_degree + 1):
        for cover in enumerate_covers(2, degree):
            cx = surface_complex(cover)
            form = form_of(2)
            if suite == "transfer-scaling":
                transfers = [cx.transfer(v) for v in basis]
                for i, j in itertools.product(range(n), repeat=2):
                    got = cx.intersection(transfers[i], transfers[j])
                    if got != cover.degree * form[i][j]:
                        return {"cover": cover_document(cover), "what": "pairing",
                                "pair": [i, j], "expected": cover.degree * form[i][j],
                                "got": got}
                continue
            bases = [base_class_element(2, v) for v in basis]
            lifted = [cycle_element(cover, cx.transfer(v)) for v in basis]
            for i, j in itertools.product(range(n), repeat=2):
                want = Fraction(form[i][j], 2 - 1)  # genus - 1
                for after in (normalized_pairing(lifted[i], lifted[j]),
                              normalized_pairing(bases[i], lifted[j])):
                    if after != want:
                        return {"what": "lift-invariance", "cover": cover_document(cover),
                                "pair": [i, j], "before": rational_str(want),
                                "after": rational_str(after)}
    return None


def _check_each_cover_against(monkeypatch, suite, form_of):
    """Make the suite take its expected form from form_of(genus), once per cover.

    The suites build their constants once; wrapping the stage's check puts
    a fault on exactly one cover, as _reference_failure does.
    """
    check = SUITES[suite][0].check
    if suite == "theorem3":
        def one(cover, wants, base):
            g = cover.genus
            wants = [[Fraction(x, g - 1) for x in row] for row in form_of(g)]
            return check(cover, wants=wants, base=base)
    else:
        def one(cover, form, basis):
            return check(cover, form=form_of(cover.genus), basis=basis)

    _with_check(monkeypatch, suite, one)


@pytest.mark.parametrize("suite", ["theorem3", "transfer-scaling"])
@pytest.mark.parametrize("call, i, j", [(1, 0, 1), (2, 3, 3), (9, 2, 0), (40, 3, 1)])
def test_first_counterexample_matches_per_pair_reference(monkeypatch, suite, call, i, j):
    _check_each_cover_against(monkeypatch, suite, _perturbed_forms(call, i, j))
    result = run_suite(suite, genus=2, max_degree=3)
    want = _reference_failure(suite, _perturbed_forms(call, i, j), 3)
    assert not result.ok and want is not None
    assert dumps_canonical(result.counterexample) == dumps_canonical(
        counterexample_document(suite, want)
    )


# -- failure paths that no other test reaches through run_suite.  Each test
# breaks a name on one case, then pins the report lines and the sha256 of the
# canonical counterexample bytes, and replays the document with the break
# in place (it reproduces) and undone (the property holds).


def _pinned_failure(monkeypatch, suite, max_degree, lines, digest):
    result = run_suite(suite, genus=2, max_degree=max_degree)
    assert not result.ok
    assert result.lines == lines
    doc = dumps_canonical(result.counterexample)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
    got_suite, data = parse_counterexample(json.loads(doc))
    assert got_suite == suite
    assert not replay_counterexample(suite, data)
    monkeypatch.undo()
    assert replay_counterexample(suite, data)
    return data


def test_pairing_invariance_reports_a_broken_intersection(monkeypatch):
    target = enumerate_covers(2, 3)[17]
    intersection = CoverComplex.intersection

    def broken(self, chain1, chain2):
        return intersection(self, chain1, chain2) + (self.cover == target)

    monkeypatch.setattr(CoverComplex, "intersection", broken)
    lines = ("degree 1: 1 covers checked", "degree 2: 15 covers checked",
             "degree 3: counterexample found")
    digest = "9ee5aafc81469ed45d6af2029c5f668d449a54a2be9bbc38f90b8b36182530b0"
    data = _pinned_failure(monkeypatch, "pairing-invariance", 3, lines, digest)
    assert data["cover"] == cover_document(target)


def _break_one_call(monkeypatch, name, suite, call):
    """Make the predicate verify.<name> answer False on the arguments of its
    call-th call (from 0) in an unbroken run of the suite."""
    check = getattr(verify, name)
    calls = []
    monkeypatch.setattr(verify, name, lambda *args: calls.append(args) or check(*args))
    assert run_suite(suite, genus=2, max_degree=2).ok
    target = calls[call]
    monkeypatch.setattr(verify, name, lambda *args: check(*args) and args != target)


LAW_LINES = (
    "identity law: 6 elements",
    "inverse law: 9 vauts",
    "representative independence: checked",
)


# Calls 0-5 of limit_equal are the identity law's, 6-14 the inverse law's,
# 15-22 representative independence's and 23-42 composition's; each chosen
# call is the first with its arguments.
@pytest.mark.parametrize("law, call, stages_passed, digest", [
    ("identity", 2, 0,
     "896d56cde350a15542189c1489e0dcb3dd8086f916ae6d28cf30312cbdf8cf55"),
    ("inverse", 14, 1,
     "0ffc2a086e38b1502dd7408957b5037d20539ca410bc6f49658a7a0755d58d8d"),
    ("representative-independence", 20, 2,
     "4eb02148a68e93f20eeedf8e0cf36c965c7751ad17f8a109b1cdbe0715b5236a"),
    ("composition", 31, 3,
     "fcd8b93fc3ac17667b526328b07e4d50c31c86fa015a0798d758a73c2627ef00"),
])
def test_vaut_laws_report_each_broken_law(monkeypatch, law, call, stages_passed, digest):
    _break_one_call(monkeypatch, "limit_equal", "vaut-laws", call)
    data = _pinned_failure(monkeypatch, "vaut-laws", 2, LAW_LINES[:stages_passed], digest)
    assert data["law"] == law


def test_theorem3_reports_a_vaut_that_breaks_the_pairing(monkeypatch):
    _break_one_call(monkeypatch, "pairing_preserved", "theorem3", 6)
    lines = ("degree 1: 1 covers checked", "degree 2: 15 covers checked")
    digest = "f0c3bf219b0170e77df0e2d89bbc7e65ae52ccd48cab5040c36c26263fd8af22"
    data = _pinned_failure(monkeypatch, "theorem3", 2, lines, digest)
    assert data["what"] == "vaut-preservation"


def test_one_runner_and_one_replay():
    """In verify.py only run_suite builds a SuiteResult or a counterexample
    document, only the _KINDS table names a parse_* reader, and only the
    runner's _written and replay_counterexample look a kind up in it."""
    users = {}
    for top in ast.parse(Path(verify.__file__).read_text()).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        targets = getattr(top, "targets", ())
        owner = getattr(top, "name", None) or (targets[0].id if targets else None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = "parse_*" if node.id.startswith("parse_") else node.id
                users.setdefault(name, set()).add(owner)
    assert users["SuiteResult"] == users["counterexample_document"] == {"run_suite"}
    assert users["_written"] == {"run_suite"}
    assert users["parse_*"] == {"_KINDS"}
    assert users["_KINDS"] == {"_written", "replay_counterexample"}


def test_the_stage_tag_belongs_to_the_suite():
    """Every suite of several stages, and no other, names its stages under
    one key; names are unique in a suite, and untagged data names a stage."""
    assert {s for s, stages in SUITES.items() if len(stages) > 1} == set(verify._TAGS)
    for suite, stages in SUITES.items():
        names = [stage.name for stage in stages]
        assert len(set(names)) == len(names)
        assert verify._TAGS.get(suite, (None, None))[1] in (None, *names)
