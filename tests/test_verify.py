import itertools
import json
from fractions import Fraction

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
from covertower.homology import surface_complex
from covertower.limits import (
    base_class_element,
    cycle_element,
    lift_element,
    normalized_pairing,
)
from covertower.surface import standard_symplectic
from covertower.vauts import restrict_vaut, vaut_from_automorphism
from covertower.verify import SUITES, _sweep, replay_counterexample, run_suite
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


def test_sweep_stops_at_first_failure():
    # degree 1 has one cover, so the 4th cover is the 3rd of degree 2
    order = list(enumerate_covers(2, 1) + enumerate_covers(2, 2))
    calls = []

    def worker(cover):
        calls.append(cover)
        return {"cover": cover_document(cover)} if len(calls) == 4 else None

    result = _sweep("riemann-hurwitz", worker, 2, 3)
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

    auts = {a.name: vaut_from_automorphism(a) for a in shipped_automorphisms(2)}
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
        "vaut": vaut_document(vaut_from_automorphism(flip)),
        "e1": element_document(base_class_element(2, (1, 0, 0, 0))),
        "e2": element_document(base_class_element(2, (0, 1, 0, 0))),
    }
    assert not replay_counterexample("theorem3", data)


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

    The suites build their constants once; wrapping the per-cover check
    puts a fault on exactly one cover, as _reference_failure does.
    """
    if suite == "theorem3":
        check = verify._t3_one

        def one(cover, wants, base):
            g = cover.genus
            wants = [[Fraction(x, g - 1) for x in row] for row in form_of(g)]
            return check(cover, wants=wants, base=base)

        monkeypatch.setattr(verify, "_t3_one", one)
    else:
        check = verify._ts_one

        def one(cover, form, basis):
            return check(cover, form=form_of(cover.genus), basis=basis)

        monkeypatch.setattr(verify, "_ts_one", one)


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
