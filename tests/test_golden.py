"""Byte-level golden corpus for the cover builders and the exact solves.

Each test hashes a fixed corpus of outputs and compares the sha256 digest
with a value recorded from a known-good tree.  The corpora run through the
fiber-product, induced-cover, composition and refinement builders, the
exact solves behind every vaut, the train-track lift and the path chains
of homology bases, track shadows and vaut images, so a refactor of
those kernels that changes a single sheet label, table word or report line
fails here.  The five ``verify`` reports are pinned at genus 2 up to
degrees 2 and 3, at genus 3 up to degree 2, and (slow tier) at genus 2 up
to degree 4.  The orbit walk's reports are pinned the same way, one plain
sha256 of ``result.report()`` per configuration.  To regenerate
after a deliberate output change, print ``_digest(...)`` for the corpus and
say why in the change log.
"""

import hashlib
import json
import random

import pytest

from covertower.characteristic import shipped_automorphisms
from covertower.cli import main
from covertower.covers import (
    SurfaceCover,
    compose_covers,
    enumerate_covers,
    mod2_homology_cover,
    trivial_cover,
)
from covertower.homology import surface_complex
from covertower.limits import base_class_element, cycle_element, track_element
from covertower.documents import (
    cover_document,
    dumps_canonical,
    track_document,
    vaut_document,
)
from covertower.orbit import OrbitConfig, orbit_density_experiment
from covertower.traintrack import lift_track, three_branch_example
from covertower.vauts import (
    certified_in_caut,
    restrict_vaut,
    vaut_act,
    vaut_act_track,
    vaut_compose,
)
from covertower.verify import SUITES, _law_pool

from conftest import double_cover_from_signs, induced_corpus
from test_covers import A1_SWAP_MARKING

GOLDEN = {
    "fiber_product": (
        "5662064fae0711e653c8c4f51c469115"
        "cbcad53ca6c5dabb8908e4daee238246"
    ),
    "char_refine": (
        "6515e8c2f2f2b0e7066c89527fa8287f"
        "4456c6b04f692282933c0b9430b59da2"
    ),
    "vauts": (
        "2a30094aa5d29b6df3c1c4117a2292e6"
        "ff7eb086000566ac445ff4d9723bd902"
    ),
    "compose": (
        "9dbb6a744523cdcb90cb86a29b0fc6fb"
        "b5dc820eab8b03c2cbe5e6f071da5556"
    ),
    "enumerate": (
        "fbdf208aa79ab5d770726a83c4e4bfc7"
        "9a3ea3980200288a3a8915aaf121210d"
    ),
    "enumerate_degree_4": (
        "6b4edb2b75abe4310752ee5887ca8300"
        "1a73e3e428c247691687aa0fdb667913"
    ),
    "enumerate_genus_3": (
        "16770661ef42b4c9c9e37f6bb3bfc0c7"
        "d97119743e90fc0e301c107935e4bb71"
    ),
    "verify": (
        "781177879ac46a94101070d1e1b24df8"
        "f1ce5dd137d85c28279217cecbcf0b82"
    ),
    "verify_degree_3": (
        "b9d4ea675fdd0530122745713f586a8b"
        "a75267324fcda805d5b72eaeb2297b6e"
    ),
    "verify_genus_3": (
        "f6fdde0be319a8d4c02eb9ba5275553d"
        "e1e3650cc2876590200b3ff47613d19f"
    ),
    "verify_degree_4": (
        "e6dcd3ca0d79c00480a8d1e2a461e545"
        "502488b20b216ff7228fcabbb972b3ae"
    ),
    "lift_track": (
        "e1efbbb278e44797ec9d458f436638f9"
        "c6e091fb7fd158738193199b12443efd"
    ),
    "chains": (
        "aa939038d4c0c6e48b439744a958c117"
        "24d15df55a2ba0fb7ae5b08e08acedf1"
    ),
    "induced": (
        "6bedda7f4cce8cddd6d4a793aa402b15"
        "2afa56a28694e10b2ee48475177102a4"
    ),
}

# (steps, targets, seed) -> sha256 of the orbit report
ORBIT_GOLDEN = {
    (100_000, 256, 0): "cc92caf7e347020591024f4b53ad9f8eae6387fb52f6574535b781e6e787f41f",
    # `perfbench/run.py --workload orbit --seed 1` walks this config
    (100_000, 256, 1): "3a49215d8228dee8790046173a4c6f1696ece3518db11c5e897e226269d3a59d",
    (20_000, 64, 1): "acf030e434fbc35d53541b43ce3c11bf1bd3a753556932c4b8d58f92c6bdfe8a",
    (20_000, 256, 7): "610604b32cd12474cef5954ba442a86b091f2a3b5d70eabdd74d3a1890e9bc5c",
}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return f"exit {code}\n{captured.out}\n{captured.err}"


def _cover_files(tmp_path, covers):
    paths = []
    for k, cover in enumerate(covers):
        path = tmp_path / f"cover{k}.json"
        path.write_text(dumps_canonical(cover_document(cover)), encoding="utf-8")
        paths.append(str(path))
    return paths


def _low_covers():
    return [c for d in (1, 2, 3) for c in enumerate_covers(2, d)]


def _shipped_vauts():
    return list(shipped_automorphisms(2))


def test_fiber_product_documents(tmp_path, capsys):
    paths = _cover_files(tmp_path, _low_covers()[::24])
    chunks = [_cli(capsys, "fiber-product", a, b) for a in paths for b in paths]
    assert _digest(chunks) == GOLDEN["fiber_product"]


def test_char_refine_documents(tmp_path, capsys):
    paths = _cover_files(tmp_path, enumerate_covers(2, 2) + enumerate_covers(2, 3)[:1])
    chunks = [_cli(capsys, "char-refine", "--cover", p) for p in paths[:-1]]
    # a degree-3 refinement outgrows a budget of 40 sheets: exit 3 with the hint
    chunks.append(_cli(capsys, "char-refine", "--cover", paths[-1], "--budget", "40"))
    assert _digest(chunks) == GOLDEN["char_refine"]


def test_restricted_and_composed_vauts():
    vauts = _shipped_vauts()
    chunks = []
    for k, cover in enumerate(enumerate_covers(2, 2)):
        v = vauts[k % len(vauts)]
        restricted = restrict_vaut(v, cover)
        chunks.append(dumps_canonical(vaut_document(restricted)))
        w = vauts[(k + 1) % len(vauts)]
        chunks.append(dumps_canonical(vaut_document(vaut_compose(restricted, w))))
    assert _digest(chunks) == GOLDEN["vauts"]


def _compose_chunk(comp) -> str:
    return json.dumps(
        [comp.cover.perms, comp.to_outer.sheet_map, comp.states],
        separators=(",", ":"),
    )


def test_compose_covers_results():
    bottom = double_cover_from_signs(2, (1, 0, 0, 0))
    cyc, swp, ident3 = (1, 2, 0), (0, 2, 1), (0, 1, 2)
    tops = [trivial_cover(3), *enumerate_covers(3, 2)]
    tops.append(SurfaceCover(3, 3, (swp, cyc, cyc, swp, ident3, ident3)))
    chunks = [_compose_chunk(compose_covers(t, bottom, A1_SWAP_MARKING)) for t in tops]
    assert _digest(chunks) == GOLDEN["compose"]


def test_enumerate_stream(capsys):
    chunks = [
        _cli(capsys, "enumerate", "--genus", "2", "--degree", str(d)) for d in (1, 2, 3)
    ]
    assert _digest(chunks) == GOLDEN["enumerate"]


def test_enumerate_stream_degree_4(capsys):
    chunk = _cli(capsys, "enumerate", "--genus", "2", "--degree", "4")
    assert chunk.count('"type":"cover"') == 5275
    assert _digest([chunk]) == GOLDEN["enumerate_degree_4"]


def test_enumerate_stream_genus_3(capsys):
    chunks = [
        _cli(capsys, "enumerate", "--genus", "3", "--degree", str(d)) for d in (1, 2, 3)
    ]
    assert _digest(chunks) == GOLDEN["enumerate_genus_3"]


def test_verify_reports(capsys):
    chunks = [
        _cli(capsys, "verify", "--suite", suite, "--max-degree", "2") for suite in SUITES
    ]
    assert _digest(chunks) == GOLDEN["verify"]


@pytest.mark.parametrize("genus, max_degree, name", [
    (2, 3, "verify_degree_3"),
    (3, 2, "verify_genus_3"),
    pytest.param(2, 4, "verify_degree_4", marks=pytest.mark.slow),
])
def test_verify_reports_deeper(capsys, genus, max_degree, name):
    chunks = [
        _cli(capsys, "verify", "--suite", suite, "--genus", str(genus),
             "--max-degree", str(max_degree))
        for suite in SUITES
    ]
    assert _digest(chunks) == GOLDEN[name]


def test_lift_track_documents(tmp_path, capsys):
    covers = [c for d in (1, 2) for c in enumerate_covers(2, d)]
    covers += random.Random(9).sample(enumerate_covers(2, 3), 20)
    covers.append(mod2_homology_cover(2))
    track = tmp_path / "track.json"
    track.write_text(dumps_canonical(track_document(three_branch_example())), encoding="utf-8")
    chunks = [
        _cli(capsys, "lift-track", "--track", str(track), "--cover", path)
        for path in _cover_files(tmp_path, covers)
    ]
    assert _digest(chunks) == GOLDEN["lift_track"]


def _chain_chunk(cover, chain) -> str:
    return json.dumps([cover.perms, list(chain)], separators=(",", ":"))


def test_path_chains():
    """Chain payloads: homology bases, track shadows and vaut images."""
    low = _low_covers()
    mod2 = mod2_homology_cover(2)
    chunks = []
    for cover in low + [mod2]:
        basis = surface_complex(cover).homology_basis()
        chunks += [_chain_chunk(cover, chain) for chain in basis]
    track = three_branch_example()
    rng = random.Random(11)
    for cover in low[:16] + low[16::20] + [mod2]:
        lifted, matrix = lift_track(track, cover)
        for base in ((1, 1, 0), (2, 1, 1), (3, 0, 3)):
            chunks.append(_chain_chunk(cover, lifted.cycle_chain(matrix.apply(base))))
        weights = [rng.randint(-3, 3) for _ in lifted.branches]
        chunks.append(_chain_chunk(cover, lifted.cycle_chain(weights)))
    vauts = _shipped_vauts()
    vauts.append(restrict_vaut(vauts[-1], enumerate_covers(2, 2)[0]))
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    elements = [base_class_element(2, e) for e in units]
    for k, cover in enumerate(low[:16]):
        cx = surface_complex(cover)
        elements.append(cycle_element(cover, cx.transfer(units[k % 4])))
    for vaut in vauts:
        for element in elements:
            moved = vaut_act(vaut, element)
            chunks.append(_chain_chunk(moved.cover, moved.payload))
    cover = enumerate_covers(2, 2)[3]
    lifted, matrix = lift_track(track, cover)
    element = track_element(track, cover, matrix.apply((2, 1, 1)))
    moved = vaut_act_track(vauts[0], element)
    chunks.append(_chain_chunk(moved.cover, moved.payload))
    assert _digest(chunks) == GOLDEN["chains"]


def test_induced_covers_and_certificates():
    """Induced covers through restricted backward tables, and the depth-1
    certificates of the vaut-laws pool."""
    chunks = [
        json.dumps([ind.states, ind.cover.perms, ind.to_outer.sheet_map], separators=(",", ":"))
        for _, _, _, ind in induced_corpus()
    ]
    vauts = [v for v, _ in _law_pool(2, 2, 0)["inverse"]]
    chunks.append(json.dumps([certified_in_caut(v, 1) for v in vauts]))
    assert _digest(chunks) == GOLDEN["induced"]


@pytest.mark.parametrize("steps, targets, seed", sorted(ORBIT_GOLDEN))
def test_orbit_reports(steps, targets, seed):
    result = orbit_density_experiment(OrbitConfig(steps=steps, targets=targets, seed=seed))
    digest = hashlib.sha256(result.report().encode()).hexdigest()
    assert digest == ORBIT_GOLDEN[steps, targets, seed]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_corpus_is_pinned(name):
    assert len(GOLDEN[name]) == 64
