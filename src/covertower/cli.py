"""Command-line front end.

Subcommands mirror the library: enumeration, genus, fiber products, cycle
and track lifting, normalized pairing, characteristic refinement, vaut
action, verification sweeps, and the orbit experiment.  Exit codes: 0
success or property verified, 1 verification failed (a counterexample
document is printed), 2 invalid input, 3 search budget exceeded, 4 internal
error (a bug; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .characteristic import (
    characteristic_refinement,
    is_characteristic,
    shipped_automorphisms,
)
from .covers import enumerate_covers, fiber_product
from .documents import (
    DocumentError,
    cover_document,
    cycle_document,
    dumps_canonical,
    element_document,
    fiber_product_document,
    lifted_track_document,
    parse_automorphisms,
    parse_counterexample,
    parse_cover,
    parse_element,
    parse_track,
    parse_vaut,
    rational_str,
)
from .errors import CovertowerError, SearchBudgetExceeded, integers
from .homology import surface_complex
from .limits import cycle_element, normalized_pairing
from .orbit import OrbitConfig, orbit_density_experiment
from .surface import generator_count
from .traintrack import lift_track
from .vauts import vaut_act, vaut_act_track
from .verify import SUITES, replay_counterexample, run_suite


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def _parse_class_vector(text: str, genus: int):
    try:
        vec = integers(json.loads(text), "--class", DocumentError)
    except (json.JSONDecodeError, DocumentError) as exc:
        raise DocumentError(f"bad class vector {text!r}: {exc}") from exc
    if len(vec) != generator_count(genus):
        raise DocumentError(
            f"class vector needs {generator_count(genus)} entries for genus {genus}"
        )
    return vec


def _cmd_enumerate(args) -> int:
    covers = enumerate_covers(args.genus, args.degree, budget=args.budget)
    for cover in covers:
        sys.stdout.write(dumps_canonical(cover_document(cover)))
    return 0


def _cmd_genus(args) -> int:
    cover = parse_cover(_read_json(args.cover))
    print(surface_complex(cover).genus)
    return 0


def _cmd_fiber_product(args) -> int:
    first = parse_cover(_read_json(args.first))
    second = parse_cover(_read_json(args.second))
    doc = fiber_product_document(fiber_product(first, second))
    sys.stdout.write(dumps_canonical(doc))
    return 0


def _cmd_lift_cycle(args) -> int:
    cover = parse_cover(_read_json(args.cover))
    vec = _parse_class_vector(args.class_vector, cover.genus)
    cx = surface_complex(cover)
    element = cycle_element(cover, cx.transfer(vec))
    sys.stdout.write(dumps_canonical(cycle_document(element)))
    return 0


def _cmd_pairing(args) -> int:
    e1 = parse_element(_read_json(args.e1))
    e2 = parse_element(_read_json(args.e2))
    print(rational_str(normalized_pairing(e1, e2)))
    return 0


def _cmd_lift_track(args) -> int:
    track = parse_track(_read_json(args.track))
    cover = parse_cover(_read_json(args.cover))
    lifted, matrix = lift_track(track, cover)
    sys.stdout.write(dumps_canonical(lifted_track_document(lifted, matrix)))
    return 0


def _cmd_char_refine(args) -> int:
    cover = parse_cover(_read_json(args.cover))
    refined = characteristic_refinement(cover, budget=args.budget)
    sys.stdout.write(dumps_canonical(cover_document(refined)))
    return 0


def _cmd_is_char(args) -> int:
    cover = parse_cover(_read_json(args.cover))
    if args.auts == "builtin":
        auts = shipped_automorphisms(cover.genus)
    else:
        auts = parse_automorphisms(_read_json(args.auts))
    print("true" if is_characteristic(cover, auts) else "false")
    return 0


def _cmd_vaut_act(args) -> int:
    vaut = parse_vaut(_read_json(args.vaut))
    element = parse_element(_read_json(args.elem))
    if element.kind == "track":
        result = vaut_act_track(vaut, element)
    else:
        result = vaut_act(vaut, element)
    sys.stdout.write(dumps_canonical(element_document(result)))
    return 0


def _cmd_verify(args) -> int:
    if args.replay is not None:
        suite, data = parse_counterexample(_read_json(args.replay))
        if replay_counterexample(suite, data):
            print(f"replay {suite}: property holds on this instance")
            return 0
        print(f"replay {suite}: counterexample reproduces")
        return 1
    if args.suite is None:
        raise DocumentError("verify needs --suite or --replay")
    result = run_suite(
        args.suite,
        genus=args.genus,
        max_degree=args.max_degree,
        seed=args.seed,
    )
    sys.stdout.write(result.report())
    if result.ok:
        return 0
    sys.stdout.write(dumps_canonical(result.counterexample))
    return 1


def _cmd_orbit(args) -> int:
    config = OrbitConfig(steps=args.steps, targets=args.targets, seed=args.seed)
    result = orbit_density_experiment(config)
    sys.stdout.write(result.report())
    return 0


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertower",
        description="Covers of closed surfaces: enumeration, lifting, pairing, and the tower action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="all pointed covers of one degree, as JSON lines")
    p.add_argument("--genus", type=_int_at_least(2), required=True)
    p.add_argument("--degree", type=_int_at_least(1), required=True)
    p.add_argument("--budget", type=_int_at_least(1), default=None)
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("genus", help="genus of the total surface of a cover")
    p.add_argument("--cover", required=True, help="cover document path, - for stdin")
    p.set_defaults(run=_cmd_genus)

    p = sub.add_parser("fiber-product", help="pointed fiber product of two covers")
    p.add_argument("first", help="cover document path")
    p.add_argument("second", help="cover document path")
    p.set_defaults(run=_cmd_fiber_product)

    p = sub.add_parser("lift-cycle", help="transfer a base homology class to a cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--class", dest="class_vector", required=True,
                   help='JSON list, e.g. "[1,0,0,0]"')
    p.set_defaults(run=_cmd_lift_cycle)

    p = sub.add_parser("pairing", help="normalized intersection pairing of two elements")
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.set_defaults(run=_cmd_pairing)

    p = sub.add_parser("lift-track", help="lift a train track through a cover")
    p.add_argument("--track", required=True)
    p.add_argument("--cover", required=True)
    p.set_defaults(run=_cmd_lift_track)

    p = sub.add_parser("char-refine", help="characteristic refinement of a cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--budget", type=_int_at_least(1), default=None)
    p.set_defaults(run=_cmd_char_refine)

    p = sub.add_parser("is-char", help="test a cover for characteristic invariance")
    p.add_argument("--cover", required=True)
    p.add_argument("--auts", required=True,
                   help='automorphisms document path, or "builtin"')
    p.set_defaults(run=_cmd_is_char)

    p = sub.add_parser("vaut-act", help="act on a tower element by a vaut")
    p.add_argument("--vaut", required=True)
    p.add_argument("--elem", required=True)
    p.set_defaults(run=_cmd_vaut_act)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("--suite", choices=list(SUITES))
    p.add_argument("--genus", type=_int_at_least(2), default=2)
    p.add_argument("--max-degree", type=_int_at_least(1), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replay", default=None,
                   help="re-run a packaged counterexample document")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("orbit", help="transvection orbit density experiment")
    p.add_argument("--steps", type=_int_at_least(0), default=100_000)
    p.add_argument("--targets", type=_int_at_least(1), default=256)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(run=_cmd_orbit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early, as `covertower enumerate ... | head`
        # does.  Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except SearchBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except CovertowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
