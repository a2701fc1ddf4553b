"""Command line front end.

Subcommands: morph, amalg, closure, complete, metric, pieces, lift, ramsey.
All results are JSON (one object per invocation); --pretty renders a compact
human summary instead.  Exit codes: 0 success/proved, 1 refuted or
no-completion (with the certificate emitted), 2 inconclusive or cap abort,
3 usage or format errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import rsf
from .closures import is_U_semi_closed, closed_violation, u_closure, u_size
from .completion import (
    complete_with,
    completion_iff_strong,
    get_plugin,
    holes,
    probe_local_finiteness,
)
from .errors import CapError, FormatError, RamseyForgeError
from .metric import (
    blocks,
    complete_metric_graph,
    four_values,
    is_associative,
    jump_numbers,
    non_metric_cycle_scan,
    sgraph_to_structure,
    structure_to_sgraph,
)
from .pieces import (
    PieceFamily,
    canonical_lift,
    lift_sidecar,
    maximal_lift,
    minimal_separating_cuts,
    pieces,
)
from .ramsey import (
    distance_lift_fixture,
    hales_jewett_N,
    partite_construction,
    unary_ramsey,
    verify_arrow,
)
from .structures import Morphism, enumerate_morphisms, free_amalgamation, verify_morphism

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _load_structure(path: str):
    return rsf.load(path)


def _emit(args, payload: dict, code: int) -> int:
    if args.pretty:
        lines = []
        for key, value in payload.items():
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return code


def _parse_mode(text: str) -> tuple[str, int]:
    if text == "exhaustive":
        return "exhaustive", 0
    if text.startswith("sampled:"):
        return "sampled", int(text.split(":", 1)[1])
    if text == "sampled":
        return "sampled", 10_000
    raise FormatError(f"unknown mode {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseyforge",
        description="exact combinatorics for structural Ramsey theory",
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    morph = sub.add_parser("morph", help="morphism search and verification")
    morph_sub = morph.add_subparsers(dest="action", required=True)
    m_enum = morph_sub.add_parser("enumerate")
    m_enum.add_argument("--kind", required=True, choices=[
        "homomorphism", "monomorphism", "embedding", "homomorphism-embedding"])
    m_enum.add_argument("source")
    m_enum.add_argument("target")
    m_ver = morph_sub.add_parser("verify")
    m_ver.add_argument("--kind", required=True)
    m_ver.add_argument("--map", required=True, help='JSON object {"u": "a", ...}')
    m_ver.add_argument("source")
    m_ver.add_argument("target")

    amalg = sub.add_parser("amalg", help="free amalgamation over a shared part")
    amalg.add_argument("--over", required=True, help="RSF of the shared substructure")
    amalg.add_argument("left")
    amalg.add_argument("right")

    closure = sub.add_parser("closure", help="closure descriptions")
    closure_sub = closure.add_subparsers(dest="action", required=True)
    for name in ("check", "close", "size"):
        c = closure_sub.add_parser(name)
        c.add_argument("--closures", required=True, help="closure description JSON")
        c.add_argument("structure")
        if name == "close":
            c.add_argument("--generators", default="", help="comma-separated vertices")

    complete = sub.add_parser("complete", help="class completion")
    complete_sub = complete.add_subparsers(dest="action", required=True)
    c_run = complete_sub.add_parser("run")
    c_run.add_argument("--class", dest="klass", required=True)
    c_run.add_argument("structure")
    c_holes = complete_sub.add_parser("holes")
    c_holes.add_argument("structure")
    c_obs = complete_sub.add_parser("obstacles")
    c_obs.add_argument("--class", dest="klass", required=True)
    c_obs.add_argument("--cap", type=int, default=4)
    c_iff = complete_sub.add_parser("iff")
    c_iff.add_argument("--class", dest="klass", required=True)
    c_iff.add_argument("--cap", type=int, default=4)
    c_probe = complete_sub.add_parser("probe")
    c_probe.add_argument("--class", dest="klass", required=True)
    c_probe.add_argument("-n", type=int, required=True)
    c_probe.add_argument("--cap", type=int, default=6)
    c_probe.add_argument("target")

    metric = sub.add_parser("metric", help="distance set algorithms")
    metric_sub = metric.add_subparsers(dest="action", required=True)
    for name in ("four-values", "assoc", "jumps", "blocks"):
        m = metric_sub.add_parser(name)
        m.add_argument("distances")
    m_complete = metric_sub.add_parser("complete")
    m_complete.add_argument("distances")
    m_complete.add_argument("graph")
    m_scan = metric_sub.add_parser("scan")
    m_scan.add_argument("distances")
    m_scan.add_argument("graph")

    piece = sub.add_parser("pieces", help="cuts, pieces and equivalence classes")
    piece_sub = piece.add_subparsers(dest="action", required=True)
    p_list = piece_sub.add_parser("list")
    p_list.add_argument("structure")
    p_cls = piece_sub.add_parser("classes")
    p_cls.add_argument("members", nargs="+")

    lift = sub.add_parser("lift", help="canonical, maximal and distance lifts")
    lift_sub = lift.add_subparsers(dest="action", required=True)
    l_can = lift_sub.add_parser("canonical")
    l_can.add_argument("--family", required=True, help="comma-separated member RSF paths")
    l_can.add_argument("structure")
    l_max = lift_sub.add_parser("maximal")
    l_max.add_argument("--family", required=True)
    l_max.add_argument("--cap", type=int, default=None)
    l_max.add_argument("structure")
    l_dist = lift_sub.add_parser("distance")
    l_dist.add_argument("-l", type=int, required=True)
    l_dist.add_argument("graph")

    ramsey = sub.add_parser("ramsey", help="constructions and the arrow verifier")
    ramsey_sub = ramsey.add_subparsers(dest="action", required=True)
    r_arrow = ramsey_sub.add_parser("arrow")
    r_arrow.add_argument("big")
    r_arrow.add_argument("small")
    r_arrow.add_argument("middle")
    r_arrow.add_argument("-k", type=int, default=2)
    r_arrow.add_argument("--mode", default="auto")
    r_arrow.add_argument("--seed", type=int, default=0)
    r_hj = ramsey_sub.add_parser("hj")
    r_hj.add_argument("-t", type=int, required=True)
    r_hj.add_argument("-k", type=int, required=True)
    r_con = ramsey_sub.add_parser("construct")
    r_con.add_argument("small")
    r_con.add_argument("middle")
    r_con.add_argument("base")
    r_con.add_argument("--closures", default=None)
    r_con.add_argument("--assert-arrow", action="store_true")
    r_con.add_argument("--cap", type=int, default=50_000)
    r_una = ramsey_sub.add_parser("unary")
    r_una.add_argument("small")
    r_una.add_argument("middle")
    r_una.add_argument("-N", type=int, default=None)
    return parser


def _structure_payload(A) -> dict:
    return rsf.structure_to_obj(A)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (FormatError, OSError) as exc:
        # an input that cannot be read, like one that cannot be parsed
        sys.stderr.write(f"format error: {exc}\n")
        return EXIT_USAGE
    except CapError as exc:
        payload = {"status": "inconclusive", "reason": str(exc)}
        if exc.projected is not None:
            payload["projected"] = exc.projected
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return EXIT_INCONCLUSIVE
    except RamseyForgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "morph":
        return _cmd_morph(args)
    if args.command == "amalg":
        return _cmd_amalg(args)
    if args.command == "closure":
        return _cmd_closure(args)
    if args.command == "complete":
        return _cmd_complete(args)
    if args.command == "metric":
        return _cmd_metric(args)
    if args.command == "pieces":
        return _cmd_pieces(args)
    if args.command == "lift":
        return _cmd_lift(args)
    if args.command == "ramsey":
        return _cmd_ramsey(args)
    raise FormatError(f"unknown command {args.command!r}")


def _cmd_morph(args) -> int:
    A = _load_structure(args.source)
    B = _load_structure(args.target)
    if args.action == "enumerate":
        found = enumerate_morphisms(A, B, args.kind)
        payload = {
            "kind": args.kind,
            "count": len(found),
            "morphisms": [dict(m.map) for m in found],
        }
        return _emit(args, payload, EXIT_OK)
    mapping = json.loads(args.map)
    m = Morphism.make(A, B, mapping, args.kind)
    ok = verify_morphism(m)
    return _emit(args, {"kind": args.kind, "valid": ok}, EXIT_OK if ok else EXIT_NEGATIVE)


def _cmd_amalg(args) -> int:
    shared = _load_structure(args.over)
    B1 = _load_structure(args.left)
    B2 = _load_structure(args.right)
    am = free_amalgamation(B1, B2, shared)
    payload = {
        "structure": _structure_payload(am.structure),
        "left_map": dict(am.left.map),
        "right_map": dict(am.right.map),
    }
    return _emit(args, payload, EXIT_OK)


def _cmd_closure(args) -> int:
    U = rsf.loads_closure_description(Path(args.closures).read_text(encoding="utf-8"))
    A = _load_structure(args.structure)
    if args.action == "check":
        violation = closed_violation(A, U)
        payload = {
            "closed": violation is None,
            "semi_closed": is_U_semi_closed(A, U),
        }
        if violation is not None:
            payload["violation"] = str(violation)
        return _emit(args, payload, EXIT_OK if violation is None else EXIT_NEGATIVE)
    if args.action == "close":
        gens = [v for v in args.generators.split(",") if v]
        closed = u_closure(A, U, gens)
        return _emit(args, {"structure": _structure_payload(closed)}, EXIT_OK)
    size = u_size(A, U)
    return _emit(args, {"u_size": size}, EXIT_OK)


def _cmd_complete(args) -> int:
    if args.action == "holes":
        A = _load_structure(args.structure)
        pairs = holes(A)
        return _emit(args, {"holes": [list(p) for p in pairs]}, EXIT_OK)
    plugin = get_plugin(args.klass)
    if args.action == "run":
        A = _load_structure(args.structure)
        result = complete_with(A, plugin)
        if result.ok:
            return _emit(
                args,
                {"status": "completed", "structure": _structure_payload(result.completed)},
                EXIT_OK,
            )
        return _emit(
            args,
            {"status": "no-completion", "certificate": result.certificate.to_obj()},
            EXIT_NEGATIVE,
        )
    if args.action == "obstacles":
        found = plugin.obstacles_up_to(args.cap)
        payload = {
            "cap": args.cap,
            "count": len(found),
            "obstacles": [_structure_payload(o) for o in found],
        }
        return _emit(args, payload, EXIT_OK)
    if args.action == "iff":
        report = completion_iff_strong(plugin, args.cap)
        payload = {
            "cap": args.cap,
            "checked": report.checked,
            "holds": report.holds,
            "violations": [_structure_payload(v) for v in report.violations],
        }
        return _emit(args, payload, EXIT_OK if report.holds else EXIT_NEGATIVE)
    C0 = _load_structure(args.target)
    report = probe_local_finiteness(plugin, C0, args.n, size_cap=args.cap)
    payload = {
        "n": args.n,
        "cap": args.cap,
        "examined": report.examined,
        "inconclusive": report.inconclusive,
        "counterexamples": [_structure_payload(c) for c in report.counterexamples],
    }
    if report.counterexamples:
        return _emit(args, payload, EXIT_NEGATIVE)
    return _emit(args, payload, EXIT_INCONCLUSIVE if report.inconclusive else EXIT_OK)


def _cmd_metric(args) -> int:
    S = rsf.loads_distance_set(Path(args.distances).read_text(encoding="utf-8"))
    if args.action == "four-values":
        ok, witness = four_values(S)
        payload = {"four_values": ok}
        if witness:
            payload["witness"] = [rsf.format_rational(q) for q in witness]
        return _emit(args, payload, EXIT_OK if ok else EXIT_NEGATIVE)
    if args.action == "assoc":
        ok, witness = is_associative(S)
        payload = {"associative": ok}
        if witness:
            payload["witness"] = [rsf.format_rational(q) for q in witness]
        return _emit(args, payload, EXIT_OK if ok else EXIT_NEGATIVE)
    if args.action == "jumps":
        js = sorted(jump_numbers(S))
        return _emit(args, {"jumps": [rsf.format_rational(q) for q in js]}, EXIT_OK)
    if args.action == "blocks":
        bs = blocks(S)
        return _emit(
            args,
            {"blocks": [[rsf.format_rational(q) for q in b.sorted()] for b in bs]},
            EXIT_OK,
        )
    G = structure_to_sgraph(_load_structure(args.graph), S)
    if args.action == "complete":
        result = complete_metric_graph(G, S)
        if result.completed:
            payload = {
                "status": "completed",
                "structure": _structure_payload(sgraph_to_structure(result.space, S)),
            }
            return _emit(args, payload, EXIT_OK)
        cert = result.certificate
        payload = {
            "status": "no-completion",
            "pair": list(cert.pair),
            "recorded": rsf.format_rational(cert.recorded),
            "shortest": rsf.format_rational(cert.shortest),
            "walk": list(cert.walk),
        }
        return _emit(args, payload, EXIT_NEGATIVE)
    cert = non_metric_cycle_scan(G, S)
    if cert is None:
        return _emit(args, {"non_metric_cycle": None}, EXIT_OK)
    payload = {
        "non_metric_cycle": {
            "distances": [rsf.format_rational(q) for q in cert.distances],
            "vertices": list(cert.vertices) if cert.vertices else None,
        }
    }
    return _emit(args, payload, EXIT_NEGATIVE)


def _cmd_pieces(args) -> int:
    if args.action == "list":
        A = _load_structure(args.structure)
        cuts = minimal_separating_cuts(A)
        ps = pieces(A)
        payload = {
            "cuts": [
                {"cut": sorted(c.cut), "sides": [sorted(s) for s in c.sides]}
                for c in cuts
            ],
            "pieces": [
                rsf.structure_to_obj(p.body, root=p.root) for p in ps
            ],
        }
        return _emit(args, payload, EXIT_OK)
    members = [_load_structure(p) for p in args.members]
    family = PieceFamily(members)
    payload = {
        "classes": [
            {
                "index": cls.index,
                "width": cls.width,
                "pieces": len(cls.pieces),
                "representative": rsf.structure_to_obj(
                    cls.representative.body, root=cls.representative.root
                ),
            }
            for cls in family.classes
        ]
    }
    return _emit(args, payload, EXIT_OK)


def _cmd_lift(args) -> int:
    if args.action == "distance":
        G = _load_structure(args.graph)
        lift = distance_lift_fixture(G, args.l)
        return _emit(args, {"structure": _structure_payload(lift.as_structure())}, EXIT_OK)
    members = [_load_structure(p) for p in args.family.split(",")]
    family = PieceFamily(members)
    A = _load_structure(args.structure)
    if args.action == "canonical":
        lifted = canonical_lift(A, family)
        payload = {
            "structure": _structure_payload(lifted.as_structure()),
            "classes": lift_sidecar(lifted),
        }
        return _emit(args, payload, EXIT_OK)
    result = maximal_lift(A, family, growth_cap=args.cap)
    payload = {
        "status": result.status,
        "structure": _structure_payload(result.lift.as_structure()),
        "witness": _structure_payload(result.witness),
        "classes": lift_sidecar(result.lift),
    }
    code = EXIT_OK if result.status == "stable" else EXIT_INCONCLUSIVE
    return _emit(args, payload, code)


def _cmd_ramsey(args) -> int:
    if args.action == "hj":
        result = hales_jewett_N(args.t, args.k)
        payload = {
            "value": result.value,
            "lower_bound": result.lower_bound,
            "conclusive": result.conclusive,
        }
        return _emit(args, payload, EXIT_OK if result.conclusive else EXIT_INCONCLUSIVE)
    if args.action == "arrow":
        C = _load_structure(args.big)
        A = _load_structure(args.small)
        B = _load_structure(args.middle)
        mode, sample = _parse_mode(args.mode) if args.mode != "auto" else ("auto", 10_000)
        report = verify_arrow(
            C, A, B, args.k, mode=mode, sample=sample, seed=args.seed
        )
        payload = {
            "holds": report.holds,
            "mode": report.mode,
            "copies_of_A": len(report.copies_of_a),
            "copies_of_B": len(report.copies_of_b),
            "colourings_examined": report.colourings_examined,
        }
        if report.colouring is not None:
            payload["certificate"] = report.certificate()
        code = {
            "proved": EXIT_OK,
            "refuted": EXIT_NEGATIVE,
            "inconclusive": EXIT_INCONCLUSIVE,
        }[report.holds]
        return _emit(args, payload, code)
    if args.action == "construct":
        A = _load_structure(args.small)
        B = _load_structure(args.middle)
        C0 = _load_structure(args.base)
        if args.closures:
            U = rsf.loads_closure_description(
                Path(args.closures).read_text(encoding="utf-8")
            )
        else:
            from .closures import EMPTY_CLOSURES as U
        result = partite_construction(
            A, B, C0, U=U, size_guard=args.cap, assert_arrow=args.assert_arrow
        )
        payload = {
            "structure": _structure_payload(result.structure),
            "projection": dict(result.projection.map),
            "picture_sizes": list(result.picture_sizes),
            "steps": list(result.steps),
        }
        return _emit(args, payload, EXIT_OK)
    A = _load_structure(args.small)
    B = _load_structure(args.middle)
    result = unary_ramsey(A, B, N=args.N)
    payload = {
        "structure": _structure_payload(result.structure),
        "dimension": result.dimension,
        "copies": [dict(m.map) for m in result.copies],
    }
    return _emit(args, payload, EXIT_OK)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
