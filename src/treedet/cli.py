"""Command-line interface: every operation, machine-readable certificates.

Each verifying subcommand prints a JSON certificate with stable key
order.  A certificate's outcome is "fail" exactly when its witness list
is non-empty.  Its wall_time_s times its own stage: from the start of
the command, or in certify-all from the print of the previous stage's
certificate.  Exit codes: 0 all checks passed, 1 a mathematical
certificate failed (including a flip-uniqueness violation and a set that
is not closed under relabeling), 2 bad input or usage (among them a
--sample or --sample-relations below 1, a sample without --seed, and
enumerate --count-only with --out), 3 an internal error (any other
exception, reported on one stderr line).

Only sampled modes draw random numbers: verify-relations --sample and
certify-all --sample-relations read the --seed, which certify-all always
requires.  Identical arguments and seed give identical certificates
(wall_time_s aside).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from typing import Optional

import numpy as np

from . import __version__, algebra, catalog, symmetry
from .context import standard_context
from .enumeration import count_homogeneous, enumerate_partitions
from .flips import (
    AnchorConflictError,
    FlipUniquenessError,
    OddCycleWitness,
    alternates,
    check_bipartite,
    check_connected,
    flip,
    standard_anchors,
    verify_flip_soundness,
)
from .model import EdgePartition, json_int

PASS, FAIL = "pass", "fail"
EXIT_OK, EXIT_CERT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3


def _emit(command, parameters, numbers, witnesses, t0) -> int:
    """Print one certificate, timed from t0; it fails exactly when it
    carries a witness, and the exit code says which."""
    cert = {
        "command": command,
        "library_version": __version__,
        "numbers": numbers,
        "outcome": FAIL if witnesses else PASS,
        "parameters": parameters,
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "witnesses": witnesses,
    }
    print(json.dumps(cert, sort_keys=True))
    return EXIT_CERT_FAIL if witnesses else EXIT_OK


def _load_partition(path: str) -> EdgePartition:
    with open(path) as fh:
        return EdgePartition.from_json_dict(json.load(fh))


def _load_anchors(path: Optional[str], pset):
    if path is None:
        return standard_anchors(pset)
    with open(path) as fh:
        docs = json.load(fh)
    if not isinstance(docs, list) or not all(
        isinstance(doc, dict) and {"partition", "sign"} <= doc.keys() for doc in docs
    ):
        raise ValueError(f"{path}: anchors must be a JSON list of {{partition, sign}} objects")
    return [
        (EdgePartition.from_json_dict(doc["partition"]), json_int(doc["sign"], "sign"))
        for doc in docs
    ]


def _partition_line(p: EdgePartition) -> str:
    return json.dumps(p.to_json_dict(), sort_keys=True, separators=(",", ":"))


_LINE_CHUNK = 1 << 16  # rows formatted per block


def _partition_lines(pset):
    """The _partition_line of every member, newline-terminated, formatted
    in blocks of rows from the color array: every color is one digit,
    since enumeration stops at d = 3."""
    head = b'{"colors":['
    tail = f'],"d":{pset.d},"n":{pset.n}}}\n'.encode()
    E = pset.colors.shape[1]
    body = slice(len(head), len(head) + 2 * E - 1)
    for start in range(0, len(pset), _LINE_CHUNK):
        colors = pset.colors[start : start + _LINE_CHUNK]
        rows = np.empty((len(colors), body.stop + len(tail)), dtype=np.uint8)
        rows[:, : body.start] = np.frombuffer(head, dtype=np.uint8)
        rows[:, body][:, 0::2] = colors + ord("0")
        rows[:, body][:, 1::2] = ord(",")
        rows[:, body.stop :] = np.frombuffer(tail, dtype=np.uint8)
        yield rows.tobytes().decode("ascii")


# --------------------------------------------------------------------------
# witness lists, shared by the standalone commands and certify-all; each is
# empty exactly when its check passed

def _soundness_witnesses(soundness) -> list:
    return [] if soundness.ok else [{"property": "flip_uniqueness_and_involution"}]


def _alternation_witnesses(graph, table) -> list:
    return [] if alternates(graph, table.signs) else [{"property": "signature_alternation"}]


def _orbit_witnesses(table, d: int) -> list:
    group_order = math.factorial(2 * d) * math.factorial(d)
    bad = [e.orbit_id for e in table.entries if e.size * e.stabilizer_order != group_order]
    return [{"property": "orbit_stabilizer_identity", "orbits": bad}] if bad else []


def _catalog_witnesses(match) -> list:
    return [] if match.ok else [{"property": "orbit_catalog_match", "diffs": match.mismatches}]


def _epsilon_witnesses(eps, expected=None) -> list:
    """Without a character, the first violations of each, by orbit id;
    with another character than the expected one, both names."""
    witness = {"property": "signature_parity_formula"}
    if eps.ok:
        unexpected = expected not in (None, eps.character)
        return [dict(witness, character=eps.character, expected=expected)] if unexpected else []
    violations = {
        name: [
            {"orbit": o, "sigma": list(s), "tau": list(t), "got": g, "expected": e}
            for (o, s, t, g, e) in found
        ]
        for name, found in eps.violations.items()
    }
    return [{**witness, "violations": violations}]


def _epsilon_numbers(eps) -> dict:
    numbers = {"character": eps.character, "epsilon_samples": eps.samples}
    return {**numbers, "epsilon_violations": min(eps.counts.values())}


def _relation_witnesses(report) -> list:
    if report.ok:
        return []
    instances = [
        {"face": list(w.face), "color_multiset": list(w.color_multiset), "context": list(w.context)}
        for w in report.witnesses
    ]
    return [{"property": "relation_vanishing", "instances": instances}]


# --------------------------------------------------------------------------
# subcommand handlers

def cmd_enumerate(args) -> int:
    t0 = time.perf_counter()
    pset = enumerate_partitions(args.d, cycle_free=args.cycle_free)
    if args.count_only:
        print(len(pset))
        return EXIT_OK
    lines = _partition_lines(pset)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(lines)
        parameters = {"d": args.d, "cycle_free": args.cycle_free, "out": args.out}
        return _emit("enumerate", parameters, {"count": len(pset)}, [], t0)
    sys.stdout.writelines(lines)
    return EXIT_OK


def cmd_flip(args) -> int:
    partition = _load_partition(args.partition)
    if partition.d != args.d:
        raise ValueError(f"partition has d={partition.d}, command asked for d={args.d}")
    flipped = flip(partition, tuple(args.face))
    print(_partition_line(flipped))
    return EXIT_OK


def cmd_flip_graph(args) -> int:
    t0 = time.perf_counter()
    ctx = standard_context(args.d)
    soundness = verify_flip_soundness(ctx.graph)
    numbers = {
        "nodes": len(ctx.pset),
        "faces": ctx.graph.adjacency.shape[1],
        "flip_pairs_checked": soundness.pairs_checked,
        "flips_changing_two_edges": soundness.diff_two,
        "flips_changing_three_edges": soundness.diff_three,
    }
    witnesses = _soundness_witnesses(soundness)
    result = check_bipartite(ctx.graph, _load_anchors(args.anchors, ctx.pset))
    if isinstance(result, OddCycleWitness):
        numbers["bipartite"] = 0
        codes = [int(ctx.pset.codes[i]) for i in result.nodes]
        witnesses.append({"property": "signature_existence", "odd_cycle_codes": codes})
    else:
        plus, minus = result.class_sizes()
        numbers["bipartite"] = 1
        numbers["class_plus"] = plus
        numbers["class_minus"] = minus
        numbers["alternating_edges"] = int(ctx.graph.adjacency.size)
        witnesses += _alternation_witnesses(ctx.graph, result)
    numbers["components"] = check_connected(ctx.graph).n_components
    parameters = {"d": args.d, "anchors": args.anchors}
    return _emit("flip-graph", parameters, numbers, witnesses, t0)


def cmd_orbits(args) -> int:
    t0 = time.perf_counter()
    pset = enumerate_partitions(args.d, cycle_free=True)
    table = symmetry.orbit_decomposition(pset)
    identity = _orbit_witnesses(table, args.d)
    sizes_ok = sum(e.size for e in table.entries) == len(pset)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["orbit_id", "rep_code", "size", "stab_order", "type1", "type2", "type3"]
            )
            for e in table.entries:
                shapes = list(e.type_triple) or ["", "", ""]
                writer.writerow(
                    [e.orbit_id, e.representative.canonical_code(), e.size, e.stabilizer_order]
                    + shapes
                )
    numbers = {
        "orbits": len(table.entries),
        "members": len(pset),
        "orbit_stabilizer_identity": int(not identity),
        "sizes_sum_to_members": int(sizes_ok),
    }
    witnesses = identity + ([] if sizes_ok else [{"property": "orbit_sizes_sum_to_members"}])
    return _emit("orbits", {"d": args.d, "out": args.out}, numbers, witnesses, t0)


def cmd_verify_appendix(args) -> int:
    t0 = time.perf_counter()
    ctx = standard_context(3)
    table = symmetry.orbit_decomposition(ctx.pset)
    match = symmetry.match_catalog(table)
    eps = symmetry.epsilon_formula_check(table, ctx.signature)
    numbers = {
        "references_checked": match.checked,
        "catalog_mismatches": len(match.mismatches),
        **_epsilon_numbers(eps),
    }
    witnesses = _catalog_witnesses(match) + _epsilon_witnesses(eps, catalog.EXPECTED_CHARACTER)
    return _emit("verify-appendix", {}, numbers, witnesses, t0)


def cmd_signature(args) -> int:
    partition = _load_partition(args.partition)
    if partition.d != args.d:
        raise ValueError(f"partition has d={partition.d}, command asked for d={args.d}")
    ctx = standard_context(partition.d)
    table = ctx.signature
    if args.anchors:
        anchors = _load_anchors(args.anchors, ctx.pset)
        table = check_bipartite(ctx.graph, anchors)
        if isinstance(table, OddCycleWitness):  # pragma: no cover
            raise RuntimeError("flip graph unexpectedly not two-colorable")
    value = table.signature(partition)
    print(f"{value:+d}")
    return EXIT_OK


def cmd_det(args) -> int:
    with open(args.input) as fh:
        vectors, d, p = algebra.tensor_from_json(json.load(fh))
    ctx = standard_context(d)
    result = algebra.det_eval(vectors, ctx.pset, ctx.signature, p=p)
    print(algebra.format_scalar(result))
    return EXIT_OK


def cmd_verify_relations(args) -> int:
    t0 = time.perf_counter()
    ctx = standard_context(args.d)
    report = algebra.verify_relations(
        ctx.graph, ctx.signature, sample=args.sample, seed=args.seed
    )
    return _emit(
        "verify-relations",
        {"d": args.d, "sample": args.sample, "seed": args.seed},
        {"instances_checked": report.instances_checked, "violations": report.violations},
        _relation_witnesses(report),
        t0,
    )


def cmd_rank(args) -> int:
    if args.d != 2:
        raise ValueError("the rank certificate is implemented for d = 2 only")
    print(algebra.rank_certify_d2(args.p))
    return EXIT_OK


def cmd_emat(args) -> int:
    partition = algebra.unit_partition(args.d)
    print(_partition_line(partition))
    print(algebra.unit_matrix_text(args.d))
    if args.det_input:
        doc = algebra.tensor_to_json(algebra.unit_tensor(args.d), args.d, 2 * args.d)
        with open(args.det_input, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    return EXIT_OK


def cmd_certify_all(args) -> int:
    d = args.d
    codes = []
    t0 = time.perf_counter()

    def stage(name, numbers, witnesses, **parameters):
        # each stage is timed from the previous certificate's print
        nonlocal t0
        codes.append(_emit(f"certify-all/{name}", {"d": d, **parameters}, numbers, witnesses, t0))
        t0 = time.perf_counter()

    homogeneous = count_homogeneous(d)
    pset = enumerate_partitions(d, cycle_free=True)
    expected = {2: (20, 12), 3: (756756, 66240)}.get(d)
    counts_ok = expected is None or (homogeneous, len(pset)) == expected
    stage(
        "enumerate",
        {"homogeneous": homogeneous, "cycle_free": len(pset)},
        [] if counts_ok else [{"property": "enumeration_counts", "expected": list(expected)}],
    )

    ctx = standard_context(d, pset)
    soundness = verify_flip_soundness(ctx.graph)
    numbers = {
        "flip_pairs_checked": soundness.pairs_checked,
        "flips_changing_two_edges": soundness.diff_two,
        "flips_changing_three_edges": soundness.diff_three,
        "involution": int(soundness.involution_ok),
    }
    stage("flip-graph", numbers, _soundness_witnesses(soundness))

    plus, minus = ctx.signature.class_sizes()
    conn = check_connected(ctx.graph)
    numbers = {"class_plus": plus, "class_minus": minus, "components": conn.n_components}
    stage("bipartite-connected", numbers, _alternation_witnesses(ctx.graph, ctx.signature))

    table = symmetry.orbit_decomposition(ctx.pset)
    witnesses = _orbit_witnesses(table, d)
    numbers = {"orbits": len(table.entries), "orbit_stabilizer_identity": int(not witnesses)}
    stage("orbits", numbers, witnesses)

    eps = symmetry.epsilon_formula_check(table, ctx.signature)
    expected = catalog.EXPECTED_CHARACTER if d == 3 else None
    stage("epsilon-formula", _epsilon_numbers(eps), _epsilon_witnesses(eps, expected))

    if d == 3:
        match = symmetry.match_catalog(table)
        numbers = {"references_checked": match.checked, "mismatches": len(match.mismatches)}
        stage("catalog-match", numbers, _catalog_witnesses(match))

    det_value = algebra.det_eval(algebra.unit_tensor(d), ctx.pset, ctx.signature)
    stage(
        "determinant",
        {"det_of_generator": algebra.format_scalar(det_value)},
        [] if det_value == 1 else [{"property": "determinant_normalization"}],
    )

    report = algebra.verify_relations(
        ctx.graph, ctx.signature, sample=args.sample_relations, seed=args.seed
    )
    stage(
        "relations",
        {"instances_checked": report.instances_checked, "violations": report.violations},
        _relation_witnesses(report),
        sample=args.sample_relations,
        seed=args.seed,
    )
    return max(codes)


# --------------------------------------------------------------------------
# parser

def _sample_size(text: str) -> int:
    """argparse type of a sample size: an int of at least 1, checked
    while parsing, so that a usage error prints no certificate."""
    try:
        sample = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if sample < 1:
        raise argparse.ArgumentTypeError(f"sampled mode needs a sample of at least 1, got {sample}")
    return sample


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedet",
        description="Certified combinatorics of homogeneous cycle-free edge "
        "partitions of complete graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate homogeneous d-partitions of K_{2d}")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--cycle-free", action="store_true")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--count-only", action="store_true")
    output.add_argument("--out", help="write JSONL partition objects here")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("flip", help="flip a partition across a face")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--partition", required=True, help="partition JSON file")
    p.add_argument("--face", type=int, nargs=3, required=True, metavar=("X", "Y", "Z"))
    p.set_defaults(func=cmd_flip)

    p = sub.add_parser("flip-graph", help="build the flip graph and emit certificates")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--anchors", help="JSON list of {partition, sign} anchor objects")
    p.set_defaults(func=cmd_flip_graph)

    p = sub.add_parser("orbits", help="orbit decomposition under vertex and color relabeling")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", help="write the orbit table as CSV here")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser(
        "verify-appendix",
        help="check the d = 3 orbit catalog and the parity form of the signature",
    )
    p.set_defaults(func=cmd_verify_appendix)

    p = sub.add_parser("signature", help="sign of one partition")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--anchors")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("det", help="evaluate the determinant form on a tensor file")
    p.add_argument("--input", required=True, help="tensor JSON file")
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("verify-relations", help="sweep the face relations")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sample", type=_sample_size, help="sampled mode instead of the full sweep")
    p.add_argument("--seed", type=int, help="seed, required in sampled mode")
    p.set_defaults(func=cmd_verify_relations)

    p = sub.add_parser("rank", help="quotient dimension at d = 2 by elimination over GF(p)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("emat", help="print the nested generator partition and matrix")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--det-input", help="also write the generator tensor JSON here")
    p.set_defaults(func=cmd_emat)

    p = sub.add_parser("certify-all", help="run the whole certificate pipeline")
    p.add_argument("--d", type=int, default=3, choices=(2, 3))
    p.add_argument(
        "--seed", type=int, required=True, help="seed of the sampled relation sweep"
    )
    p.add_argument(
        "--sample-relations",
        type=_sample_size,
        default=None,
        dest="sample_relations",
        help="sampled relation sweep instead of the full one",
    )
    p.set_defaults(func=cmd_certify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FlipUniquenessError, AnchorConflictError, symmetry.OrbitClosureError) as exc:
        witness = {"property": exc.witness_property, "detail": str(exc)}
        return _emit(args.command, {}, {}, [witness], time.perf_counter())
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # never exit 1, which means a failed certificate
        print(" ".join(f"error: internal {type(exc).__name__}: {exc}".split()), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
