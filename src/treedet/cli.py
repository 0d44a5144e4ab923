"""Command-line interface: every operation, machine-readable certificates.

Each verifying subcommand runs its stages through one runner, which
prints one JSON certificate per stage with stable key order.  A stage is
a name, its parameters and a check that returns the stage's numbers and
witnesses; each claim has one function that builds them, shared by the
standalone commands and certify-all.  A certificate's outcome is "fail"
exactly when it has witnesses.  Its wall_time_s times its stage, from
the start of the command or from the previous certificate's print, and
so includes every layer that stage is the first to read.

A check may raise its witness instead (a flip that is not unique, or a
set not closed under relabeling): the stage that raised it prints a
failed certificate with its own parameters and wall_time_s and the
error's structured witness, and the run stops.  flip, signature and
det print their answer, and a certificate named after the command only
when they raise.

Exit codes: 0 all checks passed, 1 a certificate failed, 2 bad input or
usage (among them a --sample or --sample-relations below 1, a --seed
below 0, a sample without --seed, a sample at d = 1, whose K_2 has no
face, and enumerate --count-only with --out), 3 an internal error (any
other exception, reported on one stderr line).

Only sampled modes draw random numbers: verify-relations --sample and
certify-all --sample-relations read the --seed, which certify-all always
requires.  Identical arguments and seed give identical certificates
(wall_time_s aside).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from typing import Optional

import numpy as np

from . import __version__, algebra, catalog, symmetry, trees
from .context import standard_context
from .enumeration import count_homogeneous, enumerate_partitions
from .flips import (
    FlipUniquenessError,
    check_connected,
    flip,
    sign_failures,
    verify_flip_soundness,
)
from .model import EdgePartition
from .symmetry import OrbitClosureError

PASS, FAIL = "pass", "fail"
EXIT_OK, EXIT_CERT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3
# violations a check raises, each with its certificate's witness()
RAISED_WITNESSES = (FlipUniquenessError, OrbitClosureError)


def _emit(command, parameters, numbers, witnesses, t0) -> int:
    """Print one certificate, timed from t0; it fails exactly when it
    carries a witness, and the exit code says which."""
    cert = {
        "command": command,
        "library_version": __version__,
        "numbers": numbers,
        "outcome": FAIL if witnesses else PASS,
        "parameters": parameters,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "witnesses": witnesses,
    }
    print(json.dumps(cert, sort_keys=True))
    return EXIT_CERT_FAIL if witnesses else EXIT_OK


def _run(stages) -> int:
    """Run (command, parameters, check) stages in order and print each
    one's certificate, timed from the previous print.  check() returns
    the stage's (numbers, witnesses), or None for a command that printed
    its answer instead.  A raised witness fails the stage that raised it
    and ends the run; the exit code is the worst one printed."""
    code, t0 = EXIT_OK, time.perf_counter()
    for command, parameters, check in stages:
        try:
            result = check()
        except RAISED_WITNESSES as exc:
            return _emit(command, parameters, {}, [exc.witness()], t0)
        if result is not None:
            code = max(code, _emit(command, parameters, *result, t0))
            t0 = time.perf_counter()
    return code


def _load_partition(path: str) -> EdgePartition:
    with open(path) as fh:
        return EdgePartition.from_json_dict(json.load(fh))


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
# one function per claim, shared by the standalone commands and certify-all:
# each returns its (numbers, witnesses), and the witnesses are empty exactly
# when the claim holds

def _counts(d: int, pset):
    homogeneous = count_homogeneous(d)
    expected = {2: (20, 12), 3: (756756, 66240)}.get(d)
    ok = expected is None or (homogeneous, len(pset)) == expected
    numbers = {"homogeneous": homogeneous, "cycle_free": len(pset)}
    return numbers, [] if ok else [{"property": "enumeration_counts", "expected": list(expected)}]


def _flip_soundness(graph):
    soundness = verify_flip_soundness(graph)
    numbers = {
        "flip_pairs_checked": soundness.pairs_checked,
        "flips_changing_two_edges": soundness.diff_two,
        "flips_changing_three_edges": soundness.diff_three,
        "involution": int(soundness.involution_ok),
    }
    return numbers, [] if soundness.ok else [{"property": "flip_uniqueness_and_involution"}]


def _bipartite_connected(graph, table, *, alternating=False):
    """Bipartite: every flip joins opposite signs of the table, which is
    then a two-coloring.  The witness is the first member whose flip
    does not, with the face, the partner and both signs.  With
    `alternating`, the numbers also count the (member, face) flips that
    do negate the sign."""
    plus, minus = table.class_sizes()
    components = check_connected(graph).n_components
    numbers = {"class_plus": plus, "class_minus": minus, "components": components}
    failing, first = 0, None
    for f, rows in sign_failures(graph, table.signs):
        failing += len(rows)
        if len(rows) and (first is None or rows[0] < first[0]):
            first = int(rows[0]), f  # smallest member, then smallest face
    if alternating:
        numbers["alternating_edges"] = int(graph.adjacency.size) - failing
    if first is None:
        return numbers, []
    i, f = first
    j = int(graph.adjacency[i, f])
    witness = {
        "property": "signature_alternation",
        "member": int(graph.pset.codes[i]),
        "face": list(graph.faces[f]),
        "partner": int(graph.pset.codes[j]),
        "member_sign": int(table.signs[i]),
        "partner_sign": int(table.signs[j]),
    }
    return numbers, [witness]


def _orbit_identity(table, d: int):
    group_order = math.factorial(2 * d) * math.factorial(d)
    bad = [e.orbit_id for e in table.entries if e.size * e.stabilizer_order != group_order]
    numbers = {"orbits": len(table.entries), "orbit_stabilizer_identity": int(not bad)}
    return numbers, [{"property": "orbit_stabilizer_identity", "orbits": bad}] if bad else []


def _parity_form(orbits, table):
    """Passes when signature_character(d) counts no violation (at d = 1 it is
    named "trivial"); else the first violations of each, or both names."""
    eps = symmetry.epsilon_formula_check(orbits, table)
    expected = symmetry.signature_character(orbits.pset.d)
    numbers = {
        "character": eps.character,
        "epsilon_samples": eps.samples,
        "epsilon_violations": min(eps.counts.values()),
    }
    witness = {"property": "signature_parity_formula"}
    if not eps.ok:
        violations = {
            name: [
                {"orbit": o, "sigma": list(s), "tau": list(t), "got": g, "expected": e}
                for (o, s, t, g, e) in found
            ]
            for name, found in eps.violations.items()
        }
        return numbers, [{**witness, "violations": violations}]
    if eps.counts[expected] == 0:
        return numbers, []
    return numbers, [{**witness, "character": eps.character, "expected": expected}]


def _catalog(orbits, table):
    """The orbits against the catalog, and the paper's orientation: the
    signature is +1 on every catalog reference.  A reference that is
    not a member is a catalog mismatch, and has no sign."""
    match = symmetry.match_catalog(orbits)
    numbers = {"references_checked": match.checked, "mismatches": len(match.mismatches)}
    witnesses = [] if match.ok else [{"property": "orbit_catalog_match", "diffs": match.mismatches}]
    negative = [c for c in match.orbit_of if table.signature(catalog.reference_partition(c)) != 1]
    numbers["references_positive"] = len(match.orbit_of) - len(negative)
    if negative:
        witnesses.append({"property": "reference_orientation", "references": negative})
    return numbers, witnesses


def _normalisation(d: int, ctx):
    value = algebra.det_eval(algebra.unit_tensor(d), ctx.pset, ctx.signature)
    numbers = {"det_of_generator": algebra.format_scalar(value)}
    return numbers, [] if value == 1 else [{"property": "determinant_normalization"}]


def _relations(ctx, sample: Optional[int], seed: Optional[int]):
    report = algebra.verify_relations(ctx.graph, ctx.signature, sample=sample, seed=seed)
    numbers = {"instances_checked": report.instances_checked, "violations": report.violations}
    if report.ok:
        return numbers, []
    instances = [
        {"face": list(w.face), "color_multiset": list(w.color_multiset), "context": list(w.context)}
        for w in report.witnesses
    ]
    return numbers, [{"property": "relation_vanishing", "instances": instances}]


# --------------------------------------------------------------------------
# subcommand handlers

def _one_stage(command: str, *parameters: str):
    """Make a handler of a check on the parsed arguments: it runs the
    check as the one stage `command`, whose parameters are the arguments
    named, and returns the exit code."""
    def handler(check):
        @functools.wraps(check)
        def run(args) -> int:
            stage = {name: getattr(args, name) for name in parameters}
            return _run([(command, stage, lambda: check(args))])
        return run
    return handler


@_one_stage("enumerate", "d", "cycle_free", "out")
def cmd_enumerate(args):
    pset = enumerate_partitions(args.d, cycle_free=args.cycle_free)
    if args.count_only:
        print(len(pset))
    elif not args.out:
        sys.stdout.writelines(_partition_lines(pset))
    else:
        with open(args.out, "w") as fh:
            fh.writelines(_partition_lines(pset))
        return {"count": len(pset)}, []


@_one_stage("flip", "partition", "face")
def cmd_flip(args):
    partition = _load_partition(args.partition)
    flipped = flip(partition, tuple(args.face))
    print(_partition_line(flipped))


@_one_stage("flip-graph", "d")
def cmd_flip_graph(args):
    ctx = standard_context(args.d)
    sound, unsound = _flip_soundness(ctx.graph)
    colored, miscolored = _bipartite_connected(ctx.graph, ctx.signature, alternating=True)
    numbers = {
        **sound,
        **colored,
        "nodes": len(ctx.pset),
        "faces": ctx.graph.adjacency.shape[1],
        "bipartite": int(not miscolored),
    }
    return numbers, unsound + miscolored


@_one_stage("orbits", "d", "out")
def cmd_orbits(args):
    pset = enumerate_partitions(args.d, cycle_free=True)
    table = symmetry.orbit_decomposition(pset)
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
    numbers, witnesses = _orbit_identity(table, args.d)
    sizes_ok = sum(e.size for e in table.entries) == len(pset)
    numbers.update(members=len(pset), sizes_sum_to_members=int(sizes_ok))
    if not sizes_ok:
        witnesses.append({"property": "orbit_sizes_sum_to_members"})
    return numbers, witnesses


@_one_stage("verify-appendix")
def cmd_verify_appendix(args):
    ctx = standard_context(3)
    table = symmetry.orbit_decomposition(ctx.pset)
    matched, mismatched = _catalog(table, ctx.signature)
    parity, violated = _parity_form(table, ctx.signature)
    return {**matched, **parity}, mismatched + violated


@_one_stage("signature", "partition")
def cmd_signature(args):
    partition = _load_partition(args.partition)
    unit = algebra.unit_partition(partition.d)
    print(f"{trees.member_sign(partition) * trees.member_sign(unit):+d}")


@_one_stage("det", "input")
def cmd_det(args):
    with open(args.input) as fh:
        vectors, d, p = algebra.tensor_from_json(json.load(fh))
    ctx = standard_context(d)
    result = algebra.det_eval(vectors, ctx.pset, ctx.signature, p=p)
    print(algebra.format_scalar(result))


@_one_stage("verify-relations", "d", "sample", "seed")
def cmd_verify_relations(args):
    if args.sample is not None and args.seed is None:  # refused before the context is built
        raise ValueError("sampled mode needs an explicit seed")
    return _relations(standard_context(args.d), args.sample, args.seed)


def cmd_rank(args) -> int:
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
    # each layer is built once, by the first stage that reads it and fails if it raises
    d = args.d
    pset = functools.cache(lambda: enumerate_partitions(d, cycle_free=True))
    ctx = functools.cache(lambda: standard_context(d, pset()))
    orbits = functools.cache(lambda: symmetry.orbit_decomposition(ctx().pset))
    checks = {
        "enumerate": lambda: _counts(d, pset()),
        "flip-graph": lambda: _flip_soundness(ctx().graph),
        "bipartite-connected": lambda: _bipartite_connected(ctx().graph, ctx().signature),
        "orbits": lambda: _orbit_identity(orbits(), d),
        "epsilon-formula": lambda: _parity_form(orbits(), ctx().signature),
        "catalog-match": lambda: _catalog(orbits(), ctx().signature),
        "determinant": lambda: _normalisation(d, ctx()),
    }
    if d != 3:
        del checks["catalog-match"]  # the catalog lists the d = 3 orbits
    relations = {"sample": args.sample_relations, "seed": args.seed}
    stages = [(f"certify-all/{name}", {"d": d}, check) for name, check in checks.items()]
    stages.append(
        ("certify-all/relations", {"d": d, **relations}, lambda: _relations(ctx(), **relations))
    )
    return _run(stages)


# --------------------------------------------------------------------------
# parser

def _at_least(low: int, what: str):
    """argparse type of an int of at least `low`, checked while parsing,
    so that a usage error prints no certificate."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} of at least {low}, got {value}")
        return value
    return parse


_sample_size = _at_least(1, "sampled mode needs a sample")
_seed = _at_least(0, "the seed must be an int")


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
    p.add_argument("--partition", required=True, help="partition JSON file")
    p.add_argument("--face", type=int, nargs=3, required=True, metavar=("X", "Y", "Z"))
    p.set_defaults(func=cmd_flip)

    p = sub.add_parser("flip-graph", help="build the flip graph and emit certificates")
    p.add_argument("--d", type=int, required=True)
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
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("det", help="evaluate the determinant form on a tensor file")
    p.add_argument("--input", required=True, help="tensor JSON file")
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("verify-relations", help="sweep the face relations")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sample", type=_sample_size, help="sampled mode instead of the full sweep")
    p.add_argument("--seed", type=_seed, help="seed, required in sampled mode")
    p.set_defaults(func=cmd_verify_relations)

    p = sub.add_parser("rank", help="quotient dimension at d = 2 by elimination over GF(p)")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("emat", help="print the nested generator partition and matrix")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--det-input", help="also write the generator tensor JSON here")
    p.set_defaults(func=cmd_emat)

    p = sub.add_parser("certify-all", help="run the whole certificate pipeline")
    p.add_argument("--d", type=int, default=3, choices=(2, 3))
    p.add_argument(
        "--seed", type=_seed, required=True, help="seed of the sampled relation sweep"
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
        return args.func(args)  # a raised witness fails its certificate in _run
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # never exit 1, which means a failed certificate
        print(" ".join(f"error: internal {type(exc).__name__}: {exc}".split()), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
