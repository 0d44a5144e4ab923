"""Correctness gates of the benchmark.  They count failures; they never hide them.

The certificate gate reads the JSON lines of ``certify-all --d 3`` and
compares every stage's numbers with the paper's values.  The determinant
gates compare ``det_eval`` results with answers computed another way.
None of them reads ``wall_time_s``.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Stage -> numbers the paper fixes.  A stage fails if it is missing, if its
# outcome is not "pass", or if any of these numbers differs.
CERTIFY_D3_EXPECTED = {
    "certify-all/enumerate": {"homogeneous": 756756, "cycle_free": 66240},
    "certify-all/flip-graph": {"flip_pairs_checked": 1324800, "involution": 1},
    "certify-all/bipartite-connected": {"class_plus": 33120, "class_minus": 33120, "components": 1},
    "certify-all/orbits": {"orbits": 19},
    "certify-all/catalog-match": {"references_checked": 19, "mismatches": 0},
    "certify-all/epsilon-formula": {"epsilon_violations": 0},
    "certify-all/determinant": {"det_of_generator": "1"},
    "certify-all/relations": {"instances_checked": 106288200, "violations": 0},
}
CERTIFY_STAGES = len(CERTIFY_D3_EXPECTED)


def judge_certificates(stdout: str, returncode: int) -> list[str]:
    """Failed stages of one certify-all run, each with its reason.

    A nonzero exit (a crash included) fails all stages.
    """
    if returncode != 0:
        return [f"{stage}: process exited with {returncode}" for stage in CERTIFY_D3_EXPECTED]
    seen = {}
    for line in stdout.splitlines():
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "command" in doc:
            seen.setdefault(doc["command"], []).append(doc)
    failed = []
    for stage, expected in CERTIFY_D3_EXPECTED.items():
        docs = seen.get(stage, [])
        if len(docs) != 1:
            failed.append(f"{stage}: {len(docs)} certificates instead of 1")
            continue
        doc = docs[0]
        numbers = doc.get("numbers", {})
        if doc.get("outcome") != "pass":
            failed.append(f"{stage}: outcome {doc.get('outcome')!r}")
            continue
        wrong = {k: numbers.get(k) for k, v in expected.items() if numbers.get(k) != v}
        if wrong:
            failed.append(f"{stage}: got {wrong}, expected {expected}")
    return failed


def residue(q: Fraction, p: int) -> int:
    """Image of a rational in GF(p), computed here rather than by treedet."""
    return q.numerator * pow(q.denominator, -1, p) % p


def det3(m) -> Fraction:
    """Determinant of a 3 x 3 rational matrix by cofactor expansion."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def act(m, vectors):
    """Matrix action T . v: the matrix applied to every edge vector."""
    return [[sum(row[j] * vec[j] for j in range(len(vec))) for row in m] for vec in vectors]
