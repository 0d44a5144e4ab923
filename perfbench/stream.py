"""The det-stream child: import treedet, build both contexts, then stream det_eval calls.

    python3 perfbench/stream.py --seed N --seconds S [--blocks B] --out FILE [--trace FILE]

Set-up (import plus ``standard_context(2)`` and ``standard_context(3)``) is
timed from the first line of this file.  The stream is a closed loop of
rounds, in blocks of BLOCK rounds; it stops at the first block boundary
after ``--seconds`` and after at least ``--blocks`` blocks (default 1).
Each round draws its tensors from ``random.Random(seed)``, times every
``det_eval`` call on its own, and checks every value afterwards.

The mix copies the det_eval traffic of acceptance criteria 7, 8 and 11,
counted per call (see NOTES.md): per 1000 loop iterations they make about
4000 integer d=3 calls, 1000 rational d=3 calls, 1000 GF(p) d=3 calls,
25 fractional matrix-action pairs and 6100 d=2 calls.  One round is a
thousandth of that:

* two d=3 integer pairs w, T.w (entries and integer T in [-2, 2], the
  int64 fast path): det(T.w) = det(T)^5 det(w);
* w of the first pair over GF(p): the value must be the rational residue;
* a rational d=3 tensor (one denominator 1-3 per edge) with one constant
  face: the value must be 0;
* a rational d=2 tensor with one constant face (value 0), four rational
  d=2 tensors (value ``DET2_EXPLICIT_SIGN * det2_explicit``), and the
  first of those over GF(p) (the residue of that value).

The first round of every block adds one fractional matrix-action pair: v
with integer entries in [-8, 8] and T.v for a rational T with denominators
1-3, which takes the segmented/object path.  Every block therefore has the
same mix, so a run's figures do not depend on where its stream stopped.

The criteria use p = 101 only.  Half of the GF(p) rounds use 101; the other
half cycle through larger primes up to 2^31 - 1, so that ``validate_prime``'s
trial division stays in the traffic.  The unit tensors (value 1) open the
stream.  After the stream, untimed probes evaluate the first v over primes
just above 2^32 and compare with its rational residue.  p = 2^61 - 1 is
left out: one ``validate_prime`` call takes minutes there.

With ``--trace``, spans are installed for set-up and for every other block,
starting with the first, so traced and untraced blocks interleave and
their latency difference is the tracing overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
from fractions import Fraction  # noqa: E402

from checks import act, det3, residue  # noqa: E402

BLOCK = 40  # rounds per fractional matrix-action pair: 1000 / 25 in criterion 11
SMALL_PRIME = 101
LARGE_PRIMES = (7919, 65537, 1000003, 1073741789, 2147483647)
PROBE_PRIMES = (4294967311, 4294967357)
D2_EXPLICIT_PER_ROUND = 4
EDGES = {d: [(i, j) for i in range(2 * d) for j in range(i + 1, 2 * d)] for d in (2, 3)}


class Stream:
    """Seeded det_eval traffic with a check on every evaluation.

    `algebra` is anything with treedet.algebra's ``det_eval``,
    ``det2_explicit``, ``DET2_EXPLICIT_SIGN`` and ``unit_tensor``; the
    attribute is looked up on every call so a tracer can be swapped in.
    Each evaluation is recorded as [class, d, seconds, ok, traced].
    """

    def __init__(self, algebra, contexts, seed: int, tracer=None):
        self.algebra = algebra
        self.contexts = contexts
        self.rng = random.Random(seed)
        self.large_primes = list(LARGE_PRIMES)
        self.rng.shuffle(self.large_primes)
        self.tracer = tracer
        self.traced = False
        self.rounds = 0
        self.evals: list[list] = []
        self.failures: list[str] = []
        self.probe_input = None  # (tensor, rational value) for the probes

    def _note(self, what: str):
        if len(self.failures) < 20:
            self.failures.append(what)

    def evaluate(self, cls: str, vectors, p=None):
        ctx = self.contexts[len(vectors[0])]
        if self.tracer is not None:
            self.tracer.tags = {"class": cls}
        start = time.perf_counter()
        try:
            value = self.algebra.det_eval(vectors, ctx.pset, ctx.signature, p=p)
        except Exception as exc:  # a raising evaluation is counted as failed
            value = None
            self._note(f"{cls}: det_eval raised {exc!r}")
        seconds = time.perf_counter() - start
        record = [cls, len(vectors[0]), seconds, value is not None, self.traced]
        self.evals.append(record)
        return value, record

    def judge(self, what: str, holds, *records):
        """Fail every record whose value takes part in a check that does not hold."""
        if all(r[3] for r in records) and holds():
            return
        for r in records:
            r[3] = False
        self._note(what)

    def prime(self, r: int) -> int:
        if r % 2 == 0:
            return SMALL_PRIME
        return self.large_primes[(r // 2) % len(self.large_primes)]

    def int_tensor(self, d: int, bound: int):
        return [[Fraction(self.rng.randint(-bound, bound)) for _ in range(d)] for _ in EDGES[d]]

    def rational_tensor(self, d: int):
        """Numerators in [-8, 8] over one denominator 1-3 per edge."""
        rng = self.rng
        out = []
        for _ in EDGES[d]:
            den = rng.randint(1, 3)
            out.append([Fraction(rng.randint(-8, 8), den) for _ in range(d)])
        return out

    def constant_face_tensor(self, d: int):
        t = self.rational_tensor(d)
        x, y, z = sorted(self.rng.sample(range(2 * d), 3))
        den = self.rng.randint(1, 3)
        vec = [Fraction(self.rng.randint(-8, 8), den) for _ in range(d)]
        for edge in ((x, y), (x, z), (y, z)):
            t[EDGES[d].index(edge)] = list(vec)
        return t

    def matrix(self, entry):
        return [[entry() for _ in range(3)] for _ in range(3)]

    def action_pair(self, v, m, cls_image: str):
        """det_eval of v and of m.v, judged by det(m.v) = det(m)^5 det(v)."""
        vv, rv = self.evaluate("d3_int", v)
        vm, rvm = self.evaluate(cls_image, act(m, v))
        self.judge("det(T.v) != det(T)^5 det(v)", lambda: vm == det3(m) ** 5 * vv, rv, rvm)
        return vv, rv

    def unit_check(self):
        for d, cls in ((3, "d3_int"), (2, "d2")):
            value, rec = self.evaluate(cls, self.algebra.unit_tensor(d))
            self.judge(f"d={d} unit tensor: value is not 1", lambda: value == 1, rec)

    def round(self):
        r = self.rounds
        self.rounds += 1
        rng = self.rng
        p = self.prime(r)

        if r % BLOCK == 0:
            v = self.int_tensor(3, 8)
            m = self.matrix(lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            vv, rv = self.action_pair(v, m, "d3_rational")
            if self.probe_input is None and rv[3]:
                self.probe_input = (v, vv)

        w = self.int_tensor(3, 2)
        vw, rw = self.action_pair(w, self.matrix(lambda: rng.randint(-2, 2)), "d3_int")
        self.action_pair(self.int_tensor(3, 2), self.matrix(lambda: rng.randint(-2, 2)), "d3_int")
        gw, rgw = self.evaluate("d3_gfp", w, p)
        # w's own value is judged by the matrix-action check; a failed w
        # leaves nothing to compare with, so it fails this value too.
        self.judge(f"d=3: GF({p}) value != rational residue", lambda: rw[3] and residue(vw, p) == gw, rgw)

        vc, rc = self.evaluate("d3_rational", self.constant_face_tensor(3))
        self.judge("d=3 constant face: value is not 0", lambda: vc == 0, rc)

        vc2, rc2 = self.evaluate("d2", self.constant_face_tensor(2))
        self.judge("d=2 constant face: value is not 0", lambda: vc2 == 0, rc2)
        explicit = None
        for i in range(D2_EXPLICIT_PER_ROUND):
            y = self.rational_tensor(2)
            vy, ry = self.evaluate("d2", y)
            expected = self.algebra.DET2_EXPLICIT_SIGN * self.algebra.det2_explicit(y)
            self.judge("d=2: value != DET2_EXPLICIT_SIGN * det2_explicit", lambda: vy == expected, ry)
            if i == 0:
                explicit, first = expected, y
        gy, rgy = self.evaluate("d2", first, p)
        self.judge(f"d=2: GF({p}) value != residue of det2_explicit", lambda: residue(explicit, p) == gy, rgy)

    def probes(self) -> list[list]:
        """Untimed GF(p) evaluations for p just above 2^32, as [p, ok]."""
        if self.probe_input is None:
            return []
        (v, vv), out = self.probe_input, []
        for p in PROBE_PRIMES:
            value, rec = self.evaluate("probe", v, p)
            self.evals.pop()  # probes stay out of the stream's records
            ok = rec[3] and residue(vv, p) == value
            if not ok:
                self._note(f"probe: GF({p}) value != rational residue")
            out.append([p, ok])
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    from treedet import algebra, context

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    contexts = {2: context.standard_context(2), 3: context.standard_context(3)}
    setup_s = time.perf_counter() - T0

    stream = Stream(algebra, contexts, args.seed, tracer)
    stream.traced = tracer is not None
    stream.unit_check()
    deadline = time.perf_counter() + args.seconds
    while stream.rounds % BLOCK or stream.rounds < args.blocks * BLOCK or time.perf_counter() < deadline:
        if tracer is not None and stream.rounds % BLOCK == 0:
            stream.traced = stream.rounds // BLOCK % 2 == 0
            (tracer.install if stream.traced else tracer.uninstall)()
        stream.round()
    if tracer is not None:
        tracer.install()
    probes = stream.probes()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)

    with open(args.out, "w") as fh:
        json.dump(
            {
                "setup_s": setup_s,
                "rounds": stream.rounds,
                "evals": stream.evals,
                "probes": probes,
                "failures": stream.failures,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
