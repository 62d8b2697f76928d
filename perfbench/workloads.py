"""The four workloads: seeded inputs, one op each, and correctness checks.

A workload yields its ops in rounds.  A run ends only at a round boundary,
so every run holds the workload's mix in exact shares.  Correctness checks
run after the timed loop and compare against references that do not come
from the code under test: `tests/oracles.py`, the paper's family table, the
golden xi table and hand-written expectations from the README.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

# Layer entry points are called through their modules, so that the tracer's
# replacements are the ones called.
from pin2k import cli, ideals, spectra  # noqa: E402
from pin2k.ideals import IdealError  # noqa: E402
from pin2k.ring import RingElem  # noqa: E402

from oracles import ideal_member_oracle, random_combination, wmult_subgroup_oracle  # noqa: E402

K_MAX = 64
CAPPED = (("error", "NoSuchKError"), ("error", "NoWitnessBelowCapError"))

# kappa of (+Y, -Y) and splitness for Sigma(2,3,m), keyed by m mod 12 (the
# families 12n-1, 12n-5, 12n+1, 12n+5), as tabulated in the paper.
FAMILY_KAPPA = {11: (2, 0), 7: (1, 1), 1: (0, 0), 5: (1, -1)}
FAMILY_SPLIT = {11: False, 7: False, 1: True, 5: True}


def valid_m(lo, hi):
    return [m for m in range(lo, hi + 1) if m % 2 and m % 3]


def expected_class(m, orientation):
    plus, minus = FAMILY_KAPPA[m % 12]
    return (plus if orientation == "+" else minus), FAMILY_SPLIT[m % 12]


def elem(pair):
    poly, lam = pair
    return RingElem(lam, poly)


def z_pow_raw(k):
    return (0,) * k + (1,), 0


def w_pow_raw(k):
    return ((1,), 0) if k == 0 else ((), 2 ** (k - 1))


def max_coeff_bits(forms):
    return max((abs(c).bit_length() for f in forms for b in f.basis for c in b.poly + (b.wcoef,)), default=0)


class Crash:
    """An op that raised something other than a domain answer."""

    def __init__(self, err):
        self.err = f"{type(err).__name__}: {err}"[:200]

    def __repr__(self):
        return f"Crash({self.err})"


def _domain(call):
    try:
        return call()
    except IdealError as err:
        return ("error", type(err).__name__)


class IdealBuild:
    """One op completes the ideal of 3 seeded random generators.

    Each round holds one input per (degree, coefficient bound) cell, for
    degrees 4, 8, 12, and a second input in the cell (8, 1000).  Every input
    is distinct, so no cache can serve a repeat.  With the six cells in
    equal shares, the median fell in the gap between the cells (8, 3) and
    (8, 1000), whose costs differ 2x, and moved by 25 % from run to run; the
    extra input puts the median inside the cell (8, 1000).  Degree 16 is
    timed only in the traced run (`probe`): in the timed loop its 0.5-1.2 s
    ops made a round cost 2.1 s, so 100 ops took 30 s and p50/p90 moved by
    about 30 % between seeds.
    """

    DEGREES = (4, 8, 12)
    PROBE_DEGREE = 16
    BOUNDS = (3, 1000)
    CELLS = ((4, 3), (4, 1000), (8, 3), (8, 1000), (8, 1000), (12, 3), (12, 1000))
    replay_ops = len(CELLS)  # one round
    uses_children = False

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.seen = set()

    def _pair(self, deg, bound):
        rng = self.rng
        lead = rng.choice((-1, 1)) * rng.randint(1, bound)
        poly = tuple(rng.randint(-bound, bound) for _ in range(deg)) + (lead,)
        return poly, rng.randint(-bound, bound)

    def _op(self, deg, bound):
        raw = tuple(self._pair(deg, bound) for _ in range(3))
        while raw in self.seen:
            raw = tuple(self._pair(deg, bound) for _ in range(3))
        self.seen.add(raw)
        return (deg, bound), raw, [elem(p) for p in raw]

    def rounds(self):
        cells = list(self.CELLS)
        while True:
            self.rng.shuffle(cells)
            yield [self._op(deg, bound) for deg, bound in cells]

    def run(self, op):
        return ideals.ideal_from_generators(op[2])

    def check(self, ops, outcomes):
        failed = []
        for i, ((_, raw, gens), form) in enumerate(zip(ops, outcomes)):
            ok = (
                not isinstance(form, Crash)
                and all(form.contains(g) for g in gens)
                and form.e == wmult_subgroup_oracle(raw)
            )
            if not ok:
                failed.append(i)
        return failed

    def layer_metrics(self, ops, outcomes, latencies):
        metrics = {"ideals.basis.max_coeff_bits": max_coeff_bits(outcomes)}
        for deg in self.DEGREES:
            for bound in self.BOUNDS:
                cell = [t for (c, _, _), t in zip(ops, latencies) if c == (deg, bound)]
                metrics[f"ideals.complete.ms.d{deg:02d}.c{bound}"] = 1000 * statistics.median(cell)
        return metrics

    def probe(self):
        """Median of 3 degree-16 completions per coefficient bound, in ms."""
        metrics = {}
        for bound in self.BOUNDS:
            samples = []
            for _ in range(3):
                op = self._op(self.PROBE_DEGREE, bound)
                t0 = perf_counter()
                ideals.ideal_from_generators(op[2])
                samples.append(perf_counter() - t0)
            metrics[f"ideals.complete.ms.d{self.PROBE_DEGREE}.c{bound}"] = 1000 * statistics.median(samples)
        return metrics


class IdealQuery:
    """One op is one query against one of 24 ideals completed at set-up.

    Queries come in the mix 70 % `contains` (alternately a guaranteed member
    and a random element of degree <= 40), 10 % `zw_exponent`, 10 %
    `nilpotence_exponent` and 10 % `k_invariant` or `is_kg_split`.  A round
    puts each query kind on each ideal the same number of times, in a seeded
    order.  Ideal i has 1 + i % 3 generators, so a third are principal and
    their zw searches run to the cap.

    The ideals are a fixed corpus, the same for every seed: the few capped
    searches set most of the cost of a run, and per ideal that cost ranges
    over 4x.  With ideals drawn per seed, two seeds differed by 45 % in mean
    search time.  The seed draws the queries.
    """

    N_IDEALS = 24
    CORPUS_SEED = 24
    replay_ops = 10 * N_IDEALS  # one round
    uses_children = False
    ORACLE_SAMPLE = 60

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(self.CORPUS_SEED)
        self.raw = [self._gens(i) for i in range(self.N_IDEALS)]
        self.forms = [ideals.ideal_from_generators([elem(p) for p in gens]) for gens in self.raw]
        self.rng = random.Random(seed)

    def _pair(self, deg, exact):
        rng = self.rng
        poly = [rng.randint(-9, 9) for _ in range(deg + 1)]
        if exact and not poly[-1]:
            poly[-1] = rng.choice((-1, 1)) * rng.randint(1, 9)
        while poly and not poly[-1]:
            poly.pop()
        return tuple(poly), rng.randint(-9, 9)

    def _gens(self, i):
        top = 1 + (i // 3) % 6
        gens = [self._pair(top, True)]
        gens += [self._pair(self.rng.randint(0, top), False) for _ in range(i % 3)]
        return gens

    def _contains(self, idx, member):
        if member:
            x = random_combination(self.rng, self.raw[idx])
            return ("contains", idx, x, (x.poly, x.wcoef), True)
        pair = self._pair(self.rng.randint(0, 40), False)
        return ("contains", idx, elem(pair), pair, False)

    def rounds(self):
        for number in itertools.count():
            batch = []
            for idx in range(self.N_IDEALS):
                batch += [self._contains(idx, (number + j + idx) % 2 == 0) for j in range(7)]
                inv = "k" if (number + idx) % 2 else "split"
                batch += [(kind, idx, None, None, None) for kind in ("zw", "nil", inv)]
            self.rng.shuffle(batch)
            yield batch

    def run(self, op):
        kind, idx, x = op[0], op[1], op[2]
        form = self.forms[idx]
        if kind == "contains":
            return form.contains(x)
        if kind == "zw":
            return _domain(lambda: form.zw_exponent(K_MAX))
        if kind == "nil":
            return _domain(lambda: form.nilpotence_exponent(K_MAX))
        if kind == "k":
            return _domain(form.k_invariant)
        return form.is_kg_split()

    # -- checks against tests/oracles.py --------------------------------------

    def _member(self, idx, pair):
        return ideal_member_oracle(self.raw[idx], pair)

    def _expected_k(self, idx):
        e = wmult_subgroup_oracle(self.raw[idx])
        if e == 0:
            return ("error", "NoWitnessError")
        if e & (e - 1):
            return ("error", "NotSwfLikeError")
        return e.bit_length() - 1

    def _expected_split(self, idx):
        k = self._expected_k(idx)
        if not isinstance(k, int):
            return False
        return self._member(idx, z_pow_raw(k)) and all(
            ideal_member_oracle([z_pow_raw(k)], g) for g in self.raw[idx]
        )

    def _nil_ok(self, idx, answer):
        def both(k):
            return self._member(idx, w_pow_raw(k)) and self._member(idx, z_pow_raw(k))

        if answer == ("error", "NoWitnessBelowCapError"):
            return not both(K_MAX)
        if not isinstance(answer, int) or isinstance(answer, bool):
            return False
        return both(answer) and (answer == 0 or not both(answer - 1))

    def check(self, ops, outcomes):
        failed = []
        answers = {}  # (kind, idx) -> first answer; later ones must agree
        random_cases = {}
        for i, (op, out) in enumerate(zip(ops, outcomes)):
            kind, idx, _, pair, member = op
            if isinstance(out, Crash):
                failed.append(i)
            elif kind == "contains":
                if member and out is not True:
                    failed.append(i)
                elif not member:
                    random_cases.setdefault((idx, pair), []).append(i)
            elif answers.setdefault((kind, idx), out) != out:
                failed.append(i)
            elif kind == "zw" and isinstance(out, tuple) and out != ("error", "NoSuchKError"):
                failed.append(i)
        expected = {
            "k": self._expected_k,
            "split": self._expected_split,
        }
        for (kind, idx), out in answers.items():
            if kind in expected:
                ok = expected[kind](idx) == out
            elif kind == "nil":
                ok = self._nil_ok(idx, out)
            else:
                continue
            if not ok:
                failed.extend(i for i, op in enumerate(ops) if op[0] == kind and op[1] == idx)
        sample = sorted(random_cases, key=repr)
        random.Random(self.seed).shuffle(sample)
        for idx, pair in sample[: self.ORACLE_SAMPLE]:
            indices = random_cases[(idx, pair)]
            if outcomes[indices[0]] != self._member(idx, pair):
                failed.extend(indices)
        return sorted(set(failed))

    def layer_metrics(self, ops, outcomes, latencies):
        searches = [out for op, out in zip(ops, outcomes) if op[0] in ("zw", "nil")]
        capped = sum(out in CAPPED for out in searches)
        return {
            "ideals.search.capped_ratio": capped / max(len(searches), 1),
            "ideals.basis.max_coeff_bits": max_coeff_bits(self.forms),
        }


class KappaSweep:
    """One op is `brieskorn class`: the class of Sigma(2,3,m), then kappa and splitness.

    A round is one sweep over every valid m in 7..4000 and both orientations,
    in a fresh seeded order.
    """

    M_MAX = 4000
    uses_children = False
    CURVE = (1000, 2000, 4000)

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.sweep = [(m, o) for m in valid_m(7, self.M_MAX) for o in "+-"]
        self.replay_ops = len(self.sweep)  # one round

    def rounds(self):
        while True:
            self.rng.shuffle(self.sweep)
            yield list(self.sweep)

    def run(self, op):
        cls = spectra.brieskorn_class(*op)
        return cls.kappa(), cls.is_floer_kg_split()

    def check(self, ops, outcomes):
        return [i for i, (op, out) in enumerate(zip(ops, outcomes)) if out != expected_class(*op)]

    def probe(self):
        """Median time to build one class, over the 16 valid m nearest each point of the m-curve."""
        metrics = {}
        for point in self.CURVE:
            ms = valid_m(point - 24, point + 23)
            samples = []
            for _ in range(3):
                for m in ms:
                    for o in "+-":
                        t0 = perf_counter()
                        spectra.brieskorn_class(m, o)
                        samples.append(perf_counter() - t0)
            metrics[f"spectra.class_us.m{point}"] = 1e6 * statistics.median(samples)
        return metrics


def _one_error_line(code, out, err):
    return code == 2 and not out and err.count("\n") == 1 and err.startswith("error:")


def _exact(code, text):
    return lambda c, out, err: c == code and out == text


def _json(code, payload):
    def check(c, out, err):
        try:
            return c == code and json.loads(out) == payload
        except ValueError:
            return False

    return check


class CliMix:
    """One op runs `python -m pin2k.cli ...` in a subprocess and waits for it.

    A round is one cycle through every command below, in a fresh seeded
    order, with a few seeded arguments.  `brieskorn table` runs 4 times per
    cycle (13 % of ops), so that op_ms.p90 falls inside that group of
    equally slow commands rather than on the edge between it and the rest.
    Expectations are written out by hand from the README and the paper's
    tables; `xi table` must match tests/golden/xi_table.txt exactly.
    """

    uses_children = True

    # Known defects (each should exit 2 with one `error:` line; at the time
    # the benchmark was written each exits 1 with a traceback).
    # `ring eval "z^2000000"` is left out: it does not finish within 20 s.
    KNOWN_DEFECTS = (
        ("bauer", "check", "--chain", '{"p":1}'),
        ("bauer", "check", "--chain", '[{"p":1}]'),
        ("ring", "eval", "(" * 3000 + "1" + ")" * 3000),
    )

    def __init__(self, seed):
        self.rng = random.Random(seed)
        golden = (ROOT / "tests" / "golden" / "xi_table.txt").read_bytes().decode()
        table = "".join(
            f"kappa({'' if o == '+' else '-'}Sigma(2,3,{m})) = {expected_class(m, o)[0]}\n"
            for m in valid_m(7, 601)
            for o in "+-"
        )
        table_json = {
            "rows": [
                {"kappa": expected_class(m, o)[0], "m": m, "orientation": o}
                for m in valid_m(7, 601)
                for o in "+-"
            ]
        }
        self.fixed = [
            (("ring", "eval", "(1 - w)*(1 - w)"), _exact(0, "1\n")),
            (("ring", "restrict", "z^2"), _exact(0, "theta^-2 - 4*theta^-1 + 6 - 4*theta + theta^2\n")),
            (("ideal", "k", "--gens", "w,z"), _exact(0, "k = 1\n")),
            (
                ("ideal", "info", "--gens", "z^2, 2*z, 4", "--json"),
                _exact(
                    0,
                    '{"basis": ["4*w", "4", "2*z", "z^2"], "d": 4, "e": 4, '
                    '"generators": ["z^2", "2*z", "4"], "k": 2, "kg_split": false}\n',
                ),
            ),
            (("ideal", "contains", "--gens", "z^2", "--element", "2*w"), _exact(0, "not a member\n")),
            (("brieskorn", "kappa", "2", "3", "11", "--orient", "-"), _exact(0, "kappa = 0\n")),
            (
                ("brieskorn", "class", "2", "3", "7", "--orient", "+", "--json"),
                _exact(
                    0,
                    '{"blocks": ["SuspG"], "brieskorn": [2, 3, 7], "kappa": 1, '
                    '"kg_split": false, "m": 0, "n": "1/2", "orientation": "+"}\n',
                ),
            ),
            (("brieskorn", "table", "--max-m", "601"), _exact(0, table)),
            (("brieskorn", "table", "--max-m", "601"), _exact(0, table)),
            (("brieskorn", "table", "--max-m", "601", "--json"), _json(0, table_json)),
            (("brieskorn", "table", "--max-m", "601", "--json"), _json(0, table_json)),
            (
                ("bounds", "split", "--p", "2", "--q", "2", "--kappa0", "0", "--kappa1", "0"),
                _exact(1, "Violated: 0 + 2 >= 0 + 2 + 1\n"),
            ),
            (("bounds", "furuta", "--p", "2", "--q", "3"), _exact(0, "Satisfied: 3 >= 2 + 1\n")),
            (("xi", "table"), _exact(0, golden)),
            (("xi", "show", "--", "-Sigma(2,3,12n-5)"), _exact(0, "xi(-Sigma(2,3,12n-5)) = 0\n")),
            (("xi", "show", "Sigma(2,3,11)"), _exact(0, "xi(Sigma(2,3,11)) = 0\n")),
            (("xi", "show", "S3"), _exact(0, "xi(S^3) = -1\n")),
            (("xi", "show", "Sigma(2,3,12n-1)"), _exact(0, "xi(Sigma(2,3,12n-1)) in [-1, 0]\n")),
            (("bauer", "canonical", "--pieces", "3"), _exact(1, "Violated: 0 + 2 >= 0 + 2 + 1\n")),
            (
                ("bauer", "check", "--chain", '[{"p":2,"q":3}]'),
                _exact(0, "Satisfied: all piecewise bounds hold\n"),
            ),
            (("ring", "eval", "w +"), _one_error_line),
            (("ideal", "k", "--gens", "3*z"), _one_error_line),
            (("brieskorn", "kappa", "2", "3", "9"), _one_error_line),
            (("xi", "show", "Sigma(2,3,9)"), _one_error_line),
        ] + [(argv, _one_error_line) for argv in self.KNOWN_DEFECTS]
        self.replay_ops = len(self.fixed) + 4  # one round, with the 4 seeded commands
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def _seeded(self):
        rng = self.rng
        out = []
        for _ in range(2):
            m, o = rng.choice(valid_m(7, 4000)), rng.choice("+-")
            kappa = expected_class(m, o)[0]
            argv = ("brieskorn", "kappa", "2", "3", str(m), "--orient", o)
            out.append((argv, _exact(0, f"kappa = {kappa}\n")))
        for _ in range(2):
            lam, poly = rng.randint(-9, 9), [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            expr = " + ".join([f"({c})*z^{i}" for i, c in enumerate(poly)] + [f"({lam})*w"])
            value = 2 * lam + sum(c * 2**i for i, c in enumerate(poly))
            out.append((("ring", "wmul", expr), _exact(0, f"{value}\n")))
        return out

    def rounds(self):
        while True:
            cycle = self.fixed + self._seeded()
            self.rng.shuffle(cycle)
            yield cycle

    def run(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "pin2k.cli", *op[0]],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout.decode(errors="replace"), proc.stderr.decode(errors="replace")

    def replay(self, op):
        """The same command through `cli.main` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(op[0]))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # the known defects raise here; replay only times them
                code = None
        return code

    def is_known_defect(self, op, out):
        code, _, err = out
        return op[0] in self.KNOWN_DEFECTS and code == 1 and "Traceback" in err

    def check(self, ops, outcomes):
        failed = []
        for i, (op, out) in enumerate(zip(ops, outcomes)):
            if isinstance(out, Crash) or not (op[1](*out) or self.is_known_defect(op, out)):
                failed.append(i)
        return failed

    def layer_metrics(self, ops, outcomes, latencies):
        defects = sum(
            not isinstance(out, Crash) and self.is_known_defect(op, out) for op, out in zip(ops, outcomes)
        )
        return {"cli.known_defect_ratio": defects / len(ops)}

    def probe(self):
        """Interpreter floor and the import cost of pin2k.cli above it, in ms."""

        def wall(code):
            samples = []
            for _ in range(9):
                t0 = perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env, check=True)
                samples.append(perf_counter() - t0)
            return 1000 * statistics.median(samples)

        floor = wall("pass")
        return {"cli.interpreter_ms": floor, "cli.import_ms": wall("import pin2k.cli") - floor}


WORKLOADS = {
    "ideal_build": IdealBuild,
    "ideal_query": IdealQuery,
    "kappa_sweep": KappaSweep,
    "cli_mix": CliMix,
}
