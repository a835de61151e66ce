"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Counts, dimension ranges, and tolerances are pinned; exact checks use
rational arithmetic with zero tolerance, float checks use 1e-12.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np

from bmsym import (
    NotMonomial,
    PermanentMismatch,
    Permutation,
    RationalMatrix,
    ScaledPerm,
    Symmetry,
    Violation,
    basis,
    bracket,
    dn1_new,
    extract_pattern,
    invariance_system_check,
    lie_exp,
    lie_log,
    membership_test,
    metric,
    metric_power,
    mu,
    structure_constants,
    theorem_oracle,
    witness_violates,
)
from bmsym.lie import TracelessDiagonal
from bmsym.sampling import random_nonzero_rational, random_scaled_perm, random_vector
from helpers import BIG_IDENTITY, ELEMENT_P, ELEMENT_Q, WORKED_MATRIX
from oracles import cofactor_det

TOL = 1e-12


def _report(num: int, ok: bool) -> None:
    print(f"ACCEPTANCE criterion-{num}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_group_laws_exact():
    ok = False
    try:
        start = time.perf_counter()
        for n in range(2, 8):
            rng = random.Random(f"acc1:{n}")
            e = ScaledPerm.identity(n)
            for _ in range(1000):
                p = random_scaled_perm(n, rng)
                q = random_scaled_perm(n, rng)
                r = random_scaled_perm(n, rng)
                assert p.compose(q).compose(r) == p.compose(q.compose(r))
                assert p.compose(e) == p and e.compose(p) == p
                assert p.compose(p.inverse()) == e
                assert p.inverse().compose(p) == e
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"group-law suite took {elapsed:.1f}s"
        ok = True
    finally:
        _report(1, ok)


def test_criterion_2_formula_vs_dense_oracle():
    ok = False
    try:
        for n in range(3, 8):
            rng = random.Random(f"acc2:{n}")
            identity = RationalMatrix.identity(n)
            for _ in range(1000):
                p = random_scaled_perm(n, rng)
                q = random_scaled_perm(n, rng)
                assert p.compose(q).to_dense() == p.to_dense() @ q.to_dense()
                assert p.inverse().to_dense() @ p.to_dense() == identity
                assert p.det() == p.sigma.sign() == cofactor_det(p.to_dense())
        ok = True
    finally:
        _report(2, ok)


def test_criterion_3_metric_invariance():
    ok = False
    try:
        for n in range(2, 8):
            rng = random.Random(f"acc3:{n}")
            for _ in range(1000):
                p = random_scaled_perm(n, rng)
                y = random_vector(n, rng)
                assert metric_power(p.apply(y)) == metric_power(y)
            # float branch: positive orthant, positive scales
            for _ in range(1000):
                p = random_scaled_perm(n, rng, positive=True)
                y = tuple(F(rng.uniform(0.1, 10.0)) for _ in range(n))
                reference = metric(y)
                image = metric(p.apply(y))
                assert abs(image - reference) <= TOL * reference
        ok = True
    finally:
        _report(3, ok)


def test_criterion_4_theorem_oracle_all_dimensions():
    ok = False
    try:
        for n in (3, 4, 5):
            report = theorem_oracle(n, 500, seed=0)
            assert report.positives_passed == 500, f"n={n}: {report}"
            assert report.perturbed_rejected == 500, f"n={n}: {report}"
        start = time.perf_counter()
        report = theorem_oracle(6, 500, seed=0)
        elapsed = time.perf_counter() - start
        assert report.positives_passed == 500 and report.perturbed_rejected == 500
        assert elapsed < 60.0, f"n=6 oracle took {elapsed:.1f}s"
        # witnesses must re-evaluate: spot-check rejection on fresh perturbations
        rng = random.Random("acc4:witness")
        for _ in range(100):
            p = random_scaled_perm(5, rng)
            row = rng.randrange(5) + 1
            column = rng.choice([j for j in range(1, 6) if j != p.sigma(row)])
            m = p.to_dense().with_entry(row, column, random_nonzero_rational(rng))
            verdict = invariance_system_check(m)
            assert isinstance(verdict, Violation)
            assert witness_violates(m, verdict.witness)
        ok = True
    finally:
        _report(4, ok)


def test_criterion_5_membership_cross_check():
    ok = False
    try:
        for n in (3, 4, 5):
            rng = random.Random(f"acc5:{n}")
            for index in range(500):
                p = random_scaled_perm(n, rng)
                x = p.to_dense()
                if index % 2 == 1:
                    # perturb: extra off-pattern entry, or break the product
                    row = rng.randrange(n) + 1
                    if index % 4 == 1:
                        column = rng.choice(
                            [j for j in range(1, n + 1) if j != p.sigma(row)]
                        )
                        x = x.with_entry(row, column, random_nonzero_rational(rng))
                    else:
                        on = p.sigma(row)
                        x = x.with_entry(row, on, x.entry(row, on) * 2)
                verdict = invariance_system_check(x)
                for sigma in (p.sigma.inverse(), Permutation(
                    tuple(rng.sample(range(1, n + 1), n))
                )):
                    try:
                        perm, scale = extract_pattern(x)
                        product = math.prod(scale, start=F(1))
                        expected = perm == sigma.inverse() and product == 1
                        # a monomial's pattern is the classifier's verdict
                        if product == 1:
                            assert verdict == Symmetry(perm, scale)
                        else:
                            assert verdict == Violation(PermanentMismatch(product))
                    except NotMonomial:
                        expected = False
                        assert isinstance(verdict, Violation)
                    assert membership_test(x, sigma) == expected
        ok = True
    finally:
        _report(5, ok)


def test_criterion_6_non_abelian_witness():
    ok = False
    try:
        s = ScaledPerm(Permutation((2, 1, 3)), (F(1),) * 3)
        t = ScaledPerm(Permutation((1, 3, 2)), (F(1),) * 3)
        assert s.compose(t).sigma.image == (3, 1, 2)
        assert t.compose(s).sigma.image == (2, 3, 1)
        assert s.compose(t) != t.compose(s)
        ok = True
    finally:
        _report(6, ok)


def test_criterion_7_lie_suite():
    ok = False
    try:
        for n in range(2, 11):
            vectors = [basis(n, i) for i in range(1, n)]
            assert len(vectors) == n - 1
            rows = np.array([[float(v) for v in b.diag] for b in vectors])
            assert np.linalg.matrix_rank(rows) == n - 1
            for x, y in itertools.product(vectors, vectors):
                assert all(v == 0 for v in bracket(x, y).diag)
            assert not np.asarray(structure_constants(n)).any()

            rng = random.Random(f"acc7:{n}")
            for _ in range(1000):
                head = [rng.uniform(-2.0, 2.0) for _ in range(n - 1)]
                x = TracelessDiagonal(tuple(head) + (-sum(head),))
                a = lie_exp(x)
                assert abs(math.prod(a.diag) - 1.0) <= TOL
                back = lie_log(a)
                assert all(
                    abs(u - v) <= TOL for u, v in zip(back.diag, x.diag)
                )
            for _ in range(100):
                a = dn1_new(
                    tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n - 1))
                )
                b = dn1_new(
                    tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n - 1))
                )
                assert (a * b).diag == (b * a).diag
                assert mu(a, a).is_identity()
        ok = True
    finally:
        _report(7, ok)


VIOLATION_MATRIX = '{"n":3,"rows":[["1","1/2","0"],["0","1","0"],["0","0","1"]]}'

SUBCOMMAND_RUNS = [
    ["compose", "--a", ELEMENT_P, "--b", ELEMENT_Q],
    ["inverse", "--input", ELEMENT_P],
    ["apply", "--input", ELEMENT_P, "--y", '["1","2","4"]'],
    ["metric", "--y", "[1,2,4]"],
    ["classify", "--matrix", WORKED_MATRIX],
    ["membership", "--matrix", WORKED_MATRIX, "--sigma", "[3,1,2]"],
    ["oracle", "--n", "3", "--trials", "20", "--seed", "1"],
    ["lie-exp", "--input", '{"n":2,"tdiag":[0.5,-0.5]}'],
    ["lie-log", "--input", '{"n":3,"diag":[2.0,0.5,1.0]}'],
    ["lie-basis", "--n", "4"],
    ["lie-structure", "--n", "3"],
    ["components", "--input", '{"n":3,"diag":[-2.0,-0.5,1.0]}'],
]

EXIT_CODE_FIXTURES = [
    (["classify", "--matrix", WORKED_MATRIX], 0),
    (["classify", "--matrix", VIOLATION_MATRIX], 1),
    (["classify", "--matrix", "{bad json"], 2),
    (["classify", "--matrix", BIG_IDENTITY], 3),
    (["metric", "--y", "[1,2,4]"], 0),
    (["metric", "--y", "[-1,1,1,1]"], 2),
    (["membership", "--matrix", WORKED_MATRIX, "--sigma", "[3,1,2]"], 0),
    (["membership", "--matrix", WORKED_MATRIX, "--sigma", "[1,2,3]"], 1),
    (["membership", "--matrix", WORKED_MATRIX, "--sigma", "[1,1,3]"], 2),
    (["oracle", "--n", "2", "--trials", "5"], 0),
    (["oracle", "--n", "9", "--trials", "5"], 3),
    (["lie-log", "--input", '{"n":3,"diag":[-1.0,-1.0,1.0]}'], 2),
    (["compose", "--a", ELEMENT_P, "--b", '{"n":2,"sigma":[1,2],"scale":["1","1"]}'], 2),
    (["apply", "--input", ELEMENT_P, "--y", '["1","2"]'], 2),
    (["inverse", "--input", "missing.json"], 2),
    (["lie-exp", "--input", '{"n":2,"tdiag":[0.5,0.5]}'], 2),
]


def _run(args):
    return subprocess.run(
        [sys.executable, "-m", "bmsym", *args], capture_output=True, text=True
    )


def test_criterion_8_cli_determinism_and_exit_codes():
    ok = False
    try:
        for args in SUBCOMMAND_RUNS:
            first = _run(args)
            second = _run(args)
            assert first.returncode == second.returncode == 0, args
            assert first.stdout == second.stdout, args
            assert first.stdout.endswith("\n")
        assert len(EXIT_CODE_FIXTURES) >= 12
        for args, expected in EXIT_CODE_FIXTURES:
            result = _run(args)
            assert result.returncode == expected, (args, result.returncode, result.stderr)
            if expected in (0, 1):
                json.loads(result.stdout)  # a single JSON document
            else:
                assert result.stdout == ""  # diagnostics only on stderr
        ok = True
    finally:
        _report(8, ok)

