"""The three workloads: seeded inputs, the operations run on them, and the
checks each output must pass.

An operation is one call a user makes: a classification, a chain of group
calls, or one command-line process.  Its traced form does the same work
with a span around each call into a package layer.  Inputs come from the
benchmark's own random stream; the package receives only the generated
values (the oracle also receives a seed, which is part of its input).
Expected results come from reference.py or from a property the method
must have, never from a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable

import reference as ref
from tracing import Tracer

from bmsym import (
    AffineSymmetry,
    DegenerateTuple,
    DiagonalGroupElement,
    PermanentMismatch,
    Permutation,
    RationalMatrix,
    ScaledPerm,
    OracleReport,
    Symmetry,
    TracelessDiagonal,
    Violation,
    basis,
    classify_affine,
    component_signature,
    degenerate_products_zero,
    extract_pattern,
    lie_exp,
    lie_log,
    membership_test,
    metric,
    metric_power,
    permanent,
    structure_constants,
    theorem_oracle,
    witness_violates,
)
from bmsym.cli import build_parser
from bmsym.cli import main as cli_main
from bmsym.sampling import random_scaled_perm, trial_rng
from bmsym.serialize import (
    canonical_dumps,
    diag_from_obj,
    diag_to_obj,
    element_from_obj,
    element_to_obj,
    loads,
    matrix_from_obj,
    oracle_report_to_obj,
    permutation_from_obj,
    report_to_obj,
    tdiag_from_obj,
    tdiag_to_obj,
    vector_from_obj,
    vector_to_obj,
)

ZERO = Fraction(0)
# Distinct input rounds made per run; the run cycles through them.  24 is
# a multiple of every classify dimension, so the zeroed row of the
# zero-row class visits each position equally often whatever the seed.
POOL_ROUNDS = 24
# Run output (traces, generated input files), relative to the checkout.
OUT_DIR = ".bench_out"


@dataclass
class Op:
    """One operation: `call` is timed untraced, `traced` does the same work
    with layer spans, `check` judges the result outside the timed region.

    `known_fault` marks an operation that fails at the benchmark's first
    commit because of a known fault; it is counted in attempted and failed
    but never in the latency metrics.  `replay`, when set, runs the
    operation again in process with layer spans after the timed call.
    """

    kind: str
    call: Callable[[], Any]
    traced: Callable[[Tracer, int], Any]
    check: Callable[[Any], bool]
    known_fault: bool = False
    replay: Callable[[Tracer, int], bool] | None = None


@dataclass
class Workload:
    name: str
    rounds: list[list[Op]]
    import_target: str  # what setup_s imports in a fresh interpreter
    # True when the package runs in child processes: peak RSS is then the
    # largest child's, and a bare interpreter spawn is the speed probe.
    in_children: bool
    trace_setup: Callable[[Tracer], list[str]] | None = None


# ----------------------------------------------------------------- inputs

_NONZERO = tuple(v for v in range(-9, 10) if v)


def nonzero_rational(rng) -> Fraction:
    return Fraction(rng.choice(_NONZERO), rng.randint(1, 9))


def positive_rational(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def any_rational(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_perm(n, rng) -> tuple[int, ...]:
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return tuple(image)


def unit_scales(n, rng) -> tuple[Fraction, ...]:
    head = [nonzero_rational(rng) for _ in range(n - 1)]
    return (*head, 1 / ref.product(head))


def non_unit_scales(n, rng) -> tuple[Fraction, ...]:
    scales = [nonzero_rational(rng) for _ in range(n)]
    if ref.product(scales) == 1:
        scales[0] *= 2
    return tuple(scales)


def random_vector(n, rng, draw=nonzero_rational) -> tuple[Fraction, ...]:
    return tuple(draw(rng) for _ in range(n))


def random_dense(n, rng) -> list[list[Fraction]]:
    """About three entries in four nonzero, no empty row, and not monomial,
    so a degenerate tuple with a nonzero product exists."""
    while True:
        rows = [[nonzero_rational(rng) if rng.random() < 0.75 else ZERO for _ in range(n)]
                for _ in range(n)]
        if ref.first_degenerate_tuple(rows) is not None:
            return rows


def _rational_texts(values) -> list[str]:
    return [ref.rational(v) for v in values]


# --------------------------------------------------------------- classify

CLASSIFY_DIMS = (3, 6, 8)


def _classify_expectation(rows):
    """The verdict the method must give: the first degenerate tuple when one
    exists, else the permanent, which for these inputs is the scale product
    or 0; a permanent of 1 means a symmetry with the monomial's own data."""
    indices = ref.first_degenerate_tuple(rows)
    if indices is not None:
        return "degenerate", indices
    value = ref.monomial_permanent(rows)
    if value == 1:
        return "symmetry", ref.monomial_pattern(rows)
    return "permanent", value


def _check_verdict(rows, translation, expected, result) -> bool:
    kind, data = expected
    if kind == "symmetry":
        sigma, scale = data
        return (
            isinstance(result, AffineSymmetry)
            and result.linear.sigma.image == sigma
            and result.linear.scale == scale
            and result.translation == translation
        )
    if not isinstance(result, Violation):
        return False
    witness = result.witness
    if kind == "permanent":
        return isinstance(witness, PermanentMismatch) and witness.value == data
    return (
        isinstance(witness, DegenerateTuple)
        and witness.indices == data
        and len(set(witness.indices)) < len(rows)
        and witness.product != 0
        and witness.product == ref.tuple_product(rows, witness.indices)
    )


def _traced_check(tr, parent, matrix):
    """invariance_system_check with its three phases called one by one, in
    the order it uses them."""
    witness = tr.call("classify.degenerate_scan", parent, degenerate_products_zero, matrix)
    if witness is not None:
        return Violation(witness)
    value = tr.call("classify.permanent", parent, permanent, matrix)
    if value != 1:
        return Violation(PermanentMismatch(value))
    return Symmetry(*tr.call("classify.extract_pattern", parent, extract_pattern, matrix))


def _traced_classify(tr, parent, matrix, translation):
    report = _traced_check(tr, parent, matrix)
    if isinstance(report, Violation):
        return report
    return AffineSymmetry(report.element(), translation)


def _classify_op(kind, rows, rng) -> Op:
    n = len(rows)
    matrix = RationalMatrix(rows)
    translation = random_vector(n, rng, any_rational)
    expected = _classify_expectation(rows)
    return Op(
        f"classify.{kind}.n{n}",
        lambda: classify_affine(matrix, translation),
        lambda tr, parent: _traced_classify(tr, parent, matrix, translation),
        lambda result: _check_verdict(rows, translation, expected, result),
    )


def _untraced(span, fn, *args):
    return fn(*args)


def _chain_op(kind, chain, args, check) -> Op:
    """An operation that runs chain(call, *args); the chain makes each call
    into the package as call(span, fn, *fn_args), which adds a span when
    the operation runs traced."""
    return Op(
        kind,
        lambda: chain(_untraced, *args),
        lambda tr, parent: chain(lambda span, fn, *a: tr.call(span, parent, fn, *a), *args),
        check,
    )


def _call_op(kind, span, fn, args, expected) -> Op:
    return _chain_op(kind, lambda call: call(span, fn, *args), (),
                     lambda result: result == expected)


def _classify_round(rng, index) -> list[Op]:
    ops = []
    matrices = {}
    for n in CLASSIFY_DIMS:
        symmetric = ref.dense((random_perm(n, rng), unit_scales(n, rng)))
        mismatched = ref.dense((random_perm(n, rng), non_unit_scales(n, rng)))
        zero_row = ref.dense((random_perm(n, rng), unit_scales(n, rng)))
        zero_row[index % n] = [ZERO] * n
        sigma = random_perm(n, rng)
        off_pattern = ref.dense((sigma, unit_scales(n, rng)))
        row = rng.randrange(n)
        column = rng.choice([j for j in range(1, n + 1) if j != sigma[row]])
        off_pattern[row][column - 1] = nonzero_rational(rng)
        for kind, rows in (
            ("symmetry", symmetric),
            ("permanent", mismatched),
            ("zero_row", zero_row),
            ("off_pattern", off_pattern),
            ("dense", random_dense(n, rng)),
        ):
            ops.append(_classify_op(kind, rows, rng))
        matrices[n] = (symmetric, mismatched, off_pattern)

    symmetric, _, off_pattern = matrices[8]
    member = Permutation(ref.inverse_perm(ref.monomial_pattern(symmetric)[0]))
    indices = ref.first_degenerate_tuple(off_pattern)
    degenerate = DegenerateTuple(indices, ref.tuple_product(off_pattern, indices))
    mismatched = matrices[6][1]
    mismatch = PermanentMismatch(ref.monomial_permanent(mismatched))
    oracle_seed, trials = rng.randrange(10**6), 4
    return ops + [
        _call_op("membership.member.n8", "classify.membership", membership_test,
                 (RationalMatrix(symmetric), member), True),
        _call_op("recheck.degenerate.n8", "classify.witness_recheck", witness_violates,
                 (RationalMatrix(off_pattern), degenerate), True),
        _call_op("recheck.permanent.n6", "classify.witness_recheck", witness_violates,
                 (RationalMatrix(mismatched), mismatch), True),
        # Every trial must pass, and the report echoes n and the seed.
        _call_op("oracle.n3", "classify.oracle", theorem_oracle, (3, trials, oracle_seed),
                 OracleReport(3, trials, trials, trials, oracle_seed)),
    ]


def classify_workload(seed, root) -> Workload:
    rng = random.Random(f"classify:{seed}")
    rounds = [_classify_round(rng, index) for index in range(POOL_ROUNDS)]
    return Workload("classify", rounds, "bmsym", in_children=False)


# ------------------------------------------------------------------ group

def _scaled_chain(call, a, b, y):
    """compose, inverse, g.g^-1, apply twice, and metric_power before/after."""
    c = call("group.compose", a.compose, b)
    c_inv = call("group.inverse", c.inverse)
    unit = call("group.compose", c.compose, c_inv)
    y1 = call("group.apply", c.apply, y)
    y2 = call("group.apply", a.apply, call("group.apply", b.apply, y))
    if isinstance(a, AffineSymmetry):
        return c, unit, y1, y2
    before = call("group.metric_power", metric_power, y)
    after = call("group.metric_power", metric_power, y1)
    return c, unit, y1, y2, before, after


def _scaled(data) -> ScaledPerm:
    sigma, scale = data
    return ScaledPerm(Permutation(sigma), scale)


def _scaled_op(n, rng) -> Op:
    data_a = (random_perm(n, rng), unit_scales(n, rng))
    data_b = (random_perm(n, rng), unit_scales(n, rng))
    a, b = _scaled(data_a), _scaled(data_b)
    y = random_vector(n, rng)
    want_c = ref.compose_scaled(data_a, data_b)
    want_y = ref.apply_scaled(want_c, y)
    want_power = ref.product(y)

    def check(result):
        c, unit, y1, y2, before, after = result
        return (
            (c.sigma.image, c.scale) == want_c
            and unit.sigma.image == tuple(range(1, n + 1))
            and all(v == 1 for v in unit.scale)
            and y1 == y2 == want_y
            and before == after == want_power
        )

    return _chain_op(f"scaled.n{n}", _scaled_chain, (a, b, y), check)


def _affine_op(n, rng) -> Op:
    data_a = (random_perm(n, rng), unit_scales(n, rng))
    data_b = (random_perm(n, rng), unit_scales(n, rng))
    ta, tb = random_vector(n, rng, any_rational), random_vector(n, rng, any_rational)
    a, b = AffineSymmetry(_scaled(data_a), ta), AffineSymmetry(_scaled(data_b), tb)
    y = random_vector(n, rng)
    want_c, want_t = ref.compose_affine(data_a, ta, data_b, tb)
    want_y = ref.apply_affine(want_c, want_t, y)

    def check(result):
        c, unit, y1, y2 = result
        return (
            (c.linear.sigma.image, c.linear.scale) == want_c
            and c.translation == want_t
            and unit.linear.sigma.image == tuple(range(1, n + 1))
            and all(v == 1 for v in unit.linear.scale)
            and all(v == 0 for v in unit.translation)
            and y1 == y2 == want_y
        )

    return _chain_op(f"affine.n{n}", _scaled_chain, (a, b, y), check)


def _perm_chain(call, p, q):
    pq = call("permutation.compose", p.compose, q)
    p_inv = call("permutation.inverse", p.inverse)
    return pq, p_inv, call("permutation.compose", p.compose, p_inv)


def _perm_op(n, rng) -> Op:
    p_image, q_image = random_perm(n, rng), random_perm(n, rng)
    p, q = Permutation(p_image), Permutation(q_image)
    want = (ref.compose_perm(p_image, q_image), ref.inverse_perm(p_image), tuple(range(1, n + 1)))
    return _chain_op(f"perm.n{n}", _perm_chain, (p, q),
                     lambda result: tuple(x.image for x in result) == want)


def _dense_chain(call, a, b, rows):
    da = call("group.to_dense", a.to_dense)
    db = call("group.to_dense", b.to_dense)
    product = call("matrix.matmul", da.__matmul__, db)
    composed = call("group.to_dense", call("group.compose", a.compose, b).to_dense)
    m = call("matrix.construct", RationalMatrix, rows)
    return product, composed, call("matrix.matmul", m.__matmul__, da)


def _dense_op(n, rng) -> Op:
    data_a = (random_perm(n, rng), unit_scales(n, rng))
    data_b = (random_perm(n, rng), unit_scales(n, rng))
    a, b = _scaled(data_a), _scaled(data_b)
    rows = [[any_rational(rng) for _ in range(n)] for _ in range(n)]
    want_ab = ref.matmul(ref.dense(data_a), ref.dense(data_b))
    want_ma = ref.matmul(rows, ref.dense(data_a))

    def check(result):
        product, composed, ma = result
        as_lists = lambda m: [list(r) for r in m.rows]  # noqa: E731
        return as_lists(product) == as_lists(composed) == want_ab and as_lists(ma) == want_ma

    return _chain_op(f"dense.n{n}", _dense_chain, (a, b, rows), check)


def _lie_chain(call, d1, d2, x):
    product = call("lie.multiply", d1.multiply, d2)
    return product, call("lie.log", lie_log, call("lie.exp", lie_exp, x))


def _lie_op(n, rng) -> Op:
    head1 = random_vector(n - 1, rng, positive_rational)
    head2 = random_vector(n - 1, rng, positive_rational)
    e1, e2 = (*head1, 1 / ref.product(head1)), (*head2, 1 / ref.product(head2))
    d1, d2 = DiagonalGroupElement(e1), DiagonalGroupElement(e2)
    head = [rng.uniform(-2.0, 2.0) for _ in range(n - 1)]
    t = (*head, -sum(head))
    x = TracelessDiagonal(t)
    want = tuple(u * v for u, v in zip(e1, e2))

    def check(result):
        product, back = result
        return product.diag == want and all(abs(u - v) <= ref.TOLERANCE for u, v in zip(back.diag, t))

    return _chain_op(f"lie.n{n}", _lie_chain, (d1, d2, x), check)


def _structure_op(n) -> Op:
    dim = n - 1
    zero = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
    return _chain_op(f"structure.n{n}",
                     lambda call: call("lie.structure_constants", structure_constants, n), (),
                     lambda tensor: tensor.tolist() == zero)  # the algebra is abelian


def _group_round(rng) -> list[Op]:
    return [
        _perm_op(8, rng), _perm_op(64, rng),
        _scaled_op(3, rng), _scaled_op(8, rng), _scaled_op(64, rng),
        _affine_op(3, rng), _affine_op(8, rng), _affine_op(64, rng),
        _dense_op(3, rng), _dense_op(4, rng),
        _lie_op(3, rng), _lie_op(8, rng),
        _structure_op(3),
    ]


def group_workload(seed, root) -> Workload:
    rng = random.Random(f"group:{seed}")
    rounds = [_group_round(rng) for _ in range(POOL_ROUNDS)]
    return Workload("group", rounds, "bmsym", in_children=False)


# -------------------------------------------------------------------- cli

PARSE = "serialize.parse"
DUMP = "serialize.dump"
# Subcommand calls that fail today: each should end in exit 2 with one
# "error:" line, but raises out of cli.main and ends in a traceback.
FAULT_VECTOR = ref.canonical(["1" + "0" * 399, "1"])
FAULT_TDIAG = '{"n":2,"tdiag":[800.0,-800.0]}'
FAULT_DEPTH = 100_000


def child_env(root) -> dict:
    """Environment for a child interpreter that imports the checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def spawn_cli(argv, env, cwd) -> CliResult:
    done = subprocess.run([sys.executable, "-m", "bmsym", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True)
    return CliResult(done.returncode, done.stdout, done.stderr)


def main_in_process(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def canonical_stdout(stdout: str):
    """The parsed document when stdout is one canonical JSON document and a
    newline; None otherwise."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if stdout == ref.canonical(doc) + "\n" else None


def check_exact(code, doc):
    """Exit code and stdout bytes, both fixed by an independent computation."""
    text = ref.canonical(doc) + "\n"
    return lambda r: r.code == code and r.stdout == text


def check_floats(fixed, key, want):
    """Canonical bytes, exactly the keys of `fixed` plus `key`, the fixed
    values, and the floats under `key` within tolerance of `want`."""
    def check(r):
        doc = canonical_stdout(r.stdout)
        if r.code != 0 or not isinstance(doc, dict) or set(doc) != {*fixed, key}:
            return False
        if any(doc[k] != v for k, v in fixed.items()):
            return False
        got = doc[key] if isinstance(doc[key], list) else [doc[key]]
        return len(got) == len(want) and all(
            isinstance(u, float) and ref.close(u, v) for u, v in zip(got, want))
    return check


def check_input_error(r) -> bool:
    """Exit 2, nothing on stdout, and a single 'error:' line on stderr."""
    lines = r.stderr.splitlines()
    return r.code == 2 and r.stdout == "" and len(lines) == 1 and lines[0].startswith("error:")


def _element_obj(linear, translation) -> dict:
    sigma, scale = linear
    return {"n": len(sigma), "sigma": list(sigma), "scale": _rational_texts(scale),
            "translation": _rational_texts(translation)}


def _verdict_obj(rows, translation=None) -> dict:
    kind, data = _classify_expectation(rows)
    if kind == "symmetry":
        doc = {"verdict": "symmetry", "sigma": list(data[0]), "scale": _rational_texts(data[1])}
        if translation is not None:
            doc["translation"] = _rational_texts(translation)
        return doc
    if kind == "permanent":
        return {"verdict": "violation",
                "witness": {"kind": "permanent", "value": ref.rational(data)}}
    return {"verdict": "violation",
            "witness": {"kind": "degenerate_tuple", "tuple": list(data),
                        "product": ref.rational(ref.tuple_product(rows, data))}}


def _load_element(text):
    return element_from_obj(loads(text))


def _load_vector(text):
    return vector_from_obj(loads(text), "--y")


def _load_matrix(text):
    return matrix_from_obj(loads(text))


def _load_diag(text):
    return diag_from_obj(loads(text))


def _dump_element(element):
    return canonical_dumps(element_to_obj(element))


def _cli_cases(rng):
    """(label, argv, check, replay) for each subcommand call that should succeed.

    replay(tr, parent) makes the calls cli.main makes for that subcommand,
    each inside a span, and returns the text it would print.
    """
    cases = []

    la = (random_perm(3, rng), unit_scales(3, rng))
    lb = (random_perm(3, rng), unit_scales(3, rng))
    ta, tb = random_vector(3, rng, any_rational), random_vector(3, rng, any_rational)
    ea, eb = ref.canonical(_element_obj(la, ta)), ref.canonical(_element_obj(lb, tb))

    def compose(tr, p):
        a, b = tr.call(PARSE, p, _load_element, ea), tr.call(PARSE, p, _load_element, eb)
        return tr.call(DUMP, p, _dump_element, tr.call("group.compose", p, a.compose, b))

    def inverse(tr, p):
        a = tr.call(PARSE, p, _load_element, ea)
        return tr.call(DUMP, p, _dump_element, tr.call("group.inverse", p, a.inverse))

    y = random_vector(3, rng)
    y_text = ref.canonical(_rational_texts(y))

    def apply(tr, p):
        a, v = tr.call(PARSE, p, _load_element, ea), tr.call(PARSE, p, _load_vector, y_text)
        image = tr.call("group.apply", p, a.apply, v)
        return tr.call(DUMP, p, lambda w: canonical_dumps(vector_to_obj(w)), image)

    cases += [
        ("compose", ["compose", "--a", ea, "--b", eb],
         check_exact(0, _element_obj(*ref.compose_affine(la, ta, lb, tb))), compose),
        ("inverse", ["inverse", "--input", ea], check_exact(0, _element_obj(*ref.inverse_affine(la, ta))),
         inverse),
        ("apply", ["apply", "--input", ea, "--y", y_text],
         check_exact(0, _rational_texts(ref.apply_affine(la, ta, y))), apply),
    ]

    point = random_vector(3, rng, positive_rational)
    point_text = ref.canonical(_rational_texts(point))

    def metric_replay(tr, p):
        value = metric(tr.call(PARSE, p, _load_vector, point_text))
        return tr.call(DUMP, p, canonical_dumps, {"F": value})

    cases.append(("metric", ["metric", "--y", point_text],
                  check_floats({}, "F", [ref.real_metric(point)]), metric_replay))

    def classify_case(label, rows, translation=None):
        text = ref.canonical({"n": len(rows), "rows": [_rational_texts(r) for r in rows]})
        argv = ["classify", "--matrix", text]
        if translation is not None:
            t_text = ref.canonical(_rational_texts(translation))
            argv += ["--y", t_text]
        verdict = _verdict_obj(rows, translation)

        def replay(tr, p):
            matrix = tr.call(PARSE, p, _load_matrix, text)
            t = None if translation is None else tr.call(PARSE, p, _load_vector, t_text)
            report = _traced_check(tr, p, matrix)
            return tr.call(DUMP, p, lambda r: canonical_dumps(report_to_obj(r, t)), report)

        code = 0 if verdict["verdict"] == "symmetry" else 1
        return label, argv, check_exact(code, verdict), replay

    cases.append(classify_case("classify", ref.dense((random_perm(3, rng), unit_scales(3, rng))),
                               random_vector(3, rng, any_rational)))
    # n = 8: a symmetry, a permanent witness and a permanent of 0, each an
    # 8! enumeration today, so the classifier shows end to end.
    zero_row = ref.dense((random_perm(8, rng), unit_scales(8, rng)))
    zero_row[rng.randrange(8)] = [ZERO] * 8
    cases += [
        classify_case("classify.n8.symmetry", ref.dense((random_perm(8, rng), unit_scales(8, rng)))),
        classify_case("classify.n8.permanent",
                      ref.dense((random_perm(8, rng), non_unit_scales(8, rng)))),
        classify_case("classify.n8.zero_row", zero_row),
    ]

    for n, member in ((3, True), (8, False)):
        data = (random_perm(n, rng), unit_scales(n, rng))
        rows = ref.dense(data)
        sigma = ref.inverse_perm(data[0]) if member else random_perm(n, rng)
        expected = ref.membership(rows, sigma)
        text = ref.canonical({"n": n, "rows": [_rational_texts(r) for r in rows]})
        s_text = ref.canonical(list(sigma))

        def membership(tr, p, n=n, text=text, s_text=s_text):
            matrix = tr.call(PARSE, p, _load_matrix, text)
            perm = tr.call(PARSE, p, lambda t: permutation_from_obj(loads(t), n), s_text)
            member = tr.call("classify.membership", p, membership_test, matrix, perm)
            return tr.call(DUMP, p, canonical_dumps, {"member": member})

        cases.append(("membership" if n == 3 else f"membership.n{n}",
                      ["membership", "--matrix", text, "--sigma", s_text],
                      check_exact(0 if expected else 1, {"member": expected}), membership))

    for n, trials in ((3, 20), (8, 1)):
        seed = rng.randrange(10**6)

        def oracle(tr, p, n=n, trials=trials, seed=seed):
            report = tr.call("classify.oracle", p, theorem_oracle, n, trials, seed)
            # The generator calls the oracle makes, timed from outside it.
            for index in range(trials):
                tr.call("sampling.random_scaled_perm", p, random_scaled_perm, n,
                        trial_rng(seed, index))
            return tr.call(DUMP, p, lambda r: canonical_dumps(oracle_report_to_obj(r)), report)

        cases.append(("oracle" if n == 3 else f"oracle.n{n}",
                      ["oracle", "--n", str(n), "--trials", str(trials), "--seed", str(seed)],
                      check_exact(0, {"n": n, "trials": trials, "positives_passed": trials,
                                      "perturbed_rejected": trials, "seed": seed}), oracle))

    a = rng.uniform(-2.0, 2.0)
    tdiag = ref.canonical({"n": 2, "tdiag": [a, -a]})

    def exp_replay(tr, p):
        x = tr.call(PARSE, p, lambda t: tdiag_from_obj(loads(t)), tdiag)
        return tr.call(DUMP, p, lambda e: canonical_dumps(diag_to_obj(e)),
                       tr.call("lie.exp", p, lie_exp, x))

    cases.append(("lie-exp", ["lie-exp", "--input", tdiag],
                  check_floats({"n": 2}, "diag", [math.exp(a), math.exp(-a)]), exp_replay))

    u, v = rng.uniform(0.25, 4.0), rng.uniform(0.25, 4.0)
    positive = [u, v, 1 / (u * v)]
    diag = ref.canonical({"n": 3, "diag": positive})

    def log_replay(tr, p):
        e = tr.call(PARSE, p, _load_diag, diag)
        return tr.call(DUMP, p, lambda x: canonical_dumps(tdiag_to_obj(x)),
                       tr.call("lie.log", p, lie_log, e))

    cases.append(("lie-log", ["lie-log", "--input", diag],
                  check_floats({"n": 3}, "tdiag", [math.log(w) for w in positive]), log_replay))

    basis_doc = {"n": 4, "dim": 3,
                 "basis": [[1.0 if j == i else -1.0 if j == 3 else 0.0 for j in range(4)]
                           for i in range(3)]}

    def basis_replay(tr, p):
        vectors = [basis(4, i) for i in range(1, 4)]
        doc = {"n": 4, "dim": 3, "basis": [[float(x) for x in w.diag] for w in vectors]}
        return tr.call(DUMP, p, canonical_dumps, doc)

    cases.append(("lie-basis", ["lie-basis", "--n", "4"], check_exact(0, basis_doc), basis_replay))

    def structure_replay(tr, p):
        tensor = tr.call("lie.structure_constants", p, structure_constants, 3)
        return tr.call(DUMP, p, canonical_dumps, {"n": 3, "dim": 2, "constants": tensor.tolist()})

    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]  # the algebra is abelian
    cases.append(("lie-structure", ["lie-structure", "--n", "3"],
                  check_exact(0, {"n": 3, "dim": 2, "constants": zero}), structure_replay))

    signs = [-1, -1, 1]
    rng.shuffle(signs)
    signed = ref.canonical({"n": 3, "diag": [s * w for s, w in zip(signs, positive)]})

    def components_replay(tr, p):
        e = tr.call(PARSE, p, _load_diag, signed)
        doc = {"n": e.n, "signs": list(component_signature(e))}
        return tr.call(DUMP, p, canonical_dumps, doc)

    cases.append(("components", ["components", "--input", signed],
                  check_exact(0, {"n": 3, "signs": signs}), components_replay))
    return cases


def _cli_op(label, argv, check, replay, env, root) -> Op:
    def traced_replay(tr, parent):
        tr.call("cli.parse_args", parent, lambda: build_parser().parse_args(argv))
        text = replay(tr, parent)
        result = tr.call("cli.main", parent, main_in_process, argv)
        return check(result) and result.stdout == text + "\n"

    spawn = lambda: spawn_cli(argv, env, root)  # noqa: E731
    return Op(f"cli.{label}", spawn, lambda tr, parent: spawn(), check,
              replay=traced_replay)


def _fault_ops(env, root) -> list[Op]:
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    deep = os.path.join(out_dir, "deep.json")
    with open(deep, "w", encoding="utf-8") as handle:
        handle.write("[" * FAULT_DEPTH + "]" * FAULT_DEPTH)
    ops = []
    for argv in (["lie-exp", "--input", FAULT_TDIAG],
                 ["metric", "--y", FAULT_VECTOR],
                 ["classify", "--matrix", deep]):
        spawn = lambda argv=argv: spawn_cli(argv, env, root)  # noqa: E731
        ops.append(Op(f"fault.{argv[0]}", spawn, lambda tr, parent, s=spawn: s(),
                      check_input_error, known_fault=True))
    return ops


def cli_workload(seed, root) -> Workload:
    rng = random.Random(f"cli:{seed}")
    env = child_env(root)
    faults = _fault_ops(env, root)
    rounds = [[_cli_op(*case, env, root) for case in _cli_cases(rng)] + faults
              for _ in range(POOL_ROUNDS)]
    return Workload("cli", rounds, "bmsym.cli", in_children=True,
                    trace_setup=lambda tr: cli_import_spans(tr, env, root))


IMPORT_PROBES = 5
_IMPORT_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import {target}\n"
    "print(repr(start), repr(time.perf_counter()))\n"
)


def spawn_seconds(env, root) -> float:
    """Seconds from spawn to exit of a bare interpreter (`python -c pass`)."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=root, check=True)
    return perf_counter() - start


def time_import(target, env, root, extra=()):
    """(start, end, stderr) of `import target` in a fresh interpreter; on
    Linux perf_counter is the system-wide monotonic clock, so the child's
    readings place the span on the parent's time line."""
    done = subprocess.run([sys.executable, *extra, "-c", _IMPORT_CODE.format(target=target)],
                          env=env, cwd=root, capture_output=True, text=True, check=True)
    start, end = map(float, done.stdout.split())
    return start, end, done.stderr


def numpy_import_seconds(importtime_log: str) -> float:
    """numpy's cumulative import time from a -X importtime log."""
    for line in importtime_log.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) / 1e6
    return 0.0


def cli_import_spans(tr, env, root) -> list[str]:
    """Record cli.import and cli.import_numpy spans from fresh interpreters,
    and return reference lines: bare interpreter spawn and numpy's share."""
    bare = [spawn_seconds(env, root) for _ in range(IMPORT_PROBES)]
    shares = []
    for _ in range(IMPORT_PROBES):
        start, end, log = time_import("bmsym.cli", env, root, ("-X", "importtime"))
        span = tr.record("cli.import", start, end)
        numpy_s = numpy_import_seconds(log)
        # -X importtime gives numpy's duration but not its start.
        tr.record("cli.import_numpy", start, start + numpy_s, span)
        shares.append(numpy_s / (end - start))
    return [f"bare interpreter spawn: median {statistics.median(bare) * 1e3:.1f} ms",
            f"numpy share of import bmsym.cli: median {statistics.median(shares) * 100:.0f}%"]
