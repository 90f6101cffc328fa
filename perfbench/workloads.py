"""The four benchmark workloads: inputs, the timed call, and the checks.

BENCHMARK.json lists ``verify-all`` and ``deep-oracle``; ``weight-tables``
and ``closed-form`` run the same way by name (see README.md).

Each workload supplies:

- ``inputs(seed, smoke)``: the inputs, made from the seed alone.  Both the
  sampling process and every sample process build them.
- ``run(inputs)``: the timed region of one sample.  It reaches each
  package function through its module attribute (``identities.digit_zeta_2``,
  not a local alias), so a traced sample calls the wrapped version.
- ``digest(inputs, raw)``: small JSON-safe outputs made from what ``run``
  returned, outside the timed region.
- ``expected(inputs)``: reference values, computed once per run in the
  sampling process, outside every timed region and every set-up time.
- ``check(inputs, outputs, expected, state)``: one ``(name, status)`` pair
  per check, with status ``PASS``, ``MISS`` or ``FAIL``.

``MISS`` is only given by ``closed-form``: to a value that misses its
1e-12 accuracy budget by less than a gross error, and to a named point
(a domain edge, say) that the evaluator refuses by raising.  Every other
unmet check is a ``FAIL``.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys

PASS, MISS, FAIL = "pass", "miss", "fail"

# the accuracy every closed-form evaluator promises under DEFAULT_CTX
REL_TOL = 1e-12
# a closed-form value further off than this is broken, not merely inaccurate
GROSS_ERROR = 1e-4


# ---------------------------------------------------------------------------
# verify-all: the CLI command users run to check the whole paper
# ---------------------------------------------------------------------------


def _verify_inputs(seed, smoke=False):
    return {"suite": "as1" if smoke else "all"}


def _verify_run(inputs):
    from digitsum import cli

    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        cli.main(["verify", "--suite", inputs["suite"]], standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        out.flush()
        sys.stdout, sys.stderr = saved
    return code, out.buffer.getvalue()


def _verify_digest(inputs, raw):
    code, blob = raw
    try:
        reports = json.loads(blob)["reports"]
        points = [[r["identity"], bool(r["pass"])] for r in reports]
    except (ValueError, KeyError, TypeError):
        points = []
    return {
        "exit_code": code,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "points": points,
    }


def _verify_check(inputs, outputs, expected, state):
    checks = [
        (f"{identity}#{k}", PASS if ok else FAIL)
        for k, (identity, ok) in enumerate(outputs["points"])
    ]
    # criterion 15: every sample of a run emits the same bytes
    first = state.setdefault("sha256", outputs["sha256"])
    same = outputs["exit_code"] == 0 and bool(checks) and outputs["sha256"] == first
    checks.append(("report-bytes", PASS if same else FAIL))
    return checks


# ---------------------------------------------------------------------------
# deep-oracle: the order-2 closed form against 10^7-term direct sums
# ---------------------------------------------------------------------------

DEEP_BASES = (2, 3)
DEEP_TERMS = 10**7
DEEP_POINTS = 3


def _deep_inputs(seed, smoke=False):
    rng = random.Random(f"deep-oracle:{seed}")
    zs = sorted(rng.uniform(0.25, 2.0) for _ in range(DEEP_POINTS))
    # the smoke size keeps the shape; its short oracle brackets only to 1e-2
    if smoke:
        return {"zs": zs[:1], "terms": 10**5, "budget": 1e-2}
    return {"zs": zs, "terms": DEEP_TERMS, "budget": 1e-4}


def _deep_run(inputs):
    from digitsum import identities

    rows = []
    for b in DEEP_BASES:
        for z in inputs["zs"]:
            try:
                closed = identities.digit_zeta_2(b, z)
                mid, half = identities.direct_digit_zeta(b, 2.0, z, inputs["terms"])
                rows.append([b, z, closed, mid, half])
            except Exception as exc:  # an evaluator that raises fails its check
                rows.append([b, z, repr(exc)])
    return rows


def _deep_check(inputs, outputs, expected, state):
    checks = []
    for row in outputs:
        name = f"digit_zeta_2(b={row[0]},z={row[1]!r})"
        if len(row) != 5:
            checks.append((name, FAIL))
            continue
        closed, mid, half = row[2:]
        budget = inputs["budget"]  # criterion 13: half < 1e-4, |closed - mid| <= 1e-4
        ok = half < budget and abs(closed - mid) <= budget
        checks.append((name, PASS if ok else FAIL))
    return checks


# ---------------------------------------------------------------------------
# weight-tables: exact big-integer weight tables and cumulants
# ---------------------------------------------------------------------------

CUMULANT_ORDERS = (2, 4, 6, 8)


def _weights_inputs(seed, smoke=False):
    # criterion 9's tables and oracles, criterion 14's cumulant pairs
    return {
        "tables": 9 if smoke else 21,
        "oracles": 7 if smoke else 13,
        "cumulants": 4 if smoke else 9,
        "unit": 5 if smoke else 13,
    }


def _weights_run(inputs):
    from digitsum import altsum

    totals, oracle = [], []
    for N in range(inputs["tables"]):
        table = altsum.alpha_weights(N).alpha
        totals.append([N, str(sum(table))])
        if N < inputs["oracles"]:
            oracle.append([N, table == altsum.alpha_weights_oracle(N).alpha])
    pairs = []
    for N in range(1, inputs["cumulants"]):
        for order in CUMULANT_ORDERS:
            got = altsum.standardized_cumulant(N, order)
            want = float(altsum.pmf_standardized_cumulant(N, order))
            pairs.append([N, order, got, want])
    unit = [[N, altsum.standardized_cumulant(N, 2)] for N in range(1, inputs["unit"])]
    return {"totals": totals, "oracle": oracle, "pairs": pairs, "unit": unit}


def _weights_check(inputs, outputs, expected, state):
    checks = []
    for N, total in outputs["totals"]:
        ok = total == str(2 ** (N * (N + 1) // 2))
        checks.append((f"alpha_weights({N}).total", PASS if ok else FAIL))
    for N, same in outputs["oracle"]:
        checks.append((f"alpha_weights({N})==oracle", PASS if same else FAIL))
    for N, order, got, want in outputs["pairs"]:
        ok = abs(got - want) <= 1e-10 * abs(want)  # criterion 14's rule
        checks.append((f"cumulant(N={N},order={order})", PASS if ok else FAIL))
    for N, value in outputs["unit"]:
        checks.append((f"cumulant(N={N},order=2)==1", PASS if value == 1.0 else FAIL))
    return checks


# ---------------------------------------------------------------------------
# closed-form: the closed evaluators alone, against mpmath references
# ---------------------------------------------------------------------------

# evaluator name -> (module, attribute)
EVALUATORS = {
    "infinite_zeta_diff": ("identities", "infinite_zeta_diff"),
    "infinite_barnes": ("identities", "infinite_barnes"),
    "finite_barnes_closed": ("identities", "finite_barnes_closed"),
    "j_infinity": ("identities", "j_infinity"),
    "infinite_product": ("identities", "infinite_product"),
    "lambert_gf": ("lambert", "lambert_gf"),
}

# named points, kept whether or not the evaluators meet their budget there:
# the domain edges alpha -> 1+, alpha -> 2+, |z| -> 1 and x -> 0, large
# bases, and a large-base power series whose value is below 1, where
# lambert_gf stops its level series against an absolute floor of 1
NAMED_POINTS = [
    ("infinite_zeta_diff", (2, 1.0 + 1e-8, 0.0)),
    ("infinite_zeta_diff", (2, 1.0 + 1e-12, 0.0)),
    ("infinite_zeta_diff", (3, 1.0 + 1e-10, 0.5)),
    ("infinite_zeta_diff", (16, 1.0 + 1e-8, 0.0)),
    ("infinite_barnes", (2, 2.0 + 1e-6, 0.5)),
    ("infinite_barnes", (2, 2.0 + 1e-8, 0.5)),
    ("infinite_barnes", (3, 2.0 + 1e-6, 0.0)),
    ("lambert_gf", (2, 0.999999)),
    ("lambert_gf", (3, 0.999999)),
    ("lambert_gf", (10, -0.999999)),
    ("lambert_gf", (15, 0.15)),
    ("lambert_gf", (15, -0.148)),
    ("j_infinity", (2, 1e-7)),
    ("j_infinity", (16, 1e-6)),
    ("infinite_product", (2, -0.999999)),
    ("infinite_product", (16, 1e-9)),
]

# seeded interior points per evaluator
SWEEP_COUNTS = {
    "infinite_zeta_diff": 60,
    "infinite_barnes": 16,
    "finite_barnes_closed": 40,
    "j_infinity": 120,
    "infinite_product": 120,
    "lambert_gf": 120,
}
SWEEP_REPEATS = 8
FINITE_TERMS = 1024  # largest b^p in the finite_barnes_closed sweep


# continuous parameters of each evaluator's interior sweep: (low, high)
SWEEP_RANGES = {
    "infinite_zeta_diff": {"alpha": (0.3, 6.0), "z": (0.0, 3.0)},
    "infinite_barnes": {"alpha": (2.2, 7.0), "z": (0.0, 3.0)},
    "finite_barnes_closed": {"p": (0.0, 1.0), "alpha": (2.2, 7.0), "z": (0.0, 3.0)},
    "j_infinity": {"log10_x": (-2.0, 2.0)},
    "infinite_product": {"z": (-0.9, 4.0)},
    "lambert_gf": {"z": (-0.99, 0.99)},
}
POLE_GAP = 0.1  # interior alpha keeps this far from the alpha = 1 pole


def _sweep(rng, fn, count):
    """Stratified draws: b cycles through 2..16 and each continuous
    parameter takes one value from each of `count` equal slices of its
    range.  Which slice goes with which point is fixed, and the seed only
    places each value inside its slice, so every seed covers the domain
    alike and asks for about the same work."""
    design = random.Random(f"closed-form-design:{fn}:{count}")
    columns = {}
    for param, (low, high) in SWEEP_RANGES[fn].items():
        slices = list(range(count))
        design.shuffle(slices)
        columns[param] = [low + (high - low) * (k + rng.random()) / count for k in slices]
    points = []
    for i in range(count):
        b = 2 + i % 15
        col = {param: values[i] for param, values in columns.items()}
        if fn == "infinite_zeta_diff":
            alpha = col["alpha"]
            if abs(alpha - 1.0) < POLE_GAP:
                alpha = 1.0 + math.copysign(POLE_GAP, alpha - 1.0)
            points.append((b, alpha, col["z"]))
        elif fn == "infinite_barnes":
            points.append((b, col["alpha"], col["z"]))
        elif fn == "finite_barnes_closed":
            p_max = int(math.log(FINITE_TERMS, b) + 1e-9)
            points.append((b, 1 + int(col["p"] * p_max), col["alpha"], col["z"]))
        elif fn == "j_infinity":
            points.append((b, 10.0 ** col["log10_x"]))
        else:
            points.append((b, col["z"]))
    return points


def _closed_inputs(seed, smoke=False):
    rng = random.Random(f"closed-form:{seed}")
    points = [
        {"fn": fn, "args": list(args), "named": True} for fn, args in NAMED_POINTS
    ]
    for fn, count in SWEEP_COUNTS.items():
        for args in _sweep(rng, fn, 2 if smoke else count):
            points.append({"fn": fn, "args": list(args), "named": False})
    return {"points": points, "repeats": 1 if smoke else SWEEP_REPEATS}


def point_name(point):
    return f"{point['fn']}({','.join(repr(a) for a in point['args'])})"


def _closed_run(inputs):
    import digitsum

    calls = [
        (getattr(digitsum, EVALUATORS[p["fn"]][0]), EVALUATORS[p["fn"]][1], p["args"])
        for p in inputs["points"]
    ]
    sweeps = []
    for _ in range(inputs["repeats"]):
        values = []
        for module, attr, args in calls:
            try:
                values.append(getattr(module, attr)(*args))
            except Exception as exc:  # judged by the check, like a wrong value
                values.append(repr(exc))
        sweeps.append(values)
    return sweeps


def _closed_digest(inputs, raw):
    first = raw[0]
    # a repeat that differs from the first sweep fails that point once more
    unstable = [sum(1 for sweep in raw[1:] if sweep[i] != first[i]) for i in range(len(first))]
    return {"values": first, "unstable": unstable}


def closed_references(inputs):
    """mpmath value and stated condition number of every point."""
    import references

    out = []
    for point in inputs["points"]:
        ref, cond = references.evaluate(point["fn"], point["args"])
        out.append([ref, cond])
    return out


def judge_point(point, value, ref, cond):
    """PASS, MISS or FAIL for one closed-form value against its reference.

    A value within its budget passes.  A finite value outside the budget
    but within GROSS_ERROR misses, and so does a named point the evaluator
    refuses by raising.  Anything else fails.
    """
    if not isinstance(value, float) or not math.isfinite(value):
        return MISS if point["named"] and isinstance(value, str) else FAIL
    err = abs(value - ref) / abs(ref)
    if err <= REL_TOL * cond:
        return PASS
    return MISS if err <= GROSS_ERROR else FAIL


def _closed_check(inputs, outputs, expected, state):
    checks = []
    repeats = inputs["repeats"]
    for point, value, unstable, (ref, cond) in zip(
        inputs["points"], outputs["values"], outputs["unstable"], expected
    ):
        status = judge_point(point, value, ref, cond)
        name = point_name(point)
        checks += [(name, status)] * (repeats - unstable)
        checks += [(name, FAIL)] * unstable
    return checks


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name, seeded, inputs, run, check, digest=None, expected=None):
        self.name = name
        self.seeded = seeded  # False: fixed inputs, the seed is unused
        self.inputs = inputs
        self.run = run
        self.digest = digest or (lambda inputs, raw: raw)
        self.check = check
        self.expected = expected or (lambda inputs: None)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-all", False, _verify_inputs, _verify_run, _verify_check, _verify_digest),
        Workload("deep-oracle", True, _deep_inputs, _deep_run, _deep_check),
        Workload("weight-tables", False, _weights_inputs, _weights_run, _weights_check),
        Workload(
            "closed-form",
            True,
            _closed_inputs,
            _closed_run,
            _closed_check,
            _closed_digest,
            closed_references,
        ),
    )
}
