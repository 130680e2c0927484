"""Correctness of each job's report: exit code, stored result block and
known answers.

`expected.json` holds the exit code and `result` block of every job whose
output does not depend on the seed.  On top of it, `ANCHORS` pins values
that follow from mathematics rather than from a recorded run (Morita
invariance, the HP of fat points and of the A2 quiver, Poisson homology of
so(3), acyclicity of the graded pieces, the Chern cycle certificate).  A
stored value that contradicts an anchor is a defect of the stored data and
fails the job, never the other way round.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _hh_trivial(n_top: int) -> dict:
    return {str(n): (1 if n == 0 else 0) for n in range(n_top + 1)}


# job id -> {dotted path inside the report: value}.
ANCHORS = {
    # Morita invariance: HH(Mat_m(k)) = HH(k) = k in degree 0 (fixture mat2_hh_n4).
    "hh-mat2-Q": {"result.per_n": _hh_trivial(5), "result.hh0_direct": 1},
    "hh-mat2-F101": {"result.per_n": _hh_trivial(5), "result.hh0_direct": 1},
    "hh-mat3-Q": {"result.per_n": _hh_trivial(2), "result.hh0_direct": 1},
    # Mat_2 is Morita-trivial, so the spectral sequence collapses (fixture
    # mat2_degeneration); the argument holds in any characteristic.
    "degeneration-mat2-Q": {"result.verdict": "collapses-in-window"},
    "degeneration-mat2-F3": {"result.verdict": "collapses-in-window"},
    # A2 quiver: HP = HH_0 = k^2, nothing odd (fixture a2_path_hh0).
    "hp-a2_path-Q": {"result.hp_even": 2, "result.hp_odd": 0, "result.conclusive": True},
    # so(3)^*: Poisson homology (1, 0), stable under the guard band.
    "poisson-homology-so3": {"result.even": 1, "result.odd": 0, "result.stable": True},
    # (1 - sigma, norm) is acyclic iff gcd(n, p) = 1; gcd(6, 3) = 3.
    "graded-pieces-v3-n6-F3": {"result.acyclic": False},
    # Fat points and truncated polynomial rings have the HP of a point
    # (Feigin-Tsygan); negative cyclic free ranks are (1, 0).
    "hc-poly_truncated-Q": {"result.even.free_rank": 1, "result.odd.free_rank": 0},
    "hp-truncated_poly-Q": {"result.hp_even": 1, "result.hp_odd": 0,
                            "result.conclusive": True},
    "hc-quantum_plane-F5": {"result.even.free_rank": 1, "result.odd.free_rank": 0},
    "charp-compare-truncated_poly-F3": {"result.agree": True},
    "degeneration-poly_truncated-Q": {"result.profile.even.free_rank": 1,
                                      "result.profile.odd.free_rank": 0},
    # so(3) is Poisson: the Jacobiator and the conjugation defect vanish
    # (fixture so3_jacobi); the star identity holds in 4 variables.
    "poisson-jacobi-so3": {"result.pass": True},
    "poisson-conjugation-so3": {"result.pass": True},
    "poisson-star-4": {"result.identity.pass": True},
}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def _get(obj, dotted: str):
    for key in dotted.split("."):
        obj = obj[key]
    return obj


def parse_report(text: str, fmt: str) -> dict:
    """The report as nested dicts; CSV rows `a.b,"<json>"` are unflattened.

    CSV rows are split by hand: a value is one quoted JSON text with `""`
    for `"`, and some are far longer than the `csv` module's field limit.
    """
    if fmt == "json":
        return json.loads(text)
    if fmt != "csv":
        raise ValueError(f"unsupported report format {fmt!r}")
    header, *rows = text.splitlines()
    if header != "key,value":
        raise ValueError("CSV report lacks its key,value header")
    out: dict = {}
    for row in rows:
        key, sep, quoted = row.partition(',"')
        if not sep or not quoted.endswith('"'):
            raise ValueError(f"malformed CSV row {row[:60]!r}")
        value = quoted[:-1].replace('""', '"')
        node = out
        *parents, leaf = key.split(".")
        for p in parents:
            node = node.setdefault(p, {})
        node[leaf] = json.loads(value)
    return out


def _scalar(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _chern_problems(report: dict, idempotent: dict, args: tuple) -> list[str]:
    """Known answers for ch(pi), pi = E11 + sum of seeded off-diagonal terms.

    pi has no unit component, so the u^k component is
    (-1)^k (2k)!/k! (pi - 1/2) (x) pi^(x)2k with every coefficient a single
    product: |supp(pi) + 1| * |supp(pi)|^(2k) words, the word (1, E11, ..)
    carrying (-1)^k (2k)!/k! * (-1/2) and (E11, E11, ..) carrying
    (-1)^k (2k)!/k!, whatever the seeded coefficients are.
    """
    res = report["result"]
    problems = []
    if res.get("is_cycle") is not True:
        problems.append("is_cycle is not true")
    if res.get("u0_class_nonzero") is not True:
        problems.append("u0_class_nonzero is not true")
    N = int(args[args.index("--u-trunc") + 1])
    comps = res.get("components", [])
    if res.get("truncation") != N or [c.get("u_power") for c in comps] != list(range(N)):
        return problems + [f"components do not cover u^0..u^{N - 1}"]
    e11 = next(iter(idempotent))
    support = len(idempotent)
    for k, comp in enumerate(comps):
        terms = {tuple(t["word"]): t["coeff"] for t in comp["terms"]}
        if k == 0:
            want = {(label,): _scalar(c) for label, c in idempotent.items()}
            if terms != want:
                problems.append("u^0 component differs from the idempotent")
            continue
        if len(terms) != (support + 1) * support ** (2 * k):
            problems.append(f"u^{k}: {len(terms)} terms, expected "
                            f"{(support + 1) * support ** (2 * k)}")
        scale = Fraction((-1) ** k * factorial(2 * k), factorial(k))
        for word, coeff in (((e11,) * (2 * k + 1), scale),
                            (("1",) + (e11,) * (2 * k), -scale / 2)):
            if terms.get(word) != _scalar(coeff):
                problems.append(f"u^{k}: coefficient of {word[:2]}.. is "
                                f"{terms.get(word)}, expected {_scalar(coeff)}")
    return problems


def check_report(instance, exit_code: int, text: str, expected: dict) -> list[str]:
    """Everything wrong with one job's outcome; empty when it is correct."""
    job = instance.job
    want = expected[job.id]
    problems = []
    if exit_code != want["exit"]:
        problems.append(f"exit code {exit_code}, expected {want['exit']}")
    try:
        report = parse_report(text, job.format)
    except (ValueError, KeyError) as exc:
        return problems + [f"unreadable report: {exc}"]
    if "result" not in report:
        return problems + ["report has no result block"]
    if "result" in want and report["result"] != want["result"]:
        problems.append("result block differs from expected.json")
    if job.idempotent:
        problems += _chern_problems(report, instance.idempotent, instance.argv)
    for path, value in ANCHORS.get(job.id, {}).items():
        try:
            got = _get(report, path)
        except (KeyError, TypeError):
            got = "<missing>"
        if got != value:
            problems.append(f"{path} = {got!r}, known answer {value!r}")
    return problems
