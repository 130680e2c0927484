"""Finite-dimensional associative (super)algebras by structure constants.

An AlgebraSpec fixes an ordered basis with basis element 0 the unit, a
sparse multiplication tensor e_i e_j = sum_k c_{ij}^k e_k, and optional
integer weights and Z/2 parities per basis element.  Includes the built-in
sample catalogue, matrix algebras, the upper-triangular gluing of two
algebras along a bimodule, and the JSON file format used by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .fields import Field, QQ, format_scalar, parse_scalar, reduced_entries


class AlgebraError(ValueError):
    pass


@dataclass
class Violation:
    kind: str
    witness: tuple
    detail: str = ""

    def to_dict(self):
        return {"kind": self.kind, "witness": list(self.witness), "detail": self.detail}


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self):
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.violations]}


def bilinear(table: dict, v: dict, w: dict, field: Field) -> dict:
    """sum over i, j of v[i] w[j] table[(i, j)], for a table (i, j) -> {k: c}
    of structure or action constants: summed raw and reduced once.  v and w
    may themselves be raw sums."""
    out: dict = {}
    get = out.get
    for i, a in v.items():
        for j, b in w.items():
            prod = table.get((i, j))
            if prod:
                ab = a * b
                for k, c in prod.items():
                    out[k] = get(k, 0) + ab * c
    return reduced_entries(out, field)


@dataclass
class AlgebraSpec:
    """Unital associative algebra by structure constants; basis 0 is the unit.

    structure maps (i, j) -> {k: c} with all stored c nonzero.  weight and
    parity, when present, are tuples indexed by basis element.  max_weight
    marks weight-truncated quotients (products beyond the cutoff forced to
    zero), so downstream consumers can apply a guard band.
    """

    name: str
    field: Field
    dim: int
    structure: dict
    weight: tuple | None = None
    parity: tuple | None = None
    max_weight: int | None = None
    basis_labels: tuple | None = None

    unit_index = 0

    def mul_basis(self, i: int, j: int) -> dict:
        return self.structure.get((i, j), {})

    def mul_vec(self, v: dict, w: dict) -> dict:
        """Product of two coefficient vectors {basis_index: scalar}."""
        return bilinear(self.structure, v, w, self.field)

    def power(self, v: dict, n: int) -> dict:
        out = {0: self.field.one()}
        for _ in range(n):
            out = self.mul_vec(out, v)
        return out

    @property
    def graded(self) -> bool:
        return self.weight is not None

    @property
    def is_super(self) -> bool:
        return self.parity is not None and any(self.parity)

    @property
    def connected_graded(self) -> bool:
        """Weight-graded with the unit the only weight-0 basis element."""
        return self.weight is not None and all(w >= 1 for w in self.weight[1:])

    def label(self, i: int) -> str:
        if self.basis_labels is not None:
            return self.basis_labels[i]
        return f"e{i}"


def validate(spec: AlgebraSpec) -> ValidationReport:
    """Check unit, associativity and weight/parity multiplicativity.

    Violations are data, not faults: the full list is returned with
    witnessing index triples.
    """
    F = spec.field
    v: list[Violation] = []
    d = spec.dim
    triples = []  # (i, j, k) of the stored constants, every index in range
    for (i, j), comps in spec.structure.items():
        if not (0 <= i < d and 0 <= j < d):
            v.append(Violation("index-bounds", (i, j), "structure index out of range"))
            continue
        for k, c in comps.items():
            if not 0 <= k < d:
                v.append(Violation("index-bounds", (i, j, k), "target index out of range"))
            else:
                triples.append((i, j, k))
            if F.is_zero(c):
                v.append(Violation("stored-zero", (i, j, k), "zero structure constant stored"))
    for i in range(d):
        e = {i: F.one()}
        left = spec.mul_vec({0: F.one()}, e)
        right = spec.mul_vec(e, {0: F.one()})
        if left != e:
            v.append(Violation("unit", (0, i), "1*e_i != e_i"))
        if right != e:
            v.append(Violation("unit", (i, 0), "e_i*1 != e_i"))
    for i in range(d):
        ei = {i: F.one()}
        for j in range(d):
            ij = spec.mul_basis(i, j)
            for k in range(d):
                lhs = spec.mul_vec(ij, {k: F.one()})
                rhs = spec.mul_vec(ei, spec.mul_basis(j, k))
                if lhs != rhs:
                    v.append(Violation("associativity", (i, j, k)))
    if spec.weight is not None:
        if len(spec.weight) != d:
            v.append(Violation("weight-table", (len(spec.weight),), "wrong length"))
        elif spec.weight[0] != 0:
            v.append(Violation("weight-unit", (0,), "unit must have weight 0"))
        else:
            for i, j, k in triples:
                if spec.weight[k] != spec.weight[i] + spec.weight[j]:
                    v.append(Violation("weight-multiplicativity", (i, j, k)))
    if spec.parity is not None:
        if len(spec.parity) != d:
            v.append(Violation("parity-table", (len(spec.parity),), "wrong length"))
        elif spec.parity[0] % 2 != 0:
            v.append(Violation("parity-unit", (0,), "unit must be even"))
        else:
            for i, j, k in triples:
                if spec.parity[k] % 2 != (spec.parity[i] + spec.parity[j]) % 2:
                    v.append(Violation("parity-multiplicativity", (i, j, k)))
    return ValidationReport(v)


def _with_unit_first(name, field, dim, structure, unit_vec, weight=None, parity=None,
                     max_weight=None, labels=None):
    """Rebase so that basis element 0 is the given unit vector.

    The unit replaces one old basis element in its support (the last one,
    which must carry coefficient 1); all other old elements are kept.
    """
    F = field
    support = sorted(i for i, c in unit_vec.items() if not F.is_zero(c))
    if not support:
        raise AlgebraError("zero unit vector")
    drop = support[-1]
    if unit_vec[drop] != F.one():
        raise AlgebraError("unit coefficient at rebased slot must be 1")
    keep = [i for i in range(dim) if i != drop]
    new_index = {old: pos + 1 for pos, old in enumerate(keep)}

    def to_new(vec: dict) -> dict:
        # vec = alpha * unit + sum over kept i of (vec[i] - alpha unit[i]) e_i
        alpha = vec.get(drop, 0)
        out = {0: alpha}
        get = out.get
        for i, c in vec.items():
            if i != drop:
                out[new_index[i]] = get(new_index[i], 0) + c
        for i, c in unit_vec.items():
            if i != drop:
                out[new_index[i]] = get(new_index[i], 0) - alpha * c
        return reduced_entries(out, F)

    old_basis = [unit_vec] + [{i: F.one()} for i in keep]
    structure_new = {}
    for a, va in enumerate(old_basis):
        for b, vb in enumerate(old_basis):
            prod = to_new(bilinear(structure, va, vb, F))
            if prod:
                structure_new[(a, b)] = prod
    new_weight = None
    if weight is not None:
        if any(weight[i] != 0 for i in support):
            raise AlgebraError("unit support must sit in weight 0")
        new_weight = tuple([0] + [weight[i] for i in keep])
    new_parity = None
    if parity is not None:
        if any(parity[i] % 2 for i in support):
            raise AlgebraError("unit support must be even")
        new_parity = tuple([0] + [parity[i] % 2 for i in keep])
    new_labels = None
    if labels is not None:
        new_labels = tuple(["1"] + [labels[i] for i in keep])
    return AlgebraSpec(name, field, dim, structure_new, new_weight, new_parity,
                       max_weight, new_labels)


def matrix_algebra(A: AlgebraSpec, m: int) -> AlgebraSpec:
    """Mat_m(A) = A tensor the m x m matrix algebra, unit rebased to slot 0."""
    if m < 1:
        raise AlgebraError("matrix size must be >= 1")
    F = A.field
    d = A.dim
    idx = {}
    labels = []
    for r in range(m):
        for s in range(m):
            for a in range(d):
                idx[(r, s, a)] = len(labels)
                labels.append(f"E{r+1}{s+1}*{A.label(a)}")
    structure = {}
    for (r, s, a), i in idx.items():
        for (t, u, b), j in idx.items():
            if s != t:
                continue
            comps = {}
            for k, c in A.mul_basis(a, b).items():
                comps[idx[(r, u, k)]] = c
            if comps:
                structure[(i, j)] = comps
    unit_vec = {idx[(r, r, 0)]: F.one() for r in range(m)}
    weight = None
    if A.weight is not None:
        weight = [A.weight[a] for (r, s, a) in idx]
    parity = None
    if A.parity is not None:
        parity = [A.parity[a] for (r, s, a) in idx]
    return _with_unit_first(f"mat{m}({A.name})", F, m * m * d, structure, unit_vec,
                            weight, parity, A.max_weight, labels)


def opposite(A: AlgebraSpec) -> AlgebraSpec:
    """Opposite algebra, with the Koszul sign when parities are present."""
    F = A.field
    structure = {}
    for (i, j), comps in A.structure.items():
        sign = 1
        if A.parity is not None and A.parity[i] % 2 and A.parity[j] % 2:
            sign = -1
        out = comps if sign == 1 else {k: F.neg(c) for k, c in comps.items()}
        structure[(j, i)] = out
    return AlgebraSpec(f"op({A.name})", F, A.dim, structure, A.weight, A.parity,
                       A.max_weight, A.basis_labels)


@dataclass
class BimoduleSpec:
    """A (left, right)-bimodule by action constants.

    left_action maps (j, t) -> {t': c} for e_j . m_t over the left algebra;
    right_action maps (t, i) -> {t': c} for m_t . e_i over the right algebra.
    """

    left: AlgebraSpec
    right: AlgebraSpec
    dim: int
    left_action: dict = dc_field(default_factory=dict)
    right_action: dict = dc_field(default_factory=dict)

    def act_left(self, vec_b: dict, vec_m: dict) -> dict:
        return bilinear(self.left_action, vec_b, vec_m, self.left.field)

    def act_right(self, vec_m: dict, vec_a: dict) -> dict:
        return bilinear(self.right_action, vec_m, vec_a, self.right.field)


def glue(A: AlgebraSpec, B: AlgebraSpec, M: BimoduleSpec) -> AlgebraSpec:
    """Triangular gluing of A and B along a B-A-bimodule in the corner.

    Triples (a, m, b) multiply as (a, m, b)(a', m', b') =
    (aa', m.a' + b.m', bb'), so the corner carries the left B- and right
    A-action.  The unit (1_A, 0, 1_B) is rebased to basis slot 0.
    """
    if A.field != B.field:
        raise AlgebraError("field mismatch in glue")
    if M.left is not B or M.right is not A:
        if M.left.dim != B.dim or M.right.dim != A.dim:
            raise AlgebraError("bimodule must be a B-A-bimodule")
    F = A.field
    dA, dM, dB = A.dim, M.dim, B.dim
    dim = dA + dM + dB

    def ia(i):
        return i

    def im(t):
        return dA + t

    def ib(j):
        return dA + dM + j

    structure = {}
    for i1 in range(dA):
        for i2 in range(dA):
            comps = {ia(k): c for k, c in A.mul_basis(i1, i2).items()}
            if comps:
                structure[(ia(i1), ia(i2))] = comps
    for j1 in range(dB):
        for j2 in range(dB):
            comps = {ib(k): c for k, c in B.mul_basis(j1, j2).items()}
            if comps:
                structure[(ib(j1), ib(j2))] = comps
    for t in range(dM):
        for i in range(dA):
            comps = {im(t2): c for t2, c in M.act_right({t: F.one()}, {i: F.one()}).items()}
            if comps:
                structure[(im(t), ia(i))] = comps
    for j in range(dB):
        for t in range(dM):
            comps = {im(t2): c for t2, c in M.act_left({j: F.one()}, {t: F.one()}).items()}
            if comps:
                structure[(ib(j), im(t))] = comps
    unit_vec = {ia(0): F.one(), ib(0): F.one()}
    labels = ([f"A.{A.label(i)}" for i in range(dA)] +
              [f"M.m{t}" for t in range(dM)] +
              [f"B.{B.label(j)}" for j in range(dB)])
    return _with_unit_first(f"glue({A.name},{B.name})", F, dim, structure, unit_vec,
                            labels=labels)


def trivial_bimodule(B: AlgebraSpec, A: AlgebraSpec, dim: int = 1) -> BimoduleSpec:
    """Bimodule where both algebras act through the scalar part of the unit only."""
    F = A.field
    left = {}
    right = {}
    for t in range(dim):
        left[(0, t)] = {t: F.one()}
        right[(t, 0)] = {t: F.one()}
    return BimoduleSpec(B, A, dim, left, right)


def zero_bimodule(B: AlgebraSpec, A: AlgebraSpec) -> BimoduleSpec:
    return BimoduleSpec(B, A, 0, {}, {})


# ---------------------------------------------------------------------------
# built-in catalogue
# ---------------------------------------------------------------------------


def _monomials(nvars: int, max_weight: int):
    """All exponent tuples with total degree <= max_weight, ordered by
    (total degree, lexicographic)."""
    out = []
    for total in range(max_weight + 1):
        pool = []

        def rec_total(prefix, left, slots):
            if slots == 1:
                pool.append(tuple(prefix + [left]))
                return
            for e in range(left + 1):
                rec_total(prefix + [e], left - e, slots - 1)

        rec_total([], total, nvars)
        out.extend(sorted(pool))
    return out


def _point(field: Field) -> AlgebraSpec:
    return AlgebraSpec("point", field, 1, {(0, 0): {0: field.one()}},
                       weight=(0,), basis_labels=("1",))


def _dual_numbers(field: Field) -> AlgebraSpec:
    one = field.one()
    structure = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
    return AlgebraSpec("dual_numbers", field, 2, structure, weight=(0, 1),
                       basis_labels=("1", "eps"))


def _truncated_poly(field: Field, m: int) -> AlgebraSpec:
    if m < 1:
        raise AlgebraError("truncated_poly needs m >= 1")
    one = field.one()
    structure = {}
    for i in range(m):
        for j in range(m):
            if i + j < m:
                structure[(i, j)] = {i + j: one}
    labels = tuple("1" if i == 0 else f"x^{i}" for i in range(m))
    return AlgebraSpec(f"truncated_poly({m})", field, m, structure,
                       weight=tuple(range(m)), basis_labels=labels)


def _poly_truncated(field: Field, nvars: int, max_weight: int) -> AlgebraSpec:
    if nvars < 1 or max_weight < 0:
        raise AlgebraError(f"poly_truncated needs vars >= 1 and max_weight >= 0, "
                           f"got vars={nvars}, max_weight={max_weight}")
    mons = _monomials(nvars, max_weight)
    index = {mon: i for i, mon in enumerate(mons)}
    one = field.one()
    structure = {}
    for a, ma in enumerate(mons):
        for b, mb in enumerate(mons):
            prod = tuple(x + y for x, y in zip(ma, mb))
            if sum(prod) <= max_weight:
                structure[(a, b)] = {index[prod]: one}
    weight = tuple(sum(m) for m in mons)
    labels = tuple("1" if sum(m) == 0 else "*".join(f"x{i+1}^{e}" for i, e in enumerate(m) if e)
                   for m in mons)
    return AlgebraSpec(f"poly_truncated({nvars},{max_weight})", field, len(mons),
                       structure, weight=weight, max_weight=max_weight, basis_labels=labels)


def _quantum_plane(field: Field, q, max_weight: int) -> AlgebraSpec:
    """k<x,y>/(yx = q xy), truncated above total weight max_weight."""
    if field.is_zero(q):
        raise AlgebraError("q must be nonzero")
    if max_weight < 0:
        raise AlgebraError(f"quantum_plane needs max_weight >= 0, got {max_weight}")
    mons = _monomials(2, max_weight)
    index = {mon: i for i, mon in enumerate(mons)}
    structure = {}
    for i1, (a, b) in enumerate(mons):
        for i2, (c, d) in enumerate(mons):
            if a + b + c + d > max_weight:
                continue
            # (x^a y^b)(x^c y^d) = q^{bc} x^{a+c} y^{b+d}
            coeff = field.one()
            for _ in range(b * c):
                coeff = field.mul(coeff, q)
            structure[(i1, i2)] = {index[(a + c, b + d)]: coeff}
    weight = tuple(sum(m) for m in mons)
    labels = tuple("1" if a + b == 0 else f"x^{a}y^{b}" for a, b in mons)
    return AlgebraSpec(f"quantum_plane(q={q},{max_weight})", field, len(mons),
                       structure, weight=weight, max_weight=max_weight, basis_labels=labels)


def _group_z2(field: Field) -> AlgebraSpec:
    one = field.one()
    structure = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: one}}
    return AlgebraSpec("group_z2", field, 2, structure, basis_labels=("1", "g"))


def _clifford1(field: Field) -> AlgebraSpec:
    """The super algebra k[xi]/(xi^2 = 1) with xi odd."""
    one = field.one()
    structure = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: one}}
    return AlgebraSpec("clifford1", field, 2, structure, parity=(0, 1),
                       basis_labels=("1", "xi"))


def _a2_path(field: Field) -> AlgebraSpec:
    """Path algebra of the A2 quiver, basis (1, e, a) with ea=0, ae=a, a^2=0."""
    one = field.one()
    structure = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
        (1, 0): {1: one}, (1, 1): {1: one},
        (2, 0): {2: one}, (2, 2): {},
        (2, 1): {2: one},
    }
    structure = {k: v for k, v in structure.items() if v}
    return AlgebraSpec("a2_path", field, 3, structure, basis_labels=("1", "e1", "a"))


def builtin(name: str, field: Field = QQ, **params) -> AlgebraSpec:
    """Construct a catalogue algebra by name; the result passes validate."""
    if name == "point":
        spec = _point(field)
    elif name == "dual_numbers":
        spec = _dual_numbers(field)
    elif name == "truncated_poly":
        spec = _truncated_poly(field, int(params.get("m", 3)))
    elif name == "poly_truncated":
        spec = _poly_truncated(field, int(params.get("vars", 2)), int(params.get("max_weight", 4)))
    elif name == "quantum_plane":
        q = params.get("q", Fraction(2))
        if isinstance(q, str):
            q = parse_scalar(q, field)
        elif isinstance(q, int):
            q = field.from_int(q)
        elif isinstance(q, Fraction):
            q = field.from_fraction(q)
        spec = _quantum_plane(field, q, int(params.get("max_weight", 4)))
    elif name == "mat":
        spec = matrix_algebra(_point(field), int(params.get("m", 2)))
        spec.name = f"mat({params.get('m', 2)})"
    elif name == "group_z2":
        spec = _group_z2(field)
    elif name == "clifford1":
        spec = _clifford1(field)
    elif name == "a2_path":
        spec = _a2_path(field)
    else:
        raise AlgebraError(f"unknown catalogue algebra {name!r}")
    report = validate(spec)
    if not report.ok:
        raise AlgebraError(f"catalogue algebra {name} failed validation: "
                           f"{report.violations[0].kind} {report.violations[0].witness}")
    return spec


CATALOGUE = ("point", "dual_numbers", "truncated_poly", "poly_truncated",
             "quantum_plane", "mat", "group_z2", "clifford1", "a2_path")


# ---------------------------------------------------------------------------
# JSON file format "ncg-algebra/1"
# ---------------------------------------------------------------------------

ALGEBRA_FORMAT = "ncg-algebra/1"


class SchemaError(ValueError):
    pass


def json_object(obj, fmt: str, fields, what: str) -> dict:
    """obj as a JSON object of format `fmt` with no field outside `fields`:
    the common check of every ncg-*/1 input format."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    unknown = set(obj) - set(fields)
    if unknown:
        raise SchemaError(f"{what}: unknown fields {sorted(unknown)}")
    if obj.get("format") != fmt:
        raise SchemaError(f"{what}: format must be {fmt!r}")
    return obj


def json_int(value, what: str, low: int | None = None) -> int:
    """A JSON integer (true and false are not integers here), at least
    `low` when given."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, not {type(value).__name__}")
    if low is not None and value < low:
        raise SchemaError(f"{what} must be >= {low}")
    return value


def json_list(value, what: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, not {type(value).__name__}")
    if length is not None and len(value) != length:
        raise SchemaError(f"{what} must have {length} entries, not {len(value)}")
    return value


def json_scalar(value, field: Field, what: str):
    """A field scalar spelled as a JSON integer or a "num/den" or integer
    string."""
    if type(value) is not int and not isinstance(value, str):
        raise SchemaError(f"{what} must be a string or an integer, not {type(value).__name__}")
    try:
        return parse_scalar(str(value), field)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{what}: bad scalar {value!r}: {exc}")


def field_to_json(field: Field) -> dict:
    if field.p is None:
        return {"kind": "rationals"}
    return {"kind": "prime-field", "p": field.p}


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("field: expected object with 'kind'")
    if obj["kind"] == "rationals":
        if set(obj) != {"kind"}:
            raise SchemaError(f"field: unknown keys {sorted(set(obj) - {'kind'})}")
        return QQ
    if obj["kind"] == "prime-field":
        if set(obj) != {"kind", "p"}:
            raise SchemaError("field: prime-field needs exactly 'kind' and 'p'")
        p = json_int(obj["p"], "field: p", 2)
        try:
            return Field(p)
        except ValueError as exc:
            raise SchemaError(f"field: {exc}")
    raise SchemaError(f"field: unknown kind {obj['kind']!r}")


def algebra_to_json(spec: AlgebraSpec) -> dict:
    structure = []
    for (i, j) in sorted(spec.structure):
        for k in sorted(spec.structure[(i, j)]):
            structure.append([i, j, k, format_scalar(spec.structure[(i, j)][k], spec.field)])
    obj = {
        "format": ALGEBRA_FORMAT,
        "name": spec.name,
        "field": field_to_json(spec.field),
        "dim": spec.dim,
        "unit_index": 0,
        "structure": structure,
    }
    if spec.weight is not None:
        obj["weight"] = list(spec.weight)
    if spec.parity is not None:
        obj["parity"] = list(spec.parity)
    if spec.max_weight is not None:
        obj["max_weight"] = spec.max_weight
    return obj


def algebra_from_json(obj) -> AlgebraSpec:
    """Strict parser for the ncg-algebra/1 schema: unknown fields are
    rejected and every field is type-checked, so a malformed object raises
    SchemaError.  Whether the structure constants define a unital
    associative algebra is `validate`'s question."""
    json_object(obj, ALGEBRA_FORMAT, ("format", "name", "field", "dim", "unit_index",
                                      "structure", "weight", "parity", "max_weight"),
                "algebra")
    for key in ("name", "field", "dim", "unit_index", "structure"):
        if key not in obj:
            raise SchemaError(f"algebra: missing field {key!r}")
    if not isinstance(obj["name"], str):
        raise SchemaError("algebra: name must be a string")
    field = field_from_json(obj["field"])
    dim = json_int(obj["dim"], "algebra: dim", 1)
    unit_index = json_int(obj["unit_index"], "algebra: unit_index", 0)
    if unit_index >= dim:
        raise SchemaError("algebra: unit_index out of range")
    # the unit becomes basis vector 0 by a plain relabelling, so that
    # validate still reports a unit of nonzero weight or odd parity
    perm = [unit_index] + [i for i in range(dim) if i != unit_index]
    inv = {old: new for new, old in enumerate(perm)}
    structure = {}
    for entry in json_list(obj["structure"], "algebra: structure"):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise SchemaError(f"algebra: structure entry {entry!r} is not [i,j,k,value]")
        what = f"algebra: structure entry {entry!r}"
        i, j, k = (json_int(n, what + " index", 0) for n in entry[:3])
        if max(i, j, k) >= dim:
            raise SchemaError(f"{what}: index out of range for dim {dim}")
        c = json_scalar(entry[3], field, what)
        if field.is_zero(c):
            raise SchemaError(f"algebra: zero structure constant at {(i, j, k)}")
        structure.setdefault((inv[i], inv[j]), {})[inv[k]] = c

    def table(key):
        if key not in obj:
            return None
        values = [json_int(v, f"algebra: {key} entry")
                  for v in json_list(obj[key], f"algebra: {key}", dim)]
        return tuple(values[p] for p in perm)

    weight = table("weight")
    parity = table("parity")
    if parity is not None:
        parity = tuple(p % 2 for p in parity)
    max_weight = (json_int(obj["max_weight"], "algebra: max_weight")
                  if "max_weight" in obj else None)
    return AlgebraSpec(obj["name"], field, dim, structure, weight, parity, max_weight)
