"""Finite-dimensional associative (super)algebras by structure constants.

An AlgebraSpec fixes an ordered basis with basis element 0 the unit, a
sparse multiplication tensor e_i e_j = sum_k c_{ij}^k e_k, and optional
integer weights and Z/2 parities per basis element.  Includes the built-in
sample catalogue, matrix algebras, the upper-triangular gluing of two
algebras along a bimodule, and the JSON file format used by the CLI.

One builder, `_monomial_algebra`, makes the catalogue's point, dual numbers,
truncated polynomial rings and quantum plane: the monomials of bounded
total degree, with a q-twist for the last.  `glue` copies each part's whole
table (A's, B's and the two actions) at its index offset, and
`_with_unit_first` then rebases the unit to slot 0, for gluings and matrix
algebras alike.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import (Field, QQ, format_scalar, parse_int, parse_scalar, prime_field,
                     reduced_entries)


class AlgebraError(ValueError):
    pass


class Violation:
    def __init__(self, kind: str, witness: tuple, detail: str = ""):
        self.kind = kind
        self.witness = witness
        self.detail = detail

    def to_dict(self):
        return {"kind": self.kind, "witness": list(self.witness), "detail": self.detail}


class ValidationReport:
    def __init__(self, violations: list):
        self.violations = violations

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


class AlgebraSpec:
    """Unital associative algebra by structure constants; basis 0 is the unit.

    structure maps (i, j) -> {k: c} with all stored c nonzero.  weight and
    parity, when present, are tuples indexed by basis element.  max_weight
    marks weight-truncated quotients (products beyond the cutoff forced to
    zero), so downstream consumers can apply a guard band.
    """

    def __init__(self, name: str, field: Field, dim: int, structure: dict,
                 weight: tuple | None = None, parity: tuple | None = None,
                 max_weight: int | None = None, basis_labels: tuple | None = None):
        self.name = name
        self.field = field
        self.dim = dim
        self.structure = structure
        self.weight = weight
        self.parity = parity
        self.max_weight = max_weight
        self.basis_labels = basis_labels

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

    def koszul(self, i: int, j: int) -> int:
        """(-1)^{|e_i||e_j|}, the Koszul sign of moving basis element e_i past
        e_j: -1 when both are odd, and 1 otherwise or without parities."""
        return (-1) ** (self.parity is not None and self.parity[i] * self.parity[j] % 2)

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
    witnessing index triples.  The weight and the parity table are checked
    by one rule, in that order: the table's length, then the unit's degree
    (weight 0, even), then e_i e_j = c e_k with c != 0 only where deg k =
    deg i + deg j, a parity taken mod 2; each check runs only when the one
    before it passed.
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
        for a, b, detail in ((0, i, "1*e_i != e_i"), (i, 0, "e_i*1 != e_i")):
            if spec.mul_vec({a: F.one()}, {b: F.one()}) != e:
                v.append(Violation("unit", (a, b), detail))
    # (e_i e_j) e_k and e_i (e_j e_k) are both {} when neither e_i e_j nor
    # e_j e_k is stored, so only the k with e_j e_k stored need a check then
    stored_right = [[k for k in range(d) if spec.structure.get((j, k))] for j in range(d)]
    for i in range(d):
        ei = {i: F.one()}
        for j in range(d):
            ij = spec.mul_basis(i, j)
            for k in (range(d) if ij else stored_right[j]):
                lhs = spec.mul_vec(ij, {k: F.one()})
                rhs = spec.mul_vec(ei, spec.mul_basis(j, k))
                if lhs != rhs:
                    v.append(Violation("associativity", (i, j, k)))
    for name, table, degree, unit in (
            ("weight", spec.weight, lambda x: x, "unit must have weight 0"),
            ("parity", spec.parity, lambda x: x % 2, "unit must be even")):
        if table is None:
            continue
        if len(table) != d:
            v.append(Violation(f"{name}-table", (len(table),), "wrong length"))
        elif degree(table[0]) != 0:
            v.append(Violation(f"{name}-unit", (0,), unit))
        else:
            for i, j, k in triples:
                if degree(table[k]) != degree(table[i] + table[j]):
                    v.append(Violation(f"{name}-multiplicativity", (i, j, k)))
    return ValidationReport(v)


def _with_unit_first(name, field, dim, structure, unit, weight=None, parity=None,
                     max_weight=None, labels=None):
    """Rebase so that basis element 0 is the unit, the sum of the old basis
    elements listed in `unit` (ascending, at least one).

    The unit replaces the last of them; all other old elements are kept,
    and so are their entries of the weight, parity and label tables.
    """
    F = field
    if weight is not None and any(weight[i] != 0 for i in unit):
        raise AlgebraError("unit support must sit in weight 0")
    if parity is not None and any(parity[i] % 2 for i in unit):
        raise AlgebraError("unit support must be even")
    drop = unit[-1]
    keep = [i for i in range(dim) if i != drop]
    new_index = {old: pos + 1 for pos, old in enumerate(keep)}

    def to_new(vec: dict) -> dict:
        # vec = alpha * unit + sum over kept i of (vec[i] - alpha [i in unit]) e_i
        alpha = vec.get(drop, 0)
        out = {0: alpha}
        get = out.get
        for i, c in vec.items():
            if i != drop:
                out[new_index[i]] = get(new_index[i], 0) + c
        for i in unit[:-1]:
            out[new_index[i]] = get(new_index[i], 0) - alpha
        return reduced_entries(out, F)

    old_basis = [dict.fromkeys(unit, F.one())] + [{i: F.one()} for i in keep]
    structure_new = {}
    for a, va in enumerate(old_basis):
        for b, vb in enumerate(old_basis):
            prod = to_new(bilinear(structure, va, vb, F))
            if prod:
                structure_new[(a, b)] = prod
    if parity is not None:
        parity = [p % 2 for p in parity]
    weight, parity, labels = (None if table is None else (at_unit, *(table[i] for i in keep))
                              for table, at_unit in ((weight, 0), (parity, 0), (labels, "1")))
    return AlgebraSpec(name, field, dim, structure_new, weight, parity, max_weight, labels)


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
    unit = [idx[(r, r, 0)] for r in range(m)]
    # E_rs * e_a carries the weight and parity of e_a
    weight, parity = (None if table is None else [table[a] for (_, _, a) in idx]
                      for table in (A.weight, A.parity))
    return _with_unit_first(f"mat{m}({A.name})", F, m * m * d, structure, unit,
                            weight, parity, A.max_weight, labels)


def opposite(A: AlgebraSpec) -> AlgebraSpec:
    """Opposite algebra, with the Koszul sign when parities are present."""
    F = A.field
    structure = {}
    for (i, j), comps in A.structure.items():
        structure[(j, i)] = (comps if A.koszul(i, j) == 1 else
                             {k: F.neg(c) for k, c in comps.items()})
    return AlgebraSpec(f"op({A.name})", F, A.dim, structure, A.weight, A.parity,
                       A.max_weight, A.basis_labels)


class BimoduleSpec:
    """A (left, right)-bimodule by action constants.

    left_action maps (j, t) -> {t': c} for e_j . m_t over the left algebra;
    right_action maps (t, i) -> {t': c} for m_t . e_i over the right algebra.
    """

    def __init__(self, left: AlgebraSpec, right: AlgebraSpec, dim: int,
                 left_action: dict, right_action: dict):
        self.left = left
        self.right = right
        self.dim = dim
        self.left_action = left_action
        self.right_action = right_action


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
    # each table (i, j) -> {k: c} is copied whole, every index shifted by
    # the offset of the part it indexes (A at 0, M at dA, B at dA + dM); a
    # key outside its table's rows and columns is no product and is dropped
    structure = {}
    for table, rows, cols, (di, dj, dk) in (
            (A.structure, dA, dA, (0, 0, 0)),
            (M.right_action, dM, dA, (dA, 0, dA)),
            (M.left_action, dB, dM, (dA + dM, dA, dA)),
            (B.structure, dB, dB, (dA + dM,) * 3)):
        for (i, j), comps in table.items():
            if 0 <= i < rows and 0 <= j < cols:
                structure[(di + i, dj + j)] = reduced_entries(
                    {dk + k: c for k, c in comps.items()}, F)
    unit = [0, dA + dM]
    labels = ([f"A.{A.label(i)}" for i in range(dA)] +
              [f"M.m{t}" for t in range(dM)] +
              [f"B.{B.label(j)}" for j in range(dB)])
    parity = None
    if A.parity is not None or B.parity is not None:
        # the corner is even; weights are not carried over
        parity = (A.parity or (0,) * dA) + (0,) * dM + (B.parity or (0,) * dB)
    return _with_unit_first(f"glue({A.name},{B.name})", F, dim, structure, unit,
                            parity=parity, labels=labels)


def unit_coordinate_product(A: AlgebraSpec) -> tuple | None:
    """The first (i, j) with i, j >= 1 whose product e_i e_j has a unit
    coordinate, or None.  With None, the non-unit basis elements span an
    ideal, so the unit coordinate A -> k is an algebra map and A acts
    through it in `trivial_bimodule`; otherwise that action is not one."""
    for (i, j), comps in sorted(A.structure.items()):
        if i and j and comps.get(0):
            return i, j
    return None


def trivial_bimodule(B: AlgebraSpec, A: AlgebraSpec) -> BimoduleSpec:
    """The one-dimensional bimodule where both algebras act through the
    scalar part of the unit only: a bimodule when `unit_coordinate_product`
    is None for both."""
    one = A.field.one()
    return BimoduleSpec(B, A, 1, {(0, 0): {0: one}}, {(0, 0): {0: one}})


def zero_bimodule(B: AlgebraSpec, A: AlgebraSpec) -> BimoduleSpec:
    return BimoduleSpec(B, A, 0, {}, {})


# ---------------------------------------------------------------------------
# built-in catalogue
# ---------------------------------------------------------------------------


def _monomials_upto(nvars: int, deg: int) -> list:
    """Exponent tuples of total degree <= deg, ordered by (degree, tuple)."""
    if deg < 0:
        return []
    out = [()]
    for _ in range(nvars):
        out = [e + (k,) for e in out for k in range(deg - sum(e) + 1)]
    return sorted(out, key=lambda e: (sum(e), e))


def _monomial_algebra(name: str, field: Field, nvars: int, top: int, label,
                      q=None, max_weight: int | None = None) -> AlgebraSpec:
    """The monomials x^e of total degree <= top in nvars variables, ordered
    by (degree, e); each weighs its degree.

    x^a x^b = c(a, b) x^{a+b} while a + b stays within top, and 0 above it.
    c is 1, or, given q, q^{a2 b1}: in the quantum plane y x = q x y, so
    (x^a1 y^a2)(x^b1 y^b2) = q^{a2 b1} x^{a1+b1} y^{a2+b2}.  label names a
    monomial of positive degree; the unit is "1"."""
    mons = _monomials_upto(nvars, top)
    index = {mon: i for i, mon in enumerate(mons)}
    one = field.one()
    structure = {}
    for i, a in enumerate(mons):
        for j, b in enumerate(mons):
            ab = tuple(x + y for x, y in zip(a, b))
            if sum(ab) <= top:
                c = one if q is None else field.from_fraction(Fraction(q) ** (a[1] * b[0]))
                structure[(i, j)] = {index[ab]: c}
    return AlgebraSpec(name, field, len(mons), structure,
                       weight=tuple(sum(e) for e in mons), max_weight=max_weight,
                       basis_labels=tuple(label(e) if sum(e) else "1" for e in mons))


def _power_label(e: tuple) -> str:
    return f"x^{e[0]}"


def _point(field: Field) -> AlgebraSpec:
    return _monomial_algebra("point", field, 1, 0, _power_label)


def _dual_numbers(field: Field) -> AlgebraSpec:
    return _monomial_algebra("dual_numbers", field, 1, 1, lambda e: "eps")


def _truncated_poly(field: Field, m: int) -> AlgebraSpec:
    if m < 1:
        raise AlgebraError("truncated_poly needs m >= 1")
    return _monomial_algebra(f"truncated_poly({m})", field, 1, m - 1, _power_label)


def _poly_truncated(field: Field, vars: int, max_weight: int) -> AlgebraSpec:
    if vars < 1 or max_weight < 0:
        raise AlgebraError(f"poly_truncated needs vars >= 1 and max_weight >= 0, "
                           f"got vars={vars}, max_weight={max_weight}")
    # every monomial is a tuple of vars exponents, also at max_weight 0,
    # where the dimension is 1 and `builtin` lets any vars through
    if vars > MAX_CATALOGUE_DIM:
        raise AlgebraError(f"poly_truncated needs vars <= MAX_CATALOGUE_DIM = "
                           f"{MAX_CATALOGUE_DIM}, got vars={vars}")
    return _monomial_algebra(
        f"poly_truncated({vars},{max_weight})", field, vars, max_weight,
        lambda e: "*".join(f"x{i+1}^{k}" for i, k in enumerate(e) if k), max_weight=max_weight)


def _quantum_plane(field: Field, q, max_weight: int) -> AlgebraSpec:
    """k<x,y>/(yx = q xy), truncated above total weight max_weight."""
    if field.is_zero(q):
        raise AlgebraError("q must be nonzero")
    if max_weight < 0:
        raise AlgebraError(f"quantum_plane needs max_weight >= 0, got {max_weight}")
    return _monomial_algebra(f"quantum_plane(q={q},{max_weight})", field, 2, max_weight,
                             lambda e: f"x^{e[0]}y^{e[1]}", q, max_weight)


def _z2_structure(field: Field) -> dict:
    """The group algebra of Z/2: 1 and one g with g^2 = 1."""
    one = field.one()
    return {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: one}}


def _group_z2(field: Field) -> AlgebraSpec:
    return AlgebraSpec("group_z2", field, 2, _z2_structure(field), basis_labels=("1", "g"))


def _clifford1(field: Field) -> AlgebraSpec:
    """The super algebra k[xi]/(xi^2 = 1) with xi odd."""
    return AlgebraSpec("clifford1", field, 2, _z2_structure(field), parity=(0, 1),
                       basis_labels=("1", "xi"))


def _a2_path(field: Field) -> AlgebraSpec:
    """Path algebra of the A2 quiver, basis (1, e, a) with ea=0, ae=a, a^2=0."""
    one = field.one()
    structure = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
        (1, 0): {1: one}, (1, 1): {1: one},
        (2, 0): {2: one}, (2, 1): {2: one},
    }
    return AlgebraSpec("a2_path", field, 3, structure, basis_labels=("1", "e1", "a"))


def _mat(field: Field, m: int) -> AlgebraSpec:
    spec = matrix_algebra(_point(field), m)
    spec.name = f"mat({m})"
    return spec


# name -> (builder, {parameter: default}): builder(field, *parameters) makes
# the entry.  q is a field element, every other parameter an int.
CATALOGUE = {
    "point": (_point, {}),
    "dual_numbers": (_dual_numbers, {}),
    "truncated_poly": (_truncated_poly, {"m": 3}),
    "poly_truncated": (_poly_truncated, {"vars": 2, "max_weight": 4}),
    "quantum_plane": (_quantum_plane, {"q": Fraction(2), "max_weight": 4}),
    "mat": (_mat, {"m": 2}),
    "group_z2": (_group_z2, {}),
    "clifford1": (_clifford1, {}),
    "a2_path": (_a2_path, {}),
}


# The largest catalogue algebra `builtin` builds.  Building and validating
# one near it takes up to about 3 s (truncated_poly m = 100, whose table is
# dense; mat m = 10 and the graded entries of dimension about 100 take
# 0.5-1 s) on a 2-CPU host, and the validation grows as dim^3.
MAX_CATALOGUE_DIM = 100


def _monomial_count(nvars: int, top: int) -> int:
    """C(nvars + top, top), the monomials of total degree <= top in nvars
    variables (0 for parameters the entry refuses), grown factor by factor
    and returned as soon as it is above MAX_CATALOGUE_DIM, so no large
    number is formed."""
    if nvars < 1 or top < 0:
        return 0
    count, big = 1, max(nvars, top)
    for i in range(1, min(nvars, top) + 1):
        count = count * (big + i) // i  # C(big + i, i)
        if count > MAX_CATALOGUE_DIM:
            break
    return count


# name -> the dimension of the entry from its parameter values, counted
# before it is built; an entry without parameters has at most 3
_DIMENSION = {
    "truncated_poly": lambda m: m,
    "poly_truncated": _monomial_count,
    "quantum_plane": lambda q, max_weight: _monomial_count(2, max_weight),
    "mat": lambda m: max(m, 0) ** 2,
}


def _catalogue_param(key: str, value, field: Field):
    """One catalogue parameter as given (a string from the command line, or
    an int, or for q a Fraction or field element) in the type it takes."""
    if key == "q":
        return (parse_scalar(value, field) if isinstance(value, str)
                else field.from_fraction(Fraction(value)))
    value = parse_int(value) if isinstance(value, str) else value
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an int")
    return value


def builtin(name: str, field: Field = QQ, **params) -> AlgebraSpec:
    """Construct a catalogue algebra by name; the result passes validate.

    AlgebraError names a parameter that the entry does not take (see
    `CATALOGUE`) or whose value does not parse, or an entry of more than
    MAX_CATALOGUE_DIM basis elements, counted from its parameters before
    anything is built."""
    if name not in CATALOGUE:
        raise AlgebraError(f"unknown catalogue algebra {name!r}")
    build, takes = CATALOGUE[name]
    for key in params:
        if key not in takes:
            raise AlgebraError(f"unknown parameter {key!r}: {name} takes "
                               + (", ".join(takes) if takes else "no parameters"))
    values = []
    for key, default in takes.items():
        value = params.get(key, default)
        try:
            values.append(_catalogue_param(key, value, field))
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            kind = f"an element of {field} ({exc})" if key == "q" else "an integer"
            raise AlgebraError(f"parameter {key}={value} is not {kind}")
    if name in _DIMENSION and _DIMENSION[name](*values) > MAX_CATALOGUE_DIM:
        given = ", ".join(f"{key}={value}" for key, value in zip(takes, values))
        raise AlgebraError(f"catalogue algebra {name} with {given} has more than "
                           f"MAX_CATALOGUE_DIM = {MAX_CATALOGUE_DIM} basis elements")
    spec = build(field, *values)
    report = validate(spec)
    if not report.ok:
        raise AlgebraError(f"catalogue algebra {name} failed validation: "
                           f"{report.violations[0].kind} {report.violations[0].witness}")
    return spec


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
            return prime_field(str(p), "p has")
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
    entries = json_list(obj["structure"], "algebra: structure")
    # a unit needs its d products 1 * e_i = e_i listed, so a larger dim is
    # refused before anything of that size is built
    if dim > len(entries):
        raise SchemaError(f"algebra: dim {dim} but only {len(entries)} structure entries; "
                          f"a unit needs the {dim} entries 1 * e_i = e_i")
    # the unit becomes basis vector 0 by a plain relabelling, so that
    # validate still reports a unit of nonzero weight or odd parity
    perm = [unit_index] + [i for i in range(dim) if i != unit_index]
    inv = {old: new for new, old in enumerate(perm)}
    structure = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise SchemaError(f"algebra: structure entry {entry!r} is not [i,j,k,value]")
        what = f"algebra: structure entry {entry!r}"
        i, j, k = (json_int(n, what + " index", 0) for n in entry[:3])
        if max(i, j, k) >= dim:
            raise SchemaError(f"{what}: index out of range for dim {dim}")
        c = json_scalar(entry[3], field, what)
        if field.is_zero(c):
            raise SchemaError(f"algebra: zero structure constant at {(i, j, k)}")
        row = structure.setdefault((inv[i], inv[j]), {})
        if inv[k] in row:
            raise SchemaError(f"algebra: structure constant at {(i, j, k)} is given twice")
        row[inv[k]] = c

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
