"""Exact ground fields: the rationals and prime fields F_p.

A scalar over Q is an `int` or a `fractions.Fraction`: integral values stay
plain ints, and mixed int/Fraction arithmetic is exact.  A division over Q
happens only in `Field.inv` or in an explicit `Fraction(a, b)`, never as
`a / b` between ints, which would give a float.  A scalar over F_p is an
int reduced mod p.  No floating point anywhere.

One rule turns a linear combination into a vector of field elements: sum
with plain `+` and `*`, then reduce once.  Since a scalar of either field is
an int or a Fraction, raw sums are exact, and `reduced_entries` drops their
zeros and, over F_p, reduces them mod p; `linear_combination` does both
steps for a list of scaled vectors.  The one exception is elimination in
`sparse` (`_row_echelon` under `rank` and `kernel_basis`, and the
`Echelon` of span questions), which reduces at every step so that pivots
and fill-in are tested against zero in the field.

Two errors of a computation have their own exit codes on the command line
and live here, below every module that raises them: `SizeError`, a size
outside its range (exit 2), and `UnsupportedError`, an operation the field
or parameters do not admit (exit 3).
"""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin with the first 13 primes as bases is exact for every n below
# this bound (Sorenson and Webster, 2015); above it no answer is given.
PRIME_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class SizeError(ValueError):
    """A size, degree, window or truncation outside its range: the one
    error of every such check in a computation, on which the command line
    exits 2."""


class UnsupportedError(ValueError):
    """Operation not available for the given field or parameters: the
    error on which the command line exits 3."""


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_LIMIT; ValueError above it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= PRIME_LIMIT:
        raise ValueError(f"cannot certify {n} as prime: the deterministic test "
                         f"is exact only below PRIME_LIMIT = {PRIME_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Descriptor for the ground field: Q when p is None, else F_p.
    Immutable, and equal and hashed by p."""

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("a Field is immutable")

    def __delattr__(self, name):
        raise AttributeError("a Field is immutable")

    def __eq__(self, other):
        return self.p == other.p if other.__class__ is Field else NotImplemented

    def __hash__(self):
        return hash(self.p)

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n if self.p is None else n % self.p

    def from_fraction(self, q: Fraction):
        if self.p is None:
            return q.numerator if q.denominator == 1 else q
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {q} vanishes mod {self.p}")
        return (q.numerator * pow(den, self.p - 2, self.p)) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            if a == 1 or a == -1:
                return int(a)
            q = Fraction(1, a)
            return q.numerator if q.denominator == 1 else q
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0 if self.p is None else a % self.p == 0

    def __str__(self):
        return "Q" if self.p is None else f"F{self.p}"


QQ = Field()


def reduced_entries(entries: dict, field: Field) -> dict:
    """Raw sums as field elements: reduced mod p over F_p, zeros dropped."""
    p = field.p
    if p is None:
        return {k: v for k, v in entries.items() if v}
    return {k: r for k, v in entries.items() if (r := v % p)}


def linear_combination(terms, field: Field) -> dict:
    """sum c * vec over the (c, vec) pairs of terms, each vec a mapping
    key -> scalar: summed raw and reduced once by `reduced_entries`."""
    out: dict = {}
    get = out.get
    for c, vec in terms:
        for k, v in vec.items():
            out[k] = get(k, 0) + c * v
    return reduced_entries(out, field)


def GF(p: int) -> Field:
    return Field(p)


def prime_field(digits: str, what: str) -> Field:
    """F_p for the p spelled by the ASCII decimal `digits`, refusing a p at
    or above PRIME_LIMIT by its size: a spelling longer than PRIME_LIMIT's
    is never converted, and the message gives `what`, the digit count and
    PRIME_LIMIT, never the digits."""
    if len(digits.lstrip("0")) > len(str(PRIME_LIMIT)) or int(digits) >= PRIME_LIMIT:
        raise ValueError(f"{what} {len(digits)} digits: primes are certified only "
                         f"below PRIME_LIMIT = {PRIME_LIMIT}")
    return Field(int(digits))


def parse_field(text: str) -> Field:
    """Parse a field label: "Q" ("QQ", "rationals"), or "F" and ASCII digits, as "F101".

    A label whose number is at or above PRIME_LIMIT is refused by
    `prime_field`, without echoing the digits."""
    t = text.strip()
    if t in ("Q", "QQ", "rationals"):
        return QQ
    digits = t[1:]
    if t[:1] == "F" and digits.isascii() and digits.isdigit():
        return prime_field(digits, "field label F followed by")
    raise ValueError(f"unknown field {text!r}")


def format_scalar(x, field: Field) -> str:
    """Serialize a scalar: "num/den" over Q (ints too, as "n/1"), the
    plain residue over F_p."""
    if field.p is None:
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def parse_int(text: str) -> int:
    """An integer spelled with ASCII decimal digits after an optional sign,
    with nothing around them.  A spelling that int() refuses raises int()'s
    own ValueError; int() also reads '_' between digits, the digits of
    other scripts and surrounding whitespace, and those raise ValueError
    here."""
    value = int(text)
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not spelled in ASCII digits")
    return value


def parse_scalar(text: str, field: Field):
    """Parse a "num/den" or integer string (`parse_int`) into a field element."""
    if "/" in text:
        num, den = text.split("/")
        return field.from_fraction(Fraction(parse_int(num), parse_int(den)))
    return field.from_int(parse_int(text))
