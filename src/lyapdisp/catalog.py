"""Built-in matrix families and their published reference constants.

Each family counts odd coefficients in powers of a small GF(2) polynomial:
count(n) = number of odd coefficients in p(x)^n.  The pair (D0, D1) is the
binary transfer representation of that count, built from p's bitset by
`_polynomial_pair`; D0^q has rank 1 and trace 1.  The tabulated constants,
kept as data with q and the conjugated pairs, are the published decimal
values this package reproduces: the Lyapunov exponent, the dispersion
parameter sigma^2, the average parameter L(2)/ln 2, the typical parameter
sigma^2/ln 2, and the minimal polynomial of xi = e^{L(2)}.

Families can also be loaded from JSON files with explicit exact "p/q"
D0, D1 entries; they get the same validation as the built-ins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import exactmat
# after exactmat, so numpy is not first imported from inside conjugate: that
# order made `import lyapdisp` about 25 ms (10 %) slower, CPython 3.11 with
# numpy 2.4 on a 2-core x86-64 VM
from . import conjugate
from .exactmat import RationalMatrix

__all__ = [
    "MatrixFamily",
    "ReferenceConstants",
    "FAMILY_NAMES",
    "get_family",
    "resolve_family",
    "family_names",
    "load_family_file",
    "family_to_dict",
    "verify_constants",
    "UnknownFamily",
    "InvariantViolation",
    "ParseError",
]


class UnknownFamily(KeyError):
    pass


class InvariantViolation(ValueError):
    pass


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class ReferenceConstants:
    """Published decimal strings, kept verbatim so printed precision is known."""

    lambda_ref: str
    sigma2_ref: str
    avg_ref: str
    typ_ref: str
    minpoly: tuple[int, ...]
    source: str = "published tabulation"

    @staticmethod
    def decimal_places(text: str) -> int:
        if "." not in text:
            return 0
        return len(text.split(".", 1)[1])


@dataclass(frozen=True)
class MatrixFamily:
    name: str
    q: int
    d0: RationalMatrix
    d1: RationalMatrix
    poly_mask: int
    constants: ReferenceConstants | None = None
    d0_prime: RationalMatrix | None = None
    d1_prime: RationalMatrix | None = None
    aliases: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return self.d0.dim


def _validate(fam: MatrixFamily) -> conjugate.SentinelFactorization:
    """The family's sentinel factorization; InvariantViolation if it has none."""
    d0, d1 = fam.d0, fam.d1
    if d0.dim != d1.dim:
        raise InvariantViolation(f"{fam.name}: dimension mismatch")
    if not (d0.is_nonnegative() and d1.is_nonnegative()):
        raise InvariantViolation(f"{fam.name}: nonnegativity")
    try:
        return conjugate.sentinel_factorization(d0, d1, fam.q, fam.name)
    except (exactmat.RankNotOne, exactmat.ZeroMatrix) as exc:
        raise InvariantViolation(f"{fam.name}: rank (D0^q must have rank 1)") from exc
    except conjugate.NotIdempotentSimilar as exc:
        raise InvariantViolation(f"{fam.name}: trace ({exc})") from exc


def _check_conjugated_pair(
    fam: MatrixFamily, fact: conjugate.SentinelFactorization
) -> None:
    """d0_prime, d1_prime come together, D'0^q = E00, and (D'_w)[0, 0] =
    beta^T D_w alpha for every binary word w, all decided exactly.

    The difference of the two sides is a linear functional of the row vector
    (e0^T D'_w, beta^T D_w), so it is checked on a basis of the span of those
    vectors over all w: at most 2 * dim of them, found breadth first.
    alpha and beta come from the family's sentinel factorization `fact`.
    """
    if (fam.d0_prime is None) != (fam.d1_prime is None):
        raise InvariantViolation(f"{fam.name}: d0_prime and d1_prime come as a pair")
    if fam.d0_prime is None:
        return
    n = fam.dim
    e00 = RationalMatrix([[int(i == j == 0) for j in range(n)] for i in range(n)])
    if exactmat.mat_pow(fam.d0_prime, fam.q) != e00:
        raise InvariantViolation(f"{fam.name}: d0_prime^q is not E00")
    alpha, beta = fact.alpha, fact.beta
    basis: list[tuple[int, list[Fraction]]] = []
    queue = [e00.rows[0] + beta]
    while queue:
        vec = queue.pop(0)
        for pivot, b in basis:
            vec = [x - vec[pivot] / b[pivot] * y for x, y in zip(vec, b)]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            continue
        if vec[0] != exactmat.dot(vec[n:], alpha):
            raise InvariantViolation(
                f"{fam.name}: d0_prime, d1_prime do not reproduce the corner values")
        basis.append((pivot, vec))
        for prime, plain in ((fam.d0_prime, fam.d0), (fam.d1_prime, fam.d1)):
            queue.append(exactmat.row_times(vec[:n], zip(*prime.rows))
                         + exactmat.row_times(vec[n:], zip(*plain.rows)))


def _polynomial_pair(mask: int) -> tuple[list[int], RationalMatrix, RationalMatrix]:
    """(states, D0, D1) of the odd-coefficient count of the GF(2) polynomial p.

    p is the bitset `mask`.  A state is a polynomial r with r(0) = 1, r and
    x*r identified, standing for c_r(n) = #odd coefficients of r * p^n.
    Writing r(x) = r_e(x^2) + x r_o(x^2) gives c_r(2n) = c_{r_e}(n) +
    c_{r_o}(n), and c_r(2n+1) is the same split of r*p.  States are found
    breadth first from r = 1, and column r of D_d counts each state among
    the halves, so the row of all c_r obeys c(2n+d) = c(n) D_d.
    """

    def times_p(r: int) -> int:
        out = 0
        for i in range(mask.bit_length()):
            if mask >> i & 1:
                out ^= r << i
        return out

    def halves(r: int) -> list[int]:
        split = [0, 0]
        for i in range(r.bit_length()):
            split[i & 1] |= (r >> i & 1) << (i >> 1)
        return [h >> ((h & -h).bit_length() - 1) for h in split if h]

    states = [1]
    columns: tuple[list[list[int]], list[list[int]]] = ([], [])
    for r in states:  # states grows while it is walked: breadth first
        for d, column in enumerate(columns):
            found = halves(times_p(r) if d else r)
            states.extend(h for h in found if h not in states)
            column.append(found)
    return states, *(
        RationalMatrix([[col.count(s) for col in column] for s in states])
        for column in columns
    )


_FAMILIES: dict[str, MatrixFamily] = {}
_ALIASES: dict[str, str] = {}


def _register(name: str, poly_mask: int, **data) -> None:
    """Register a built-in whose D0, D1 are derived from its polynomial."""
    _, d0, d1 = _polynomial_pair(poly_mask)
    fam = MatrixFamily(name=name, poly_mask=poly_mask, d0=d0, d1=d1, **data)
    _validate(fam)
    _FAMILIES[fam.name] = fam
    for alias in fam.aliases + (fam.name,):
        _ALIASES[alias.lower()] = fam.name


_register(
    name="g1",
    aliases=("binomial",),
    q=1,
    poly_mask=0b11,
    d0_prime=RationalMatrix([[1]]),
    d1_prime=RationalMatrix([[2]]),
    constants=ReferenceConstants(
        lambda_ref="0.3465735902799726547086160",
        sigma2_ref="0.1201132534795503561667756",
        avg_ref="1.3219280948873623478703194",
        typ_ref="0.1732867951399863273543080",
        minpoly=(2, -5),
    ),
)

_register(
    name="g2",
    aliases=("trinomial-i", "trinomial"),
    q=1,
    poly_mask=0b111,
    d0_prime=RationalMatrix([[1, 0], [0, 0]]),
    d1_prime=RationalMatrix([[3, -4], [1, -2]]),
    constants=ReferenceConstants(
        lambda_ref="0.4299474333424527201146970",
        sigma2_ref="0.1211367118847285164803949",
        avg_ref="1.4924205743549514375202537",
        typ_ref="0.1747633335056929866262498",
        minpoly=(1, -2, -3, 2),
    ),
)

# sigma^2/ln2 equals ln(2)/4 exactly; see gle.quadrinomial_regroup_L
_register(
    name="g3",
    aliases=("quadrinomial",),
    q=2,
    poly_mask=0b1111,
    d0_prime=RationalMatrix([[1, 0, 0], [0, 0, 0], [0, 1, 0]]),
    d1_prime=RationalMatrix([[4, -4, -6], [0, 2, 1], [2, -4, -4]]),
    constants=ReferenceConstants(
        lambda_ref="0.3465735902799726547086160",
        sigma2_ref="0.12011325",
        avg_ref="1.3219280948873623478703194",
        typ_ref="0.17328679",
        minpoly=(2, -5),
    ),
)

_register(
    name="h3",
    aliases=("trinomial-ii",),
    q=2,
    poly_mask=0b1011,
    d0_prime=RationalMatrix([
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
    ]),
    d1_prime=RationalMatrix([
        [3, -6, -2, 4],
        [0, 1, 1, 0],
        [1, -3, -2, 2],
        [0, 1, 0, 0],
    ]),
    constants=ReferenceConstants(
        lambda_ref="0.45454538229305",
        sigma2_ref="0.12497319",
        avg_ref="1.5459492845008943975543991",
        typ_ref="0.18029820",
        minpoly=(16, -40, -36, 22, 76, 7, -19, -19, 0, 2, 1),
    ),
)

_register(
    name="g4",
    aliases=("quintinomial",),
    q=2,
    poly_mask=0b11111,
    d0_prime=RationalMatrix([
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
    ]),
    d1_prime=RationalMatrix([
        [5, -10, -8, 4],
        [1, -1, -2, -2],
        [1, -3, -2, 4],
        [0, 1, 0, -2],
    ]),
    constants=ReferenceConstants(
        lambda_ref="0.504253705692",
        sigma2_ref="0.11406217",
        avg_ref="1.6534827473445406557431504",
        typ_ref="0.16455692",
        minpoly=(4, -8, -21, 14, -28, 126, 65, 68, 48, -56, -32),
    ),
)

_register(
    name="h4",
    aliases=("trinomial-iii",),
    q=2,
    poly_mask=0b10011,
    d0_prime=RationalMatrix([
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ]),
    d1_prime=RationalMatrix([
        [3, 0, -2, -8, -4, -2, -4, -4],
        [1, 0, -1, -4, -2, -1, -2, -2],
        [0, 1, 0, -1, 0, 0, -1, 0],
        [0, 1, 0, -2, -1, 0, -1, -1],
        [0, 0, 1, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 1, 0],
    ]),
    constants=ReferenceConstants(
        lambda_ref="0.45759385431410",
        sigma2_ref="0.13055386",
        avg_ref="1.5707744868006419128591802",
        typ_ref="0.18834940",
        minpoly=(32, -80, -8, -60, -232, 240, 44, 9, 11, -54, -4, 3, 1, 2),
    ),
)

_register(
    name="g5",
    aliases=("sextinomial",),
    q=3,
    poly_mask=0b111111,
    d0_prime=RationalMatrix([
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ]),
    d1_prime=RationalMatrix([
        [6, -8, -8, -10, -4, -6],
        [0, 0, 0, 0, 0, 1],
        [2, -4, -4, -4, 0, -3],
        [0, 0, 0, 0, 0, 0],
        [2, -4, -4, -4, 0, -3],
        [0, 2, 2, 1, -2, 1],
    ]),
    constants=ReferenceConstants(
        lambda_ref="0.5344481528",
        sigma2_ref="0.0965",
        avg_ref="1.6903750759639444915537652",
        typ_ref="0.1392",
        minpoly=(128, -640, 416, 1008, 416, -28, -3112, -2572, 346, 1887, 511, 144),
    ),
)

_register(
    name="g6",
    aliases=("septinomial",),
    q=3,
    poly_mask=0b1111111,
    d0_prime=RationalMatrix([
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ]),
    d1_prime=RationalMatrix([
        [7, -36, -28, -24, 4, -4],
        [0, 0, 1, 0, "1/2", -2],
        ["3/2", -8, -8, -6, "1/2", 1],
        [0, 0, 1, 0, "-1/2", 1],
        [2, -12, -10, -8, 1, 0],
        [1, -6, -6, -4, 1, 0],
    ]),
    constants=ReferenceConstants(
        lambda_ref="0.53765282",
        sigma2_ref="0.1082",
        avg_ref="1.7258729504941114967801068",
        typ_ref="0.1561",
        minpoly=(
            8, -4, -18, -335, 34, 474, 4072, 302, -3119, -16848, -1056,
            7321, 29681, 910, -6690, -22628, -152, 1936, 6112, 0, -128, -512,
        ),
    ),
)

FAMILY_NAMES: tuple[str, ...] = tuple(_FAMILIES)


def family_names() -> tuple[str, ...]:
    return FAMILY_NAMES


def get_family(name: str) -> MatrixFamily:
    key = name.lower()
    if key not in _ALIASES:
        raise UnknownFamily(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    return _FAMILIES[_ALIASES[key]]


def resolve_family(family: str | MatrixFamily) -> MatrixFamily:
    """A built-in family by name or alias, or a family file named "@path".

    A MatrixFamily passes through.
    """
    if isinstance(family, MatrixFamily):
        return family
    if family.startswith("@"):
        return load_family_file(family[1:])
    return get_family(family)


# ---------------------------------------------------------------------------
# family definition files
# ---------------------------------------------------------------------------

def family_to_dict(fam: MatrixFamily) -> dict:
    """JSON-ready form with exact 'p/q' entry strings (see README for schema)."""

    def entries(matrix: RationalMatrix) -> list[list[str]]:
        return [[str(x) for x in row] for row in matrix.rows]

    out = {
        "name": fam.name,
        "q": fam.q,
        "dim": fam.dim,
        "d0": entries(fam.d0),
        "d1": entries(fam.d1),
    }
    if fam.poly_mask:
        out["poly_mask"] = fam.poly_mask
    if fam.d0_prime is not None:
        out["d0_prime"] = entries(fam.d0_prime)
        out["d1_prime"] = entries(fam.d1_prime)
    if fam.constants is not None:
        out["constants"] = {
            "lambda": fam.constants.lambda_ref,
            "sigma2": fam.constants.sigma2_ref,
            "avg": fam.constants.avg_ref,
            "typ": fam.constants.typ_ref,
            "minpoly": list(fam.constants.minpoly),
            "source": fam.constants.source,
        }
    return out


def _parse_matrix(data, dim: int, label: str) -> RationalMatrix:
    if not isinstance(data, list) or len(data) != dim:
        raise ParseError(f"{label}: expected {dim} rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{label} row {i}: expected {dim} entries")
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(Fraction(cell) if isinstance(cell, (str, int)) else None)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"{label}[{i}][{j}]: bad rational {cell!r}") from exc
            if parsed[-1] is None:
                raise ParseError(
                    f"{label}[{i}][{j}]: entries must be ints or 'p/q' strings, "
                    f"got {type(cell).__name__}"
                )
        rows.append(parsed)
    return RationalMatrix(rows)


def family_from_dict(data: dict, origin: str = "<dict>") -> MatrixFamily:
    for key in ("name", "q", "dim", "d0", "d1"):
        if key not in data:
            raise ParseError(f"{origin}: missing field {key!r}")
    # JSON true and false load as bools, which isinstance counts as ints
    for key, least in (("dim", 1), ("q", 1), ("poly_mask", 0)):
        value = data.get(key, least)
        if type(value) is not int or value < least:
            raise ParseError(f"{origin}: {key} must be an integer >= {least}")
    dim = data["dim"]
    constants = None
    if "constants" in data:
        c = data["constants"]
        try:
            constants = ReferenceConstants(
                lambda_ref=c["lambda"],
                sigma2_ref=c["sigma2"],
                avg_ref=c["avg"],
                typ_ref=c["typ"],
                minpoly=tuple(c["minpoly"]),
                source=c.get("source", "user file"),
            )
        except KeyError as exc:
            raise ParseError(f"{origin}: constants block missing {exc}") from exc
    fam = MatrixFamily(
        name=str(data["name"]),
        q=data["q"],
        d0=_parse_matrix(data["d0"], dim, "d0"),
        d1=_parse_matrix(data["d1"], dim, "d1"),
        poly_mask=data.get("poly_mask", 0),
        d0_prime=_parse_matrix(data["d0_prime"], dim, "d0_prime")
        if "d0_prime" in data else None,
        d1_prime=_parse_matrix(data["d1_prime"], dim, "d1_prime")
        if "d1_prime" in data else None,
        constants=constants,
    )
    _check_conjugated_pair(fam, _validate(fam))
    return fam


def load_family_file(path: str) -> MatrixFamily:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return family_from_dict(data, origin=path)


# ---------------------------------------------------------------------------
# verification against the reference constants
# ---------------------------------------------------------------------------

LN2 = math.log(2.0)


def _tolerance(ref_text: str, err_bar: float) -> float:
    places = ReferenceConstants.decimal_places(ref_text)
    return max(10.0 ** -(places - 2), 10.0 * err_bar)


def verify_constants(fam: MatrixFamily, report) -> list[dict]:
    """Compare an ExponentReport against the family's reference constants.

    Returns one row per quantity: {quantity, computed, reference, tol, pass}.
    Tolerances mix the printed precision of the reference with the report's
    own error estimate, so a short published value like '0.0965' is only
    held to what it actually pins down.  Failures are data, not errors.
    """
    if fam.constants is None:
        raise ValueError(f"family {fam.name} has no reference constants")
    c = fam.constants
    rows = []

    def add(quantity: str, computed: float, ref_text: str, err_bar: float):
        reference = float(ref_text)
        tol = _tolerance(ref_text, err_bar)
        rows.append({
            "quantity": quantity,
            "computed": computed,
            "reference": reference,
            "tol": tol,
            "pass": abs(computed - reference) <= tol,
        })

    add("lambda", report.lam.accel, c.lambda_ref, report.lam.err)
    add("sigma2", report.sigma2, c.sigma2_ref, report.sigma2_err)
    add("sigma2_over_ln2", report.sigma2 / LN2, c.typ_ref, report.sigma2_err / LN2)
    replica2 = dict(report.replica).get(2)
    if replica2 is not None:
        add("L2_over_ln2", math.log(replica2) / LN2, c.avg_ref, 1e-11)
        residual = exactmat.poly_residual(c.minpoly, replica2)
        rows.append({
            "quantity": "minpoly_residual",
            "computed": residual,
            "reference": 0.0,
            "tol": 1e-8,
            "pass": residual < 1e-8,
        })
    rows.append({
        "quantity": "zero_corner_words",
        "computed": float(report.skipped_words),
        "reference": 0.0,
        "tol": 0.0,
        "pass": report.skipped_words == 0,
    })
    return rows
