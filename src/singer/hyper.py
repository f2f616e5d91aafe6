"""Finite hyperfield algebra: axiom checks, the two-element hyperfield with
1+1 = {0,1}, group algebras over it, quotients of finite fields by
subgroups of their units, and the correspondence with projective
point-line geometries.

Hyperaddition tables are stored as bitmask-valued matrices.  A field
quotient is built from the cosets of its unit subgroup and the Zech
logarithms of the field's log tables.  The axioms are proved from
generators of the units, and reversibility follows from the other axioms
when the product commutes.  The checks of that proof,
the witness scans that run when it does not apply or finds a failure, the
fallback check of reversibility and the table maps of the isomorphism
test all run on packed rows (`_backend._Packed`), one integer per row of
the table, without unpacking any sum point by point.  Carriers are
capped at 256.  The JSON codec and the geometry unpack each distinct mask
once, one run of set bits at a time, and `from_json` packs each cell in
one pass."""

from math import lcm

from .errors import DomainError, CapError
from . import gf
from .groups import cyclic_generator, subgroup_generators
from ._backend import _Packed, assoc_witness, distrib_witness
from .geometry import IncidenceStructure, verify_plane

CARRIER_CAP = 256
_INDICES = list(range(CARRIER_CAP))     # the carrier indices, sliced by _bits


class HyperTable:
    """Finite carrier with set-valued addition and single-valued product.

    hyperadd[x][y] is a bitmask over carrier indices; mul[x][y] an index.
    Index 0 is the additive neutral by convention of the constructors here,
    but check_axioms does not assume it."""

    def __init__(self, labels, zero, one, mul, hyperadd):
        n = len(labels)
        if n > CARRIER_CAP:
            raise CapError(f"carrier cap {CARRIER_CAP} exceeded")
        if not (_is_index(zero, n) and _is_index(one, n)):
            raise DomainError("zero/one out of range")
        self.labels = list(labels)
        self.n = n
        self.zero = zero
        self.one = one
        # the QuotientSpec that quotient_hyperring built it from, if any
        self.quotient = None
        self.mul = _square(mul, n, "mul")
        for row in self.mul:
            for x in row:
                if type(x) is not int or not 0 <= x < n:
                    raise DomainError("products must be carrier indices")
        self.hyperadd = _square(hyperadd, n, "hyperadd")
        full = (1 << n) - 1
        for row in self.hyperadd:
            for m in row:
                if type(m) is not int or m <= 0 or m & ~full:
                    raise DomainError("hyperaddition values must be nonempty "
                                      "subsets of the carrier")

    def add_set(self, x, y):
        return _bits(self.hyperadd[x][y])

    def to_json(self):
        """The table as JSON-ready lists.  Each distinct mask is unpacked
        once, and equal hypersums share that one list: a caller copies a
        cell before it edits one.  No caller edits a result in place: the
        CLI serialises it, and the tests edit payloads after `json.loads`."""
        cells = {m: _bits(m) for m in set().union(*self.hyperadd)}
        return {
            "carrier": self.labels,
            "zero": self.zero,
            "one": self.one,
            "mul": self.mul,
            "hyperadd": [[cells[m] for m in row] for row in self.hyperadd],
        }

    @staticmethod
    def from_json(obj):
        keys = ("carrier", "zero", "one", "mul", "hyperadd")
        if not (isinstance(obj, dict) and all(k in obj for k in keys)):
            raise DomainError("a hypertable needs " + ", ".join(keys))
        if not isinstance(obj["carrier"], list):
            raise DomainError("the carrier must be a list of labels")
        n = len(obj["carrier"])
        hyperadd = []
        for row in _square(obj["hyperadd"], n, "hyperadd"):
            masks = []
            for cell in row:
                # one pass tests and packs the indices; a cell that is no
                # list fails the test on its stand-in None
                mask = 0
                for k in cell if isinstance(cell, list) else (None,):
                    if type(k) is not int or not 0 <= k < n:
                        raise DomainError(f"hypersum {cell!r} is not a list "
                                          f"of carrier indices")
                    mask |= 1 << k
                # a repeated index sets its bit once
                if mask.bit_count() != len(cell):
                    raise DomainError(f"repeated point in hypersum {cell!r}")
                masks.append(mask)
            hyperadd.append(masks)
        return HyperTable(obj["carrier"], obj["zero"], obj["one"],
                          obj["mul"], hyperadd)

    def __repr__(self):
        return f"<hypertable n={self.n}>"


def _is_index(x, n):
    return type(x) is int and 0 <= x < n


def _square(rows, n, name):
    """`rows` as a list of n lists of n entries, or DomainError."""
    if not (isinstance(rows, (list, tuple)) and len(rows) == n and all(
            isinstance(r, (list, tuple)) and len(r) == n for r in rows)):
        raise DomainError(f"{name} must be an {n}x{n} table")
    return [list(r) for r in rows]


class AxiomReport:
    def __init__(self, results=None, witnesses=None):
        self.results = {} if results is None else results
        self.witnesses = {} if witnesses is None else witnesses

    AXIOMS = (
        "commutativity",
        "associativity",
        "neutral-zero",
        "unique-negative",
        "reversibility",
        "distributivity",
        "monoid-multiplication",
        "zero-one-distinct",
        "multiplicative-group",
    )

    def passed(self):
        return all(self.results.get(a, False) for a in self.AXIOMS)

    def to_json(self):
        return {"axioms": self.results,
                "witnesses": {k: list(v) for k, v in self.witnesses.items()},
                "hyperfield": self.passed()}


def check_axioms(T):
    """The hyperfield axioms, each with a boolean and, when it fails, the
    first witness of the exhaustive scan over all triples.

    The cheap axioms are checked first.  When they give generators of the
    units, the three cubic ones (the monoid law, distributivity and the
    associativity of hyperaddition) are proved from those generators in
    O(n^2 |gens|) steps; `DECISIONS.md`, "Hyperfield axioms from
    generators", has the argument.  Those checks compare packed rows of
    the table (`_Packed`).  Reversibility comes last: when the other eight
    axioms hold and the product is commutative, they imply it
    (`DECISIONS.md`, "Hyperfield axioms in packed rows"); otherwise its
    packed check runs.  If a precondition fails, or a reduced or packed
    check finds a failure, the witness scan of that axiom runs over every
    x in turn and reports the first witness of the exhaustive scan:
    `_monoid_witness` compares rows of the product table, and
    `assoc_witness` and `distrib_witness` packed rows (`DECISIONS.md`,
    "Witnesses from packed rows; one kernel source")."""
    n, z, o = T.n, T.zero, T.one
    add, mul = T.hyperadd, T.mul
    res, wit = {}, {}

    def record(name, witness):
        res[name] = witness is None
        if witness is not None:
            wit[name] = witness

    record("commutativity", next(
        ((x, y) for x in range(n) for y in range(x + 1, n)
         if add[x][y] != add[y][x]), None))
    record("neutral-zero", next(
        ((x,) for x in range(n) if add[x][z] != 1 << x), None))
    negs = [[y for y in range(n) if add[x][y] >> z & 1] for x in range(n)]
    record("unique-negative", next(
        ((x, tuple(ns)) for x, ns in enumerate(negs) if len(ns) != 1), None))
    packed = _Packed(add)
    res["zero-one-distinct"] = z != o
    nonzero = [x for x in range(n) if x != z]
    record("multiplicative-group", next(
        ((x,) for x in nonzero
         if sorted(mul[x][y] for y in nonzero) != nonzero), None))
    identity = next(
        ((x,) for x in range(n) if mul[x][o] != x or mul[o][x] != x), None)
    # absorbing zero is part of the multiplication contract
    absorbing = next(
        (u for u in range(n) if mul[u][z] != z or mul[z][u] != z), None)
    gens = None
    if identity is None and res["multiplicative-group"]:
        gens = subgroup_generators(lambda a, b: mul[a][b], o, nonzero)

    # Light's test: {zero} + gens generates the carrier
    if identity is not None:
        record("monoid-multiplication", identity)
    elif gens is not None and _light_test(mul, [z] + gens):
        res["monoid-multiplication"] = True
    else:
        record("monoid-multiplication", _monoid_witness(mul))

    # distributivity is closed under associative products
    if (gens is not None and absorbing is None and res["neutral-zero"]
            and res["monoid-multiplication"]
            and all(packed.carry_failure(add, mul[u]) is None
                    for u in gens)):
        res["distributivity"] = True
    else:
        w = distrib_witness(n, add, mul)
        if w is None and absorbing is not None:
            w = (absorbing, z, z)
        record("distributivity", w)

    # a unit x scales the bracketings of (1, y/x, w/x) onto (x, y, w)
    if (gens is not None and res["distributivity"]
            and packed.assoc_failure(z) is None
            and packed.assoc_failure(o) is None):
        res["associativity"] = True
    else:
        record("associativity", assoc_witness(n, add))

    # reversibility: x in y + w  =>  w in x + (-y).  The eight axioms above
    # and a commutative product imply it; otherwise the packed check runs,
    # and a failure is scanned for its first witness
    if all(res.values()) and mul == [list(c) for c in zip(*mul)]:
        res["reversibility"] = True
    else:
        record("reversibility", None if packed.reversible(negs) else next(
            (x, y, w) for y in range(n) if negs[y] for w in range(n)
            for x in _bits(add[y][w]) if not add[x][negs[y][0]] >> w & 1))

    return AxiomReport({a: res[a] for a in AxiomReport.AXIOMS},
                       {a: wit[a] for a in AxiomReport.AXIOMS if a in wit})


def _light_test(mul, A):
    """Whether (x a) y = x (a y) for every a in A and all x, y: row xa of
    the product table against row x read through row a."""
    return all(mul[mul[x][a]] == [mx[b] for b in mul[a]]
               for a in A for x, mx in enumerate(mul))


def _monoid_witness(mul):
    """First (x, y, z) with (xy)z != x(yz), or None: for each x and y in
    turn, row xy of the product table against row x read through row y,
    and the first z where they differ."""
    for x, mx in enumerate(mul):
        for y, xy in enumerate(mx):
            left, right = mul[xy], [mx[b] for b in mul[y]]
            if left != right:
                return (x, y, next(z for z, (a, b) in
                                   enumerate(zip(left, right)) if a != b))
    return None


def _bits(mask):
    """The indices of the set bits of mask, ascending, for a mask below
    2^CARRIER_CAP.  Adding the lowest set bit to mask clears the lowest run
    of consecutive set bits and carries into the bit above it, so each run
    is one slice of _INDICES."""
    out = []
    while mask:
        low = mask & -mask
        top = mask + low
        out += _INDICES[low.bit_length() - 1:(top & -top).bit_length() - 1]
        mask &= top
    return out


def krasner():
    """The two-element hyperfield: 1 + 1 = {0, 1}."""
    labels = ["0", "1"]
    mul = [[0, 0], [0, 1]]
    hyperadd = [[0b01, 0b10], [0b10, 0b11]]
    return HyperTable(labels, 0, 1, mul, hyperadd)


def _line_table(els, mul, identity, labels, lines):
    """The hypertable on {0} + els, with carrier index i + 1 for els[i]
    and carrier labels "0" + labels.

    The product is the group law `mul` on els, and the hyperaddition that
    of a K-vector space whose lines are `lines` (sequences of indices into
    els): x + 0 = {x}, x + x = {0, x}, and x + y = (the line through x and
    y) minus {x, y}.  Every pair of distinct points must lie on a line."""
    n = len(els) + 1
    if n > CARRIER_CAP:
        raise CapError("carrier cap exceeded")
    index = {e: i for i, e in enumerate(els, 1)}
    if len(index) != len(els):
        raise DomainError("repeated point label")
    if identity not in index:
        raise DomainError("the identity labels no point")
    prod = [[0] * n] + [[0] + [index.get(mul(a, b)) for b in els]
                        for a in els]
    if any(None in row for row in prod):
        raise DomainError("point labels not closed under the product")
    # x + 0 = 0 + x = {x}, and x + x = {0, x}
    hyperadd = [[1 << (x + y) if x * y == 0 else 0 for y in range(n)]
                for x in range(n)]
    for x in range(1, n):
        hyperadd[x][x] = 1 | 1 << x
    for line in lines:
        full = 0
        for p in line:
            full |= 2 << p
        for p in line:
            for q in line:
                if p != q:
                    hyperadd[p + 1][q + 1] = full & ~(2 << p | 2 << q)
    if any(0 in row for row in hyperadd):
        raise DomainError("labeling does not cover all point pairs")
    return HyperTable(["0"] + list(labels), 0, index[identity], prod,
                      hyperadd)


def k_algebra(G):
    """Group algebra over the two-element hyperfield, |G| >= 3.

    Carrier is {0} + G; hyperaddition is the single-line table
    x + y = carrier minus {0, x, y} for distinct nonzero x, y and
    x + x = {0, x}.  The table satisfies the hyperfield axioms if and only
    if |G| >= 4, i.e. the line has at least four points.  |G| = 3 is still
    built, but it is not associative: with x + y = {z} on a three-point
    line, (1+1)+g = {g, g^2} while 1+(1+g) = 1+g^2 = {g}."""
    if not G.abelian:
        raise DomainError("group must be abelian")
    if G.order is None or G.order < 3:
        raise DomainError("need |G| >= 3 (smaller carriers force an empty "
                          "hypersum)")
    els = list(G.elements())
    return _line_table(els, G.mul, G.identity, [G.canon(e) for e in els],
                       [range(len(els))])


class QuotientSpec:
    """A finite field F (a `gf.GF`) and the subgroup G of F^x that the
    generators (element codes) generate.

    F^x is cyclic, so G is its one subgroup of order |G|, the lcm of the
    generators' orders (`GF.mult_order`, which builds no log tables).  The
    generators are checked and |G| is found here, once; two specs are
    equal when they name the same field and the same |G|, since the
    quotient depends on nothing else."""

    def __init__(self, field, generators):
        if not isinstance(field, gf.GF):
            raise DomainError("a unit quotient needs a finite field")
        gens = tuple(generators)
        for g in gens:
            field.validate(g)
            if g == 0:
                raise DomainError("0 is not a unit")
        self.field, self.generators = field, gens
        self.order = lcm(*map(field.mult_order, gens))

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.order == other.order)

    def __hash__(self):
        return hash((self.field, self.order))


def quotient_hyperring(Q):
    """The quotient F/G of a field by a subgroup of its units: carrier {0}
    and the cosets xG, with xG * yG = xyG and xG + yG = {(xg + yh)G}.

    With g the primitive element of `gf.log_tables` and d = (q - 1)/|G|,
    G = <g^d>, and coset i is C_i = g^i G for 0 <= i < d, carried after {0}
    in the order of least codes.  C_i C_j = C_(i+j mod d), and
    C_i + C_j = g^i (1 + g^(j-i) G) G.  So row i of the sums is one list of
    sets S_k, k = j - i mod d, turned by i: S_k holds the cosets of the
    Zech sums 1 + g^(k + dt), and {0} joins it when 1 + g^e = 0 for one of
    those e (`DECISIONS.md`, "Field quotients from cosets and Zech
    logarithms").  1 + g^e is read off the tables: adding 1 changes only
    the lowest base-p digit of a code.  The carrier cap comes before the
    log tables."""
    F = Q.field
    p, d = F.p, (F.q - 1) // Q.order
    if d + 1 > CARRIER_CAP:
        raise CapError("carrier cap exceeded")
    _, exp, log = gf.log_tables(F)
    cosets = [sorted(exp[i::d]) for i in range(d)]
    # coset i at carrier index at[i]; disjoint cosets sort by least code
    order = sorted(range(d), key=cosets.__getitem__)
    at = [0] * d
    for x, i in enumerate(order, 1):
        at[i] = x
    # the code p - 1 is -1, and 1 + (-1) = 0 lies in no coset
    sums = [{log[c + 1 - p if c % p == p - 1 else c + 1] % d
             for c in exp[k::d] if c != p - 1} for k in range(d)]
    minus = log[p - 1] % d
    n = d + 1
    bits = [1 << x for x in at]
    prod = [[0] * n] + [None] * d
    hyperadd = [[1 << x for x in range(n)]] + [None] * d
    for i, x in enumerate(at):
        # C_i + C_(i+k) for each k, then moved to column j = i + k
        turned = bits[i:] + bits[:i]
        row = [sum(map(turned.__getitem__, S)) for S in sums]
        row[minus] |= 1
        row = row[d - i:] + row[:d - i]
        hyperadd[x] = [1 << x] + [row[j] for j in order]
        products = at[i:] + at[:i]
        prod[x] = [0] + [products[j] for j in order]
    labels = ["{0}"] + ["{" + ",".join(map(str, cosets[i])) + "}"
                        for i in order]
    T = HyperTable(labels, 0, at[0], prod, hyperadd)
    T.quotient = Q
    return T


def field_quotient_table(q, m):
    """GF(q^m) / GF(q)^x as a hypertable.

    For q = 2 the unit group GF(2)^x is trivial, so the result is the field
    GF(2^m) itself: a hyperfield with singleton sums and x + x = {0}, not an
    extension of the two-element hyperfield K."""
    return quotient_hyperring(field_quotient_spec(q, m))


def field_quotient_spec(q, m):
    """The `QuotientSpec` of `field_quotient_table(q, m)`."""
    p, a = gf.factor_prime_power(q)
    gf.check_field_size(p, a * m)
    # {0} and the (q^m - 1)/(q - 1) orbits of GF(q)^x: refused before the
    # field builds its tables
    if (q ** m - 1) // (q - 1) + 1 > CARRIER_CAP:
        raise CapError("carrier cap exceeded")
    F = gf.GF(p, a * m)
    if q == 2:
        gens = (1,)
    else:
        # GF(q)^x = <g^((q^m - 1)/(q - 1))>, read off the field's log tables
        _, exp, _ = gf.log_tables(F)
        gens = (exp[(F.q - 1) // (q - 1)],)
    return QuotientSpec(F, gens)


def contains_krasner(T):
    """Whether {0bar, 1bar} is closed as a sub-hypertable, i.e. the
    two-element hyperfield maps into T in the inclusion sense
    (1+1 a subset of {0,1}).  For field quotients this is equivalent to
    {0} + G being a subfield of the field."""
    z, o = T.zero, T.one
    sub = (1 << z) | (1 << o)
    for x in (z, o):
        for y in (z, o):
            if T.hyperadd[x][y] & ~sub:
                return False
            if T.mul[x][y] not in (z, o):
                return False
    return True


def subfield_test(Q):
    """Whether {0} union the unit subgroup G is a subfield of the field.

    GF(q)^x is cyclic: its one subgroup of order p^d - 1 is GF(p^d)^x when
    d | n, and p^d - 1 divides q - 1 only then.  So {0} u G is a subfield
    exactly when |G| + 1 (at most q) divides q."""
    return Q.field.q % (Q.order + 1) == 0


def is_k_vectorspace(T):
    """x + x = {0, x} for all nonzero x."""
    z = T.zero
    return all(T.hyperadd[x][x] == (1 << z | 1 << x)
               for x in range(T.n) if x != z)


def hyperfield_to_geometry(T):
    """Points = carrier minus zero; lines L(x,y) = (x+y) union {x,y}."""
    if not is_k_vectorspace(T):
        raise DomainError("table does not satisfy x + x = {0, x}")
    z, add = T.zero, T.hyperadd
    points = [x for x in range(T.n) if x != z]
    pidx = {x: i for i, x in enumerate(points)}
    # a line is a function of its mask, so each distinct mask is unpacked
    # once; pidx is increasing, so each line comes out sorted
    masks = {add[x][y] | 1 << x | 1 << y
             for i, x in enumerate(points) for y in points[i + 1:]}
    lines = {tuple(pidx[w] for w in _bits(m) if w != z) for m in masks}
    meta = {"construction": "hyperfield", "carrier": [T.labels[p] for p in points]}
    return IncidenceStructure(len(points), sorted(lines), meta)


def geometry_to_hyperfield(gamma, G, point_elements):
    """Rebuild the hypertable from a geometry with a group labeling.

    point_elements[i] is the group element labeling point i; the labels
    must be distinct and closed under the product, so they form a subgroup
    of order = number of points.  Requires >= 4 points per line.
    Hyperaddition: x + y = (line through x, y) minus {x, y} for x != y,
    and x + x = {0, x}."""
    lines = _long_lines(gamma)
    if len(point_elements) != gamma.npoints:
        raise DomainError(f"{len(point_elements)} labels for "
                          f"{gamma.npoints} points")
    for a in point_elements:
        G.validate(a)
    return _line_table(point_elements, G.mul, G.identity,
                       [G.canon(e) for e in point_elements], lines)


def _long_lines(gamma):
    """gamma's lines, which need four points each for associative sums."""
    if any(len(l) < 4 for l in gamma.lines):
        raise DomainError("need at least 4 points per line")
    return gamma.lines


def roundtrip_table(T):
    """hyperfield -> geometry -> hyperfield, labeling points by the
    nonzero carrier itself."""
    lines = _long_lines(hyperfield_to_geometry(T))
    pts = [x for x in range(T.n) if x != T.zero]
    return _line_table(pts, lambda a, b: T.mul[a][b], T.one,
                       [T.labels[x] for x in pts], lines)


def tables_equal(T1, T2):
    """Structural equality under the identity carrier correspondence
    (T2's carrier may be a reordering placing zero first)."""
    if T1.n != T2.n:
        return False
    if T1.zero == 0:
        # the correspondence is the identity, and a table's masks are
        # below 2^n, so equal cells are equal sets
        return T1.mul == T2.mul and T1.hyperadd == T2.hyperadd
    old = [T1.zero] + [x for x in range(T1.n) if x != T1.zero]
    # old[i] in T1 corresponds to index i in T2
    phi = [0] * T1.n
    for i, x in enumerate(old):
        phi[x] = i
    return _maps_onto(_Packed(T1.hyperadd), T1, T2, phi)


# ---------------------------------------------------------------------------
# isomorphism and classification

def tables_isomorphic(T1, T2):
    """Hypertable isomorphism fixing 0 and 1, as a dict, or None.

    An isomorphism restricts to an isomorphism of the unit groups, so it
    maps a generator g1 of T1's cyclic unit group to a generator of T2's,
    and that image fixes it.  A cyclic unit group matches no other kind;
    two tables whose unit groups are both not cyclic raise DomainError."""
    if T1.n != T2.n:
        return None
    n = T1.n
    g1 = cyclic_generator(lambda a, b: T1.mul[a][b], T1.one,
                          [x for x in range(n) if x != T1.zero])
    nonzero2 = [x for x in range(n) if x != T2.zero]
    if g1 is None:
        if cyclic_generator(lambda a, b: T2.mul[a][b], T2.one,
                            nonzero2) is not None:
            return None
        raise DomainError("neither unit group is cyclic")
    # map the cyclic generator to every candidate generator of T2
    packed = _Packed(T1.hyperadd)
    k = n - 1
    powers1 = [T1.one]
    x = g1
    while x != T1.one:
        powers1.append(x)
        x = T1.mul[x][g1]
    powers1 = powers1[1:] + [T1.one]  # g, g^2, ..., g^k = 1
    for g2 in nonzero2:
        powers2 = []
        y = g2
        for _ in range(k):
            powers2.append(y)
            y = T2.mul[y][g2]
        if powers2[-1] != T2.one or len(set(powers2)) != k:
            continue
        phi = {T1.zero: T2.zero}
        for a, b in zip(powers1, powers2):
            phi[a] = b
        if _maps_onto(packed, T1, T2, [phi[x] for x in range(n)]):
            return phi
    return None


def _maps_onto(packed, T1, T2, phi):
    """Whether the carrier map phi (a list) carries T1's product and
    hyperaddition onto T2's; `packed` is T1's hyperaddition."""
    return all([phi[m] for m in row] == [T2.mul[phi[x]][p] for p in phi]
               for x, row in enumerate(T1.mul)) and packed.carry_failure(
                   T2.hyperadd, phi) is None


def classify_extension(T, rep=None):
    """Place a finite hyperfield extension of the two-element hyperfield:
    (i) single-line group algebra, (ii) finite-field unit quotient, or the
    fallback 'plane-other' with the geometry as evidence.  `rep` is T's
    `check_axioms` report, when the caller already has it.

    GF(q^m)/GF(q)^x is PG(m - 1, q), with q + 1 points per line and
    (q^m - 1)/(q - 1) points.  An isomorphism maps lines to lines, so q and
    m are read off T's geometry and only that one quotient is compared.
    The quotient depends only on its spec, (F, |G|), so a table that
    `quotient_hyperring` built from a spec equal to that quotient's is
    that quotient, and it is answered without building it again."""
    if rep is None:
        rep = check_axioms(T)
    if not rep.passed():
        raise DomainError(f"not a hyperfield: {rep.to_json()['axioms']}")
    if not is_k_vectorspace(T):
        raise DomainError("not an extension of the two-element hyperfield")
    if T.n == 2:
        return {"case": "field-quotient", "q": None, "m": 1,
                "note": "degenerate: the base hyperfield itself"}
    gamma = hyperfield_to_geometry(T)
    if gamma.nlines == 1:
        return {"case": "single-line", "group_order": T.n - 1}
    q, m, size = len(gamma.lines[0]) - 1, 1, 1
    while size < T.n - 1:
        size, m = size * q + 1, m + 1
    if q > 1 and size == T.n - 1 and len(gf.prime_divisors(q)) == 1:
        Q = field_quotient_spec(q, m)
        if (T.quotient == Q
                or tables_isomorphic(T, quotient_hyperring(Q)) is not None):
            return {"case": "field-quotient", "q": q, "m": m}
    cert = verify_plane(gamma)
    return {"case": "plane-other", "plane": cert.to_json()}
