"""Finite incidence structures: plane axioms, PG(m, q) and Singer
actions.  Collineation fixed points live in `collineations`.

Incidence is stored as one bitmask of point indices per line.  The
line-pair kernel of `_backend` decides "two lines meet once" on those
masks from the reach of each point; coverage, the quadrangle and the
order of a plane then follow from the line sizes."""

import itertools
from functools import reduce
from operator import itemgetter, lshift, or_

from .errors import DomainError, CapError, Certificate
from . import gf
from ._backend import line_pair_witness, coverage_witness, _points
from .groups import Cyclic, subgroup_generators

POINT_CAP = 10 ** 5
# The most point-line incidences, v(v - 1)/q, that PG(m, q) may have.  It
# admits PG(10, 2) (2.1M) and PG(7, 3) (3.6M); PG(11, 2) would have 8.4M
# and need gigabytes.
INCIDENCE_CAP = 2 ** 22


def _mask(points):
    """The bitmask of an iterable of point indices."""
    return reduce(or_, map(lshift, itertools.repeat(1), points), 0)


class IncidenceStructure:
    """Points 0..n-1 and lines as sorted point-index tuples."""

    def __init__(self, npoints, lines, meta=None):
        if type(npoints) is not int or npoints < 0:
            raise DomainError(f"points must be a nonnegative integer, "
                              f"not {npoints!r}")
        if npoints > POINT_CAP:
            raise CapError(f"point cap {POINT_CAP} exceeded")
        if not isinstance(lines, (list, tuple)):
            raise DomainError("lines must be a list of point lists")
        if not isinstance(meta, (dict, type(None))):
            raise DomainError("meta must be an object")
        self.npoints = npoints
        self.lines = []
        seen = set()
        self.masks = []
        for l in lines:
            if not (isinstance(l, (list, tuple))
                    and set(map(type, l)) <= {int} and min(l, default=0) >= 0
                    and max(l, default=-1) < npoints):
                raise DomainError(f"line {l!r} is not a list of point "
                                  f"indices below {npoints}")
            mask = _mask(l)
            if mask.bit_count() != len(l):
                raise DomainError(f"repeated point in line {l!r}")
            if mask in seen:
                raise DomainError("repeated line")
            seen.add(mask)
            self.lines.append(tuple(sorted(l)))
            self.masks.append(mask)
        self.meta = dict(meta or {})

    @classmethod
    def _trusted(cls, npoints, lines, meta):
        """A structure from a builder whose lines are a list of sorted
        tuples of distinct ints below npoints; each call site says why.  It
        checks the point cap, and repeated lines, as an empty set gives."""
        if npoints > POINT_CAP:
            raise CapError(f"point cap {POINT_CAP} exceeded")
        self = cls.__new__(cls)
        self.npoints, self.lines, self.meta = npoints, lines, meta
        self.masks = list(map(_mask, lines))
        if len(set(self.masks)) != len(self.masks):
            raise DomainError("repeated line")
        return self

    @property
    def nlines(self):
        return len(self.lines)

    def to_json(self):
        return {
            "points": self.npoints,
            "lines": [list(l) for l in self.lines],
            "meta": self.meta,
        }

    @staticmethod
    def from_json(obj):
        if not (isinstance(obj, dict) and "points" in obj and "lines" in obj):
            raise DomainError("an incidence structure needs points and lines")
        return IncidenceStructure(obj["points"], obj["lines"],
                                  obj.get("meta"))

    def __repr__(self):
        return f"<incidence {self.npoints}p/{self.nlines}l>"


class PlaneCertificate:
    def __init__(self, ok, order, checks, counterexample=None):
        self.ok, self.order, self.checks = ok, order, checks
        self.counterexample = counterexample

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, "order": self.order, "checks": self.checks,
                "counterexample": self.counterexample}


def verify_plane(gamma):
    """Exhaustive check of the three projective-plane axioms.

    Once the kernel scan finds every two lines meeting once, no point
    pair is on two lines, so all are covered exactly when the lines hold
    v(v - 1)/2 pairs; `coverage_witness` only names a pair that is not.
    Then the structure has a quadrangle exactly when it has two lines and
    each line has at least three points: two points of one line, off its
    common point with a second line, and two such points of the second
    line form one.  The structure is then a projective plane, so its
    lines have n + 1 points each and it has n^2 + n + 1 points
    (`DECISIONS.md`, "Planes from the pair axioms and the line sizes")."""
    checks = {"two-points-one-line": True, "two-lines-one-point": True,
              "quadrangle-exists": True}

    w = line_pair_witness(gamma.masks, 1, 1)
    if w is not None:
        i, j, c = w
        if c == 0:
            checks["two-lines-one-point"] = False
            cx = {"lines": [i, j], "common_points": 0}
        else:
            checks["two-points-one-line"] = False
            p, q, *_ = _points(gamma.masks[i] & gamma.masks[j])
            cx = {"points": [p, q], "lines": [i, j]}
        return PlaneCertificate(False, None, checks, cx)

    v = gamma.npoints
    if sum(k * (k - 1) for k in map(len, gamma.lines)) != v * (v - 1):
        checks["two-points-one-line"] = False
        w = coverage_witness(v, gamma.masks)
        return PlaneCertificate(False, None, checks,
                                {"points": list(w), "lines": []})

    if gamma.nlines < 2 or min(map(len, gamma.lines)) < 3:
        checks["quadrangle-exists"] = False
        return PlaneCertificate(False, None, checks, {"points": []})
    return PlaneCertificate(True, len(gamma.lines[0]) - 1, checks)


def plane_from_difference_set(G, S):
    """Points = lines = G; point x on line y iff x y^-1 in S.

    x y^-1 is in S exactly when x is in S y, so line y is the translate
    {s y : s in S}: O(|G| |S|) products instead of O(|G|^2)."""
    if G.order is None:
        raise DomainError("finite groups only")
    if not S.certified:
        raise DomainError("difference set must be certified")
    if S.group != G:
        raise DomainError(f"difference set lives in {S.group.spec_string()}, "
                          f"not in {G.spec_string()}")
    els = list(G.elements())
    if isinstance(G, Cyclic):
        # exact: G lists 0..v-1 in order and multiplies by (a + b) mod v,
        # and ring[s + y] is (s + y) mod v as one shared int per point
        ring = els * 2
        lines = [tuple(sorted([ring[s + y] for s in S.elements]))
                 for y in els]
    else:
        index = {e: i for i, e in enumerate(els)}
        lines = [tuple(sorted([index[G.mul(s, y)] for s in S.elements]))
                 for y in els]
    meta = {"construction": "difference-set", "group": G.spec_string(),
            "elements": [G.canon(e) for e in els]}
    # S lists distinct elements of G, and s -> s y is a bijection, so each
    # line holds distinct indices below |G| (DECISIONS.md, "Trusted builders")
    return IncidenceStructure._trusted(len(els), lines, meta)


def right_translation_action(G):
    """Action of G on its own element indices by right multiplication,
    defined for point indices 0 <= p < |G|."""
    if G.order is None:
        raise DomainError("finite groups only")
    if isinstance(G, Cyclic):
        # exact: a Cyclic group lists 0..v-1 in order and multiplies by
        # (a + b) mod v, so index[G.mul(els[p], g)] is (p + g) mod v
        v = G.order
        return lambda g, p: (p + g) % v
    els = list(G.elements())
    index = {e: i for i, e in enumerate(els)}

    def act(g, p):
        return index[G.mul(els[p], g)]

    return act


def _proj_points(F, dim):
    """Canonical representatives of the 1-spaces of F^dim (first nonzero
    coordinate 1), in product order."""
    pts = []
    for vec in itertools.product(range(F.q), repeat=dim):
        if not any(vec):
            continue
        if next(x for x in vec if x != 0) != 1:
            continue
        pts.append(vec)
    return pts


def _normalize(F, vec):
    """The canonical representative of the 1-space of vec, or None for 0."""
    lead = next((x for x in vec if x != 0), None)
    if lead is None:
        return None
    il = F.inv(lead)
    return tuple(F.mul(il, x) for x in vec)


def pg_size(q, m):
    """(p, a, v) for PG(m, q), with q = p^a and v points, before anything
    is built.  Raises CapError when GF(q^(m+1)) passes the field cap, which
    is checked first so that no huge power is formed, or when PG(m, q) has
    more than INCIDENCE_CAP incidences."""
    p, a = gf.factor_prime_power(q)
    if m < 1:
        raise DomainError("dimension must be >= 1")
    gf.check_field_size(p, a * (m + 1))
    v = (q ** (m + 1) - 1) // (q - 1)
    if v * (v - 1) // q > INCIDENCE_CAP:
        raise CapError(f"PG({m}, {q}) exceeds the cap of {INCIDENCE_CAP} "
                       f"point-line incidences")
    return p, a, v


def pg_space(m, q):
    """Points = 1-spaces, lines = 2-spaces of GF(q)^{m+1}, by coordinates.

    The reference for `pg_singer_structure` at small sizes: it spans every
    pair of points, O(v^2 q^2) field operations."""
    p_, a, v = pg_size(q, m)
    F = gf.GF(p_, a)
    dim = m + 1
    points = _proj_points(F, dim)
    index = {vec: i for i, vec in enumerate(points)}
    lines = set()
    for i, u in enumerate(points):
        for w in points[i + 1:]:
            line = set()
            for s in range(F.q):
                su = tuple(F.mul(s, x) for x in u)
                for t in range(F.q):
                    if s == 0 and t == 0:
                        continue
                    vec = tuple(F.add(su[k], F.mul(t, w[k]))
                                for k in range(dim))
                    line.add(index[_normalize(F, vec)])
            lines.add(tuple(sorted(line)))
    meta = {"construction": "pg", "m": m, "q": q}
    return IncidenceStructure(len(points), sorted(lines), meta)


def pg_singer_structure(q, m):
    """PG(m, q) with point i the 1-space of g^i, for g the primitive
    element of GF(q^{m+1}) seen as a GF(q)-space, so that the shift
    i -> i+1 (multiplication by g) is a collineation.

    The line through 0 and j is the 2-space spanned by 1 and g^j: the points
    0, j and log(1 + c g^j) mod v for c in GF(q)^x.  The shift maps lines to
    lines, so every line is the translate of a line through 0 by its least
    point t, and each line is built once, as L + t with max(L) + t < v.
    That is fewer than v field additions, against O(v^2 q^2) operations
    in `pg_space`."""
    p_, a, v = pg_size(q, m)
    F = gf.GF(p_, a * (m + 1))
    _, exp, log = gf.log_tables(F)
    N = F.q - 1
    through0 = []
    on_line = bytearray(v)
    for j in range(1, v):
        if on_line[j]:
            continue
        # c g^j = g^(kv + j), since GF(q)^x = <g^v>
        line = sorted({0, j} | {log[F.add(1, exp[(k * v + j) % N])] % v
                                for k in range(q - 1)})
        for x in line:
            on_line[x] = 1
        through0.append(line)
    lines = sorted(tuple(x + t for x in line)
                   for line in through0 for t in range(v - line[-1]))
    # each line is a sorted set of points plus t, below v
    return IncidenceStructure._trusted(v, lines, {"construction": "pg-singer",
                                                  "m": m, "q": q})


def _preserves_lines(gamma, images, line_masks):
    """Whether the point map `images` sends every line of gamma to a line."""
    return all(_mask(map(images.__getitem__, line)) in line_masks
               for line in gamma.lines)


def verify_singer_action(gamma, G, action):
    """Certify that every group element maps lines to lines and that the
    point action is regular (each ordered pair has exactly one mover).

    Only the identity and the generators T of G are mapped against the
    lines.  Each point's orbit column then proves pi(g t) = pi(t) o pi(g)
    for every g in G and t in T, so pi is a right action by composites
    of line-preserving maps, regular once it is regular at point 0
    (DECISIONS.md, "Singer actions from generators").  The action is
    still evaluated 2 |G| v times, but the line work falls from |G| to
    |T| + 1 maps.  Any failure returns the exhaustive certificate, so the
    result is the exhaustive one on every input."""
    if G.order is None:
        raise DomainError("finite groups only")
    els = G.enumerate(G.order)
    npts = gamma.npoints
    T = subgroup_generators(G.mul, G.identity, els)
    if T is None or len(els) != npts:
        return _exhaustive_singer_action(gamma, G, action)
    points = list(range(npts))
    checked = set(T) | {G.identity}
    rows = {}
    for g in els:
        images = [action(g, p) for p in points]
        if sorted(images) != points:
            return _exhaustive_singer_action(gamma, G, action)
        if g in checked:
            rows[g] = images
    line_masks = set(gamma.masks)
    if not all(_preserves_lines(gamma, images, line_masks)
               for images in rows.values()):
        return _exhaustive_singer_action(gamma, G, action)
    index = {g: i for i, g in enumerate(els)}
    # each pick takes, from a column over els, the entries at els[i] * t
    # for one generator t.  An itemgetter of one index returns a scalar,
    # not a 1-tuple; both sides of the comparison below take that form
    # alike.
    picks = [(itemgetter(*[index[G.mul(g, t)] for g in els]), rows[t])
             for t in T]
    for p in points:
        col = [action(g, p) for g in els]
        # a right action with a trivial stabilizer at 0 has only trivial
        # ones, since they are conjugate: one column proves regularity
        if p == 0 and sorted(col) != points:
            return _exhaustive_singer_action(gamma, G, action)
        at_col = itemgetter(*col)
        for pick, row in picks:
            if pick(col) != at_col(row):
                return _exhaustive_singer_action(gamma, G, action)
    return Certificate(True, {"group_order": len(els), "points": npts})


def _exhaustive_singer_action(gamma, G, action):
    """`verify_singer_action` by mapping every line through every group
    element: the reference, and the source of every failure report."""
    line_masks = set(gamma.masks)
    els = G.enumerate(G.order)
    npts = gamma.npoints
    for g in els:
        images = [action(g, p) for p in range(npts)]
        if sorted(images) != list(range(npts)):
            return Certificate(False, {"reason": "not a permutation",
                                       "g": G.canon(g)})
        if not _preserves_lines(gamma, images, line_masks):
            return Certificate(False, {
                "reason": "line not preserved", "g": G.canon(g)})
    for p in range(npts):
        seen = {}
        for g in els:
            q = action(g, p)
            if q in seen:
                return Certificate(False, {
                    "reason": "not free", "point": p,
                    "movers": [G.canon(seen[q]), G.canon(g)]})
            seen[q] = g
        if len(seen) != npts:
            return Certificate(False, {
                "reason": "not transitive", "point": p})
    return Certificate(True, {"group_order": len(els), "points": npts})
