"""Combinatorial projective spaces with m+1 fibers of size n, each carrying
a free cyclic action, and their monomial automorphism groups C_n wr S_{m+1}.

Two regular-group constructions are provided: the direct product of a
sharply transitive fiber permutation group with the diagonal twist group,
and the induced action of any transitive group whose point stabilizers are
cyclic of order n.  Embeddings between levels i | j realize the directed
system whose limit acts on the union of all levels."""

import itertools
from dataclasses import dataclass, field
from math import factorial, gcd

from .errors import DomainError, CapError
from . import gf
from .groups import Monomial, Symmetric

F1_POINT_CAP = 10 ** 4
SURVEY_CANDIDATE_BUDGET = 8000


class F1Space:
    """m+1 disjoint fibers of size n; points are (fiber, twist) pairs."""

    def __init__(self, m, n):
        if m < 1 or n < 1:
            raise DomainError("need m >= 1 and n >= 1")
        if n * (m + 1) > F1_POINT_CAP:
            raise CapError(f"point cap {F1_POINT_CAP} exceeded")
        self.m = m
        self.n = n
        self.npoints = n * (m + 1)
        self.points = [(i, t) for i in range(m + 1) for t in range(n)]
        self.aut = Monomial(n, m + 1)

    def rotate(self, point, k=1):
        """The free cyclic action on a fiber."""
        i, t = point
        return (i, (t + k) % self.n)

    def __repr__(self):
        return f"<f1 space m={self.m} n={self.n}>"


@dataclass
class ActionGroup:
    """A set of monomial automorphisms acting on an F1Space."""
    space: F1Space
    elements: list
    construction: str
    meta: dict = field(default_factory=dict)

    @property
    def order(self):
        return len(self.elements)


@dataclass
class RegularityCertificate:
    ok: bool
    detail: dict

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"regular": self.ok, "detail": self.detail}


def verify_regular(action):
    """Exhaustive sharp-transitivity check: every ordered point pair has
    exactly one mover."""
    sp = action.space
    aut = sp.aut
    pidx = {p: k for k, p in enumerate(sp.points)}
    N = sp.npoints
    for g in action.elements:
        aut.validate(g)
    if len(set(action.elements)) != len(action.elements):
        return RegularityCertificate(False, {"reason": "repeated elements"})
    if action.order != N:
        return RegularityCertificate(
            False, {"reason": "order != points",
                    "order": action.order, "points": N})
    counts = [[0] * N for _ in range(N)]
    for g in action.elements:
        for k, p in enumerate(sp.points):
            counts[k][pidx[aut.act(g, p)]] += 1
    for a in range(N):
        for b in range(N):
            if counts[a][b] != 1:
                return RegularityCertificate(
                    False, {"reason": "pair with mover count != 1",
                            "pair": [list(sp.points[a]), list(sp.points[b])],
                            "count": counts[a][b]})
    els = set(action.elements)
    for g in action.elements:
        for h in action.elements:
            if aut.mul(g, h) not in els:
                return RegularityCertificate(
                    False, {"reason": "not closed under composition"})
    return RegularityCertificate(True, {"order": N})


# ---------------------------------------------------------------------------
# permutation-group helpers (image-tuple convention from groups.Symmetric)

def perm_closure(degree, generators):
    """Subgroup of S_degree generated by the given image tuples."""
    S = Symmetric(degree)
    for g in generators:
        S.validate(g)
    e = S.identity
    group = {e}
    frontier = [e]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = S.mul(x, g)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return sorted(group)


def cyclic_shift_group(degree):
    shift = tuple((i + 1) % degree for i in range(degree))
    return perm_closure(degree, [shift])


def dihedral_group(degree):
    shift = tuple((i + 1) % degree for i in range(degree))
    flip = tuple((-i) % degree for i in range(degree))
    return perm_closure(degree, [shift, flip])


def alternating_group(degree):
    return [p for p in itertools.permutations(range(degree))
            if _parity(p) == 0]


def full_symmetric_group(degree):
    return list(itertools.permutations(range(degree)))


def affine_group(p, k):
    """{x -> ax + b mod p} with a ranging over the order-k subgroup of
    (Z/p)^x; transitive on p points with cyclic stabilizers of order k."""
    if (p - 1) % k != 0:
        raise DomainError(f"{k} does not divide {p - 1}")
    g = gf.GF(p).primitive_element()
    a0 = pow(g, (p - 1) // k, p)
    shift = tuple((i + 1) % p for i in range(p))
    mult = tuple((a0 * i) % p for i in range(p))
    return perm_closure(p, [shift, mult])


def _parity(p):
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


def is_sharply_transitive(degree, perms):
    if len(perms) != degree:
        return False
    images = {g[0] for g in perms}
    if len(images) != degree:
        return False
    return set(perm_closure(degree, perms)) == set(perms)


# ---------------------------------------------------------------------------
# the two regular-group constructions

def singer_first(m, n, S=None):
    """Direct product of a sharply transitive fiber group with the diagonal
    twist group: elements (s, (k,...,k)), order n(m+1)."""
    sp = F1Space(m, n)
    if S is None:
        S = cyclic_shift_group(m + 1)
    S = list(S)
    if not is_sharply_transitive(m + 1, S):
        raise DomainError("fiber group is not sharply transitive")
    els = [(s, (k,) * (m + 1)) for s in sorted(S) for k in range(n)]
    return ActionGroup(sp, els, "diagonal",
                       {"m": m, "n": n, "fiber_group_order": len(S)})


def singer_general(S, n=None):
    """Induced regular action of a transitive permutation group with cyclic
    point stabilizers of order n.

    Fibers are indexed by the permuted points; the fiber over point i is the
    right coset (stabilizer of 0) * g_i, with the free cyclic action given by
    left multiplication by a stabilizer generator.  Right multiplication by
    the group is then monomial, and the resulting action is regular."""
    S = list(S)
    degree = len(S[0])
    Sym = Symmetric(degree)
    if set(perm_closure(degree, S)) != set(S):
        raise DomainError("input is not closed under composition")
    if {g[0] for g in S} != set(range(degree)):
        raise DomainError("group is not transitive")
    stab = [g for g in S if g[0] == 0]
    if n is None:
        n = len(stab)
    if len(stab) != n:
        raise DomainError(f"stabilizer has order {len(stab)}, expected {n}")
    sigma = None
    for c in sorted(stab):
        x, seen = c, 1
        while x != Sym.identity:
            x = Sym.mul(x, c)
            seen += 1
        if seen == len(stab):
            sigma = c
            break
    if sigma is None:
        raise DomainError("point stabilizer is not cyclic")
    m = degree - 1
    sp = F1Space(m, n) if m >= 1 else None
    if sp is None:
        raise DomainError("need at least 2 permuted points")
    # coset representatives: g_i = least element sending 0 to i
    reps = [None] * degree
    for g in sorted(S):
        if reps[g[0]] is None:
            reps[g[0]] = g
    # decompose sigma^t * g_i once so each group element maps to (perm, twist)
    elem_pos = {}
    x = Sym.identity
    for t in range(n):
        for i in range(degree):
            elem_pos[Sym.mul(x, reps[i])] = (i, t)
        x = Sym.mul(x, sigma)
    els = []
    for h in sorted(S):
        perm = [0] * degree
        tw = [0] * degree
        for i in range(degree):
            j, c = elem_pos[Sym.mul(reps[i], h)]
            perm[i] = j
            tw[i] = c
        els.append((tuple(perm), tuple(tw)))
    return ActionGroup(sp, els, "stabilizer-coset",
                       {"m": m, "n": n, "perm_group_order": len(S)})


# ---------------------------------------------------------------------------
# embeddings and the directed system

@dataclass
class EmbeddingCertificate:
    ok: bool
    detail: dict
    group_map: dict = None
    point_map: dict = None

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"embedding": self.ok, "detail": self.detail}


def embed_singer(m, i, j, S=None):
    """Embedding of the level-i regular group into the level-j one for
    i | j: diagonal twist k -> k*(j/i), point (f, t) -> (f, t*(j/i))."""
    if j % i != 0:
        raise DomainError(f"{i} does not divide {j}")
    r = j // i
    Ai = singer_first(m, i, S)
    Aj = singer_first(m, j, S)
    autj = Aj.space.aut
    gmap = {}
    for (s, tw) in Ai.elements:
        gmap[(s, tw)] = (s, tuple(t * r for t in tw))
    pmap = {(f, t): (f, t * r) for (f, t) in Ai.space.points}
    elsj = set(Aj.elements)
    detail = {"m": m, "i": i, "j": j,
              "order_from": Ai.order, "order_to": Aj.order}
    if len(set(gmap.values())) != len(gmap):
        return EmbeddingCertificate(False, dict(detail, reason="not injective"))
    for g in gmap.values():
        if g not in elsj:
            return EmbeddingCertificate(
                False, dict(detail, reason="image leaves the target group"))
    auti = Ai.space.aut
    for a in Ai.elements:
        for b in Ai.elements:
            if gmap[auti.mul(a, b)] != autj.mul(gmap[a], gmap[b]):
                return EmbeddingCertificate(
                    False, dict(detail, reason="not a homomorphism",
                                pair=[auti.canon(a), auti.canon(b)]))
    for g in Ai.elements:
        for p in Ai.space.points:
            if pmap[auti.act(g, p)] != autj.act(gmap[g], pmap[p]):
                return EmbeddingCertificate(
                    False, dict(detail, reason="not equivariant",
                                witness=[auti.canon(g), list(p)]))
    return EmbeddingCertificate(True, detail, gmap, pmap)


def direct_limit_demo(m, chain, S=None):
    """Coherence of the chain n_1 | n_2 | ...: consecutive embeddings
    compose to the direct one, and each level is regular."""
    chain = list(chain)
    if not 1 <= len(chain) <= 8:
        raise DomainError("chain length must be between 1 and 8")
    for a, b in zip(chain, chain[1:]):
        if b % a != 0:
            raise DomainError(f"chain not divisible: {a} does not divide {b}")
    stages = []
    embeds = []
    for n in chain:
        A = singer_first(m, n, S)
        cert = verify_regular(A)
        stages.append({"n": n, "order": A.order, "regular": cert.ok})
        if not cert.ok:
            raise DomainError(f"level {n} failed regularity: {cert.detail}")
    for a, b in zip(chain, chain[1:]):
        e = embed_singer(m, a, b, S)
        if not e.ok:
            raise DomainError(f"embedding {a}->{b} failed: {e.detail}")
        embeds.append(e)
    coherent = True
    for k in range(len(chain) - 2):
        direct = embed_singer(m, chain[k], chain[k + 2], S)
        step1, step2 = embeds[k], embeds[k + 1]
        for g, img in direct.group_map.items():
            if step2.group_map[step1.group_map[g]] != img:
                coherent = False
        for p, img in direct.point_map.items():
            if step2.point_map[step1.point_map[p]] != img:
                coherent = False
    return {"m": m, "chain": chain, "stages": stages, "coherent": coherent}


# ---------------------------------------------------------------------------
# exhaustive cross-check: every point-regular subgroup of the monomial group
# has transitive fiber action with cyclic fiber-stabilizers

def fiber_stabilizer_cyclic(space, elements):
    """Whether the fiber-0 stabilizer of a regular group is cyclic of
    order n (the structural shape produced by the coset construction)."""
    aut = space.aut
    stab = [g for g in elements if g[0][0] == 0]
    if len(stab) != space.n:
        return False
    for c in stab:
        x, seen = c, 1
        while x != aut.identity:
            x = aut.mul(x, c)
            seen += 1
            if seen > len(stab):
                break
        if seen == len(stab):
            return True
    return space.n == 1 and stab == [aut.identity]


def regular_subgroup_survey(m, n):
    """Enumerate every point-regular subgroup of the monomial group and
    check each one is transitive on fibers with a cyclic fiber-stabilizer
    (the shape the stabilizer-coset construction produces).

    The search is exhaustive only when the per-slot candidate count
    n^m * m! fits the budget; otherwise the structural argument is
    reported: the fiber-0 stabilizer of a point-regular group maps
    injectively and surjectively onto the twist group of fiber 0 via
    g -> twist_0(g), hence is cyclic of order n."""
    sp = F1Space(m, n)
    aut = sp.aut
    N = sp.npoints
    per_slot = (n ** m) * factorial(m)
    if per_slot * N > SURVEY_CANDIDATE_BUDGET:
        return {"m": m, "n": n, "mode": "structural",
                "confirmed": True,
                "note": ("candidate count per search slot exceeds budget; "
                         "claim holds structurally: twist_0 restricted to "
                         "the fiber-0 stabilizer of a point-regular group "
                         "is an isomorphism onto C_n")}
    base = sp.points[0]
    pidx = {p: k for k, p in enumerate(sp.points)}

    # candidates[k]: fixed-point-free elements sending base to point k
    candidates = [[] for _ in range(N)]
    for g in aut.elements():
        perm, tw = g
        if g != aut.identity and any(
                perm[i] == i and tw[i] == 0 for i in range(m + 1)):
            continue
        candidates[pidx[aut.act(g, base)]].append(g)

    found = []
    bad = []

    def close(current, gens):
        group = set(current)
        frontier = list(current)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = aut.mul(x, g)
                if y not in group:
                    if len(group) >= N:
                        return None
                    perm, tw = y
                    if y != aut.identity and any(
                            perm[i] == i and tw[i] == 0
                            for i in range(m + 1)):
                        return None
                    group.add(y)
                    frontier.append(y)
        images = [pidx[aut.act(g, base)] for g in group]
        if len(set(images)) != len(images):
            return None
        return group

    def rec(group):
        covered = {pidx[aut.act(g, base)] for g in group}
        if len(group) == N:
            found.append(frozenset(group))
            if not fiber_stabilizer_cyclic(sp, group):
                bad.append(sorted(aut.canon(g) for g in group))
            return
        target = min(k for k in range(N) if k not in covered)
        for g in candidates[target]:
            newg = close(group | {g}, list(group) + [g])
            if newg is not None:
                rec(newg)

    rec(frozenset({aut.identity}))
    unique = set(found)
    return {"m": m, "n": n, "mode": "exhaustive",
            "regular_subgroups": len(unique),
            "confirmed": not bad,
            "counterexamples": bad}
