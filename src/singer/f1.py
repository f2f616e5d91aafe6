"""Combinatorial projective spaces with m+1 fibers of size n, each carrying
a free cyclic action, and their monomial automorphism groups C_n wr S_{m+1}.

Two regular-group constructions are provided: the direct product of a
sharply transitive fiber permutation group with the diagonal twist group,
and the induced action of any transitive group whose point stabilizers are
cyclic of order n.  Embeddings between levels i | j realize the directed
system whose limit acts on the union of all levels."""

import itertools

from .errors import DomainError, CapError, Certificate
from . import gf
from .groups import (Monomial, Symmetric, closure, cyclic_generator,
                     subgroup_generators)

F1_POINT_CAP = 10 ** 4


def space_size(m, n):
    """The n(m + 1) points of `F1Space(m, n)`, or the error it raises."""
    if m < 1 or n < 1:
        raise DomainError("need m >= 1 and n >= 1")
    if n * (m + 1) > F1_POINT_CAP:
        raise CapError(f"point cap {F1_POINT_CAP} exceeded")
    return n * (m + 1)


class F1Space:
    """m+1 disjoint fibers of size n; points are (fiber, twist) pairs."""

    def __init__(self, m, n):
        self.npoints = space_size(m, n)
        self.m = m
        self.n = n
        self.points = [(i, t) for i in range(m + 1) for t in range(n)]
        self.aut = Monomial(n, m + 1)

    def __repr__(self):
        return f"<f1 space m={self.m} n={self.n}>"


class ActionGroup:
    """A set of monomial automorphisms acting on an F1Space."""

    def __init__(self, space, elements, construction):
        self.space, self.elements = space, elements
        self.construction = construction

    @property
    def order(self):
        return len(self.elements)


class RegularityCertificate(Certificate):
    def to_json(self):
        return {"regular": self.ok, "detail": self.detail}


def verify_regular(action):
    """Sharp-transitivity check: every ordered point pair has exactly one
    mover.

    The elements must form a subgroup H of order N = |points|.  Then the
    movers of (p, q) are a coset of the stabilizer of p or empty, so every
    pair has one mover iff the orbit of points[0] has N points; otherwise
    the first pair with another count is (points[0], points[0]), with the
    stabilizer's N / |orbit| movers (DECISIONS.md, "Subgroups from
    generators")."""
    sp = action.space
    aut = sp.aut
    N = sp.npoints
    for g in action.elements:
        aut.validate(g)
    if len(set(action.elements)) != len(action.elements):
        return RegularityCertificate(False, {"reason": "repeated elements"})
    if action.order != N:
        return RegularityCertificate(
            False, {"reason": "order != points",
                    "order": action.order, "points": N})
    if subgroup_generators(aut.mul, aut.identity, action.elements) is None:
        return RegularityCertificate(
            False, {"reason": "not closed under composition"})
    p0 = sp.points[0]
    orbit = {aut.act(g, p0) for g in action.elements}
    if len(orbit) != N:
        return RegularityCertificate(
            False, {"reason": "pair with mover count != 1",
                    "pair": [list(p0), list(p0)],
                    "count": N // len(orbit)})
    return RegularityCertificate(True, {"order": N})


# ---------------------------------------------------------------------------
# permutation-group helpers (image-tuple convention from groups.Symmetric)

def _symmetric(degree, perms):
    """S_degree, after checking that every entry of perms is in it."""
    S = Symmetric(degree)
    for g in perms:
        S.validate(g)
    return S


def perm_closure(degree, generators):
    """Subgroup of S_degree generated by the given image tuples."""
    S = _symmetric(degree, generators)
    return sorted(closure(S.mul, generators, [S.identity]))


def cyclic_shift_group(degree):
    shift = tuple((i + 1) % degree for i in range(degree))
    return perm_closure(degree, [shift])


def dihedral_group(degree):
    shift = tuple((i + 1) % degree for i in range(degree))
    flip = tuple((-i) % degree for i in range(degree))
    return perm_closure(degree, [shift, flip])


def alternating_group(degree):
    """A_degree, generated by the 3-cycles (0 1 k)."""
    return perm_closure(degree, [
        tuple({0: 1, 1: k, k: 0}.get(i, i) for i in range(degree))
        for k in range(2, degree)])


def full_symmetric_group(degree):
    return list(itertools.permutations(range(degree)))


def affine_group(p, k):
    """{x -> ax + b mod p} with a ranging over the order-k subgroup of
    (Z/p)^x; transitive on p points with cyclic stabilizers of order k."""
    if k < 1:
        raise DomainError(f"k must be >= 1, not {k}")
    if (p - 1) % k != 0:
        raise DomainError(f"{k} does not divide {p - 1}")
    g = gf.GF(p).primitive_element()
    a0 = pow(g, (p - 1) // k, p)
    shift = tuple((i + 1) % p for i in range(p))
    mult = tuple((a0 * i) % p for i in range(p))
    return perm_closure(p, [shift, mult])


def is_sharply_transitive(degree, perms):
    if len(perms) != degree:
        return False
    images = {g[0] for g in perms}
    if len(images) != degree:
        return False
    S = _symmetric(degree, perms)
    return subgroup_generators(S.mul, S.identity, perms) is not None


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
    return ActionGroup(sp, els, "diagonal")


def singer_general(S, n=None):
    """Induced regular action of a transitive permutation group with cyclic
    point stabilizers of order n.

    Fibers are indexed by the permuted points; the fiber over point i is the
    right coset (stabilizer of 0) * g_i, with the free cyclic action given by
    left multiplication by a stabilizer generator.  Right multiplication by
    the group is then monomial, and the resulting action is regular."""
    S = list(S)
    degree = len(S[0])
    Sym = _symmetric(degree, S)
    if subgroup_generators(Sym.mul, Sym.identity, S) is None:
        raise DomainError("input is not closed under composition")
    if {g[0] for g in S} != set(range(degree)):
        raise DomainError("group is not transitive")
    stab = [g for g in S if g[0] == 0]
    if n is None:
        n = len(stab)
    if len(stab) != n:
        raise DomainError(f"stabilizer has order {len(stab)}, expected {n}")
    sigma = cyclic_generator(Sym.mul, Sym.identity, sorted(stab))
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
    return ActionGroup(sp, els, "stabilizer-coset")


# ---------------------------------------------------------------------------
# embeddings and the directed system

class EmbeddingCertificate(Certificate):
    def __init__(self, ok, detail=None, group_map=None, point_map=None):
        super().__init__(ok, detail)
        self.group_map, self.point_map = group_map, point_map


def embed_singer(m, i, j, S=None):
    """Embedding of the level-i regular group into the level-j one for
    i | j: diagonal twist k -> k*(j/i), point (f, t) -> (f, t*(j/i))."""
    if j % i != 0:
        raise DomainError(f"{i} does not divide {j}")
    r = j // i
    Ai = singer_first(m, i, S)
    Aj = singer_first(m, j, S)
    gmap = {(s, tw): (s, tuple(t * r for t in tw)) for (s, tw) in Ai.elements}
    pmap = {(f, t): (f, t * r) for (f, t) in Ai.space.points}
    return certify_embedding(Ai, Aj, gmap, pmap)


def certify_embedding(Ai, Aj, gmap, pmap):
    """Whether gmap is an injective homomorphism from Ai's group into Aj's
    and pmap is equivariant along it.

    Both are checked against generators T of Ai's group only: phi(a*t) =
    phi(a)*phi(t) for all a and all t in T makes phi a homomorphism, and
    equivariance for a homomorphism passes from g and h to g*h
    (DECISIONS.md, "Subgroups from generators").  A source that is not a
    group, or is trivial (T empty), is checked on every pair."""
    auti, autj = Ai.space.aut, Aj.space.aut
    detail = {"m": Ai.space.m, "i": Ai.space.n, "j": Aj.space.n,
              "order_from": Ai.order, "order_to": Aj.order}
    T = (subgroup_generators(auti.mul, auti.identity, Ai.elements)
         or Ai.elements)
    elsj = set(Aj.elements)
    if len(set(gmap.values())) != len(gmap):
        return EmbeddingCertificate(False, dict(detail, reason="not injective"))
    for g in gmap.values():
        if g not in elsj:
            return EmbeddingCertificate(
                False, dict(detail, reason="image leaves the target group"))
    for a in Ai.elements:
        for t in T:
            if gmap[auti.mul(a, t)] != autj.mul(gmap[a], gmap[t]):
                return EmbeddingCertificate(
                    False, dict(detail, reason="not a homomorphism",
                                pair=[auti.canon(a), auti.canon(t)]))
    for t in T:
        for p in Ai.space.points:
            if pmap[auti.act(t, p)] != autj.act(gmap[t], pmap[p]):
                return EmbeddingCertificate(
                    False, dict(detail, reason="not equivariant",
                                witness=[auti.canon(t), list(p)]))
    return EmbeddingCertificate(True, detail, gmap, pmap)


def direct_limit_demo(m, chain, S=None):
    """Coherence of the chain n_1 | n_2 | ...: consecutive embeddings
    compose to the direct one, and each level is regular."""
    chain = list(chain)
    if not 1 <= len(chain) <= 8:
        raise DomainError("chain length must be between 1 and 8")
    if min(chain) < 1:
        raise DomainError(f"chain entries must be >= 1, not {min(chain)}")
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
