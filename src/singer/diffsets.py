"""Partial and perfect difference sets, the classical cyclic construction,
and the greedy two-element successor builder with its abelian shortcut.

A subset S of a group is *partial* when the difference map
(a, b) -> a b^-1 on ordered pairs of distinct elements is injective, and
*perfect* when that map is a bijection onto the nonidentity elements.
The builder consumes target elements in enumeration order and, for each
target d not yet a difference, adjoins {x, d^-1 x} for the least x that
keeps the set partial; for abelian groups the absence of involutions
makes the conjugation collision impossible, which is checked up front and
asserted along the way.
"""

import hashlib
import json
from itertools import product, repeat

from .errors import DomainError, BoundedFailure, Certificate
from .groups import parse_group, has_involution, FieldQuotient
from . import gf

DEFAULT_SEARCH_BOUND = 10 ** 5


class PartialDifferenceSet:
    def __init__(self, group, elements, certified=False):
        for a in elements:
            group.validate(a)
        if len(set(elements)) != len(elements):
            raise DomainError("repeated element in a difference set")
        self.group, self.elements, self.certified = group, elements, certified

    @classmethod
    def _trusted(cls, group, elements, certified):
        """The set without the checks of `__init__`, for a builder that
        vouches for its elements; each call site says why."""
        S = object.__new__(cls)
        S.group, S.elements, S.certified = group, elements, certified
        return S

    def to_json(self):
        return {
            "group": self.group.spec_string(),
            "elements": [self.group.canon(e) for e in self.elements],
            "certified": self.certified,
        }

    @staticmethod
    def from_json(obj):
        if not (isinstance(obj, dict) and isinstance(obj.get("group"), str)
                and isinstance(obj.get("elements"), list)
                and all(isinstance(s, str) for s in obj["elements"])):
            raise DomainError("a difference set needs a group spec and a "
                              "list of element strings")
        G = parse_group(obj["group"])
        els = tuple(G.parse(s) for s in obj["elements"])
        return PartialDifferenceSet(G, els, bool(obj.get("certified", False)))


def differences(S):
    """{ a b^-1 : a, b in S, a != b } as a set.

    All k^2 products are formed and the identity is dropped after: the
    elements are distinct, so a b^-1 = e exactly when a = b."""
    G = S.group
    out = set()
    els = S.elements
    for b in els:
        out.update(map(G.mul, els, repeat(G.inv(b))))
    out.discard(G.identity)
    return out


def _difference_pairs(S):
    """Map difference -> list of ordered pairs producing it."""
    G = S.group
    out = {}
    invs = [(b, G.inv(b)) for b in S.elements]
    for a in S.elements:
        for b, b_inv in invs:
            if a != b:
                out.setdefault(G.mul(a, b_inv), []).append((a, b))
    return out


def verify_partial(S):
    """Certificate iff the difference map is injective; else the two
    colliding pairs are reported."""
    k = len(S.elements)
    diffs = differences(S)
    if len(diffs) == k * (k - 1):
        # one difference per ordered pair: the map is injective
        return Certificate(True, {"differences": len(diffs)})
    # the elements are distinct, so fewer differences than ordered pairs
    # means some difference comes from two pairs
    for d, ps in _difference_pairs(S).items():
        if len(ps) > 1:
            G = S.group
            return Certificate(False, {
                "difference": G.canon(d),
                "pairs": [[G.canon(a), G.canon(b)] for a, b in ps[:2]],
            })


def certify(S):
    cert = verify_partial(S)
    if not cert:
        raise DomainError(f"not a partial difference set: {cert.detail}")
    # S's constructor already validated its elements and their distinctness
    return PartialDifferenceSet._trusted(S.group, S.elements, True)


def verify_perfect(S):
    """Certificate iff the difference map is a bijection onto G \\ {e}.

    `verify_partial` decides injectivity and reports the first collision.
    An injective map onto k(k - 1) of the v - 1 nonidentity elements is a
    bijection exactly when k(k - 1) = v - 1, by pigeonhole."""
    G = S.group
    if G.order is None:
        raise DomainError("perfect difference sets require a finite group")
    cert = verify_partial(S)
    if not cert:
        return cert
    k = len(S.elements)
    if k * (k - 1) == G.order - 1:
        return Certificate(True, {"k": k, "v": G.order})
    reached = differences(S) | {G.identity}
    missing = next(g for g in G.elements() if g not in reached)
    return Certificate(False, {"missing": G.canon(missing)})


def classical_singer(q, m):
    """Perfect difference set for PG(m, q) in cyclic((q^{m+1}-1)/(q-1)).

    Points of the projective space are indexed by powers of a primitive
    element g of GF(q^{m+1}) modulo the scalar subgroup GF(q)^x; the set
    collects the exponents landing in the hyperplane spanned (over GF(q))
    by 1, g, ..., g^{m-1}."""
    p, a = gf.factor_prime_power(q)
    if m < 1:
        raise DomainError("dimension must be >= 1")
    F = gf.GF(p, a * (m + 1))
    _, exp, log = gf.log_tables(F)
    v = (q ** (m + 1) - 1) // (q - 1)
    # GF(q) inside F: {0} plus the order-(q-1) subgroup <g^v> of F^x
    subfield = [0] + [exp[k * v] for k in range(q - 1)]
    # each multiple c*g^j of a basis vector is formed once
    multiples = [[F.mul(c, exp[j]) for c in subfield] for j in range(m)]
    S = set()
    for terms in product(*multiples):
        h = 0
        for t in terms:
            h = F.add(h, t)
        if h != 0:
            S.add(log[h] % v)
    G = FieldQuotient(p, a, m + 1)
    pds = PartialDifferenceSet(G, tuple(sorted(S)))
    if m == 2:
        # only planes give lambda = 1; in higher dimension the hyperplane
        # set indexes the Singer action but is not a partial set
        pds = certify(pds)
    return G, pds


# ---------------------------------------------------------------------------
# greedy builder

class Candidates:
    """The enumeration of a group as far as a chain of builder states has
    drawn it: `live` maps the position of every drawn candidate that is not
    yet marked to its element, in position order, and `frontier` is the
    one iterator of `G.elements()` that continues after them."""

    def __init__(self, elements):
        self.live = {}
        self.frontier = elements
        self.drawn = 0

    def scan(self):
        """(position, element) for the live candidates, then for new draws,
        each entered as live.  The caller deletes from `live` only after
        the scan."""
        yield from self.live.items()
        # not `yield from`: closing a scan must leave the frontier open
        for x in self.frontier:
            i = self.drawn
            self.drawn += 1
            self.live[i] = x
            yield i, x


class BuilderState:
    """A certified set, the number of targets consumed and the step log.

    `diffs` (the difference set of the chain's latest set), `candidates`
    (its live candidates) and `invs` (the inverses of its elements, in
    order) belong to the chain of states that `hughes_step` hands them
    along; a state made without them gets fresh ones on its first step.
    The set of size k whose differences they hold, k(k - 1) of them, is
    the chain's latest one, so a state owns them exactly when
    len(diffs) == k(k - 1) for its own k, and owns `invs` exactly when
    len(invs) == k (`DECISIONS.md`)."""

    def __init__(self, current, targets_consumed=0, log=None, diffs=None,
                 candidates=None, invs=None):
        self.current, self.targets_consumed = current, targets_consumed
        self.log = [] if log is None else log
        self.diffs, self.candidates, self.invs = diffs, candidates, invs

    def log_json(self):
        return self.log

    def log_hash(self):
        payload = json.dumps(self.log, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    @staticmethod
    def from_json(obj):
        """The state a `hughes` payload records: its set and its log."""
        S = PartialDifferenceSet.from_json(obj["difference_set"])
        log = obj.get("log")
        if not isinstance(log, list) or not all(
                isinstance(entry, dict)
                and isinstance(entry.get("target"), str)
                and isinstance(entry.get("added"), list)
                and all(isinstance(z, str) for z in entry["added"])
                for entry in log):
            raise DomainError("log must be a list of {target, added} entries")
        return BuilderState(S, len(log), log)


def _new_differences(G, els, invs, z, seen):
    """Add to `seen` the differences z s^-1 and s z^-1 (s in `els`, whose
    inverses are `invs`) that adjoining z contributes.  False when two of
    them are equal or one was in `seen` already, that is when `seen` grows
    by fewer than 2 |els|.  The caller keeps z out of `els`, so none of
    them is the identity, and tests them against the set's differences."""
    before = len(seen)
    seen.update(map(G.mul, repeat(z), invs))
    seen.update(map(G.mul, els, repeat(G.inv(z))))
    return len(seen) - before == 2 * len(els)


def hughes_step(state, d, search_bound=DEFAULT_SEARCH_BOUND):
    """Extend the set so the target d occurs as a difference.

    No-op (cursor/log only) when d already is a difference; otherwise scans
    candidates x in enumeration order and adjoins {x, d^-1 x} (d^-1 x may
    coincide with an existing element, in which case only x is new).

    A candidate x that collides with S on its own is marked: it leaves the
    live candidates and is never tested again.  With D the differences of
    S (D = D^-1), it collides when x is in S, when x s^-1 is in D for some
    s in S, that is x in D S, or when two of the x s^-1, s x^-1 are equal.
    None of these depends on the target, and all stay true as S and D
    grow.  A step visits the live candidates in position order and then
    draws new ones; marked positions still count against `search_bound`.
    """
    S = state.current
    G = S.group
    G.validate(d)
    if d == G.identity:
        raise DomainError("target must be a nonidentity element")
    if not S.certified:
        raise DomainError("builder state must carry a certified set")
    els = S.elements
    k = len(els)
    diffs, cands, invs = state.diffs, state.candidates, state.invs
    if diffs is None or len(diffs) != k * (k - 1):
        # the chain has moved past this state: start one of its own
        diffs, cands = differences(S), None
    if invs is None or len(invs) != k:
        invs = [G.inv(s) for s in els]
    if d in diffs:
        new_log = state.log + [{"target": G.canon(d), "chosen_x": None,
                                "added": []}]
        return BuilderState(S, state.targets_consumed + 1, new_log, diffs,
                            cands, invs)
    if cands is None:
        cands = Candidates(G.elements())

    mul, d_inv = G.mul, G.inv(d)
    elset = set(els)
    within = f"no candidate for target {G.canon(d)} within {search_bound}"
    marked = []
    try:
        for i, x in cands.scan():
            if i >= search_bound:
                raise BoundedFailure(within)
            # D = D^-1, so s x^-1 lies in D exactly when x s^-1 does; the
            # lazy map stops at the first product that lies in D
            if x in elset or not diffs.isdisjoint(map(mul, repeat(x), invs)):
                marked.append(i)
                continue
            new = set()
            if not _new_differences(G, els, invs, x, new):
                marked.append(i)
                continue
            y = mul(d_inv, x)
            if y in elset:
                new_els = (x,)
            # of y's products, y x^-1 = d^-1 needs no test against D: d is
            # not in D, and D = D^-1
            elif (x != y and diffs.isdisjoint(map(mul, repeat(y), invs))
                  and _new_differences(G, els + (x,), invs + [G.inv(x)], y,
                                       new)):
                new_els = (x, y)
            else:
                continue
            marked.append(i)  # x joins the set
            break
        else:
            # all `drawn` positions failed: a walk from the identity would
            # have reached the bound first iff there are more of them
            if cands.drawn > search_bound:
                raise BoundedFailure(within)
            raise BoundedFailure(
                f"enumeration exhausted before bound for target "
                f"{G.canon(d)}")
    finally:
        for i in marked:
            del cands.live[i]
    x = new_els[0]
    if G.abelian:
        # the conjugation collision d^x = s_j^-1 s_i cannot fire when
        # the group is abelian and d is not yet a difference
        conj = G.mul(G.mul(G.inv(x), d), x)
        assert conj == d, "abelian shortcut violated"
    # each element of els was validated when it joined the chain's set, and
    # the scan drew x from G.elements() and formed y by G.mul, both outside
    # elset and x != y: only the new elements are validated
    for z in new_els:
        G.validate(z)
    ext = PartialDifferenceSet._trusted(G, els + new_els, True)
    assert d in new, "target must appear among the new differences"
    diffs |= new
    invs.extend(map(G.inv, new_els))
    new_log = state.log + [{
        "target": G.canon(d),
        "chosen_x": G.canon(x),
        "added": [G.canon(z) for z in new_els],
    }]
    return BuilderState(ext, state.targets_consumed + 1, new_log, diffs,
                        cands, invs)


def hughes_build(G, num_targets, search_bound=DEFAULT_SEARCH_BOUND):
    """Run hughes_step over the first num_targets nonidentity elements.

    Groups with an involution are refused outright (an abelian one can
    never carry a planar Singer action); general backends get the same
    squares check as a precondition.  A search bound below 1 admits no
    candidate, so it is refused here, not in each step."""
    if num_targets < 1:
        raise DomainError("need at least one target")
    if search_bound < 1:
        raise DomainError(f"the search bound must be >= 1, not {search_bound}")
    found, witness = has_involution(G)
    if found:
        raise DomainError(
            f"group has an involution ({G.canon(witness)}); an involution "
            "fixes a point of any plane it acts on, so no Singer action "
            "exists (abelian groups act iff involution-free)")
    e = G.identity
    start = PartialDifferenceSet(G, (e,), True)
    state = BuilderState(start)
    consumed = 0
    for h in G.elements():
        if h == e:
            continue
        state = hughes_step(state, h, search_bound)
        consumed += 1
        if consumed >= num_targets:
            break
    if consumed < num_targets:
        raise BoundedFailure("group exhausted before target count")
    # the certificates build their own differences of the set, so the
    # chain's k(k - 1) of them are let go before they run
    return BuilderState(state.current, state.targets_consumed, state.log,
                        None, state.candidates, state.invs)


def replay_chain(state):
    """Certify every prefix of the builder log (the chain lemma).

    The log is parsed and must rebuild `state.current` element by element,
    without repeats.  Every prefix is then a subset of the final set, and a
    subset of a partial difference set is partial: its difference map is a
    restriction of an injective map.  So one exhaustive `verify_partial` of
    the final set certifies all of them.

    Returns the list of prefix sizes, one per log entry."""
    G = state.current.group
    elements = [G.identity]
    sizes = []
    for entry in state.log:
        elements.extend(G.parse(s) for s in entry["added"])
        sizes.append(len(elements))
    if tuple(elements) != state.current.elements:
        raise AssertionError("log does not reproduce the final set")
    if len(set(elements)) != len(elements):
        raise AssertionError("log adds an element twice")
    if not verify_partial(state.current):
        raise AssertionError(f"set of size {len(elements)} not partial")
    return sizes


def verify_log(state, log_hash):
    """Certificate that a builder log is the record of its final set: the
    log hashes to `log_hash`, it replays (`replay_chain`), and each target
    is a difference of the prefix built by its step.  In a partial set
    every difference has one pair (a, b), and it is a difference of a
    prefix exactly when a and b both lie in that prefix."""
    if state.log_hash() != log_hash:
        return Certificate(False, {"recomputed_log_hash": state.log_hash()})
    try:
        sizes = replay_chain(state)
    except AssertionError as exc:
        return Certificate(False, {"replay": str(exc)})
    G = state.current.group
    position = {s: i for i, s in enumerate(state.current.elements)}
    pairs = _difference_pairs(state.current)
    for entry, size in zip(state.log, sizes):
        ps = pairs.get(G.parse(entry["target"]))
        if ps is None or max(position[ps[0][0]], position[ps[0][1]]) >= size:
            return Certificate(False, {
                "target": entry["target"], "prefix": size})
    return Certificate(True, {"prefixes": len(sizes)})
