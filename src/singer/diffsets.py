"""Partial and perfect difference sets, the classical cyclic construction,
and the greedy two-element successor builder.

A subset S of a group is *partial* when the difference map
(a, b) -> a b^-1 on ordered pairs of distinct elements is injective, and
*perfect* when that map is a bijection onto the nonidentity elements.
The builder consumes target elements in enumeration order and, for each
target d not yet a difference, adjoins {x, d^-1 x} for the least x that
keeps the set partial.  A group with an involution is refused up front;
in any other group, abelian or not, each step tests every new difference
against the set's and against each other (`_new_differences`).
"""

import hashlib
import json
from itertools import islice, product, repeat

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
    # distinct residues below v = |G| (DECISIONS.md, "Trusted builders")
    pds = PartialDifferenceSet._trusted(G, tuple(sorted(S)), False)
    if m == 2:
        # only planes give lambda = 1; in higher dimension the hyperplane
        # set indexes the Singer action but is not a partial set
        pds = certify(pds)
    return G, pds


# ---------------------------------------------------------------------------
# greedy builder

class BuilderState:
    """The builder's one mutable state: a certified set `current`, its step
    log, and what steps keep between them.  The first step forms `diffs`,
    the differences of `current`, and `invs`, its elements' inverses in
    order.  `live` maps the position of each drawn, unmarked candidate to
    it, in position order; `frontier` is the iterator of `G.elements()`
    past them, and `drawn` the count of positions it gave (`DECISIONS.md`)."""

    def __init__(self, current, log=None):
        self.current = current
        self.log = [] if log is None else log
        self.diffs = self.invs = self.frontier = None
        self.live, self.drawn = {}, 0

    def scan(self):
        """(position, element) for the live candidates, then for new draws,
        each entered as live.  The caller deletes from `live` only after
        the scan."""
        yield from self.live.items()
        if self.frontier is None:
            self.frontier = self.current.group.elements()
        # not `yield from`: closing a scan must leave the frontier open
        for x in self.frontier:
            i = self.drawn
            self.drawn += 1
            self.live[i] = x
            yield i, x

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
        return BuilderState(S, log)


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
    """Extend the set in `state`, in place, so the target d occurs as a
    difference, and return `state`.

    No-op (log only) when d already is a difference; otherwise scans
    candidates x in enumeration order and adjoins {x, d^-1 x} (d^-1 x may
    coincide with an existing element, in which case only x is new).

    A candidate x that collides with S on its own is marked: it leaves the
    live candidates and is never tested again.  With D the differences of
    S (D = D^-1), it collides when x is in S, when x s^-1 is in D for some
    s in S, that is x in D S, or when two of the x s^-1, s x^-1 are equal.
    None of these depends on the target, and all stay true as S and D
    grow.  A step visits the live candidates in position order and then
    draws new ones; marked positions still count against `search_bound`.
    A step that fails changes only the candidates.
    """
    S = state.current
    G = S.group
    G.validate(d)
    if d == G.identity:
        raise DomainError("target must be a nonidentity element")
    if not S.certified:
        raise DomainError("builder state must carry a certified set")
    els = S.elements
    if state.diffs is None:
        state.diffs, state.invs = differences(S), [G.inv(s) for s in els]
    diffs, invs = state.diffs, state.invs
    entry = {"target": G.canon(d), "chosen_x": None, "added": []}
    if d in diffs:
        state.log.append(entry)
        return state

    mul, d_inv = G.mul, G.inv(d)
    elset = set(els)
    within = f"no candidate for target {G.canon(d)} within {search_bound}"
    marked = []
    try:
        for i, x in state.scan():
            if i >= search_bound:
                raise BoundedFailure(within)
            # D = D^-1, so s x^-1 lies in D exactly when x s^-1 does; the
            # lazy map stops at the first product that lies in D
            if (x in elset or not diffs.isdisjoint(map(mul, repeat(x), invs))
                    or not _new_differences(G, els, invs, x, new := set())):
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
            if state.drawn > search_bound:
                raise BoundedFailure(within)
            raise BoundedFailure(
                f"enumeration exhausted before bound for target "
                f"{G.canon(d)}")
    finally:
        for i in marked:
            del state.live[i]
    assert d in new, "target must appear among the new differences"
    # x, y: new, distinct and made here (DECISIONS.md, "Trusted builders")
    state.current = PartialDifferenceSet._trusted(G, els + new_els, True)
    diffs |= new
    invs.extend(map(G.inv, new_els))
    entry.update(chosen_x=G.canon(new_els[0]),
                 added=[G.canon(z) for z in new_els])
    state.log.append(entry)
    return state


def hughes_build(G, num_targets, search_bound=DEFAULT_SEARCH_BOUND):
    """Run hughes_step over the first num_targets nonidentity elements.

    Any group with an involution is refused outright: an involution
    fixes a point of every plane it acts on.  Each step tests every new
    difference (`_new_differences`), abelian group or not.  More targets
    than |G| - 1, and a search bound below 1, are refused here."""
    if num_targets < 1:
        raise DomainError("need at least one target")
    if G.order is not None and num_targets >= G.order:
        raise DomainError(f"{G.spec_string()} has {G.order - 1} "
                          f"nonidentity elements, so at most "
                          f"{G.order - 1} targets, not {num_targets}")
    if search_bound < 1:
        raise DomainError(f"the search bound must be >= 1, not {search_bound}")
    found, witness = has_involution(G)
    if found:
        raise DomainError(
            f"group has an involution ({G.canon(witness)}); an involution "
            "fixes a point of any plane it acts on, so no Singer action "
            "exists (abelian groups act iff involution-free)")
    state = BuilderState(PartialDifferenceSet(G, (G.identity,), True))
    # the enumeration starts at the identity, which is no target
    for h in islice(G.elements(), 1, num_targets + 1):
        hughes_step(state, h, search_bound)
    # the certificates build their own differences of the set, so the
    # state's k(k - 1) of them are let go before they run
    state.diffs = None
    return state


def _log_sizes(state):
    """The size of the prefix each log entry builds, once the parsed log is
    found to rebuild `state.current` element by element (AssertionError if
    not); the set's elements are distinct, so the log adds none twice."""
    G = state.current.group
    elements = [G.identity]
    sizes = []
    for entry in state.log:
        elements.extend(G.parse(s) for s in entry["added"])
        sizes.append(len(elements))
    if tuple(elements) != state.current.elements:
        raise AssertionError("log does not reproduce the final set")
    return sizes


def replay_chain(state):
    """Certify every prefix of the builder log (the chain lemma).

    The log must rebuild `state.current` (`_log_sizes`).  Every prefix is
    then a subset of the final set, and a subset of a partial difference
    set is partial: its difference map is a restriction of an injective
    map.  So one exhaustive `verify_partial` of the final set certifies all
    of them.

    Returns the list of prefix sizes, one per log entry."""
    sizes = _log_sizes(state)
    if not verify_partial(state.current):
        raise AssertionError(
            f"set of size {len(state.current.elements)} not partial")
    return sizes


def verify_log(state, log_hash):
    """Certificate that a builder log is the record of its final set: the
    log hashes to `log_hash`, it replays as in `replay_chain`, and each
    target is a difference of the prefix built by its step.  One table of
    the final set's differences decides both of the last two: the set is
    partial exactly when every difference has one pair (a, b), and then a
    target is a difference of a prefix exactly when a and b both lie in
    that prefix."""
    if state.log_hash() != log_hash:
        return Certificate(False, {"recomputed_log_hash": state.log_hash()})
    try:
        sizes = _log_sizes(state)
    except AssertionError as exc:
        return Certificate(False, {"replay": str(exc)})
    S = state.current
    pairs = _difference_pairs(S)
    if any(len(ps) > 1 for ps in pairs.values()):
        return Certificate(False, {
            "replay": f"set of size {len(S.elements)} not partial"})
    G = S.group
    position = {s: i for i, s in enumerate(S.elements)}
    for entry, size in zip(state.log, sizes):
        ps = pairs.get(G.parse(entry["target"]))
        if ps is None or max(position[ps[0][0]], position[ps[0][1]]) >= size:
            return Certificate(False, {
                "target": entry["target"], "prefix": size})
    return Certificate(True, {"prefixes": len(sizes)})
