"""Group backends with a fixed, deterministic element enumeration.

Every backend fixes a total order on its elements starting at the identity:
residues ascending, integers in zigzag order (0, 1, -1, 2, -2, ...),
free-group words in shortlex order with letter order a < a^-1 < b < b^-1,
tuple-valued groups lexicographically.  Canonical forms are the equality
oracle, so reduction (mod v, free-word cancellation) happens eagerly and
infinite groups are only ever touched through enumeration prefixes.

`mul` and `inv` trust their operands to be canonical elements: they are
the inner loop of every construction.  Elements are validated where they
enter instead: `parse` (and so every `from_json`), the constructors that
take caller-supplied elements, and the public functions that accept an
element.
"""

import itertools
import math
import operator

from .errors import DomainError, CapError
from .gf import is_prime, check_field_size

# the generator names of Free(k): every letter but "e", the identity's name
_LETTERS = "abcdfghijklmnopqrstuvwxyz"


class GroupHandle:
    """Base class; subclasses fix the order and the element encoding."""

    order = None        # None means infinite
    abelian = False

    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        """Product of two canonical elements (operands are not validated)."""
        raise NotImplementedError

    def inv(self, a):
        """Inverse of a canonical element (the operand is not validated)."""
        raise NotImplementedError

    def elements(self):
        """Yield elements in enumeration order, identity first."""
        raise NotImplementedError

    def validate(self, a):
        """Raise DomainError if `a` is not a canonical element of this group."""
        raise NotImplementedError

    def canon(self, a):
        """Canonical string form of an element."""
        raise NotImplementedError

    def parse(self, s):
        """Inverse of canon."""
        raise NotImplementedError

    def enumerate(self, count):
        if count < 0:
            raise DomainError("count must be nonnegative")
        if self.order is not None and count > self.order:
            raise CapError(
                f"count {count} exceeds group order {self.order}")
        return list(itertools.islice(self.elements(), count))

    def spec_string(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<group {self.spec_string()}>"

    def __eq__(self, other):
        return (type(self) is type(other)
                and self.spec_string() == other.spec_string())

    def __hash__(self):
        return hash(self.spec_string())


class Cyclic(GroupHandle):
    abelian = True

    def __init__(self, v):
        if v < 1:
            raise DomainError("cyclic order must be >= 1")
        self.v = v
        self.order = v

    @property
    def identity(self):
        return 0

    def validate(self, a):
        if not isinstance(a, int) or not 0 <= a < self.v:
            raise DomainError(f"{a!r} is not a residue mod {self.v}")

    def mul(self, a, b):
        return (a + b) % self.v

    def inv(self, a):
        return (-a) % self.v

    def elements(self):
        return iter(range(self.v))

    def canon(self, a):
        return str(a)

    def parse(self, s):
        a = int(s)
        self.validate(a)
        return a

    def spec_string(self):
        return f"cyclic:{self.v}"


class FieldQuotient(Cyclic):
    """F_{q^m}^x / F_q^x with q = p^n: cyclic of order (q^m - 1)/(q - 1).

    Elements are exponents of a primitive-element coset, so the group law
    is addition mod v; the field data is kept for the constructions that
    index projective points by these exponents.
    """

    def __init__(self, p, n, m):
        if n < 1 or m < 1:
            raise DomainError("degrees must be >= 1")
        if p > 1:
            check_field_size(p, n * m)
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        q = p ** n
        self.p, self.n, self.m = p, n, m
        self.q = q
        super().__init__((q ** m - 1) // (q - 1))

    def spec_string(self):
        return f"fieldquot:p={self.p},n={self.n},m={self.m}"


class Abelian(GroupHandle):
    abelian = True

    def __init__(self, factors):
        factors = tuple(int(d) for d in factors)
        if not factors or any(d < 1 for d in factors):
            raise DomainError("invariant factors must be positive")
        self.factors = factors
        self.order = math.prod(factors)

    @property
    def identity(self):
        return (0,) * len(self.factors)

    def validate(self, a):
        if (not isinstance(a, tuple) or len(a) != len(self.factors)
                or any(not 0 <= x < d for x, d in zip(a, self.factors))):
            raise DomainError(f"{a!r} is not an element of {self.spec_string()}")

    def mul(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))

    def inv(self, a):
        return tuple((-x) % d for x, d in zip(a, self.factors))

    def elements(self):
        return itertools.product(*(range(d) for d in self.factors))

    def canon(self, a):
        return "(" + ",".join(str(x) for x in a) + ")"

    def parse(self, s):
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        a = tuple(int(x) for x in s.split(","))
        self.validate(a)
        return a

    def spec_string(self):
        return "abelian:" + ",".join(str(d) for d in self.factors)


class Integers(GroupHandle):
    abelian = True
    order = None

    @property
    def identity(self):
        return 0

    def validate(self, a):
        if not isinstance(a, int):
            raise DomainError(f"{a!r} is not an integer")

    # builtins, so that products formed by `map` enter no Python frame
    mul = staticmethod(operator.add)
    inv = staticmethod(operator.neg)

    def elements(self):
        yield 0
        k = 1
        while True:
            yield k
            yield -k
            k += 1

    def canon(self, a):
        return str(a)

    def parse(self, s):
        return int(s)

    def spec_string(self):
        return "integers"


class Free(GroupHandle):
    """Free group of finite rank.

    Words are tuples of letter codes: code 2k is generator k, code 2k+1 its
    inverse; a word is reduced iff no adjacent pair of codes differs only in
    the low bit.  Shortlex enumeration uses the code order directly, which
    realizes a < a^-1 < b < b^-1 < ...
    """

    order = None

    def __init__(self, rank):
        if rank < 1:
            raise DomainError("free rank must be >= 1")
        if rank > len(_LETTERS):
            raise CapError(f"free rank capped at {len(_LETTERS)}: one letter "
                           "per generator, and e names the identity")
        self.rank = rank

    @property
    def identity(self):
        return ()

    def validate(self, a):
        if not isinstance(a, tuple):
            raise DomainError(f"{a!r} is not a word")
        for c in a:
            if not isinstance(c, int) or not 0 <= c < 2 * self.rank:
                raise DomainError(f"letter code {c!r} out of range")
        for c1, c2 in zip(a, a[1:]):
            if c1 ^ 1 == c2:
                raise DomainError(f"word {a!r} is not reduced")

    def mul(self, a, b):
        if not a or not b or a[-1] ^ 1 != b[0]:
            return a + b
        # cancel the longest suffix of a that is the inverse of b's prefix
        i, n = 1, min(len(a), len(b))
        while i < n and a[-1 - i] ^ 1 == b[i]:
            i += 1
        return a[:len(a) - i] + b[i:]

    def inv(self, a):
        return tuple(c ^ 1 for c in reversed(a))

    def elements(self):
        yield ()
        frontier = [()]
        while True:
            nxt = []
            for w in frontier:
                banned = w[-1] ^ 1 if w else None
                for c in range(2 * self.rank):
                    if c == banned:
                        continue
                    nxt.append(w + (c,))
            for w in nxt:
                yield w
            frontier = nxt

    def canon(self, a):
        if not a:
            return "e"
        parts = []
        for c in a:
            name = _LETTERS[c // 2]
            parts.append(name if c % 2 == 0 else name + "^-1")
        return "*".join(parts)

    def parse(self, s):
        s = s.strip()
        if s == "e":
            return ()
        word = []
        for part in s.split("*"):
            if part.endswith("^-1"):
                name, off = part[:-3], 1
            else:
                name, off = part, 0
            k = _LETTERS.find(name) if len(name) == 1 else -1
            if not 0 <= k < self.rank:
                raise DomainError(f"unknown letter {name!r} in {s!r} for "
                                  f"{self.spec_string()}")
            word.append(2 * k + off)
        w = tuple(word)
        self.validate(w)
        return w

    def spec_string(self):
        return f"free:{self.rank}"


class Symmetric(GroupHandle):
    """Symmetric group on {0, ..., m-1}; permutations as image tuples.

    mul(p, q) applies p first, then q (right-action convention, consistent
    with the point actions used elsewhere).
    """

    def __init__(self, m):
        if m < 1:
            raise DomainError("symmetric degree must be >= 1")
        self.m = m
        self.order = math.factorial(m)

    @property
    def identity(self):
        return tuple(range(self.m))

    def validate(self, a):
        if (not isinstance(a, tuple) or len(a) != self.m
                or sorted(a) != list(range(self.m))):
            raise DomainError(f"{a!r} is not a permutation of degree {self.m}")

    def mul(self, a, b):
        return tuple(b[a[i]] for i in range(self.m))

    def inv(self, a):
        out = [0] * self.m
        for i, x in enumerate(a):
            out[x] = i
        return tuple(out)

    def elements(self):
        return itertools.permutations(range(self.m))

    def canon(self, a):
        return "[" + ",".join(str(x) for x in a) + "]"

    def parse(self, s):
        s = s.strip()
        if s.startswith("[") and s.endswith("]"):
            s = s[1:-1]
        a = tuple(int(x) for x in s.split(","))
        self.validate(a)
        return a

    def spec_string(self):
        return f"symmetric:{self.m}"


class Monomial(GroupHandle):
    """Wreath product C_n wr S_m acting on m fibers of size n.

    Elements are (perm, twists): the permutation moves fiber i to perm[i]
    and a point (i, t) goes to (perm[i], t + twists[i] mod n).  mul(g, h)
    applies g first, then h.
    """

    def __init__(self, n, m):
        if n < 1 or m < 1:
            raise DomainError("monomial parameters must be >= 1")
        self.n, self.m = n, m
        self.order = n ** m * math.factorial(m)

    @property
    def identity(self):
        return (tuple(range(self.m)), (0,) * self.m)

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            raise DomainError(f"{a!r} is not a monomial element")
        perm, tw = a
        if sorted(perm) != list(range(self.m)):
            raise DomainError(f"{perm!r} is not a fiber permutation")
        if len(tw) != self.m or any(not 0 <= t < self.n for t in tw):
            raise DomainError(f"{tw!r} is not a twist vector mod {self.n}")

    def mul(self, a, b):
        (pa, ta), (pb, tb) = a, b
        perm = tuple(pb[pa[i]] for i in range(self.m))
        tw = tuple((ta[i] + tb[pa[i]]) % self.n for i in range(self.m))
        return (perm, tw)

    def inv(self, a):
        perm, tw = a
        ip = [0] * self.m
        for i, x in enumerate(perm):
            ip[x] = i
        itw = tuple((-tw[ip[i]]) % self.n for i in range(self.m))
        return (tuple(ip), itw)

    def act(self, a, point):
        """Image of point = (fiber, twist) under a."""
        perm, tw = a
        i, t = point
        return (perm[i], (t + tw[i]) % self.n)

    def elements(self):
        for perm in itertools.permutations(range(self.m)):
            for tw in itertools.product(range(self.n), repeat=self.m):
                yield (perm, tw)

    def canon(self, a):
        perm, tw = a
        return ("[" + ",".join(map(str, perm)) + "|"
                + ",".join(map(str, tw)) + "]")

    def parse(self, s):
        s = s.strip()
        if s.startswith("[") and s.endswith("]"):
            s = s[1:-1]
        ps, ts = s.split("|")
        a = (tuple(int(x) for x in ps.split(",")),
             tuple(int(x) for x in ts.split(",")))
        self.validate(a)
        return a

    def spec_string(self):
        return f"monomial:{self.n},{self.m}"


def parse_group(spec):
    """Parse a group spec string: kind ':' comma-separated parameters."""
    spec = spec.strip()
    if spec == "integers":
        return Integers()
    if ":" not in spec:
        raise DomainError(f"bad group spec {spec!r}")
    kind, _, params = spec.partition(":")
    try:
        if kind == "cyclic":
            return Cyclic(int(params))
        if kind == "abelian":
            return Abelian(int(x) for x in params.split(","))
        if kind == "free":
            return Free(int(params))
        if kind == "symmetric":
            return Symmetric(int(params))
        if kind == "monomial":
            n, m = (int(x) for x in params.split(","))
            return Monomial(n, m)
        if kind == "fieldquot":
            kv = dict(item.split("=") for item in params.split(","))
            missing = [k for k in "pnm" if k not in kv]
            if missing:
                raise DomainError(f"bad group spec {spec!r}: missing "
                                  f"{', '.join(missing)}")
            return FieldQuotient(int(kv["p"]), int(kv["n"]), int(kv["m"]))
    except (DomainError, CapError):
        raise
    except Exception as exc:
        raise DomainError(f"bad group spec {spec!r}: {exc}") from exc
    raise DomainError(f"unknown group kind {kind!r}")


def has_involution(G):
    """Scan the whole group for h != e with h^2 = e.

    Returns (found, witness).  The infinite groups, Z and free groups, are
    torsion-free and are answered without a scan.
    """
    if G.order is None:
        return False, None
    e = G.identity
    for h in G.elements():
        if h != e and G.mul(h, h) == e:
            return True, h
    return False, None


# ---------------------------------------------------------------------------
# subgroups of a finite group, given by its multiplication.  These take the
# group law as a function so that permutations, monomial elements and the
# rows of a hypertable's product are handled alike.

def closure(mul, gens, start, inside=None):
    """The set of products s*t1*...*tk (s in start, ti in gens), by
    breadth-first search.  With `inside` (a set), return None as soon as a
    product leaves it."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    if inside is not None and y not in inside:
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def subgroup_generators(mul, identity, H):
    """Greedy generators T of H, taken from H in its iteration order, or
    None when H is not a subgroup.

    Each element not yet reached is added to T and the span is closed
    again, with every product checked against H.  At the end H = <T> with
    H*T inside H, so H is a subgroup, after |H|*|T| products at most twice
    over (each new generator at least doubles the span); a set that is not
    closed fails at its first product outside H."""
    members = set(H)
    if identity not in members:
        return None
    T = []
    span = {identity}
    for h in H:
        if h not in span:
            T.append(h)
            span = closure(mul, T, span, members)
            if span is None:
                return None
    return T


def cyclic_generator(mul, identity, elements):
    """The first element whose order is len(elements), or None: a generator
    when `elements` is a finite group, which is then cyclic."""
    k = len(elements)
    for c in elements:
        x, order = c, 1
        while x != identity and order < k:
            x = mul(x, c)
            order += 1
        if x == identity and order == k:
            return c
    return None
