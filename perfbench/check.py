"""Checkers for the payloads of the benchmark's operations.

Every checker recomputes what it asserts with its own arithmetic and imports
nothing from `singer`: residues mod v, Python integers, free-group words
reduced here, and hyperaddition tables as bitmasks.  A checker returns None
when the payload is right and a one-line reason when it is not.  None of them
compares against a stored copy of an earlier output.
"""

import hashlib
import json
import string
from itertools import combinations
from math import gcd


class Reject(Exception):
    """A payload that fails a check; the message names the first failure."""


def _need(cond, msg):
    if not cond:
        raise Reject(msg)


def _run(fn, *args):
    try:
        fn(*args)
    except Reject as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed payload: {type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# incidence structures

def _masks(npoints, lines):
    out = []
    for line in lines:
        _need(len(set(line)) == len(line), f"repeated point in line {line}")
        _need(all(isinstance(p, int) and 0 <= p < npoints for p in line),
              f"point out of range in line {line}")
        m = 0
        for p in line:
            m |= 1 << p
        out.append(m)
    _need(len(set(out)) == len(out), "repeated line")
    return out


def _shift_invariant(v, lines):
    """The shift i -> i+1 mod v maps the line set onto itself."""
    lineset = {frozenset(line) for line in lines}
    for line in lineset:
        _need(frozenset((p + 1) % v for p in line) in lineset,
              f"shift of line {sorted(line)} is not a line")


def _every_pair_on_one_line(npoints, lines):
    seen = set()
    for line in lines:
        for pair in combinations(sorted(line), 2):
            _need(pair not in seen, f"points {pair} lie on two lines")
            seen.add(pair)
    _need(len(seen) == npoints * (npoints - 1) // 2,
          "some pair of points lies on no line")


def projective_plane(npoints, lines, order):
    """v = n^2+n+1 points, v lines of n+1 points, any two lines meet in
    exactly one point and any two points lie on exactly one line."""
    v = order * order + order + 1
    _need(npoints == v, f"{npoints} points, expected {v}")
    _need(len(lines) == v, f"{len(lines)} lines, expected {v}")
    _need(all(len(line) == order + 1 for line in lines),
          f"a line does not have {order + 1} points")
    masks = _masks(npoints, lines)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            _need((a & b).bit_count() == 1,
                  "two lines do not meet in exactly one point")
    _every_pair_on_one_line(npoints, lines)


def _difference_counts(v, elements):
    counts = [0] * v
    for a in elements:
        for b in elements:
            if a != b:
                counts[(a - b) % v] += 1
    return counts


def _fieldquot_order(spec):
    """|GF(p^{n m})^* / GF(p^n)^*| for a 'fieldquot:p=..,n=..,m=..' spec."""
    kind, _, params = spec.partition(":")
    _need(kind == "fieldquot", f"group {spec!r} is not a field quotient")
    kv = dict(item.split("=") for item in params.split(","))
    p, n, m = int(kv["p"]), int(kv["n"]), int(kv["m"])
    return (p ** (n * m) - 1) // (p ** n - 1)


def _residues(ds, v):
    _need(_fieldquot_order(ds["group"]) == v,
          f"group {ds['group']} does not have order {v}")
    els = [int(s) for s in ds["elements"]]
    _need(all(0 <= a < v for a in els), "element out of range")
    _need(len(set(els)) == len(els), "repeated element")
    return els


def _classical_plane(p, q):
    v = q * q + q + 1
    els = _residues(p["difference_set"], v)
    _need(len(els) == q + 1, f"{len(els)} elements, expected {q + 1}")
    _need(_difference_counts(v, els)[1:] == [1] * (v - 1),
          "a nonzero residue is not exactly one difference")
    plane = p["plane"]
    projective_plane(plane["points"], plane["lines"], q)
    _shift_invariant(v, plane["lines"])
    _need(p["perfect"] is True and p["difference_set"]["certified"] is True,
          "the set is not reported perfect")
    cert = p["plane_certificate"]
    _need(cert["ok"] is True and cert["order"] == q,
          "the plane certificate does not pass with the right order")
    _need(p["action_regular"] is True
          and p["action_detail"] == {"group_order": v, "points": v},
          "the action certificate does not pass")


def _classical_space(p, q, m):
    """PG(m, q) with its Singer shift; the hyperplane set has every nonzero
    difference lambda = (q^{m-1}-1)/(q-1) times."""
    v = (q ** (m + 1) - 1) // (q - 1)
    k = (q ** m - 1) // (q - 1)
    lam = (q ** (m - 1) - 1) // (q - 1)
    els = _residues(p["difference_set"], v)
    _need(len(els) == k, f"{len(els)} elements, expected {k}")
    _need(_difference_counts(v, els)[1:] == [lam] * (v - 1),
          f"a nonzero residue is not exactly {lam} differences")
    space = p["space"]
    npts, lines = space["points"], space["lines"]
    nlines = v * (v - 1) // (q * (q + 1))
    _need(npts == v, f"{npts} points, expected {v}")
    _need(len(lines) == nlines, f"{len(lines)} lines, expected {nlines}")
    _need(all(len(line) == q + 1 for line in lines),
          f"a line does not have {q + 1} points")
    _masks(npts, lines)
    _every_pair_on_one_line(npts, lines)
    _shift_invariant(v, lines)
    _need(p["action_regular"] is True
          and p["action_detail"] == {"group_order": v, "points": v},
          "the action certificate does not pass")


def classical(payload, q, m=2):
    if m == 2:
        return _run(_classical_plane, payload, q)
    return _run(_classical_space, payload, q, m)


# ---------------------------------------------------------------------------
# greedy (Hughes) difference sets over Z and free groups

def _parse_word(s, rank):
    """A free-group word as a tuple of (letter, +1/-1), checked reduced."""
    if s == "e":
        return ()
    word = []
    for part in s.split("*"):
        name, sign = (part[:-3], -1) if part.endswith("^-1") else (part, 1)
        k = string.ascii_lowercase.index(name)
        _need(k < rank, f"letter {name!r} outside rank {rank}")
        word.append((k, sign))
    for a, b in zip(word, word[1:]):
        _need(not (a[0] == b[0] and a[1] == -b[1]), f"{s!r} is not reduced")
    return tuple(word)


def _word_mul(a, b):
    out = list(a)
    for letter in b:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _word_inv(a):
    return tuple((k, -s) for k, s in reversed(a))


def _free_words(rank):
    """Nonidentity reduced words in shortlex order, a < a^-1 < b < ..."""
    letters = [(k, s) for k in range(rank) for s in (1, -1)]
    frontier = [()]
    while True:
        nxt = [w + (c,) for w in frontier for c in letters
               if not (w and w[-1][0] == c[0] and w[-1][1] == -c[1])]
        yield from nxt
        frontier = nxt


def _integers():
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _group_ops(spec):
    if spec == "integers":
        return (int, lambda a, b: a + b, lambda a: -a, 0, _integers())
    kind, _, rank = spec.partition(":")
    _need(kind == "free", f"unexpected group {spec!r}")
    rank = int(rank)
    return (lambda s: _parse_word(s, rank), _word_mul, _word_inv, (),
            _free_words(rank))


def _hughes(p, group, targets):
    ds = p["difference_set"]
    _need(ds["group"] == group, f"group {ds['group']!r}, expected {group!r}")
    parse, mul, inv, e, order = _group_ops(group)
    S = [parse(s) for s in ds["elements"]]
    _need(len(set(S)) == len(S), "repeated element")
    diffs = set()
    for a in S:
        for b in S:
            if a != b:
                d = mul(a, inv(b))
                _need(d != e, "identity difference")
                _need(d not in diffs, "repeated difference")
                diffs.add(d)
    log = p["log"]
    _need(len(log) == targets == p["prefixes_certified"],
          f"log has {len(log)} entries, expected {targets}")
    rebuilt = [e]
    for entry in log:
        t = parse(entry["target"])
        _need(t == next(order), f"target {entry['target']} out of order")
        _need(t in diffs, f"target {entry['target']} is not a difference")
        rebuilt.extend(parse(s) for s in entry["added"])
    _need(rebuilt == S, "the log's added elements do not give the set")
    digest = hashlib.sha256(json.dumps(log, sort_keys=True).encode())
    _need(p["log_hash"] == digest.hexdigest(), "log_hash does not match the log")
    _need(ds["certified"] is True, "the set is not reported certified")


def hughes(payload, group, targets):
    return _run(_hughes, payload, group, targets)


# ---------------------------------------------------------------------------
# hyperfield tables

def _members(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _hyperfield_axioms(t):
    """The nine hyperfield axioms, exhaustively over all triples."""
    n, z, o = len(t["carrier"]), t["zero"], t["one"]
    mul = t["mul"]
    _need(len(mul) == n and all(len(r) == n for r in mul), "mul is not n x n")
    _need(all(0 <= c < n for r in mul for c in r), "product out of range")
    add = []
    for row in t["hyperadd"]:
        masks = []
        for cell in row:
            _need(cell and all(0 <= c < n for c in cell),
                  "hypersum empty or out of range")
            masks.append(sum(1 << c for c in set(cell)))
        add.append(masks)
    _need(len(add) == n and all(len(r) == n for r in add),
          "hyperadd is not n x n")
    mem = [[_members(m) for m in row] for row in add]
    _need(z != o, "zero equals one")
    _need(all(add[x][y] == add[y][x] for x in range(n) for y in range(n)),
          "hyperaddition is not commutative")
    _need(all(add[x][z] == 1 << x for x in range(n)), "x + 0 != {x}")
    neg = []
    for x in range(n):
        ys = [y for y in range(n) if add[x][y] >> z & 1]
        _need(len(ys) == 1, f"{x} has {len(ys)} negatives")
        neg.append(ys[0])
    for x in range(n):
        for y in range(n):
            xy = mem[x][y]
            for w in range(n):
                left = 0
                for s in xy:
                    left |= add[s][w]
                right = 0
                for s in mem[y][w]:
                    right |= add[x][s]
                _need(left == right, f"(x+y)+z != x+(y+z) at {(x, y, w)}")
    for y in range(n):
        for w in range(n):
            for x in mem[y][w]:
                _need(add[x][neg[y]] >> w & 1,
                      f"reversibility fails at {(x, y, w)}")
    for a in range(n):
        ma = mul[a]
        _need(ma[z] == z and mul[z][a] == z, "zero is not absorbing")
        _need(ma[o] == a and mul[o][a] == a, "one is not neutral")
        for x in range(n):
            for y in range(n):
                image = 0
                for s in mem[x][y]:
                    image |= 1 << ma[s]
                _need(image == add[ma[x]][ma[y]],
                      f"a(x+y) != ax+ay at {(a, x, y)}")
                _need(mul[mul[a][x]][y] == ma[mul[x][y]],
                      "multiplication is not associative")
    nonzero = sorted(set(range(n)) - {z})
    for x in nonzero:
        _need(sorted(mul[x][y] for y in nonzero) == nonzero,
              "the nonzero elements are not a group")
    for x in nonzero:
        _need(add[x][x] == 1 << z | 1 << x, "x + x != {0, x}")
    return mem


def _hyper_lines(t, mem):
    """The lines {x, y} + (x+y) of the table, on the nonzero elements
    renumbered 0..n-2."""
    z = t["zero"]
    nonzero = [x for x in range(len(t["carrier"])) if x != z]
    idx = {x: i for i, x in enumerate(nonzero)}
    lines = {frozenset([idx[x], idx[y]] + [idx[w] for w in mem[x][y]])
             for x, y in combinations(nonzero, 2)}
    return len(nonzero), [sorted(line) for line in lines]


def _axioms_reported(p):
    rep = p["axioms"]
    _need(rep["hyperfield"] is True and all(rep["axioms"].values())
          and len(rep["axioms"]) == 9, "the axiom report does not pass")


def _kalg(p, order):
    t = p["table"]
    _hyperfield_axioms(t)
    n = order + 1
    _need(t["carrier"] == ["0"] + [str(g) for g in range(order)],
          "carrier is not {0} + C_n")
    _need(t["zero"] == 0 and t["one"] == 1, "zero/one are not 0/1")
    mul = [[0] * n] + [[0] + [(a + b) % order + 1 for b in range(order)]
                       for a in range(order)]
    _need(t["mul"] == mul, "mul is not the group law of C_n")
    add = [[[y] for y in range(n)]]
    for x in range(1, n):
        add.append([[x]] + [[0, x] if x == y else
                            [w for w in range(1, n) if w not in (x, y)]
                            for y in range(1, n)])
    _need(t["hyperadd"] == add, "hyperadd is not the single-line table")
    _axioms_reported(p)
    _need(p["classification"] == {"case": "single-line",
                                  "group_order": order},
          "classification is not single-line")


def _quotient_plane(p, order, roundtrip):
    t = p["table"]
    mem = _hyperfield_axioms(t)
    npts, lines = _hyper_lines(t, mem)
    projective_plane(npts, lines, order)
    _axioms_reported(p)
    if roundtrip:
        _need(p["roundtrip_exact"] is True, "roundtrip is not exact")
        cert = p["plane_certificate"]
        _need(cert["ok"] is True and cert["order"] == order,
              "the plane certificate does not pass with the right order")
    else:
        _need(p["contains_krasner"] is True and p["subfield_test"] is True,
              "the subfield criteria disagree")


def kalg(payload, order):
    return _run(_kalg, payload, order)


def quotient_plane(payload, order, roundtrip=False):
    return _run(_quotient_plane, payload, order, roundtrip)


# ---------------------------------------------------------------------------
# monomial groups over F1, and the divisibility lemma

def _f1(p, m, n):
    _need(p["m"] == m and p["n"] == n, "parameters do not match")
    _need(p["order"] == n * (m + 1), f"order {p['order']} != n(m+1)")
    _need(p["regular"] == {"regular": True,
                           "detail": {"order": n * (m + 1)}},
          "the action is not regular on n(m+1) points")


def _chain(p, m, chain):
    lim = p["limit"]
    _need(p["m"] == m and lim["m"] == m and lim["chain"] == chain,
          "parameters do not match")
    _need(lim["stages"] == [{"n": n, "order": n * (m + 1), "regular": True}
                            for n in chain],
          "a stage is not regular of order n(m+1)")
    _need(lim["coherent"] is True, "the chain is not coherent")


def _lemma(p, prime, top):
    _need(p["p"] == prime and p["max"] == top, "parameters do not match")
    rows = [{"i": i, "j": j,
             "divides": (prime ** (2 * j) + prime ** j + 1)
             % (prime ** (2 * i) + prime ** i + 1) == 0,
             "asserted": gcd(j // i, 3) == 1}
            for j in range(1, top + 1) for i in range(1, j + 1) if j % i == 0]
    _need(p["table"] == rows, "the divisibility table is wrong")
    _need(all(r["divides"] for r in rows if r["asserted"]),
          "an asserted case does not divide")
    _need(p["failures"] == [], "failures is not empty")


def f1(payload, m, n):
    return _run(_f1, payload, m, n)


def f1_chain(payload, m, chain):
    return _run(_chain, payload, m, chain)


def lemma(payload, prime, top):
    return _run(_lemma, payload, prime, top)


# ---------------------------------------------------------------------------
# --verify-only re-checks

def _reverified(p, kind):
    _need(p["kind"] == kind, f"kind {p['kind']!r}, expected {kind!r}")
    if kind == "difference-set":
        _need(p["ok"] is True, "the difference set does not re-verify")
    elif kind == "plane":
        _need(p["certificate"]["ok"] is True, "the plane does not re-verify")
    else:
        _axioms_reported(p)


def reverified(payload, kind):
    return _run(_reverified, payload, kind)
