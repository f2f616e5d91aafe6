"""Command-line front door.

Subcommands construct, verify, classify and export; JSON goes to standard
output with sorted keys (byte-identical across runs), the human log goes to
standard error.  Exit codes: 0 all certificates passed, 1 usage or domain
error, 2 verification failure with counterexample, 3 bounded failure.
"""

import argparse
import json
import sys
from math import factorial, gcd

from .errors import DomainError, CapError, BoundedFailure, Certificate
from . import gf
from .groups import parse_group, Cyclic, FieldQuotient
from . import diffsets
from . import geometry
from . import hyper
from . import f1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BOUNDED = 3


def _log(msg):
    print(msg, file=sys.stderr)


def _emit(payload, out=None):
    text = json.dumps(payload, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        _log(f"payload written to {out}")
    print(text)


def _finish(payload, out, ok, passed, failed):
    """Emit the payload, log `passed` or `failed` and return the exit
    code of a command whose certificates all passed (`ok`) or not."""
    _emit(payload, out)
    _log(passed if ok else failed)
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------

def _classical(q, m):
    """(payload, ok) of `classical --q q --m m`."""
    geometry.pg_size(q, m)
    G, pds = diffsets.classical_singer(q, m)
    _log(f"hyperplane set: v={G.order} k={len(pds.elements)}")
    payload = {"difference_set": pds.to_json()}
    if m == 2:
        cert = diffsets.verify_perfect(pds)
        payload["perfect"] = cert.ok
        payload["detail"] = cert.detail
        gamma = geometry.plane_from_difference_set(G, pds)
        pcert = geometry.verify_plane(gamma)
        payload["plane"] = gamma.to_json()
        payload["plane_certificate"] = pcert.to_json()
        plane_ok = cert.ok and pcert.ok
    else:
        # higher dimensions: the exponent indexing realizes the cyclic
        # shift as a line-preserving regular action on PG(m, q)
        gamma = geometry.pg_singer_structure(q, m)
        payload["space"] = gamma.to_json()
        plane_ok = True
    act = geometry.right_translation_action(G)
    acert = geometry.verify_singer_action(gamma, G, act)
    payload["action_regular"] = acert.ok
    payload["action_detail"] = acert.detail
    return payload, plane_ok and acert.ok


def cmd_classical(args):
    payload, ok = _classical(args.q, args.m)
    return _finish(payload, args.out, ok, "all certificates passed",
                   "verification failure")


def cmd_hughes(args):
    G = parse_group(args.group)
    state = diffsets.hughes_build(G, args.targets, args.bound)
    sizes = diffsets.replay_chain(state)
    _log(f"built |S|={len(state.current.elements)} over {len(state.log)} "
         f"targets; {len(sizes)} prefixes re-certified; furthest candidate "
         f"position {state.drawn - 1} (--bound {args.bound})")
    payload = {"difference_set": state.current.to_json(),
               "log": state.log_json(),
               "log_hash": state.log_hash(),
               "prefixes_certified": len(sizes)}
    _emit(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _table_report(T):
    rep = hyper.check_axioms(T)
    return {"table": T.to_json(), "axioms": rep.to_json()}, rep


def _integers(flag, text):
    """The comma-separated integers of a flag's value, or DomainError."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise DomainError(f"{flag} {text!r}: need comma-separated "
                          f"integers") from None


def _quotient_from_args(args):
    if args.generators:
        p, a = gf.factor_prime_power(args.p)
        F = gf.GF(p, a * args.ext)
        gens = _integers("--generators", args.generators)
        return hyper.quotient_hyperring(hyper.QuotientSpec(F, gens))
    return hyper.field_quotient_table(args.p, args.ext)


def cmd_hyper(args):
    if args.hyper_cmd == "krasner":
        T = hyper.krasner()
        payload, rep = _table_report(T)
    elif args.hyper_cmd == "kalg":
        T = hyper.k_algebra(Cyclic(args.n))
        payload, rep = _table_report(T)
        if rep.passed():
            payload["classification"] = hyper.classify_extension(T, rep)
    elif args.hyper_cmd == "quotient":
        T = _quotient_from_args(args)
        payload, rep = _table_report(T)
        payload["contains_krasner"] = hyper.contains_krasner(T)
        payload["subfield_test"] = hyper.subfield_test(T.quotient)
        if payload["contains_krasner"] != payload["subfield_test"]:
            return _finish(payload, args.out, False, None, "criterion "
                           "mismatch: table closure vs subfield test")
        if hyper.is_k_vectorspace(T):
            payload["classification"] = hyper.classify_extension(T, rep)
    elif args.hyper_cmd == "classify":
        with open(args.infile) as fh:
            T = hyper.HyperTable.from_json(json.load(fh))
        payload, rep = _table_report(T)
        payload["classification"] = hyper.classify_extension(T, rep)
    else:  # roundtrip
        T = _quotient_from_args(args)
        payload, rep = _table_report(T)
        plane_ok = True
        if args.ext == 3:
            # GF(q^m)/GF(q)^x is PG(m-1, q): a plane only for m = 3
            pcert = geometry.verify_plane(hyper.hyperfield_to_geometry(T))
            payload["plane_certificate"] = pcert.to_json()
            plane_ok = pcert.ok
        back = hyper.roundtrip_table(T)
        same = hyper.tables_equal(T, back)
        payload["roundtrip_exact"] = same
        return _finish(payload, args.out, rep.passed() and plane_ok and same,
                       "roundtrip exact; all certificates passed",
                       "roundtrip verification failure")
    return _finish(payload, args.out, rep.passed(), "axioms passed",
                   "axiom failure")


# ---------------------------------------------------------------------------

def _fiber_group(spec, m):
    """The permutation group that the --S flag names, which the parser
    lower-cases.  A regular group has one element per point, so a fiber
    group whose order, read off its closed form, is past the point cap is
    refused before any permutation is listed."""
    degree = m + 1
    if spec == "cycle":
        order, build = degree, f1.cyclic_shift_group
    elif spec in ("full", "symmetric"):
        order, build = factorial(degree), f1.full_symmetric_group
    elif spec in ("alternating", "alt"):
        order, build = factorial(degree) // 2, f1.alternating_group
    elif spec in ("dihedral", "dih"):
        order, build = 2 * degree, f1.dihedral_group
    elif spec.startswith("affine:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"--S {spec}: affine:k needs an integer k")
        order, build = degree * k, lambda p: f1.affine_group(p, k)
    else:
        raise DomainError(f"unknown fiber group spec {spec!r}")
    if order > f1.F1_POINT_CAP:
        raise CapError(f"--S {spec} on {degree} points has more elements "
                       f"than the point cap {f1.F1_POINT_CAP}, and a regular "
                       f"group has one per point")
    return build(degree)


def cmd_f1(args):
    payload = {"m": args.m}
    if args.chain:
        levels = _integers("--chain", args.chain)
        if args.S != "cycle":
            raise DomainError("chains use the diagonal construction; "
                              "the fiber group must be sharply transitive")
    elif args.n is None:
        raise DomainError("need --n or --chain")
    else:
        levels = [args.n]
    # the largest space first: the fiber group is listed only below the cap
    f1.space_size(args.m, max(levels))
    S = _fiber_group(args.S, args.m)
    if args.chain:
        payload["limit"] = f1.direct_limit_demo(args.m, levels, S)
        return _finish(payload, args.out, payload["limit"]["coherent"],
                       "chain coherent", "chain incoherent")
    if args.S == "cycle":
        A = f1.singer_first(args.m, args.n, S)
    else:
        A = f1.singer_general(S, args.n)
    cert = f1.verify_regular(A)
    payload.update({"n": args.n, "construction": A.construction,
                    "order": A.order, "regular": cert.to_json()})
    return _finish(payload, args.out, cert.ok,
                   f"group of order {A.order} regular on "
                   f"{A.space.npoints} points", "regularity failure")


# ---------------------------------------------------------------------------

# The most bits the sweep's largest integer, p^(2 top), may have.  The
# largest sweeps accepted (p = 2 with top 4095, or p near 2^20 with top 204)
# take at most about 1.5 s on pure Python (2 vCPUs), payload included.
LEMMA_BITS_CAP = 2 ** 13


def _lemma(p, top):
    """(payload, ok) of `lemma --p p --max top`: the divisibility sweep
    over i | j <= top."""
    if p > gf.SIZE_CAP:
        raise CapError("p exceeds the field size cap 2^20")
    if not gf.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if top < 1:
        raise DomainError(f"max must be >= 1, not {top}")
    # p >= 2, so p^(2 top) has more than 2 top bits: no huge power is formed
    if (top > LEMMA_BITS_CAP // 2
            or (p ** (2 * top)).bit_length() > LEMMA_BITS_CAP):
        raise CapError(f"p^(2 max) exceeds the lemma cap of "
                       f"{LEMMA_BITS_CAP} bits")
    table = []
    failures = []
    for j in range(1, top + 1):
        for i in range(1, j + 1):
            if j % i != 0:
                continue
            divides = gf.singer_divisibility(p, i, j)
            asserted = gcd(j // i, 3) == 1
            table.append({"i": i, "j": j, "divides": divides,
                          "asserted": asserted})
            if asserted and not divides:
                failures.append({"i": i, "j": j})
    return {"p": p, "max": top, "table": table,
            "failures": failures}, not failures


def cmd_lemma(args):
    payload, ok = _lemma(args.p, args.max)
    return _finish(payload, args.out, ok,
                   "all asserted divisibility cases hold",
                   f"{len(payload['failures'])} asserted cases failed")


# ---------------------------------------------------------------------------

def cmd_verify_only(path, out):
    with open(path) as fh:
        obj = json.load(fh)
    report, ok = cmd_verify_only_obj(obj)
    _emit(report, out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify_only_obj(obj):
    """(report, ok) for one payload object.  Payloads that wrap a
    difference set under `difference_set`, or a hypertable under `table`,
    are unwrapped by calling this again; a `hughes` payload's log is
    replayed and its hash recomputed.  `classical` and `lemma` payloads
    are rebuilt from their inputs and compared key by key."""
    if not isinstance(obj, dict):
        raise DomainError("unrecognized payload shape")
    if "carrier" in obj:
        T = hyper.HyperTable.from_json(obj)
        rep = hyper.check_axioms(T)
        return {"kind": "hypertable", "axioms": rep.to_json()}, rep.passed()
    if "elements" in obj and "group" in obj:
        return _set_report(obj, diffsets.PartialDifferenceSet.from_json(obj))
    if "points" in obj and "lines" in obj:
        meta = obj.get("meta")
        if isinstance(meta, dict) and meta.get("construction") == "pg-singer":
            # a space of dimension >= 3 is no plane, and it has no
            # certificate of its own: its payload's rebuild is the check
            raise DomainError("a bare PG(m, q) space cannot be re-checked "
                              "alone; re-check the whole classical payload")
        gamma = geometry.IncidenceStructure.from_json(obj)
        cert = geometry.verify_plane(gamma)
        return {"kind": "plane", "certificate": cert.to_json()}, cert.ok
    if "difference_set" in obj and ("plane" in obj or "space" in obj):
        S = diffsets.PartialDifferenceSet.from_json(obj["difference_set"])
        G = S.group
        if not isinstance(G, FieldQuotient):
            raise DomainError("a classical payload needs a fieldquot group")
        kind = "singer-space" if "space" in obj else "singer-plane"
        return _rebuilt(kind, obj, *_classical(G.q, G.m - 1))
    if "difference_set" in obj:
        if "log" not in obj and "log_hash" not in obj:
            return cmd_verify_only_obj(obj["difference_set"])
        # the set is parsed once, for its own check and for the log's
        state = diffsets.BuilderState.from_json(obj)
        report, ok = _set_report(obj["difference_set"], state.current)
        cert = diffsets.verify_log(state, obj.get("log_hash"))
        if cert.ok and obj.get("prefixes_certified") != len(state.log):
            cert = Certificate(False, {
                "prefixes_certified": obj.get("prefixes_certified")})
        report["log"] = {"ok": cert.ok, "detail": cert.detail}
        return report, ok and cert.ok
    if isinstance(obj.get("table"), dict):
        # a whole `hyper` payload: its axioms and classification
        T = hyper.HyperTable.from_json(obj["table"])
        rep = hyper.check_axioms(T)
        rebuilt = {"axioms": rep.to_json()}
        if "classification" in obj and rep.passed():
            rebuilt["classification"] = hyper.classify_extension(T, rep)
        recorded = {k: obj[k] for k in ("axioms", "classification")
                    if k in obj}
        return _rebuilt("hypertable", recorded, rebuilt, rep.passed())
    if isinstance(obj.get("table"), list) and "failures" in obj:
        p, top = obj.get("p"), obj.get("max")
        if type(p) is not int or type(top) is not int:
            raise DomainError("a lemma payload needs integers p and max")
        return _rebuilt("lemma", obj, *_lemma(p, top))
    raise DomainError("unrecognized payload shape")


def _set_report(obj, S):
    """(report, ok) for the difference set S that `obj` records; a
    recorded `certified` claim must agree with the re-check."""
    cert = diffsets.verify_partial(S)
    report = {"kind": "difference-set", "ok": cert.ok, "detail": cert.detail}
    if "certified" in obj and obj["certified"] is not cert.ok:
        report["recorded_certified"] = obj["certified"]
        return report, False
    return report, cert.ok


def _rebuilt(kind, obj, payload, ok):
    """(report, ok) for a recorded payload against its rebuild: it passes
    when every key of either matches and the rebuild's certificates pass."""
    matches = {k: k in obj and k in payload and obj[k] == payload[k]
               for k in sorted(obj.keys() | payload.keys())}
    return {"kind": kind, "matches": matches}, ok and all(matches.values())


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError, so they exit 1 with one line."""

    def error(self, message):
        raise DomainError(message)


def build_parser():
    ap = _Parser(
        prog="singer",
        description="Singer groups of projective planes and spaces: "
                    "classical constructions, greedy difference-set "
                    "building, hyperfield algebra, and monomial actions.")
    ap.add_argument("--verify-only", metavar="FILE",
                    help="re-check a previously emitted JSON payload")
    ap.add_argument("--out", metavar="FILE",
                    help="also write the JSON payload to a file")
    sub = ap.add_subparsers(dest="cmd")

    p = sub.add_parser("classical", help="cyclic Singer difference set")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.set_defaults(run=cmd_classical)

    p = sub.add_parser("hughes", help="greedy partial difference set")
    p.add_argument("--group", required=True)
    p.add_argument("--targets", type=int, required=True)
    p.add_argument("--bound", type=int,
                   default=diffsets.DEFAULT_SEARCH_BOUND)
    p.set_defaults(run=cmd_hughes)

    p = sub.add_parser("hyper", help="hyperfield constructions")
    p.set_defaults(run=cmd_hyper)
    hs = p.add_subparsers(dest="hyper_cmd", required=True)
    hs.add_parser("krasner")
    pk = hs.add_parser("kalg")
    pk.add_argument("--n", type=int, required=True)
    for name in ("quotient", "roundtrip"):
        pq = hs.add_parser(name)
        pq.add_argument("--p", type=int, required=True,
                        help="a prime power; the base field is GF(p)")
        pq.add_argument("--ext", type=int, required=True)
        pq.add_argument("--generators", default=None,
                        help="unit subgroup generators (element codes)")
    pc = hs.add_parser("classify")
    pc.add_argument("--in", dest="infile", metavar="FILE", required=True,
                    help="a hypertable JSON file")

    p = sub.add_parser("f1", help="monomial regular groups")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--chain", default=None)
    p.add_argument("--S", default="cycle", type=str.lower)
    p.set_defaults(run=cmd_f1)

    p = sub.add_parser("lemma", help="divisibility sweep")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max", type=int, default=12)
    p.set_defaults(run=cmd_lemma)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.verify_only:
            return cmd_verify_only(args.verify_only, args.out)
        if args.cmd is None:
            ap.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.run(args)
    except BoundedFailure as exc:
        _log(f"bounded failure: {exc}")
        return EXIT_BOUNDED
    except (DomainError, CapError, OSError, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
