"""The four workloads: fixed lists of `singer` command lines.

An operation is one `singer.cli.main(argv)` call.  `saves` names the keys of
its payload that later `--verify-only` operations re-check; each is written
to `<op>.<key>.json` in the work directory between operations, outside the
timed calls.  `check` is the independent checker for the payload (see
check.py).  No seed reaches the program: the parameters below are its whole
input, so every run of a workload does the same work.
"""

from dataclasses import dataclass
from functools import partial

import check


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    check: object
    saves: tuple = ()


def _reverify(source, key, kind):
    """`--verify-only` on the `key` object of operation `source`."""
    return Op(f"{source}.{key}.verify", ("--verify-only", (source, key)),
              partial(check.reverified, kind=kind))


WORKLOADS = {
    # The classical Singer pipeline: discrete logs in GF(q^3), the plane,
    # the exhaustive line and action certificates, and PG(3,5) through
    # pg_space.  `classical --m 3` payloads are not re-checked: the
    # --verify-only path applies the lambda = 1 test to them.
    "planes": (
        Op("q16", ("classical", "--q", "16"),
           partial(check.classical, q=16), ("difference_set", "plane")),
        Op("q23", ("classical", "--q", "23"),
           partial(check.classical, q=23), ("difference_set", "plane")),
        Op("pg3_5", ("classical", "--q", "5", "--m", "3"),
           partial(check.classical, q=5, m=3)),
        _reverify("q16", "difference_set", "difference-set"),
        _reverify("q16", "plane", "plane"),
        _reverify("q23", "difference_set", "difference-set"),
        _reverify("q23", "plane", "plane"),
    ),
    # The greedy construction on Z and on free groups: group arithmetic,
    # candidate rescans and the prefix replay.  No field, geometry or
    # kernel code runs.
    "hughes": (
        Op("integers", ("hughes", "--group", "integers", "--targets", "250"),
           partial(check.hughes, group="integers", targets=250),
           ("difference_set",)),
        Op("free2", ("hughes", "--group", "free:2", "--targets", "150"),
           partial(check.hughes, group="free:2", targets=150),
           ("difference_set",)),
        Op("free3", ("hughes", "--group", "free:3", "--targets", "150"),
           partial(check.hughes, group="free:3", targets=150),
           ("difference_set",)),
        _reverify("integers", "difference_set", "difference-set"),
        _reverify("free2", "difference_set", "difference-set"),
        _reverify("free3", "difference_set", "difference-set"),
    ),
    # Hyperfield tables: the cubic axiom scans, the quotient of GF(5^3)
    # and of GF(2^9), the geometry roundtrip and the classification.
    "hyperfields": (
        Op("kalg30", ("hyper", "kalg", "--n", "30"),
           partial(check.kalg, order=30), ("table",)),
        Op("quot5", ("hyper", "quotient", "--p", "5", "--ext", "3"),
           partial(check.quotient_plane, order=5), ("table",)),
        Op("round8", ("hyper", "roundtrip", "--p", "8", "--ext", "3"),
           partial(check.quotient_plane, order=8, roundtrip=True),
           ("table",)),
        _reverify("kalg30", "table", "hypertable"),
        _reverify("quot5", "table", "hypertable"),
        _reverify("round8", "table", "hypertable"),
    ),
    # Monomial regular groups over F1 and the divisibility lemma.
    "monomial": (
        Op("m9n100", ("f1", "--m", "9", "--n", "100"),
           partial(check.f1, m=9, n=100)),
        Op("affine22", ("f1", "--m", "22", "--n", "22", "--S", "affine:22"),
           partial(check.f1, m=22, n=22)),
        Op("chain5", ("f1", "--m", "5", "--chain", "1,3,9,27,81"),
           partial(check.f1_chain, m=5, chain=[1, 3, 9, 27, 81])),
        Op("lemma2", ("lemma", "--p", "2", "--max", "200"),
           partial(check.lemma, prime=2, top=200)),
    ),
}
