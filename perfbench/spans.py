"""Per-layer spans and counters, installed from outside the program.

`Tracer.install()` replaces the public functions and methods of each
`singer` module listed in `LAYERS` with wrappers, in every `singer`
namespace that holds them, and `uninstall()` puts the originals back.  A
span's self time is its duration minus the durations of the spans it
encloses, so the timings of all layers add up to the time under the
outermost span.  Counters add one per call, or a size computed from the
call's arguments.
"""

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# metric name -> ("module", "qualified name", ...) of the functions whose
# self time it collects.  `cli.main` is the outermost span: its self time is
# argument parsing, payload assembly and whatever no other span covers.
LAYERS = {
    "gf.field_build_s": ("gf", "GF.__init__", "GF.primitive_element"),
    "groups.parse_s": ("groups", "parse_group", "*.parse", "*.validate",
                       "diffsets:PartialDifferenceSet.from_json"),
    "kernels.assoc_s": ("_backend", "assoc_witness"),
    "kernels.distrib_s": ("_backend", "distrib_witness"),
    "kernels.line_scan_s": ("_backend", "line_pair_witness",
                            "coverage_witness"),
    "diffsets.classical_s": ("diffsets", "classical_singer"),
    "diffsets.hughes_build_s": ("diffsets", "hughes_build", "hughes_step"),
    "diffsets.replay_s": ("diffsets", "replay_chain"),
    "diffsets.verify_s": ("diffsets", "verify_partial", "verify_perfect"),
    "geometry.plane_build_s": ("geometry", "plane_from_difference_set"),
    "geometry.action_s": ("geometry", "right_translation_action",
                          "verify_singer_action"),
    "geometry.pg_space_s": ("geometry", "pg_space", "pg_singer_structure"),
    "geometry.verify_plane_s": ("geometry", "verify_plane"),
    "hyper.table_build_s": ("hyper", "krasner", "k_algebra",
                            "quotient_hyperring", "field_quotient_table"),
    "hyper.check_axioms_s": ("hyper", "check_axioms"),
    "hyper.roundtrip_s": ("hyper", "hyperfield_to_geometry",
                          "geometry_to_hyperfield", "roundtrip_table",
                          "tables_equal"),
    "hyper.classify_s": ("hyper", "classify_extension", "tables_isomorphic",
                         "contains_krasner", "subfield_test",
                         "is_k_vectorspace"),
    "f1.construct_s": ("f1", "singer_first", "singer_general", "embed_singer",
                       "direct_limit_demo", "perm_closure",
                       "cyclic_shift_group", "dihedral_group",
                       "alternating_group", "full_symmetric_group",
                       "affine_group"),
    "f1.verify_regular_s": ("f1", "verify_regular"),
    "cli.emit_s": ("cli", "_emit",
                   "diffsets:PartialDifferenceSet.to_json",
                   "diffsets:BuilderState.log_json",
                   "diffsets:BuilderState.log_hash",
                   "geometry:IncidenceStructure.to_json",
                   "geometry:PlaneCertificate.to_json",
                   "hyper:HyperTable.to_json", "hyper:AxiomReport.to_json",
                   "f1:RegularityCertificate.to_json"),
    "cli.verify_only_s": ("cli", "cmd_verify_only", "cmd_verify_only_obj"),
    "cli.other_s": ("cli", "main"),
}

COUNTS = ("gf.mul_calls", "gf.add_calls", "groups.mul_calls",
          "groups.inv_calls", "kernels.triples", "kernels.line_pairs",
          "diffsets.candidates_scanned", "geometry.action_images",
          "hyper.check_axioms_calls")


def _line_pairs(args, result):
    """Line pairs `line_pair_witness` examined: all of them, or up to and
    including the witness it returns."""
    L = len(args[0])
    if result is None:
        return L * (L - 1) // 2
    i, j = result[0], result[1]
    return i * L - i * (i + 1) // 2 + (j - i)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []
        self._in_step = 0

    def metrics(self):
        out = {name: self.self_s.get(name, 0.0) for name in LAYERS}
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        return out

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        stack, self_s = self._stack, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def _count(self, name, fn, size=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if size is None else size(args, result)
            return result
        return wrapper

    def _counting_elements(self, fn):
        """Items drawn from a group's elements() while hughes_step runs."""
        tracer = self

        def drawn(it):
            for x in it:
                tracer.counts["diffsets.candidates_scanned"] += 1
                yield x

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            return drawn(it) if tracer._in_step else it
        return wrapper

    def _step(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._in_step += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_step -= 1
        return wrapper

    def _counting_action(self, fn):
        """The closure that right_translation_action returns, counted."""
        count = self._count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return count("geometry.action_images", fn(*args, **kwargs))
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _replace(self, owner, attr, make):
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        if inspect.ismodule(owner):
            # the same function may be imported by name into other modules
            for mod in _singer_modules():
                if mod.__dict__.get(attr) is raw:
                    self._saved.append((mod, attr, raw))
                    setattr(mod, attr, new)
        else:
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        import singer.cli  # noqa: F401  (loads every module)
        mods = {m.__name__.rpartition(".")[2]: m for m in _singer_modules()}
        groups, gf, diffsets, geometry = (mods["groups"], mods["gf"],
                                          mods["diffsets"], mods["geometry"])
        group_classes = [c for c in vars(groups).values()
                         if isinstance(c, type)
                         and issubclass(c, groups.GroupHandle)]

        # counters first, so that spans wrap the counted functions
        self._replace(gf.GF, "mul", lambda f: self._count("gf.mul_calls", f))
        self._replace(gf.GF, "add", lambda f: self._count("gf.add_calls", f))
        for cls in group_classes:
            for attr, name in (("mul", "groups.mul_calls"),
                               ("inv", "groups.inv_calls")):
                if attr in cls.__dict__:
                    self._replace(cls, attr,
                                  lambda f, n=name: self._count(n, f))
            if "elements" in cls.__dict__:
                self._replace(cls, "elements", self._counting_elements)
        self._replace(mods["hyper"], "check_axioms",
                      lambda f: self._count("hyper.check_axioms_calls", f))
        for fname in ("assoc_witness", "distrib_witness"):
            self._replace(mods["_backend"], fname, lambda f: self._count(
                "kernels.triples", f, lambda a, r: a[0] ** 3))
        self._replace(mods["_backend"], "line_pair_witness",
                      lambda f: self._count("kernels.line_pairs", f,
                                            _line_pairs))
        self._replace(diffsets, "hughes_step", self._step)
        self._replace(geometry, "right_translation_action",
                      self._counting_action)

        for metric, (home, *names) in LAYERS.items():
            for name in names:
                if ":" in name:
                    home_mod, name = name.split(":")
                else:
                    home_mod = home
                owner_name, _, attr = name.rpartition(".")
                if owner_name == "*":
                    owners = [c for c in group_classes if attr in c.__dict__]
                elif owner_name:
                    owners = [getattr(mods[home_mod], owner_name)]
                else:
                    owners = [mods[home_mod]]
                for owner in owners:
                    self._replace(owner, attr,
                                  lambda f, m=metric: self._span(m, f))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _singer_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "singer" or name.startswith("singer."))
            and m is not None]


def snapshot():
    """Every attribute of every singer module and of the classes they
    define, to show with `unchanged` that an uninstall left nothing
    behind."""
    out = {}
    for mod in _singer_modules():
        for attr, val in vars(mod).items():
            out[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    out[(mod.__name__, attr, cattr)] = cval
    return out


def unchanged(before):
    """Whether every attribute in the snapshot `before` is still the very
    same object, and no attribute was added."""
    after = snapshot()
    return after.keys() == before.keys() and all(
        after[k] is v for k, v in before.items())
