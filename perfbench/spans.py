"""Spans around the public functions of each modwron module, recorded from
outside the package.

`Tracer.install()` wraps every function listed in WRAPPED and rebinds the
wrapper under each name that refers to the original in any loaded
`modwron.*` module, so a name imported into another module is traced too
(`wronskian` in `symmpow` and `cli`, `sym_quotient_closed_form` in `ssing`).
The QSeries operator methods are wrapped on the class.  Spans stay in
memory until the pass ends; `summarise` derives the per-layer metrics from
them and `write_spans` writes them out.
"""

import functools
import json
import sys
from math import lcm
from time import perf_counter

LAYERS = ("qseries", "etaprod", "modpoly", "wronskian", "symmpow", "ssing",
          "partitions", "cli")

# (module, attribute, span name); "QSeries.<method>" is wrapped on the class.
WRAPPED = (
    ("qseries", "QSeries.__mul__", "qseries.mul"),
    ("qseries", "QSeries.__rmul__", "qseries.mul"),
    ("qseries", "QSeries.__pow__", "qseries.mul"),
    ("qseries", "QSeries.__truediv__", "qseries.div"),
    ("qseries", "QSeries.__rtruediv__", "qseries.div"),
    ("qseries", "QSeries.invert", "qseries.div"),
    ("etaprod", "named_series", "etaprod.named_series"),
    ("etaprod", "eta", "etaprod.eta"),
    ("etaprod", "product_series", "etaprod.product_series"),
    ("modpoly", "identify", "modpoly.identify"),
    ("modpoly", "to_qseries", "modpoly.to_qseries"),
    ("modpoly", "theta_h", "modpoly.theta_h"),
    ("modpoly", "divisor_polynomial", "modpoly.divisor_polynomial"),
    ("wronskian", "wronskian", "wronskian.det"),
    ("wronskian", "wronskian_derived", "wronskian.det"),
    ("wronskian", "quotient_form", "wronskian.quotient_form"),
    ("symmpow", "sym_basis", "symmpow.sym_basis"),
    ("symmpow", "sym_wronskian_check", "symmpow.sym_wronskian_check"),
    ("symmpow", "r_recursion", "symmpow.r_recursion"),
    ("symmpow", "sym_quotient_closed_form", "symmpow.closed_form"),
    ("symmpow", "apply", "symmpow.apply"),
    ("symmpow", "r12_vanishing_roots", "symmpow.r12_roots"),
    ("ssing", "supersingular_report", "ssing.report"),
    ("ssing", "ss_poly_deligne", "ssing.deligne"),
    ("ssing", "ss_poly_wronskian", "ssing.wronskian_route"),
    ("ssing", "hasse_oracle", "ssing.hasse_oracle"),
    ("ssing", "linear_quadratic_split", "ssing.split"),
    ("ssing", "congruence_constant_check", "ssing.congruence"),
    ("partitions", "verify_recurrences", "partitions.verify_recurrences"),
    ("cli", "verify", "cli.verify"),
    ("cli", "symcheck_report", "cli.symcheck_report"),
)

# Determinant spans split by family size: k <= 4 goes to the cofactor
# engine by default, k >= 5 to Bareiss.
DET_GROUPS = (("wronskian.det_k_le4", lambda k: k <= 4),
              ("wronskian.det_k_ge5", lambda k: k >= 5))
DET_GROUP_NAMES = tuple(g for g, _ in DET_GROUPS)

# Span record fields.
NAME, START, END, PARENT, CHECK, ERROR, K, LATTICE = range(8)


def span_names():
    names = []
    for _, _, name in WRAPPED:
        if name not in names:
            names.append(name)
        if name == "wronskian.det" and DET_GROUP_NAMES[0] not in names:
            names.extend(DET_GROUP_NAMES)
    return names


def layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out += [(name + ".calls", "count"), (name + ".s", "s"),
                (name + ".self_s", "s")]
    out += [(layer + ".errors", "count") for layer in LAYERS]
    out += [(layer + ".self_share", "1") for layer in LAYERS]
    out += [("wronskian.det.lattice_ratio", "1"),
            ("wronskian.det.calls_per_check", "count"),
            ("ssing.deligne.calls_per_prime", "count"),
            ("trace.overhead_ratio", "1")]
    return out


def _family_shape(family, derived):
    """(k, L/Lv) of the family a determinant call is given.

    L is the lcm of the step and offset denominators, the lattice the
    Bareiss engine puts every column on; Lv is the lcm of the step
    denominators alone.
    """
    fs = list(family.series if hasattr(family, "series") else family)
    if derived:
        fs = [f.derive() for f in fs]
    lv = lcm(*(f.step_den for f in fs))
    big = lcm(lv, *(f.offset.denominator for f in fs))
    return len(fs), big // lv


class Tracer:
    """Records a span for each call into a wrapped function.

    A span is [name, start, end, parent index, check id, raised, k,
    lattice ratio]; k and the lattice ratio are set on determinant spans
    only, and are computed before the span's clock starts.
    """

    def __init__(self):
        self.spans = []
        self.check = None
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        derived = fn.__name__ == "wronskian_derived"
        is_det = name == "wronskian.det"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = ratio = None
            if is_det:
                k, ratio = _family_shape(
                    args[0] if args else kwargs["family"], derived)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.check,
                    False, k, ratio]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
        return wrapper

    def install(self):
        wrappers = {}
        for module, attr, name in WRAPPED:
            owner = sys.modules["modwron." + module]
            if attr.startswith("QSeries."):
                owner, attr = owner.QSeries, attr.split(".", 1)[1]
            fn = vars(owner)[attr]
            wrappers.setdefault(id(fn), (fn, self._wrap(fn, name)))
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "modwron" or key.startswith("modwron.")]
        namespaces.append(sys.modules["modwron.qseries"].QSeries)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._undo.append((ns, attr, value))

    def uninstall(self):
        for ns, attr, value in reversed(self._undo):
            setattr(ns, attr, value)
        self._undo.clear()


def _has_same_name_ancestor(spans, i):
    name = spans[i][NAME]
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def summarise(spans, wall_s, n_checks):
    """Per-layer metrics of one traced pass (without trace.overhead_ratio).

    `.s` is inclusive time counted once per outermost call, so a recursive
    span (`__pow__` calling `__mul__`) is not counted twice; `.self_s` is
    each span's duration minus that of its direct children.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    groups = {name: [] for name in span_names()}
    for i, s in enumerate(spans):
        groups[s[NAME]].append(i)
        if s[K] is not None:
            for group, member in DET_GROUPS:
                if member(s[K]):
                    groups[group].append(i)
    out = {}
    for name, idx in groups.items():
        out[name + ".calls"] = len(idx)
        out[name + ".s"] = sum(dur[i] for i in idx
                               if not _has_same_name_ancestor(spans, i))
        out[name + ".self_s"] = sum(dur[i] - child[i] for i in idx)
    for layer in LAYERS:
        out[layer + ".errors"] = sum(
            1 for s in spans if s[ERROR] and s[NAME].split(".")[0] == layer)
    for layer in LAYERS:
        own = sum(out[n + ".self_s"] for n in span_names()
                  if n.split(".")[0] == layer and n not in DET_GROUP_NAMES)
        out[layer + ".self_share"] = own / wall_s
    dets = groups["wronskian.det"]
    out["wronskian.det.lattice_ratio"] = max(
        (spans[i][LATTICE] for i in dets), default=0)
    out["wronskian.det.calls_per_check"] = len(dets) / n_checks
    reports = len(groups["ssing.report"])
    out["ssing.deligne.calls_per_prime"] = (
        len(groups["ssing.deligne"]) / reports if reports else 0)
    return out


def det_calls_by_check(spans):
    counts = {}
    for s in spans:
        if s[NAME] == "wronskian.det":
            counts[s[CHECK]] = counts.get(s[CHECK], 0) + 1
    return counts


def write_spans(path, spans, header):
    """One JSON line for the header, then one per span; times are seconds
    from the start of the pass."""
    t0 = header["pass_start"]
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for s in spans:
            fh.write(json.dumps({
                "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                "parent": s[PARENT], "check": s[CHECK], "error": s[ERROR],
                "k": s[K], "lattice_ratio": s[LATTICE]}) + "\n")
