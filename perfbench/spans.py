"""Outside-in span recorder for torusbase's public functions.

``Tracer.install()`` replaces each function named in ``LAYERS`` with a
wrapper, in every ``torusbase`` module namespace that holds it (a module that
did ``from .exact import snf`` holds its own reference, so patching only the
defining module would miss those calls), and ``uninstall()`` puts the
originals back.  Methods are patched on their class.  Nothing under ``src/``
is edited.

Each call records a span ``[name, start, end, parent, op]`` in memory; the
spans are written out once, when the traced run ends.  A span's self time is
its duration minus the durations of its child spans.  The traced run traces
one set-up and its traced passes; each per-layer figure is the set-up's plus
that of the median traced pass, so set-up work (``catalog.build``,
``affine.validate_affine``) shows next to the pass work.  Hot accessors such as
``CellComplex.faces_of`` are left unwrapped on purpose.

Counters (matrix shapes, nonzeros, ranks, entry bit lengths, ``None``
results, document bytes) are computed from arguments and results in the
wrapper.  The time they take is kept off the span clock (``now()`` subtracts
it), so they do not inflate any layer's self time; it does show in the
traced run's wall time and so in ``trace.overhead_ratio``.  The untraced
runs never compute them.
"""

import functools
import importlib
import json
import statistics
import sys
from fractions import Fraction
from time import perf_counter

# module -> public functions wrapped; "Class.method" entries are patched on
# the class.  Span names are "<module>.<function>", with __init__ shown as
# "init", and LinearSystem.__init__ and .solve split by the system's ring
# into init_z / init_q and solve_z / solve_q.
LAYERS = {
    "exact": [
        "hnf",
        "snf",
        "rref",
        "LinearSystem.__init__",
        "LinearSystem.solve",
        "preimage_lattice",
        "PresentedGroup.__init__",
        "QuotientSpace.__init__",
    ],
    "sheaves": [
        "CellularSheaf.differential",
        "cohomology",
        "induced_map",
        "restriction_on_cohomology",
        "restrict_sheaf",
    ],
    "affine": [
        "build_R_sheaf",
        "build_I_sheaf",
        "dhat",
        "lagrangian_moduli",
        "monodromy_rep",
        "validate_affine",
    ],
    "complexes": [
        "validate",
        "classify_surface",
        "pi1_presentation",
        "vertex_star_cycle",
        "boundary_traversal",
        "identify_cells",
    ],
    "polytopes": ["vertices", "delzant_check"],
    "surgery": ["glue", "gluing_obstruction", "realizability_report_2d", "chern_class_coordinates"],
    "catalog": ["build", "verify"],
    "serialize": ["dumps", "loads", "encode_document"],
    "cli": ["main"],
}


def _span_names(module, qual):
    if qual == "LinearSystem.__init__":
        return ["exact.LinearSystem.init_z", "exact.LinearSystem.init_q"]
    if qual == "LinearSystem.solve":
        return ["exact.LinearSystem.solve_z", "exact.LinearSystem.solve_q"]
    return ["%s.%s" % (module, qual.replace("__init__", "init"))]


SPAN_NAMES = [n for module, quals in LAYERS.items() for q in quals for n in _span_names(module, q)]

# extra per-span statistics: (span name, stat, unit, better)
EXTRA_STATS = [
    ("exact.hnf", "rows_max", "count", "lower"),
    ("exact.hnf", "cols_max", "count", "lower"),
    ("exact.hnf", "nnz_ratio", "ratio", "higher"),
    ("exact.hnf", "rank_ratio", "ratio", "higher"),
    ("exact.snf", "rows_max", "count", "lower"),
    ("exact.snf", "cols_max", "count", "lower"),
    ("exact.snf", "nnz_ratio", "ratio", "higher"),
    ("exact.snf", "entry_bits_max", "bits", "lower"),
    ("exact.rref", "rows_max", "count", "lower"),
    ("exact.rref", "cols_max", "count", "lower"),
    ("exact.rref", "nnz_ratio", "ratio", "higher"),
    ("exact.LinearSystem.solve_z", "none_ratio", "ratio", "lower"),
    ("exact.LinearSystem.solve_q", "none_ratio", "ratio", "lower"),
    ("sheaves.CellularSheaf.differential", "nnz_ratio", "ratio", "higher"),
    ("sheaves.CellularSheaf.differential", "cols_max", "count", "lower"),
    ("serialize.dumps", "bytes", "bytes", "lower"),
    ("serialize.loads", "bytes", "bytes", "lower"),
]

TRACE_STATS = [
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for span in SPAN_NAMES:
        specs.append((span + ".calls", "count", "lower"))
        specs.append((span + ".self_s", "s", "lower"))
        specs += [("%s.%s" % (s, stat), unit, better) for s, stat, unit, better in EXTRA_STATS if s == span]
    specs += TRACE_STATS
    return specs


# ---------------------------------------------------------------------------
# counters, computed from arguments and results only


def _nnz(M):
    return sum(1 for x in M.flat if x != 0)


def _shape(stats, M):
    rows, cols = M.shape
    stats["rows_max"] = max(stats.get("rows_max", 0), rows)
    stats["cols_max"] = max(stats.get("cols_max", 0), cols)
    stats["nnz"] = stats.get("nnz", 0) + _nnz(M)
    stats["entries"] = stats.get("entries", 0) + rows * cols


def _count_hnf(stats, args, result):
    M = args[0]
    _shape(stats, M)
    H = result[0]
    stats["rank"] = stats.get("rank", 0) + sum(1 for i in range(H.shape[0]) if any(x != 0 for x in H[i]))
    stats["rows"] = stats.get("rows", 0) + M.shape[0]


def _count_snf(stats, args, result):
    _shape(stats, args[0])
    bits = max((abs(int(x)).bit_length() for A in (result.D, result.U, result.V) for x in A.flat), default=0)
    stats["entry_bits_max"] = max(stats.get("entry_bits_max", 0), bits)


def _count_rref(stats, args, result):
    _shape(stats, args[0])


def _count_solve(stats, args, result):
    stats["none"] = stats.get("none", 0) + (result is None)


def _count_differential(stats, args, result):
    stats["cols_max"] = max(stats.get("cols_max", 0), result.shape[1])
    stats["nnz"] = stats.get("nnz", 0) + _nnz(result)
    stats["entries"] = stats.get("entries", 0) + result.shape[0] * result.shape[1]


def _count_dumps(stats, args, result):
    stats["bytes"] = stats.get("bytes", 0) + len(result.encode("utf-8"))


def _count_loads(stats, args, result):
    stats["bytes"] = stats.get("bytes", 0) + len(args[0].encode("utf-8"))


COUNTERS = {
    "exact.hnf": _count_hnf,
    "exact.snf": _count_snf,
    "exact.rref": _count_rref,
    "exact.LinearSystem.solve_z": _count_solve,
    "exact.LinearSystem.solve_q": _count_solve,
    "sheaves.CellularSheaf.differential": _count_differential,
    "serialize.dumps": _count_dumps,
    "serialize.loads": _count_loads,
}


def _linear_system_name(args):
    """init_q when the matrix has a rational entry, as LinearSystem decides."""
    M = args[1]
    rational = any(isinstance(x, Fraction) for x in M.flat)
    return "exact.LinearSystem.init_q" if rational else "exact.LinearSystem.init_z"


def _solve_name(args):
    """solve_q when the system was built over Q (see _linear_system_name)."""
    rational = getattr(args[0], "_rational", False)
    return "exact.LinearSystem.solve_q" if rational else "exact.LinearSystem.solve_z"


NAME_FOR = {"LinearSystem.__init__": _linear_system_name, "LinearSystem.solve": _solve_name}


# ---------------------------------------------------------------------------
# the recorder


class Tracer:
    """Wraps LAYERS, records spans per pass and reduces them to metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stats = {}  # span name -> counter dict, for the current pass
        self.passes = []  # per traced pass: {"wall_s", "untraced_s", "spans": {name: {...}}}
        self.setup = None  # the traced set-up, in the same form
        self._stack = []
        self._excluded = 0.0
        self._patches = []
        self._first_span = 0
        self._pass_start = 0.0
        self.op = -1

    def now(self):
        """Span clock: wall time minus the time spent computing counters."""
        return perf_counter() - self._excluded

    def _wrap(self, fn, name, name_for=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name_for is not None:
                t = perf_counter()
                span_name = name_for(args)
                tracer._excluded += perf_counter() - t
            spans = tracer.spans
            stack = tracer._stack
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = tracer.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.now()
                stack.pop()
            counter = COUNTERS.get(span_name)
            if counter is not None:
                t = perf_counter()
                counter(tracer.stats.setdefault(span_name, {}), args, result)
                tracer._excluded += perf_counter() - t
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "torusbase" or n.startswith("torusbase.")]
        by_id = {}
        for module, quals in LAYERS.items():
            mod = importlib.import_module("torusbase." + module)
            for qual in quals:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = vars(owner).get(attr)
                if fn is None:
                    continue  # gone from the program: reported as zero calls
                wrapper = self._wrap(fn, _span_names(module, qual)[0], NAME_FOR.get(qual))
                if owner_name:
                    self._patch(owner, attr, wrapper)
                else:
                    by_id[id(fn)] = (fn, wrapper)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def begin_pass(self):
        self.install()
        self.stats = {}
        self._first_span = len(self.spans)
        self._pass_start = self.now()

    def end_pass(self, setup=False):
        """Reduce the spans since begin_pass(); setup=True files them as the
        traced set-up rather than as a pass."""
        end = self.now()
        self.uninstall()
        spans = self.spans[self._first_span:]
        first = self._first_span
        agg = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        child = [0.0] * len(spans)
        covered = 0.0
        for s in spans:
            duration = s[2] - s[1]
            if s[3] >= first:
                child[s[3] - first] += duration
            else:
                covered += duration
        for s, inner in zip(spans, child):
            entry = agg[s[0]]
            entry["calls"] += 1
            entry["self_s"] += (s[2] - s[1]) - inner
        for name, counters in self.stats.items():
            agg[name].update(counters)
        wall = end - self._pass_start
        record = {"wall_s": wall, "untraced_s": wall - covered, "spans": agg}
        if setup:
            self.setup = record
        else:
            self.passes.append(record)

    def metrics(self, overhead_ratio):
        """Per-layer metrics: counts, self times, bytes and untraced time of
        the traced set-up plus the median traced pass; maxima of shapes and
        ratios pooled over the set-up and every traced pass."""
        out = {}
        units = {name: unit for name, unit, _ in metric_specs()}
        setup = self.setup or {"untraced_s": 0.0, "spans": {name: {} for name in SPAN_NAMES}}
        records = [setup] + self.passes

        def per_run(span, stat):
            median = statistics.median(p["spans"][span].get(stat, 0) for p in self.passes)
            return setup["spans"][span].get(stat, 0) + median

        def pooled(name, num, den):
            n = sum(p["spans"][name].get(num, 0) for p in records)
            d = sum(p["spans"][name].get(den, 0) for p in records)
            return n / d if d else 0.0

        for metric in units:
            if metric.startswith("trace."):
                continue
            span, _, stat = metric.rpartition(".")
            if stat in ("calls", "self_s", "bytes"):
                value = per_run(span, stat)
            elif stat.endswith("_max"):
                value = max(p["spans"][span].get(stat, 0) for p in records)
            elif stat == "nnz_ratio":
                value = pooled(span, "nnz", "entries")
            elif stat == "rank_ratio":
                value = pooled(span, "rank", "rows")
            elif stat == "none_ratio":
                value = pooled(span, "none", "calls")
            else:
                raise KeyError(metric)
            out[metric] = value
        out["trace.untraced_s"] = setup["untraced_s"] + statistics.median(p["untraced_s"] for p in self.passes)
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": out[name], "unit": units[name]} for name in units}

    def write(self, path, meta):
        """Write all spans as Chrome trace events (viewable in Perfetto)."""
        events = [
            {
                "name": s[0],
                "ph": "X",
                "ts": round(s[1] * 1e6, 3),
                "dur": round((s[2] - s[1]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"span": i, "parent": s[3], "op": s[4]},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "otherData": meta}, fh)
