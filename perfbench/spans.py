"""In-memory spans around zdlab's public functions, for the traced run.

The traced run replaces each target function at every module attribute
bound to it (``optimize.objective_from_mask``, ``alliance.stationary``,
``cli.optimize_ga``, ...), because callers look the function up through
their own namespace. Each call records a span (name, start, end, parent);
per-layer totals are computed from the spans after the run. A target that
no longer exists is reported absent (value ``None``) instead of failing.
"""

from __future__ import annotations

import functools
import time
from array import array

# (module, function) pairs wrapped in the traced run, named by the module
# that defines them.
TARGETS = (
    ("graphs", "generate"), ("graphs", "betweenness"),
    ("field", "adjacency_matrix"), ("field", "objective_from_mask"),
    ("field", "evaluate"), ("field", "cooperator_ratio"),
    ("optimize", "optimize_ga"), ("optimize", "optimize_exhaustive"),
    ("game", "payoff_vectors"),
    ("markov", "build_transition_matrix"), ("markov", "stationary"),
    ("markov", "determinant_dot"), ("markov", "zd_determinant"),
    ("markov", "expected_payoffs"), ("markov", "with_owner"),
    ("alliance", "synthesize"), ("alliance", "verify_enforcement"),
    ("cli", "load_config"), ("cli", "build_graph"), ("cli", "run_sweep"),
    ("cli", "write_sweep_csv"),
)

GA_RUN = "optimize.optimize_ga"
FITNESS = "field.objective_from_mask"


class Recorder:
    """Spans kept as parallel arrays, in the order they were opened."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases = [""]
        self._phase = 0
        self.name_id = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._depth: list[int] = []
        # distinct fitness masks per GA run: one [seen, calls] per open run
        self._ga_masks: list[list] = []
        self.ga_runs: list[tuple[int, int]] = []
        self.mask_keys_ok = True

    def name_id_for(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._name_ids[name]

    def set_phase(self, label: str):
        """Tag the spans opened from now on (e.g. a verify rung)."""
        if label not in self.phases:
            self.phases.append(label)
        self._phase = self.phases.index(label)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(self._phase)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self._stack.pop()
        self._depth[self.name_id[idx]] -= 1

    def begin_ga_run(self, args, kwargs):
        self._ga_masks.append([set(), 0])

    def end_ga_run(self):
        seen, calls = self._ga_masks.pop()
        self.ga_runs.append((len(seen), calls))

    def note_mask(self, args, kwargs):
        if not self._ga_masks or not self.mask_keys_ok:
            return
        mask = kwargs["zd_mask"] if "zd_mask" in kwargs else (
            args[1] if len(args) > 1 else None)
        tobytes = getattr(mask, "tobytes", None)
        if tobytes is None:
            self.mask_keys_ok = False
            return
        entry = self._ga_masks[-1]
        entry[0].add(tobytes())
        entry[1] += 1

    def totals(self) -> dict:
        """``{(name, phase): {"calls", "busy_s", "self_s"}}``.

        ``busy_s`` sums the spans with no enclosing span of the same name;
        ``self_s`` is each span's duration minus the union of its direct
        children's intervals, clipped to the span.
        """
        n = len(self.start)
        covered = [0.0] * n
        covered_until = list(self.start)
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            lo = max(self.start[i], covered_until[p])
            hi = min(self.end[i], self.end[p])
            if hi > lo:
                covered[p] += hi - lo
                covered_until[p] = hi
        out: dict = {}
        for i in range(n):
            key = (self.names[self.name_id[i]], self.phases[self.phase[i]])
            t = out.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            t["calls"] += 1
            if self.outer[i]:
                t["busy_s"] += dur
            t["self_s"] += dur - covered[i]
        return out


def _wrap(rec: Recorder, name: str, fn, before=None, after=None):
    nid = rec.name_id_for(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
            if after is not None:
                after()

    return wrapper


def install(rec: Recorder, modules: dict, targets=TARGETS):
    """Wrap every target wherever a module in ``modules`` binds it.

    ``modules`` maps a short module name (``"field"``) to the module; all
    of them are searched for bindings. Returns ``(patched, originals)``:
    the list to pass to :func:`uninstall` and the wrapped functions by span
    name. A target missing from its module is left out of ``originals``.
    """
    patched, originals = [], {}
    for mod_name, fn_name in targets:
        name = f"{mod_name}.{fn_name}"
        orig = getattr(modules.get(mod_name), fn_name, None)
        if not callable(orig):
            continue
        originals[name] = orig
        hooks = {}
        if name == GA_RUN:
            hooks = {"before": rec.begin_ga_run, "after": rec.end_ga_run}
        elif name == FITNESS:
            hooks = {"before": rec.note_mask}
        wrapper = _wrap(rec, name, orig, **hooks)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, orig))
    return patched, originals


def uninstall(patched):
    for module, attr, orig in reversed(patched):
        setattr(module, attr, orig)


def layer_metric(rec: Recorder, originals: dict, totals: dict,
                 metric: str):
    """Value of a per-layer metric ``module.function.stat[.phase]``, or
    ``None`` when the function it measures is absent."""
    parts = metric.split(".")
    name, stat = ".".join(parts[:2]), parts[2]
    phase = parts[3] if len(parts) > 3 else None
    if name not in originals:
        return None
    if stat == "misses":
        info = getattr(originals[name], "cache_info", None)
        return None if info is None else info().misses
    if stat == "distinct_ratio":
        if not rec.mask_keys_ok:
            return None
        calls = sum(c for _, c in rec.ga_runs)
        return sum(d for d, _ in rec.ga_runs) / calls if calls else 0.0
    return sum(t[stat] for (span, ph), t in totals.items()
               if span == name and (phase is None or ph == phase))
