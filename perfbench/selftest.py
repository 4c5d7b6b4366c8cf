"""Self-tests of the benchmark's span arithmetic and wrapping.

Run from the repository root: ``python3 perfbench/selftest.py``.
"""

import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        rec = spans.Recorder(clock)
        outer, inner, leaf = (rec.name_id_for(n) for n in ("a.outer", "b.inner", "c.leaf"))

        def at(t):
            clock.now = t

        at(0.0)
        top = rec.open(outer)             # a.outer: 0 .. 10
        at(1.0)
        first = rec.open(inner)           # b.inner: 1 .. 4
        at(2.0)
        deep = rec.open(leaf)             # c.leaf:  2 .. 3, inside b.inner
        at(3.0)
        rec.close(deep)
        at(4.0)
        rec.close(first)
        at(6.0)
        second = rec.open(inner)          # b.inner: 6 .. 7
        at(6.5)
        again = rec.open(inner)           # b.inner nested in itself: 6.5 .. 6.75
        at(6.75)
        rec.close(again)
        at(7.0)
        rec.close(second)
        at(10.0)
        rec.close(top)

        totals = rec.totals()
        a, b, c = (totals[name, ""] for name in ("a.outer", "b.inner", "c.leaf"))
        # a.outer: 10 long, its children cover 1..4 and 6..7
        self.assertEqual((a["calls"], a["busy_s"], a["self_s"]), (1, 10.0, 6.0))
        # b.inner: busy counts only the outermost spans (3 + 1); self time
        # is (3 - 1) + (1 - 0.25) + 0.25
        self.assertEqual(b["calls"], 3)
        self.assertEqual(b["busy_s"], 4.0)
        self.assertEqual(b["self_s"], 3.0)
        self.assertEqual((c["calls"], c["busy_s"], c["self_s"]), (1, 1.0, 1.0))

    def test_phase_suffix(self):
        clock = FakeClock()
        rec = spans.Recorder(clock)
        nid = rec.name_id_for("m.f")
        for label, length in (("small", 1.0), ("n10", 4.0)):
            rec.set_phase(label)
            idx = rec.open(nid)
            clock.now += length
            rec.close(idx)
        originals = {"m.f": object()}
        totals = rec.totals()
        self.assertEqual(spans.layer_metric(rec, originals, totals, "m.f.busy_s.small"), 1.0)
        self.assertEqual(spans.layer_metric(rec, originals, totals, "m.f.busy_s.n10"), 4.0)
        self.assertEqual(spans.layer_metric(rec, originals, totals, "m.f.calls"), 2)


class AbsentTargetTest(unittest.TestCase):
    """A wrapped name that no longer exists is reported absent."""

    def test_missing_function_is_absent(self):
        field = types.ModuleType("field")
        field.evaluate = lambda dep: dep + 1
        optimize = types.ModuleType("optimize")   # objective_from_mask folded away
        optimize.evaluate = field.evaluate        # bound under a caller's name
        markov = types.ModuleType("markov")       # with_owner removed
        modules = {"field": field, "optimize": optimize, "markov": markov}
        targets = (("field", "evaluate"), ("field", "objective_from_mask"),
                   ("markov", "with_owner"), ("game", "payoff_vectors"))

        rec = spans.Recorder()
        patched, originals = spans.install(rec, modules, targets)
        try:
            self.assertIsNot(optimize.evaluate, originals["field.evaluate"])
            self.assertEqual(optimize.evaluate(1), 2)
        finally:
            spans.uninstall(patched)
        self.assertIs(optimize.evaluate, field.evaluate)

        totals = rec.totals()
        for metric in ("field.objective_from_mask.calls",
                       "field.objective_from_mask.distinct_ratio",
                       "markov.with_owner.busy_s",
                       "game.payoff_vectors.misses"):
            self.assertIsNone(spans.layer_metric(rec, originals, totals, metric))
        self.assertEqual(spans.layer_metric(rec, originals, totals, "field.evaluate.calls"), 1)

    def test_fitness_without_array_mask(self):
        """A changed fitness signature stops the distinct count, not the run."""
        field = types.ModuleType("field")
        field.objective_from_mask = lambda *args: 0.0
        optimize = types.ModuleType("optimize")

        def optimize_ga():
            return field.objective_from_mask([1, 0], [[0]])

        optimize.optimize_ga = optimize_ga
        rec = spans.Recorder()
        patched, originals = spans.install(
            rec, {"field": field, "optimize": optimize},
            (("field", "objective_from_mask"), ("optimize", "optimize_ga")))
        try:
            optimize.optimize_ga()
        finally:
            spans.uninstall(patched)
        totals = rec.totals()
        self.assertIsNone(spans.layer_metric(
            rec, originals, totals, "field.objective_from_mask.distinct_ratio"))
        self.assertEqual(spans.layer_metric(
            rec, originals, totals, "field.objective_from_mask.calls"), 1)


if __name__ == "__main__":
    unittest.main()
