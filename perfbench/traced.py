"""Traced run of one benchmark job: through bsharp's public API with spans.

Usage (from the job's working directory, with bsharp importable):

    python traced.py JOB.json OUTPUT SPANS.json

This script parses the job's bsharp arguments with the CLI's own parser and
then calls each module's public functions in CLI pipeline order, so the
output is what ``python -m bsharp`` would print.  Split tables are built
before the solve, so table work and solve work fall into separate spans.
Every span records (name, start, end, parent) and the process's peak RSS
at both ends; spans stay in memory and are written to SPANS.json, under
the job's id, when the job ends.  Work done only for the trace (counting distinct rows or
DAG nodes) goes into ``trace.*`` spans, so it shows as tracing overhead and
not as layer time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory spans, counters and aggregated leaf timings of one job.

    A span is ``[name, start, end, parent, rss_start_kb, rss_end_kb,
    leaf_s]``; ``leaf_s`` is the time of leaf calls timed inside it with
    :meth:`leaf`, which are too many and too short to keep one by one.
    """

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.leaves: dict[str, list] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, _peak_rss_kb(), 0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            record[5] = _peak_rss_kb()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def leaf(self, name: str, seconds: float) -> None:
        total = self.leaves.setdefault(name, [0, 0.0])
        total[0] += 1
        total[1] += seconds
        if self._stack:
            self.spans[self._stack[-1]][6] += seconds

    def traced(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"job": self.job_id, "spans": self.spans, "counters": self.counters,
                 "leaves": self.leaves},
                fh,
            )


def dag_nodes(roots) -> int:
    """Distinct nodes of an interned expression DAG."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "terms", ()))
        stack.extend(getattr(node, "factors", ()))
        base = getattr(node, "base", None)
        if base is not None:
            stack.append(base)
    return len(seen)


class Pipeline:
    """The CLI's commands, spelled out as calls into bsharp's modules."""

    def __init__(self, tracer: Tracer, out):
        from bsharp import series

        self.tracer = tracer
        self.span = tracer.span
        self.out = out
        # count the coefficient operations the series module performs
        for name in ("coeff_add", "coeff_sub", "coeff_mul", "coeff_div"):
            setattr(series, name, self._counting(getattr(series, name)))

    def _counting(self, fn):
        tracer = self.tracer

        def wrapper(a, b):
            tracer.counters["coefficients.ops"] = tracer.counters.get("coefficients.ops", 0) + 1
            return fn(a, b)

        return wrapper

    # -- layers ------------------------------------------------------------

    def load_tableau(self, spec: str):
        from bsharp import tableaux

        with self.span("cli.load"):
            if spec.endswith(".json"):
                with open(spec, encoding="utf-8") as fh:
                    data = json.load(fh)
                with self.span("coefficients.parse"):
                    return tableaux.tableau_from_json_dict(data)
            with self.span("coefficients.parse"):
                return tableaux.builtin_tableau(spec)

    def load_system(self, text: str):
        from bsharp.odes import parse_ode

        with self.span("cli.load"):
            return parse_ode(text)

    def enumerate_trees(self, order: int) -> list:
        from bsharp.trees import all_trees_up_to

        with self.span("trees.enum"):
            trees = list(all_trees_up_to(order))
        self.tracer.count("trees.count", len(trees))
        return trees

    def build_tables(self, trees: list) -> None:
        from bsharp.splits import partition_split_table

        with self.span("splits.build"):
            tables = [partition_split_table(t) for t in trees]
        with self.span("trace.count"):
            self.tracer.count("splits.rows", sum(len(t) for t in tables))
            self.tracer.count("splits.distinct_rows", sum(len(set(t)) for t in tables))
            # the solves walk every row but the no-edge-removed one
            self.tracer.count("series.rows_visited", sum(len(t) - 1 for t in tables))

    def solve(self, method, variant: str):
        from bsharp import series

        with self.span("series.solve"):
            series.reset_zero_skip_count()
            if variant == "modified":
                flow = series.modified_equation_series(method)
            else:
                flow = series.modifying_integrator_series(method)
            self.tracer.count("series.zero_skips", series.zero_skip_count())
        return flow

    def vector_field(self, flow, system):
        from bsharp.odes import DiffCache, series_vector_field

        cache = DiffCache(system)
        terms = series_vector_field(flow, system, cache)
        self.tracer.count("odes.tree_builds", cache.tree_builds)
        self.tracer.count("odes.tensor_builds", cache.tensor_builds)
        return terms

    def emit(self, text: str) -> None:
        with self.span("cli.emit"):
            self.out.write(text)
            if not text.endswith("\n"):
                self.out.write("\n")

    # -- commands ----------------------------------------------------------

    def series_command(self, args) -> None:
        """bseries, modified-equation and modifying-integrator."""
        from bsharp.series import series_to_json_dict
        from bsharp.tableaux import rk_series

        tab = self.load_tableau(args.tableau)
        trees = self.enumerate_trees(args.order)
        with self.span("tableaux.weights"):
            flow = rk_series(tab, args.order)
        if args.command != "bseries":
            self.build_tables(trees)
            flow = self.solve(flow, args.variant)
        if getattr(args, "ode_text", None) is not None:
            self.field_output(args, flow)
            return
        with self.span("coefficients.print"):
            data = series_to_json_dict(flow)
        self.emit(json.dumps(data, indent=2))

    def field_output(self, args, flow) -> None:
        from bsharp.expressions import add_all, format_expression, mul_all, power, variable

        system = self.load_system(args.ode_text)
        with self.span("odes.field"):
            terms = self.vector_field(flow, system)
            step_name = "h" if "h" not in system.variables else "h_step"
            h = variable(system.dimension)
            names = system.variables + (step_name,)
            fields = [
                add_all([mul_all((power(h, d - 1), e)) for d, e in component if d > 0])
                for component in terms
            ]
        with self.span("trace.count"):
            self.tracer.count("expressions.dag_nodes", dag_nodes(fields))
        with self.span("expressions.format"):
            bodies = [format_expression(f, names) for f in fields]
        if args.format == "json":
            text = json.dumps(
                {"variables": list(system.variables), "step_symbol": step_name,
                 "equations": dict(zip(system.variables, bodies))},
                indent=2,
            )
        else:
            text = "\n".join(f"{n}' = {b}" for n, b in zip(system.variables, bodies))
        self.emit(text)

    def simulate_command(self, args) -> None:
        from bsharp import simulate

        tab = self.load_tableau(args.tableau)
        system = self.load_system(args.ode_text)
        initial = tuple(float(v) for v in args.initial.split(","))
        if args.reference:
            mode = "reference"
        elif args.modified_order is not None:
            mode = "modifying" if args.modifying_integrator else "modified"
        else:
            mode = "direct"
        order = args.modified_order if args.modified_order is not None else 2
        if mode in ("modified", "modifying"):
            self.build_tables(self.enumerate_trees(order))

        # iterate_rows builds the field itself; trace the calls it makes
        tracer = self.tracer
        simulate.rk_series = tracer.traced("tableaux.weights", simulate.rk_series)
        simulate.modified_equation_series = self._traced_solve(simulate.modified_equation_series)
        simulate.modifying_integrator_series = self._traced_solve(
            simulate.modifying_integrator_series
        )
        simulate.series_vector_field = self._traced_field(simulate.series_vector_field)
        simulate.graded_field = self._timed_graded_field(simulate.graded_field)

        plan = simulate.SimulationPlan(
            tableau=tab, system=system, step=args.step, t_max=args.t_max,
            initial=initial, mode=mode, series_order=order,
        )
        with self.span("simulate.run"):
            self.out.write("t," + ",".join(system.variables) + "\n")
            for t, y in simulate.iterate_rows(plan):
                self.out.write(f"{t!r}," + ",".join(repr(v) for v in y) + "\n")

    def _traced_solve(self, fn):
        from bsharp import series

        def wrapper(method):
            with self.span("series.solve"):
                series.reset_zero_skip_count()
                flow = fn(method)
                self.tracer.count("series.zero_skips", series.zero_skip_count())
            return flow

        return wrapper

    def _traced_field(self, fn):
        def wrapper(flow, system, cache=None):
            with self.span("odes.field"):
                terms = fn(flow, system, cache)
            if cache is not None:
                self.tracer.count("odes.tree_builds", cache.tree_builds)
                self.tracer.count("odes.tensor_builds", cache.tensor_builds)
            return terms

        return wrapper

    def _timed_graded_field(self, fn):
        tracer = self.tracer
        clock = time.perf_counter

        def wrapper(system, terms, step):
            with tracer.span("trace.count"):
                tracer.count("expressions.dag_nodes", dag_nodes(e for c in terms for _, e in c))
            field = fn(system, terms, step)

            def timed(y):
                t0 = clock()
                out = field(y)
                tracer.leaf("expressions.eval", clock() - t0)
                return out

            return timed

        return wrapper


def main(argv: list[str]) -> int:
    job_path, output_path, spans_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = Tracer(job["id"])
    from bsharp.cli import build_parser

    args = build_parser().parse_args(job["argv"])
    try:
        with open(output_path, "w", encoding="utf-8", newline="") as out:
            pipeline = Pipeline(tracer, out)
            if args.command == "simulate":
                pipeline.simulate_command(args)
            else:
                pipeline.series_command(args)
    finally:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
