"""In-memory spans around rvbprep's public entry points, and the per-layer
metrics derived from them.

The library is not edited: while a ``Tracer`` is installed, the module
attributes and class methods listed in ``_targets`` are replaced by timing
wrappers, and the originals are put back on ``uninstall``.  The benchmark
therefore calls the library through module attributes (``evolve.evolve_sweep``,
not a name imported from it), so that the wrappers are the ones called.

A span is ``[id, name, start, end, parent_id, item]``: ``item`` identifies
the unit of work (a setup repetition or a timed item) the span belongs to.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict


def _apply_bytes(counts, args, out):
    """Bytes one H.psi moves, computed from array sizes (cache misses are
    ignored): CSR values, column indices and row pointer, the two float64
    diagonal vectors, psi read once and the result written once."""
    op, psi = args[0], args[1]
    flip = op.flip
    counts["model.apply_bytes"] += (
        flip.data.nbytes + flip.indices.nbytes + flip.indptr.nbytes
        + 16 * op.dim + psi.nbytes + out.nbytes)


def _basis_dim(counts, args, out):
    counts["hilbert.basis_dim"] = max(counts["hilbert.basis_dim"], out.dim)


def _operator_nnz(counts, args, out):
    counts["model.nnz"] = max(counts["model.nnz"], args[0].flip.nnz)


def _sweep_steps(counts, args, out):
    counts["evolve.n_steps"] += out.n_steps


def _eigenpair_path(counts, args, out):
    # Boundaries.iterations > 0 means ARPACK was skipped or failed and the
    # power iteration produced the fixed point
    counts["tnet.power_fallbacks"] += 1 if out.iterations > 0 else 0


def _targets():
    """(owner, attribute, span name, counter hook) for every wrapped call."""
    from rvbprep import ansatz, entangle, evolve, hilbert, model, spectrum, tnet
    return [
        (hilbert, "enumerate_basis", "hilbert.basis", _basis_dim),
        (hilbert, "enumerate_maximal_covers", "hilbert.covers", None),
        (model.HamiltonianOperator, "__init__", "model.assemble", _operator_nnz),
        (model.HamiltonianOperator, "apply", "model.apply", _apply_bytes),
        (evolve, "evolve_sweep", "evolve.sweep", _sweep_steps),
        (evolve, "cf4_step", "evolve.cf4_step", None),
        (evolve, "lanczos_expm_step", "evolve.lanczos", None),
        (spectrum, "groundstate", "spectrum.solve", None),
        (ansatz.AnsatzBuilder, "__init__", "ansatz.builder", None),
        (ansatz.AnsatzBuilder, "build", "ansatz.build", None),
        (ansatz.AnsatzBuilder, "build_vacuum_limb", "ansatz.build", None),
        (ansatz, "fit_to_state", "ansatz.fit", None),
        (entangle, "entanglement_entropy", "entangle.entropy", None),
        (tnet, "cylinder_transfer", "tnet.transfer", None),
        (tnet.RowOperator, "apply", "tnet.row_apply", None),
        (tnet, "dominant_eigenpair", "tnet.eigenpair", _eigenpair_path),
        (tnet, "mean_density", "tnet.observable", None),
        (tnet, "bffm", "tnet.observable", None),
        (tnet, "correlation_length", "tnet.observable", None),
    ]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.item = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            rec = [len(tracer.spans), name, 0.0, None, parent, tracer.item]
            tracer.spans.append(rec)
            tracer._stack.append(rec[0])
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer.counts, args, out)
            return out
        return wrapper

    def install(self, item):
        """Wrap every target; spans recorded until ``uninstall`` carry ``item``."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.item = item
        for owner, attr, name, hook in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        self.item = None

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "item"],
                       "spans": self.spans, "counts": dict(self.counts),
                       **(extra or {})}, fh)
            fh.write("\n")


class _SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s[1]].append(s)

    def _has_ancestor(self, span, name):
        parent = span[4]
        while parent is not None:
            p = self.spans[parent]
            if p[1] == name:
                return True
            parent = p[4]
        return False

    def select(self, name, items):
        return [s for s in self.by_name.get(name, ()) if s[5] in items]

    def busy(self, name, items, within=None):
        """Seconds in outermost ``name`` spans (inside a ``within`` span if given)."""
        return sum(s[3] - s[2] for s in self.select(name, items)
                   if not self._has_ancestor(s, name)
                   and (within is None or self._has_ancestor(s, within)))

    def calls(self, name, items, within=None):
        return sum(1 for s in self.select(name, items)
                   if within is None or self._has_ancestor(s, within))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, layers, setup_items, timed_items, traced_wall,
                  untraced_wall):
    """Per-layer metrics of one traced run.

    Set-up figures are medians over the set-up repetitions; item figures
    are totals over the traced items divided by their number, so they read
    per work item.  ``layer_share`` is the busy time of the span names in
    ``layers`` over the traced item wall time.  ``traced_wall`` and
    ``untraced_wall`` are item wall times.
    """
    idx = _SpanIndex(tracer.spans)
    c = tracer.counts
    n = len(timed_items)
    timed = set(timed_items)

    def setup_median(name):
        return statistics.median(idx.busy(name, {k}) for k in setup_items)

    def per_item(value):
        return value / n

    apply_s = idx.busy("model.apply", timed)
    sweep_s = idx.busy("evolve.sweep", timed)
    solve_s = idx.busy("spectrum.solve", timed)
    fit_s = idx.busy("ansatz.fit", timed)
    row_s = idx.busy("tnet.row_apply", timed)
    row_calls = idx.calls("tnet.row_apply", timed)
    solve_calls = idx.calls("spectrum.solve", timed)
    fit_calls = idx.calls("ansatz.fit", timed)
    cf4_calls = idx.calls("evolve.cf4_step", timed)
    eig_calls = idx.calls("tnet.eigenpair", timed)
    busy = sum(idx.busy(name, timed) for name in layers)
    m = {
        "hilbert.basis_s": setup_median("hilbert.basis"),
        "hilbert.basis_dim": c["hilbert.basis_dim"],
        "hilbert.covers_s": setup_median("hilbert.covers"),
        "model.assemble_s": setup_median("model.assemble"),
        "model.nnz": c["model.nnz"],
        "model.apply_calls": per_item(idx.calls("model.apply", timed)),
        "model.apply_s": per_item(apply_s),
        "model.apply_gbps_computed": _ratio(c["model.apply_bytes"], apply_s) / 1e9,
        "evolve.sweep_s": per_item(sweep_s),
        "evolve.self_s": per_item(
            sweep_s - idx.busy("model.apply", timed, within="evolve.sweep")),
        "evolve.n_steps": per_item(c["evolve.n_steps"]),
        "evolve.cf4_calls": per_item(cf4_calls),
        "evolve.step_yield": _ratio(c["evolve.n_steps"], cf4_calls),
        "evolve.matvecs_per_step": _ratio(
            idx.calls("model.apply", timed, within="evolve.sweep"),
            c["evolve.n_steps"]),
        "spectrum.solve_calls": per_item(solve_calls),
        "spectrum.solve_s": per_item(solve_s),
        "spectrum.self_s": per_item(
            solve_s - idx.busy("model.apply", timed, within="spectrum.solve")),
        "spectrum.matvecs_per_solve": _ratio(
            idx.calls("model.apply", timed, within="spectrum.solve"),
            solve_calls),
        "ansatz.builder_s": setup_median("ansatz.builder"),
        "ansatz.build_calls": per_item(idx.calls("ansatz.build", timed)),
        "ansatz.build_s": per_item(idx.busy("ansatz.build", timed)),
        "ansatz.fit_calls": per_item(fit_calls),
        "ansatz.fit_s": per_item(fit_s),
        "ansatz.self_s": per_item(
            fit_s - idx.busy("ansatz.build", timed, within="ansatz.fit")),
        # every objective evaluation of every start is one build
        "ansatz.evals_per_fit": _ratio(
            idx.calls("ansatz.build", timed, within="ansatz.fit"), fit_calls),
        "entangle.entropy_calls": per_item(idx.calls("entangle.entropy", timed)),
        "entangle.entropy_s": per_item(idx.busy("entangle.entropy", timed)),
        "tnet.transfer_s": per_item(idx.busy("tnet.transfer", timed)),
        "tnet.row_apply_calls": per_item(row_calls),
        "tnet.row_apply_s": per_item(row_s),
        "tnet.row_apply_ms": 1e3 * _ratio(row_s, row_calls),
        "tnet.eigenpair_calls": per_item(eig_calls),
        "tnet.eigenpair_s": per_item(idx.busy("tnet.eigenpair", timed)),
        "tnet.power_fallback_ratio": _ratio(c["tnet.power_fallbacks"], eig_calls),
        "tnet.observable_s": per_item(idx.busy("tnet.observable", timed)),
        "layer_share": _ratio(busy, sum(traced_wall)),
        "trace_overhead": (statistics.median(traced_wall)
                           / statistics.median(untraced_wall) - 1.0),
    }
    return {k: float(v) for k, v in m.items()}
