"""Outside-in span recorder for gnlstab's layers.

The tracer replaces selected attributes with timing wrappers at the place
where their caller looks them up (``gnlstab.cli.scan_kappa``,
``gnlstab.scan.build_block``, ``scipy.linalg.eig``, ...), so nothing in the
package changes.  Every span keeps its name, layer, start, end, parent and
op id in memory; ``layer_metrics`` turns the spans of one op into the
per-layer numbers.  A LAPACK span counts toward the nearest enclosing span
of a gnlstab layer.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from dataclasses import dataclass, field
from typing import Callable, Optional

LAPACK = "lapack"

#: flops of one dense nonsymmetric eigensolve with eigenvectors (real Schur
#: form plus eigenvectors), Golub & Van Loan, Matrix Computations, 4th ed.,
#: section 7.5.6; used for the computed scan.eig_gflop
EIG_FLOPS_PER_N3 = 25.0


def _instability_tag(args, kwargs, result):
    crosscheck = kwargs.get("crosscheck", args[3] if len(args) > 3 else True)
    return "row" if crosscheck else "bisection"


def _steps_tag(args, kwargs, result):
    return round(float(result.times[-1]) / result.time_step)


def _dim_tag(args, kwargs, result):
    return int(args[0].shape[0])


# (module path, attribute, layer, tag function); the attribute may be
# "Class.method".  Each entry is the name a caller resolves at call time.
TARGETS = (
    ("gnlstab.cli", "tau_for_amplitude", "waves", None),
    ("gnlstab.cli", "solve_wave", "waves", None),
    ("gnlstab.cli", "newton_refine", "waves", None),
    ("gnlstab.cli", "wave_at_resolution", "waves", None),
    ("gnlstab.waves", "minimize_constrained", "waves", None),
    ("gnlstab.waves", "newton_refine", "waves", None),
    ("gnlstab.spectral", "ParityBasis.matrix", "spectral", None),
    ("gnlstab.cli", "build_hill", "hill", None),
    ("gnlstab.cli", "build_block", "hill", None),
    ("gnlstab.cli", "spectrum", "hill", None),
    ("gnlstab.cli", "check_propositions", "hill", None),
    ("gnlstab.hill", "build_hill", "hill", None),
    ("gnlstab.hill", "build_block", "hill", None),
    ("gnlstab.hill", "spectrum", "hill", None),
    ("gnlstab.scan", "build_block", "hill", None),
    ("gnlstab.cli", "scan_kappa", "scan", None),
    ("gnlstab.cli", "verify_hypotheses", "scan", None),
    ("gnlstab.scan", "instability_eigs", "scan", _instability_tag),
    ("gnlstab.scan", "evolution_block", "scan", None),
    ("gnlstab.evolve", "instability_eigs", "scan", _instability_tag),
    ("gnlstab.evolve", "evolution_block", "scan", None),
    ("gnlstab.cli", "evolve_and_fit", "evolve", _steps_tag),
    ("gnlstab.evolve", "rk4_step_matrix", "evolve", None),
    ("gnlstab.evolve", "splitting_stepper", "evolve", None),
    ("gnlstab.serialize", "payload", "serialize", None),
    ("gnlstab.serialize", "envelope", "serialize", None),
    ("gnlstab.serialize", "dumps", "serialize", None),
    ("gnlstab.serialize", "save_csv", "serialize", None),
    ("gnlstab.serialize", "loads", "serialize", None),
    ("gnlstab.serialize", "load", "serialize", None),
    ("scipy.linalg", "eig", LAPACK, _dim_tag),
    ("scipy.linalg", "eigvals", LAPACK, _dim_tag),
    ("scipy.linalg", "eigh", LAPACK, _dim_tag),
    ("numpy.linalg", "eigvalsh", LAPACK, _dim_tag),
    ("numpy.linalg", "solve", LAPACK, _dim_tag),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional[int]
    op: int
    end: Optional[float] = None
    failed: bool = False
    tag: object = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install wrappers, record spans, restore every wrapped attribute."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: list = []
        self.op = 0
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, self.clock(), parent, self.op)
        index = len(self.spans)
        self.spans.append(span)
        if parent is not None:
            self.spans[parent].children.append(index)
        self._stack.append(index)
        return span

    def _close(self, span: Span, failed: bool) -> None:
        span.end = self.clock()
        span.failed = failed
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        span = self._open(name, layer)
        failed = True
        try:
            yield span
            failed = False
        finally:
            self._close(span, failed)

    def _wrap(self, original, name: str, layer: str, tag):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            failed = True
            try:
                result = original(*args, **kwargs)
                failed = False
            finally:
                self._close(span, failed)
            if tag is not None:
                span.tag = tag(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module_path, attribute, layer, tag in targets:
            owner = importlib.import_module(module_path)
            *classes, leaf = attribute.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[leaf]
            name = f"{layer}.{leaf}"
            setattr(owner, leaf, self._wrap(original, name, layer, tag))
            self._patched.append((owner, leaf, original))

    def uninstall(self) -> list:
        """Restore the originals; returns the attributes that did not come back."""
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        missing = [
            f"{getattr(owner, '__name__', owner)}.{leaf}"
            for owner, leaf, original in self._patched
            if owner.__dict__[leaf] is not original
        ]
        self._patched = []
        return missing

    def problems(self) -> list:
        """Structural defects: open spans, LAPACK spans outside any layer."""
        bad = []
        if self._stack:
            bad.append(f"{len(self._stack)} spans still open")
        for span in self.spans:
            if span.end is None:
                bad.append(f"span {span.name} never closed")
            elif span.layer == LAPACK and self.owner(span) is None:
                bad.append(f"LAPACK span {span.name} of op {span.op} has no layer parent")
        return bad

    def owner(self, span: Span) -> Optional[Span]:
        """Nearest enclosing non-LAPACK span."""
        index = span.parent
        while index is not None and self.spans[index].layer == LAPACK:
            index = self.spans[index].parent
        return None if index is None else self.spans[index]

    def self_time(self, span: Span) -> float:
        return span.duration - sum(self.spans[c].duration for c in span.children)

    def records(self) -> list:
        """Spans as plain dicts for the trace file."""
        return [
            {
                "name": s.name,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "failed": s.failed,
                "tag": s.tag,
            }
            for s in self.spans
        ]


def layer_metrics(tracer: Tracer, op: int) -> dict:
    """Per-layer numbers of one op: seconds (``_s``), microseconds (``_us``),
    counts, shares of the op in percent (``_pct``) and rates."""
    spans = [s for s in tracer.spans if s.op == op]

    def outermost(pred):
        # spans matching pred that have no ancestor matching pred
        out = []
        for s in spans:
            if not pred(s):
                continue
            index = s.parent
            while index is not None and not pred(tracer.spans[index]):
                index = tracer.spans[index].parent
            if index is None:
                out.append(s)
        return out

    def inclusive(pred):
        return sum(s.duration for s in outermost(pred))

    def named(name):
        return [s for s in spans if s.name == name]

    def lapack(names, owner_pred):
        return [
            s for s in spans
            if s.layer == LAPACK and s.name in names and owner_pred(tracer.owner(s))
        ]

    def in_layer(layer):
        return lambda s: s is not None and s.layer == layer

    def layer_self(layer):
        return sum(tracer.self_time(s) for s in spans if s.layer == layer)

    eigh_names = ("lapack.eigh", "lapack.eigvalsh")
    hill_eigh = lapack(eigh_names, in_layer("hill"))
    scan_eig = lapack(("lapack.eig",), in_layer("scan"))
    hyp_eigh = lapack(eigh_names, lambda o: o is not None and o.name == "scan.verify_hypotheses")
    rows = [
        s for s in named("scan.instability_eigs")
        if s.tag == "row" and tracer.spans[s.parent].name == "scan.scan_kappa"
    ]
    evolve_runs = named("evolve.evolve_and_fit")
    steps = sum(s.tag for s in evolve_runs if s.tag is not None)
    eig_s = sum(s.duration for s in scan_eig)
    eig_gflop = sum(EIG_FLOPS_PER_N3 * s.tag**3 for s in scan_eig) / 1e9
    values = {
        "waves.s": inclusive(in_layer("waves")),
        "waves.minimize_calls": len(named("waves.minimize_constrained")),
        "waves.newton_s": inclusive(lambda s: s.name == "waves.newton_refine"),
        "waves.failed": sum(s.failed for s in outermost(in_layer("waves"))),
        "spectral.basis_matrix_calls": len(named("spectral.matrix")),
        "spectral.basis_matrix_s": inclusive(in_layer("spectral")),
        "hill.build_hill_calls": len(named("hill.build_hill")),
        "hill.build_block_calls": len(named("hill.build_block")),
        "hill.assembly_self_s": sum(
            tracer.self_time(s) for s in spans if s.name in ("hill.build_hill", "hill.build_block")
        ),
        "hill.eigh_calls": len(hill_eigh),
        "hill.eigh_s": sum(s.duration for s in hill_eigh),
        "scan.rows": len(rows),
        "scan.bisection_rows": sum(s.tag == "bisection" for s in named("scan.instability_eigs")),
        "scan.row_s": statistics.median(s.duration for s in rows) if rows else 0.0,
        "scan.eig_calls": len(scan_eig),
        "scan.eig_dim": max((s.tag for s in scan_eig), default=0),
        "scan.eig_s": eig_s,
        "scan.eig_gflop": eig_gflop,
        "scan.eig_gflops_per_s": eig_gflop / eig_s if eig_s > 0.0 else 0.0,
        "scan.crosscheck_s": sum(s.duration for s in lapack(("lapack.eigvals",), in_layer("scan"))),
        "scan.hypotheses_calls": len(named("scan.verify_hypotheses")),
        "scan.hypotheses_eigh_calls": len(hyp_eigh),
        "scan.hypotheses_eigh_s": sum(s.duration for s in hyp_eigh),
        "scan.hypotheses_s": inclusive(lambda s: s.name == "scan.verify_hypotheses"),
        "evolve.s": inclusive(in_layer("evolve")),
        "evolve.steps": steps,
        "evolve.step_us": 1e6 * layer_self("evolve") / steps if steps else 0.0,
        "serialize.s": inclusive(in_layer("serialize")),
        "serialize.load_s": inclusive(lambda s: s.name == "serialize.load"),
        "cli.self_s": layer_self("cli"),
    }
    # A layer that a workload never calls would read exactly 0 s on every
    # run; those layers are also given as shares of the op and as rates.
    op_s = sum(s.duration for s in spans if s.parent is None)
    for share, key in (("scan.eig_pct", "scan.eig_s"), ("scan.crosscheck_pct", "scan.crosscheck_s"),
                       ("evolve.pct", "evolve.s"), ("serialize.load_pct", "serialize.load_s")):
        values[share] = 100.0 * values[key] / op_s
    row_s = values["scan.row_s"]
    values["scan.row_rate"] = 1.0 / row_s if row_s else 0.0
    step_us = values["evolve.step_us"]
    values["evolve.steps_per_s"] = 1e6 / step_us if step_us else 0.0
    return values
