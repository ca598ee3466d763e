"""Span recorder and the wrappers that trace locmor's layer boundaries.

The wrappers live here, not in locmor: a traced run replaces the public
entry points of each module with timing wrappers, runs, and puts the
originals back.  Names bound by `from .x import y` are separate
references, so every locmor module namespace holding the original
object is patched, not just the defining module.

A layer's self time is its span's duration minus the durations of the
spans it directly contains.  The harness opens one root span per set-up
and per operation, so the root's self time is the time no wrapped layer
claimed.
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

PACKAGE = "locmor"


class SpanRecorder:
    """Spans kept in memory as tuples
    (id, name, start, end, parent id, operation id, self seconds, counts).
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self.operation_id = None

    def begin(self, name):
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def end(self, frame, stop, counts=None):
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        duration = stop - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((frame[0], frame[1], frame[2], stop,
                           parent[0] if parent else None,
                           self.operation_id, duration - frame[3], counts))

    @contextmanager
    def operation(self, operation_id, root_name):
        """Root span for one set-up or operation; its id tags every span
        opened inside it."""
        self.operation_id = operation_id
        frame = self.begin(root_name)
        try:
            yield
        finally:
            self.end(frame, time.perf_counter())
            self.operation_id = None

    def write(self, fh):
        """One tab-separated line per span to a text file."""
        fh.write("id\tname\tstart\tend\tparent\toperation\tself_s\tcounts\n")
        for sid, name, start, stop, parent, op, self_s, counts in self.spans:
            extra = ",".join(f"{k}={v}" for k, v in counts.items()) \
                if counts else ""
            fh.write(f"{sid}\t{name}\t{start:.9f}\t{stop:.9f}\t"
                     f"{'' if parent is None else parent}\t{op}\t"
                     f"{self_s:.9f}\t{extra}\n")


# ---------------------------------------------------------------------------
# what each wrapper counts besides time


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _columns(array):
    return 1 if array.ndim == 1 else int(array.shape[1])


def _lu_fill(args, kwargs, factorization):
    # SuperLU keeps its factors on the private _lu handle; fill is L + U
    lu = factorization._lu
    return {"fill": int(lu.L.nnz + lu.U.nnz)}


def _solve_cols(args, kwargs, result):
    return {"cols": _columns(result)}


def _block_cols(args, kwargs, result):
    return {"cols": _columns(args[1])}


def _accepted(args, kwargs, accepted):
    return {"accepted": int(accepted)}


def _block_accepted(args, kwargs, accepted):
    return {"accepted": int(accepted), "offered": _columns(args[1])}


def _adaptive_counts(args, kwargs, basis):
    return {"evals": basis.evaluations, "accepted": len(basis),
            "tests": _arg(args, kwargs, 2, "n_t")}


def _fixed_rank_counts(args, kwargs, basis):
    return {"evals": basis.evaluations, "accepted": len(basis), "tests": 0}


def _estimate_counts(args, kwargs, result):
    n_t = _arg(args, kwargs, 1, "n_t")
    return {"evals": n_t, "accepted": 0, "tests": n_t}


_FEM_ASSEMBLY = ("assemble_system", "assemble_mass", "assemble_energy_product",
                 "assemble_mass_subdomain", "load_vector", "constrain_rhs",
                 "path_l2_gram", "assemble_interface_l2")
_SPECIAL = ("erf", "erfc", "erf_inv", "gamma_q", "gamma_q_inv", "log_gamma_q")

# (module, function, span name, counter)
FUNCTION_SPANS = (
    ("fem", "build_rect_mesh", "fem.mesh", None),
    *(("fem", fn, "fem.assemble", None) for fn in _FEM_ASSEMBLY),
    ("linalg", "factorize", "linalg.factorize", _lu_fill),
    ("linalg", "gram_extremal_eigenvalues", "linalg.gram_eig", None),
    ("oracle", "weighted_svd", "oracle.weighted_svd", None),
    ("rangefinder", "adaptive_randomized_range", "rangefinder.adaptive",
     _adaptive_counts),
    ("rangefinder", "fixed_rank_range", "rangefinder.fixed_rank",
     _fixed_rank_counts),
    ("rangefinder", "projection_error", "rangefinder.projection_error",
     None),
    ("rangefinder", "norm_estimate", "rangefinder.norm_estimate",
     _estimate_counts),
    *(("special", fn, "special", None) for fn in _SPECIAL),
    ("gfem", "build_gfem_problem", "gfem.build_problem", None),
    ("gfem", "build_patches", "gfem.build_patches", None),
    ("gfem", "local_space", "gfem.local_space", None),
    ("gfem", "assemble_gfem_and_solve", "gfem.assemble_solve", None),
    ("problems", "build_interface_transfer", "problems.build", None),
    ("problems", "build_gfem_mesh", "problems.build", None),
    ("problems", "gfem_field", "problems.build", None),
)

# (module, class, method, span name, counter)
METHOD_SPANS = (
    ("linalg", "Factorization", "solve", "linalg.solve", _solve_cols),
    ("linalg", "InnerProductSpace", "norms", "linalg.norms", None),
    ("linalg", "RangeBasis", "extend", "linalg.basis_extend", _accepted),
    ("linalg", "RangeBasis", "extend_block", "linalg.basis_extend_block",
     _block_accepted),
    ("transfer", "TransferOperator", "apply", "transfer.apply", None),
    ("transfer", "TransferOperator", "apply_block", "transfer.apply_block",
     _block_cols),
    ("transfer", "TransferOperator", "assemble_dense",
     "transfer.assemble_dense", None),
    ("transfer", "DenseOperator", "apply", "transfer.dense_apply", None),
    ("transfer", "DenseOperator", "apply_block", "transfer.dense_apply",
     _block_cols),
    ("transfer", "ResidualOperator", "apply", "transfer.residual_apply",
     None),
    ("transfer", "ResidualOperator", "apply_block",
     "transfer.residual_apply", _block_cols),
    ("rangefinder", "RngStream", "standard_normal", "rangefinder.rng", None),
)


def locmor_modules():
    """Every imported module of the locmor package."""
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Context manager that installs the wrappers and always removes them."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.patched = []

    def _wrap(self, fn, name, counter):
        recorder = self.recorder

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.end(frame, time.perf_counter())
                raise
            stop = time.perf_counter()
            recorder.end(frame, stop,
                         counter(args, kwargs, result) if counter else None)
            return result

        traced.bench_span = name
        return traced

    def install(self):
        if self.patched:
            raise RuntimeError("tracer already installed")
        modules = locmor_modules()
        try:
            for module, fn_name, span, counter in FUNCTION_SPANS:
                original = getattr(sys.modules[f"{PACKAGE}.{module}"],
                                   fn_name)
                wrapper = self._wrap(original, span, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self.patched.append((mod, key, original))
            for module, cls_name, method, span, counter in METHOD_SPANS:
                cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(original, span, counter))
                self.patched.append((cls, method, original))
        except BaseException:
            self.remove()
            raise

    def remove(self):
        while self.patched:
            owner, key, original = self.patched.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics


# metric -> span names whose self time it sums
TIME_METRICS = {
    "fem.mesh_s": ("fem.mesh",),
    "fem.assemble_s": ("fem.assemble",),
    "linalg.factorize_s": ("linalg.factorize",),
    "linalg.solve_s": ("linalg.solve",),
    "linalg.gram_eig_s": ("linalg.gram_eig",),
    "linalg.basis_extend_s": ("linalg.basis_extend",
                              "linalg.basis_extend_block"),
    "linalg.norms_s": ("linalg.norms",),
    "transfer.apply_s": ("transfer.apply",),
    "transfer.apply_block_s": ("transfer.apply_block",),
    "transfer.assemble_dense_s": ("transfer.assemble_dense",),
    "transfer.dense_apply_s": ("transfer.dense_apply",),
    "transfer.residual_apply_s": ("transfer.residual_apply",),
    "oracle.weighted_svd_s": ("oracle.weighted_svd",),
    "rangefinder.adaptive_self_s": ("rangefinder.adaptive",),
    "rangefinder.fixed_rank_self_s": ("rangefinder.fixed_rank",),
    "rangefinder.rng_s": ("rangefinder.rng",),
    "rangefinder.projection_error_s": ("rangefinder.projection_error",),
    "rangefinder.norm_estimate_s": ("rangefinder.norm_estimate",),
    "special.s": ("special",),
    "gfem.build_problem_self_s": ("gfem.build_problem",),
    "gfem.build_patches_s": ("gfem.build_patches",),
    "gfem.local_space_s": ("gfem.local_space",),
    "gfem.assemble_solve_s": ("gfem.assemble_solve",),
    "problems.build_s": ("problems.build",),
    "harness.self_s": ("bench.setup", "bench.op"),
}

# spans that apply the operator to random draws or test vectors
_EVAL_SPANS = ("rangefinder.adaptive", "rangefinder.fixed_rank",
               "rangefinder.norm_estimate")

# metric -> (span names, counter key; None counts spans)
COUNT_METRICS = {
    "fem.assemble_calls": (("fem.assemble",), None),
    "linalg.factorize_calls": (("linalg.factorize",), None),
    "linalg.lu_fill_nnz": (("linalg.factorize",), "fill"),
    "linalg.solve_cols": (("linalg.solve",), "cols"),
    "linalg.basis_extend_calls": (("linalg.basis_extend",), None),
    "transfer.apply_calls": (("transfer.apply",), None),
    "transfer.apply_block_cols": (("transfer.apply_block",), "cols"),
    "transfer.dense_apply_calls": (("transfer.dense_apply",), None),
    "oracle.weighted_svd_calls": (("oracle.weighted_svd",), None),
    "rangefinder.evaluations": (_EVAL_SPANS, "evals"),
    "rangefinder.test_evaluations": (_EVAL_SPANS, "tests"),
    "special.calls": (("special.top",), None),
}

PHASES = ("setup", "op")

# ratios over the operation phase
RATIO_METRICS = ("linalg.basis_accept_ratio", "rangefinder.draw_accept_ratio")


def layer_metric_names():
    names = [f"{phase}.{metric}" for phase in PHASES
             for metric in (*TIME_METRICS, *COUNT_METRICS)]
    return names + list(RATIO_METRICS)


def layer_metrics(spans, runs_per_phase):
    """Self times and counts per set-up and per operation.

    runs_per_phase maps 'setup'/'op' to the number of traced set-ups and
    operations the sums are divided by.
    """
    names = {span[0]: span[1] for span in spans}
    sums = defaultdict(float)
    for _, name, _, _, parent, op, self_s, counts in spans:
        phase = op.partition("-")[0]
        sums[(phase, name, "self")] += self_s
        sums[(phase, name, "calls")] += 1
        if name == "special" and names.get(parent) != "special":
            sums[(phase, "special.top", "calls")] += 1
        for key, value in (counts or {}).items():
            sums[(phase, name, key)] += value

    out = {}
    for phase in PHASES:
        runs = max(runs_per_phase[phase], 1)
        for metric, span_names in TIME_METRICS.items():
            total = sum(sums[(phase, n, "self")] for n in span_names)
            out[f"{phase}.{metric}"] = (total / runs, "s")
        for metric, (span_names, key) in COUNT_METRICS.items():
            total = sum(sums[(phase, n, key or "calls")] for n in span_names)
            out[f"{phase}.{metric}"] = (total / runs, "count")

    def ratio(num, den):
        return num / den if den else 0.0

    out["linalg.basis_accept_ratio"] = (ratio(
        sums[("op", "linalg.basis_extend", "accepted")],
        sums[("op", "linalg.basis_extend", "calls")]), "ratio")
    evals = sum(sums[("op", n, "evals")] for n in _EVAL_SPANS)
    tests = sum(sums[("op", n, "tests")] for n in _EVAL_SPANS)
    accepted = sum(sums[("op", n, "accepted")] for n in _EVAL_SPANS)
    out["rangefinder.draw_accept_ratio"] = (
        ratio(accepted, evals - tests), "ratio")
    return out
