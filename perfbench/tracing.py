"""Span recorders wrapped around the package's public functions, from outside.

``Recorder.install()`` replaces each function listed in ``TARGETS`` with a
wrapper, in every ``eaqc`` module that holds a reference to it, and
``uninstall()`` puts the originals back; no file of the package changes.
Untraced, only the functions in ``PART_TARGETS`` are wrapped: each call
that is not inside another one is timed, so that a run can keep the fastest
time of every call, and ``run_trials`` also hands each point's SimResult
(which ``sweep`` drops) to the benchmark.  Traced, every target records a
span ``[name, start, end, parent, attrs]``; spans stay in memory until the
run writes them out.  A layer's self time is its spans' time minus the
time of their direct child spans.
"""

from __future__ import annotations

import contextlib
import sys
import time
import tracemalloc

import numpy as np

# (module, attribute, span name).  "Class.method" patches the class.
TARGETS = (
    ("eaqc.channel", "sample_error_batch", "channel.sample"),
    ("eaqc.decoder", "build_graphs", "decoder.graphs"),
    ("eaqc.decoder", "decode_binary_batch", "decoder.decode"),
    ("eaqc.decoder", "decode_quaternary_batch", "decoder.decode"),
    ("eaqc.harness", "run_trials", "harness.run_trials"),
    ("eaqc.harness", "stabilizer_symplectic", "harness.stabilizer"),
    ("eaqc.harness", "residual_in_group", "harness.coset"),
    ("eaqc.harness", "burst_oracle", "harness.oracle"),
    ("eaqc.harness", "ml_coset_decoder", "harness.oracle"),
    ("eaqc.harness", "min_weight_decoder", "harness.oracle"),
    ("eaqc.harness", "write_csv", "harness.csv"),
    ("eaqc.cli", "main", "cli.main"),
    ("eaqc.gf2", "gfrank", "gf2.gfrank"),
    ("eaqc.gf2", "RowBasis.build", "gf2.rowbasis"),
    ("eaqc.gf2", "RowBasis.contains_batch", "gf2.contains"),
    ("eaqc.gf2", "matmul", "gf2.matmul"),
    ("eaqc.gf2", "expand", "gf2.expand"),
    ("eaqc.clifford", "logical_operators", "clifford.logical_operators"),
    ("eaqc.clifford", "code_tableau", "clifford.code_tableau"),
    ("eaqc.clifford", "stabilizer_matrix", "clifford.transversal"),
    ("eaqc.clifford", "hadamard_swap", "clifford.transversal"),
    ("eaqc.clifford", "s_cz", "clifford.transversal"),
    ("eaqc.clifford", "h_s_cz", "clifford.transversal"),
    ("eaqc.clifford", "conjugate", "clifford.transversal"),
    ("eaqc.clifford", "group_preserved", "clifford.transversal"),
    ("eaqc.clifford", "logical_action", "clifford.transversal"),
    ("eaqc.girth", "has_four_cycle", "girth.floor"),
    ("eaqc.girth", "has_six_cycle", "girth.floor"),
    ("eaqc.girth", "girth_bfs", "girth.bfs"),
    ("eaqc.models", "special_prime_model", "models.build"),
    ("eaqc.models", "construct_prime_model", "models.build"),
    ("eaqc.models", "construct_composite_model", "models.build"),
    ("eaqc.models", "theorem6_models", "models.build"),
    ("eaqc.models", "theorem8_model", "models.build"),
    ("eaqc.models", "theorem9_model", "models.build"),
    ("eaqc.models", "theorem10_model", "models.build"),
    ("eaqc.eacode", "build_theorem5", "eacode.build"),
    ("eaqc.eacode", "build_theorem6", "eacode.build"),
    ("eaqc.eacode", "build_theorem7", "eacode.build"),
    ("eaqc.eacode", "build_theorem8", "eacode.build"),
    ("eaqc.eacode", "build_theorem9", "eacode.build"),
    ("eaqc.eacode", "build_theorem10", "eacode.build"),
)

# Timed call by call in the untraced run: each point, and each rank
# computation of the verification workload (1043 of them in
# ``logical_operators`` on n=390 alone).
PART_TARGETS = ("run_trials", "gfrank")

# Self time of these spans is reported under another name.
SELF_TIME_NAMES = {"harness.run_trials": "harness.syndrome"}

NAME, START, END, PARENT, ATTRS = range(5)


def _decode_passes(conv: np.ndarray, iters: np.ndarray, l_max: int) -> int:
    """Loop passes one batch decode ran: every pass until all trials stop."""
    if conv.size == 0:
        return 0
    return l_max + 1 if not conv.all() else int(iters.max()) + 1


class Recorder:
    """Patches the package for one run; holds spans and captured results."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.results: list = []
        self.call_seconds: list[float] = []
        self.probe = None  # a hostprobe.HostProbe in the untraced run
        self._depth = 0
        self.points: list[dict] = []
        self.tracing = False
        self._stack: list[int] = []
        self._point: dict | None = None
        self._restore: list[tuple[object, str, object]] = []

    # ── installation ──────────────────────────────────────────────────

    def install(self, trace: bool) -> None:
        import eaqc.cli  # noqa: F401  (imports every module of the package)

        self.tracing = trace
        for module_name, attr, span in TARGETS:
            if not trace and attr not in PART_TARGETS:
                continue
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(span, fn)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, staticmethod(wrapped) if is_static else wrapped)
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(span, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "eaqc" and not mod_name.startswith("eaqc."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, name, fn))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self.tracing = False

    def take_results(self) -> list:
        out, self.results = self.results, []
        return out

    def take_call_seconds(self) -> list[float]:
        """Seconds of each outermost timed call since the last take.

        Untraced only; a traced run returns an empty list.
        """
        out, self.call_seconds = self.call_seconds, []
        return out

    def sample_host(self) -> None:
        """Time the host probe, if one is set and due; never inside a part."""
        if self.probe is not None:
            self.probe.sample()

    # ── wrappers ──────────────────────────────────────────────────────

    def _wrap(self, name: str, fn):
        if not self.tracing:
            return self._capture(name, fn)

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = name.replace(".", "_")
        before = getattr(self, "_before_" + probe, None)
        after = getattr(self, "_after_" + probe, None)

        def span(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            if before is not None:
                before(args)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                after(rec, fn, args, kwargs, out)
            return out

        return span

    def _capture(self, name: str, fn):
        keep = name == "harness.run_trials"
        clock = time.perf_counter

        def capture(*args, **kwargs):
            outermost = self._depth == 0
            if outermost:
                self.sample_host()
            self._depth += 1
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if outermost:
                self.call_seconds.append(clock() - t0)
            if keep:
                self.results.append(res)
            return res

        return capture

    @contextlib.contextmanager
    def root(self, name: str):
        """A bench-level span; yields its index."""
        rec = [name, 0.0, 0.0, -1, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[START] = time.perf_counter()
        try:
            yield len(self.spans) - 1
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    # Layer probes: they run outside the span's clock and record what the
    # layer did, and what the faithfulness check needs, from its arguments
    # and outputs.

    def _before_harness_run_trials(self, args) -> None:
        self._point = {"cfg": args[0], "span": len(self.spans) - 1}

    def _after_harness_run_trials(self, rec, fn, args, kwargs, out) -> None:
        self._point["result"] = out
        self.points.append(self._point)
        self._point = None
        self.results.append(out)

    def _after_channel_sample(self, rec, fn, args, kwargs, out) -> None:
        xs, zs = out
        rec[ATTRS] = {"trials": int(xs.shape[0])}
        if self._point is not None:
            self._point["xs"], self._point["zs"] = xs, zs

    def _after_decoder_decode(self, rec, fn, args, kwargs, out) -> None:
        cfg, (_, _, conv, iters) = args[-1], out
        rec[ATTRS] = {
            "trials": int(conv.size),
            "passes": _decode_passes(conv, iters, cfg.l_max),
            "iters": iters,
            "nonconverged": int(np.count_nonzero(~conv)),
            "replay": (fn, args, kwargs, out),
        }
        if self._point is not None:
            self._point["syndromes"] = (args[-3], args[-2])
            self._point["decoded"] = out

    def _after_harness_coset(self, rec, fn, args, kwargs, out) -> None:
        if self._point is not None:
            self._point["residual"] = (args[2], args[3])
            self._point["member"] = out

    def replay_decodes(self) -> bool:
        """Run every traced decode call again under tracemalloc.

        tracemalloc slows the decoder by a quarter, so the memory peak is
        measured on a replay, off the traced clock.  Returns whether every
        replay reproduced its traced outputs.
        """
        same = True
        for rec in self.spans:
            if rec[NAME] != "decoder.decode":
                continue
            fn, args, kwargs, out = rec[ATTRS].pop("replay")
            tracemalloc.start()
            try:
                again = fn(*args, **kwargs)
                rec[ATTRS]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            same &= all(np.array_equal(a, b) for a, b in zip(out, again))
        return same


# ── reductions over the spans ─────────────────────────────────────────


def self_times(spans: list[list]) -> list[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_self_times(spans: list[list], within: int | None = None) -> dict:
    """Self time per layer name, optionally only under span ``within``."""
    own = self_times(spans)
    inside = _descendants(spans, within) if within is not None else None
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s[NAME].startswith("bench.") or (inside is not None and i not in inside):
            continue
        name = SELF_TIME_NAMES.get(s[NAME], s[NAME])
        out[name] = out.get(name, 0.0) + own[i]
    return out


def layer_inclusive_times(spans: list[list], within: int) -> dict:
    """Time per layer under span ``within``, children included.

    A span nested in another span of the same layer is not counted again.
    Keys match ``layer_self_times``.
    """
    out: dict[str, float] = {}
    for i in _descendants(spans, within):
        name, parent = spans[i][NAME], spans[i][PARENT]
        while parent != within and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent == within:
            key = SELF_TIME_NAMES.get(name, name)
            out[key] = out.get(key, 0.0) + spans[i][END] - spans[i][START]
    return out


def _descendants(spans: list[list], root: int) -> set[int]:
    found = {root}
    for i, s in enumerate(spans):  # parents always precede their children
        if s[PARENT] in found:
            found.add(i)
    found.discard(root)
    return found


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from one traced region."""
    own = layer_self_times(spans)
    metrics = {
        f"{name}_s": own.get(name, 0.0)
        for name in (
            "channel.sample", "decoder.decode", "decoder.graphs",
            "harness.stabilizer", "harness.syndrome", "harness.coset",
            "harness.oracle", "harness.csv", "cli.main",
            "gf2.gfrank", "gf2.rowbasis", "gf2.matmul", "gf2.expand",
            "gf2.contains", "clifford.logical_operators",
            "clifford.code_tableau", "clifford.transversal",
            "girth.floor", "girth.bfs", "models.build", "eacode.build",
        )
    }
    sampled = sum(s[ATTRS]["trials"] for s in spans if s[NAME] == "channel.sample")
    decodes = [s[ATTRS] for s in spans if s[NAME] == "decoder.decode"]
    iters = (np.concatenate([d["iters"] for d in decodes])
             if decodes else np.zeros(0, dtype=np.int64))
    trial_passes = sum(d["trials"] * d["passes"] for d in decodes)
    metrics.update({
        "channel.us_per_trial": 1e6 * metrics["channel.sample_s"] / sampled
        if sampled else 0.0,
        "decoder.passes": sum(d["passes"] for d in decodes),
        "decoder.trial_iters": int(iters.sum()),
        "decoder.active_frac": float((iters + 1).sum()) / trial_passes
        if trial_passes else 0.0,
        "decoder.us_per_trial_pass": 1e6 * metrics["decoder.decode_s"] / trial_passes
        if trial_passes else 0.0,
        "decoder.nonconverged": sum(d["nonconverged"] for d in decodes),
        "decoder.iters_p50": float(np.percentile(iters, 50)) if iters.size else 0.0,
        "decoder.iters_p99": float(np.percentile(iters, 99)) if iters.size else 0.0,
        "decoder.iters_max": int(iters.max()) if iters.size else 0,
        "decoder.peak_mb": max((d["peak_bytes"] for d in decodes), default=0) / 2**20,
        "gf2.gfrank_calls": sum(1 for s in spans if s[NAME] == "gf2.gfrank"),
        "gf2.rowbasis_calls": sum(1 for s in spans if s[NAME] == "gf2.rowbasis"),
    })
    return metrics


def point_split(spans: list[list], point: dict) -> dict[str, float]:
    """Self time per layer inside one run_trials call, plus its total."""
    idx = point["span"]
    split = layer_self_times(spans, within=idx)
    split["harness.syndrome"] = self_times(spans)[idx]
    split["total"] = spans[idx][END] - spans[idx][START]
    return split


def coverage(spans: list[list], root: int) -> float:
    """Share of a bench root span's time spent inside package layers."""
    total = spans[root][END] - spans[root][START]
    return 1.0 - self_times(spans)[root] / total if total > 0 else 0.0
