"""Per-layer tracing of an ``mfj`` run, from outside the toolchain.

``Tracer`` wraps the entry points of each ``mfj`` module (one layer per
module) and records, for every call, a span: the function, its parent span,
and its start and end time.  Wrappers are patched in wherever the function
is bound -- the defining module, every ``mfj`` module that imported the name
(``evaluator.pure_step``, ``soundness.check_lifted_step``, ...), or the class
for a method -- and every patched attribute is put back on ``uninstall``.

Self time is a span's duration minus the time covered by its child spans, so
a recursive function's time is counted once.  Spans stay in memory and are
written out at the end with ``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

# (module, class or None, attribute): the entry points of each layer.  A
# class of None is a module-level function; "*" is every class of the module
# that defines the method itself (the four monads and their base class).
TARGETS = [
    ("parser", None, "tokenize"),
    ("parser", None, "parse_program"),
    ("prelude", None, "prelude_program"),
    ("prelude", None, "load_program"),
    ("signatures", "Sigs", "decl_sig"),
    ("signatures", "Sigs", "override_sum"),
    ("signatures", "Sigs", "sig_of_type"),
    ("signatures", "Sigs", "sub_type"),
    ("signatures", "Sigs", "sub_eff"),
    ("signatures", "Sigs", "wf_check"),
    ("effects", None, "simplify"),
    ("effects", None, "apply_filter"),
    ("typer", "Checker", "check_program"),
    ("typer", "Checker", "type_expr"),
    ("typer", "Checker", "type_value"),
    ("typer", "Checker", "type_handler"),
    ("syntax", None, "subst_expr"),
    ("reducer", None, "pure_step"),
    ("reducer", None, "mbody"),
    ("reducer", None, "cmatch"),
    ("monads", "*", "unit"),
    ("monads", "*", "bind"),
    ("monads", "*", "map_m"),
    ("monads", "*", "elements"),
    ("evaluator", "Evaluator", "mon_step"),
    ("evaluator", "Evaluator", "big_step"),
    ("evaluator", "Evaluator", "finitary"),
    ("evaluator", "Evaluator", "approx"),
    ("evaluator", "Evaluator", "approx_chain"),
    ("soundness", None, "check_soundness"),
    ("soundness", None, "check_lifted_step"),
    ("soundness", None, "type_monadic_result"),
    ("soundness", None, "interp_law_suite"),
]

# derived per-layer metrics and their units, beside <layer>.<function>.calls
# (count) and <layer>.<function>.self_s (s)
DERIVED = {
    "parser.tokens_per_s": "1/s",
    "soundness.reachable_exprs": "count",
    "soundness.sig_of_type_per_expr": "ratio",
    "evaluator.steps": "count",
    "evaluator.mon_step_per_step": "ratio",
    "evaluator.max_context_depth": "count",
    "monads.max_width": "count",
    "bench.trace_overhead": "ratio",
}


def target_names() -> list:
    return [f"{mod}.{attr}" for mod, _, attr in TARGETS]


def metric_units() -> dict:
    """Every per-layer metric a traced run reports, in order, with its unit."""
    out = {}
    for name in target_names():
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out.update(DERIVED)
    return out


def _mfj_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "mfj" or n.startswith("mfj."))]


def context_depth(expr, do_cls, try_cls) -> int:
    """Frames between the configuration's root and its redex."""
    depth = 0
    while True:
        if isinstance(expr, do_cls):
            expr = expr.first
        elif isinstance(expr, try_cls):
            expr = expr.body
        else:
            return depth
        depth += 1


class Tracer:
    """Spans and per-function totals for every call into a target."""

    def __init__(self):
        import mfj.syntax

        self.names = target_names()
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n  # outermost activations only
        self._active = [0] * n
        self._stack: list = []  # frames: [fid, span id, child seconds]
        self.span_parent = array("q")
        self.span_fid = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.tokens = 0
        self.steps = 0
        self.reachable = 0
        self.max_depth = 0
        self.max_width = 0
        self.walk_s = 0.0
        self.missing: list = []
        self._patched: list = []  # (owner, attribute, original)
        self._fid = {name: i for i, name in enumerate(self.names)}
        self._do, self._try = mfj.syntax.Do, mfj.syntax.Try

    # -- patching -----------------------------------------------------------

    def install(self) -> "Tracer":
        import mfj  # noqa: F401  (loads every layer module)

        mods = {m.__name__: m for m in _mfj_modules()}
        for mod_name, cls_name, attr in TARGETS:
            fid = self._fid[f"{mod_name}.{attr}"]
            mod = mods.get(f"mfj.{mod_name}")
            if mod is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if cls_name is None:
                orig = mod.__dict__.get(attr)
                if orig is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapper = self._wrap(fid, orig)
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, wrapper)
                continue
            if cls_name == "*":
                owners = [c for c in vars(mod).values()
                          if isinstance(c, type) and c.__module__ == mod.__name__
                          and attr in c.__dict__]
            else:
                cls = getattr(mod, cls_name, None)
                owners = [cls] if cls is not None and attr in cls.__dict__ else []
            if not owners:
                self.missing.append(f"{mod_name}.{attr}")
            for owner in owners:
                self._patch(owner, attr, self._wrap(fid, owner.__dict__[attr]))
        return self

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fid: int, fn):
        stack = self._stack
        name = self.names[fid]
        after = {
            "parser.tokenize": self._after_tokenize,
            "evaluator.mon_step": self._after_mon_step,
            "evaluator.big_step": self._after_big_step,
        }.get(name)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.span_fid)
            parent = stack[-1] if stack else None
            frame = [fid, sid, 0.0]
            stack.append(frame)
            self._active[fid] += 1
            self.span_fid.append(fid)
            self.span_parent.append(parent[1] if parent else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.span_start[sid] = start
                self.span_end[sid] = end
                self.calls[fid] += 1
                self.self_s[fid] += dur - frame[2]
                self._active[fid] -= 1
                if not self._active[fid]:
                    self.incl_s[fid] += dur
                if parent is not None:
                    parent[2] += dur
            if after is not None:
                extra = after(parent, args, result)
                if extra and parent is not None:
                    parent[2] += extra  # bookkeeping is no one's self time
            return result

        return traced

    def _after_tokenize(self, parent, args, toks):
        self.tokens += len(toks)

    def _after_mon_step(self, parent, args, result):
        pname = self.names[parent[0]] if parent else None
        if pname != "evaluator.mon_step":
            self.steps += 1
        if pname == "soundness.check_soundness":
            self.reachable += 1

    def _after_big_step(self, parent, args, mc):
        # walk the configurations big_step produced; LazyLists are already
        # forced to the prefix, so taking it again does no stepping
        start = time.perf_counter()
        ev = args[0]
        if hasattr(mc, "take"):
            configs = mc.take(ev.prefix)
        elif hasattr(mc, "support"):
            configs = mc.support()
        else:
            configs = [mc.payload] if mc.tag in ("pure", "val") else []
        self.max_width = max(self.max_width, len(configs))
        for c in configs:
            expr = getattr(c, "expr", None)
            if expr is not None:
                self.max_depth = max(self.max_depth,
                                     context_depth(expr, self._do, self._try))
        spent = time.perf_counter() - start
        self.walk_s += spent
        return spent

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, except bench.trace_overhead."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        parse_s = self.incl_s[self._fid["parser.parse_program"]]
        sig_calls = self.calls[self._fid["signatures.sig_of_type"]]
        mon_calls = self.calls[self._fid["evaluator.mon_step"]]
        out["parser.tokens_per_s"] = self.tokens / parse_s if parse_s else 0.0
        out["soundness.reachable_exprs"] = self.reachable
        out["soundness.sig_of_type_per_expr"] = (
            sig_calls / self.reachable if self.reachable else 0.0)
        out["evaluator.steps"] = self.steps
        out["evaluator.mon_step_per_step"] = (
            mon_calls / self.steps if self.steps else 0.0)
        out["evaluator.max_context_depth"] = self.max_depth
        out["monads.max_width"] = self.max_width
        return out

    def write_spans(self, path: Path) -> None:
        """``path`` gets the span arrays; ``path.json`` says how to read them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = [("parent", self.span_parent), ("fid", self.span_fid),
                  ("start", self.span_start), ("end", self.span_end)]
        with open(path, "wb") as f:
            for _, arr in arrays:
                arr.tofile(f)
        header = {"count": len(self.span_fid), "names": self.names,
                  "arrays": [[n, a.typecode, a.itemsize] for n, a in arrays]}
        Path(f"{path}.json").write_text(json.dumps(header))


def load_spans(path: Path) -> dict:
    """Read back what ``Tracer.write_spans`` wrote: name -> array."""
    header = json.loads(Path(f"{path}.json").read_text())
    out = {"names": header["names"]}
    with open(path, "rb") as f:
        for name, code, _ in header["arrays"]:
            arr = array(code)
            arr.fromfile(f, header["count"])
            out[name] = arr
    return out


@contextmanager
def count_steps():
    """Count reduction steps -- ``mon_step`` calls not made by ``mon_step``
    itself -- without recording spans.  Yields a one-element list."""
    from mfj.evaluator import Evaluator

    count = [0]
    orig = Evaluator.__dict__.get("mon_step")
    if orig is None:  # a toolchain without mon_step: report zero steps
        yield count
        return
    depth = [0]

    @wraps(orig)
    def counted(self, e):
        if not depth[0]:
            count[0] += 1
        depth[0] += 1
        try:
            return orig(self, e)
        finally:
            depth[0] -= 1

    Evaluator.mon_step = counted
    try:
        yield count
    finally:
        Evaluator.mon_step = orig
