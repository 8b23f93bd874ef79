"""Timing hooks and spans around the benchmark's calls into mcseg.

A ``Probe`` replaces public functions at the sites where mcseg imports them
(``mcseg.trainer.make_batch``, ``mcseg.model.encode``, ...) with wrappers,
and puts the originals back on ``close``. Two kinds of hook exist:

* timing hooks stay installed for the whole run, traced or not. They mark
  where training steps begin and end and how long dev decoding takes, which
  the end-to-end metrics need and ``train()`` does not report;
* layer hooks are installed only while tracing. Each call becomes a span
  (name, start, end, parent span, op id, phase) kept in memory, and its
  inclusive and self time are summed per phase and span name.

Counting (``set_counting``) adds what is too costly to leave on while spans
are timed: tracemalloc for each step's allocation peak, a walk of each
step's tape, and the parameters each Adam step touches. The benchmark counts
in a phase of its own, so that no timed span runs under tracemalloc.

Bench code opens spans of its own with ``Probe.span`` around the calls it
makes itself (``trainer.train``, ``checkpoint.save_checkpoint``, ...).
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class PhaseStats:
    """What the hooks saw during one phase of a run."""

    rounds: int = 0
    step_s: list = field(default_factory=list)   # one entry per adam_step
    step_chars: int = 0                          # real characters trained on
    call_s: list = field(default_factory=list)   # train()/transfer() calls
    call_steps: list = field(default_factory=list)  # steps in each call
    dev_decode_s: float = 0.0                    # predict_words inside calls
    dev_chars: int = 0
    dev_eval_s: float = 0.0                      # predict_words + scoring
    line_s: list = field(default_factory=list)   # one entry per segment()
    pass_lines: list = field(default_factory=list)  # lines in each pass
    line_chars: int = 0
    batch_slots: int = 0                         # padded (rows x T) cells
    batch_real: int = 0
    # filled only while counting
    tape_nodes: list = field(default_factory=list)
    step_alloc_peak: list = field(default_factory=list)
    params_updated: list = field(default_factory=list)
    state_bytes: int = 0
    # filled while tracing
    decode_rows: list = field(default_factory=list)
    viterbi_chars: int = 0


def count_tape(loss) -> int:
    """Nodes that backward() visits: everything reachable that needs grad."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Probe:
    def __init__(self):
        self.phase = "setup"
        self.op = "setup"         # step or line id stamped on every span
        self.op_pinned = False    # set while the bench itself names the op
        self.tracing = False
        self.counting = False
        self.stats: dict[str, PhaseStats] = defaultdict(PhaseStats)
        self.spans: list = []
        self.total_s: dict = defaultdict(float)   # (phase, name) -> seconds
        self.self_s: dict = defaultdict(float)
        self._open: list = []                     # [span index, child seconds]
        self._installed: list = []                # (owner, attr, original)
        self._layer_hooks: list = []
        self._step_t0 = 0.0
        self._step_chars = 0
        self._alloc_base = 0
        self._n_batches = 0

    @property
    def cur(self) -> PhaseStats:
        return self.stats[self.phase]

    # spans ---------------------------------------------------------------

    def _enter(self) -> None:
        # the slot holds the parent's index until _exit fills in the span
        self.spans.append(self._open[-1][0] if self._open else -1)
        self._open.append([len(self.spans) - 1, 0.0])

    def _exit(self, name: str, t0: float, t1: float) -> None:
        idx, child = self._open.pop()
        dur = t1 - t0
        key = (self.phase, name)
        self.total_s[key] += dur
        self.self_s[key] += dur - child
        if self._open:
            self._open[-1][1] += dur
        self.spans[idx] = (name, t0, t1, self.spans[idx], self.op, self.phase)

    @contextmanager
    def span(self, name: str):
        """Span around a call the bench makes itself; a no-op when not tracing."""
        if not self.tracing:
            yield
            return
        self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, t0, time.perf_counter())

    # hooks ---------------------------------------------------------------

    def _wrap(self, fn, name: str, before, after):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracing = probe.tracing
            if tracing:
                probe._enter()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if tracing:
                    probe._exit(name, t0, t1)
            if after is not None:
                after(args, kwargs, out, t0, t1)
            return out

        return wrapper

    def _patch(self, owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(original, name, before, after))
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        """Put the timing hooks in place; layer hooks follow set_tracing."""
        from mcseg import trainer

        self._patch(trainer, "make_batch", "model.make_batch",
                    before=self._on_batch_start, after=self._on_batch)
        self._patch(trainer, "adam_step", "optim.adam", after=self._on_adam)
        self._patch(trainer, "predict_words", "trainer.predict_words",
                    after=self._on_predict)
        self._patch(trainer, "evaluate_segmentation", "metrics.evaluate",
                    after=self._on_evaluate)

    def set_tracing(self, on: bool) -> None:
        """Install or remove the layer hooks."""
        if on == self.tracing:
            return
        self.tracing = on
        if on:
            mark = len(self._installed)
            self._install_layer_hooks()
            self._layer_hooks = self._installed[mark:]
            del self._installed[mark:]
        else:
            self._restore(self._layer_hooks)
            self._layer_hooks = []

    def set_counting(self, on: bool) -> None:
        """Start or stop the allocation tracker and the step counters; the
        tape is counted only while tracing, through the backward hook."""
        if on == self.counting:
            return
        self.counting = on
        if on:
            tracemalloc.start()
        else:
            tracemalloc.stop()

    def _install_layer_hooks(self) -> None:
        from mcseg import encoder, model, tensor, trainer

        self._patch(tensor.Tensor, "backward", "tensor.backward",
                    after=self._on_backward)
        self._patch(tensor, "matmul", "tensor.matmul")
        self._patch(tensor, "softmax", "tensor.softmax")
        self._patch(tensor, "layer_norm", "tensor.layer_norm")
        self._patch(model, "build_input", "embedding.build_input")
        self._patch(model, "encode", "encoder.encode")
        self._patch(encoder, "multi_head", "encoder.multi_head")
        self._patch(encoder, "feed_forward", "encoder.feed_forward")
        self._patch(model, "emission_scores", "decoder.emission")
        self._patch(model, "crf_nll", "decoder.crf_nll")
        self._patch(model, "viterbi_decode", "decoder.viterbi",
                    after=self._on_viterbi)
        self._patch(model.Segmenter, "decode_batch", "model.decode_batch",
                    after=self._on_decode)
        self._patch(trainer, "preprocess_corpus", "corpus.preprocess")
        self._patch(trainer, "build_vocab", "corpus.build_vocab")
        self._patch(trainer, "label_sentences", "corpus.label_sentences")
        self._patch(trainer, "normalize_width", "corpus.normalize")

    @staticmethod
    def _restore(installed: list) -> None:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)

    def close(self) -> None:
        self.set_counting(False)
        self.set_tracing(False)
        self._restore(self._installed)
        self._installed = []

    # hook bodies ---------------------------------------------------------

    def _on_batch_start(self, args, kwargs) -> None:
        self._n_batches += 1
        if self.counting:
            tracemalloc.reset_peak()
            self._alloc_base = tracemalloc.get_traced_memory()[0]
        if not self.op_pinned:
            self.op = f"{self.phase}.r{self.cur.rounds}.b{self._n_batches}"

    def _on_batch(self, args, kwargs, batch, t0, t1) -> None:
        # A training step is everything from its make_batch to its
        # adam_step; dev and segment batches are never followed by one.
        self._step_t0 = t0
        real = int(batch.lengths.sum())
        self._step_chars = real
        st = self.cur
        st.batch_slots += batch.uni.size
        st.batch_real += real

    def _on_adam(self, args, kwargs, out, t0, t1) -> None:
        st = self.cur
        st.step_s.append(t1 - self._step_t0)
        st.step_chars += self._step_chars
        if self.counting:
            peak = tracemalloc.get_traced_memory()[1] - self._alloc_base
            st.step_alloc_peak.append(peak)
            params, state = args[0], args[1]
            frozen = kwargs.get("frozen", frozenset())
            masks = kwargs.get("grad_masks") or {}
            updated = 0
            for name, p in params.items():
                if name in frozen or p.grad is None:
                    continue
                updated += (int((masks[name] != 0).sum()) if name in masks
                            else p.data.size)
            st.params_updated.append(updated)
            st.state_bytes = max(st.state_bytes, sum(
                a.nbytes for a in (*state.m.values(), *state.v.values())))

    def _on_predict(self, args, kwargs, out, t0, t1) -> None:
        st = self.cur
        st.dev_decode_s += t1 - t0
        st.dev_eval_s += t1 - t0
        st.dev_chars += sum(len(s.tokens) for s in args[1])

    def _on_evaluate(self, args, kwargs, out, t0, t1) -> None:
        self.cur.dev_eval_s += t1 - t0

    def _on_backward(self, args, kwargs, out, t0, t1) -> None:
        if self.counting:
            self.cur.tape_nodes.append(count_tape(args[0]))

    def _on_viterbi(self, args, kwargs, out, t0, t1) -> None:
        self.cur.viterbi_chars += len(out)

    def _on_decode(self, args, kwargs, out, t0, t1) -> None:
        self.cur.decode_rows.append(len(out))

    # output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        """All spans as columns; ``parent`` indexes into the same columns."""
        keys = ("name", "start_s", "end_s", "parent", "op", "phase")
        cols = dict(zip(keys, map(list, zip(*self.spans)))) if self.spans \
            else {k: [] for k in keys}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cols, fh)
