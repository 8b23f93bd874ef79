"""The benchmark's workloads, their seeded inputs, output checks and metrics.

A run repeats its set-up (at least ``Size.setups`` times and for at least
``Size.setup_seconds``; the median is ``setup_s``), then runs identical
rounds until the time budget is spent. At least one round always runs.

* train-small: one ``train()`` call on corpora A and B at the acceptance
  model size, long enough to learn both conventions, then a ``segment()``
  pass over the lines with the result.
* train-paper: one short ``train()`` call at the paper's model size, over a
  4000-character alphabet, then a ``segment()`` pass. Two epochs move the
  paper-size model only as far as the label prior.
* segment-lines: set-up trains a train-small model and round-trips it
  through a checkpoint; a round segments every line once, one line per
  call, as ``mcseg segment`` does. Its training metrics come from the
  set-up's ``train()`` calls.
* transfer-fewshot: set-up as segment-lines; a round is one ``transfer()``
  to unseen convention C from 100 shots, then a ``segment()`` pass under C
  with the adapted model.

``--seed`` draws the lines to segment. The training corpora, the shots and
the training seed are fixed: at these short schedules the point where a
model leaves the label prior and learns the conventions moves by epochs with
either of them, and the quality check below needs every run past it. So the
seed varies what is segmented, not what is learned. A segment pass holds
four one-sentence lines of 8 to 18 characters for every long line of 200, so
p50 falls on short lines and p99 on long ones. ``quality_f1`` is the word F1
of the first pass against the gold words. ``train_step_ms_p90`` and
``segment_line_ms_p99`` are taken within each round, and the median over
rounds is reported.

A traced run spends half its budget on untraced rounds first; their op
times against the traced rounds' give ``trace.overhead_frac``. Per-layer
times are ms per traced round, or per set-up for the set-up layers. One
more round then runs with counting on (tracemalloc, tape walks, Adam
counts), outside the timed rounds, for the per-step counts.

Checks, each counted in ``attempted`` and, if it fails, in ``failed``: every
training loss is finite; every call repeats the first call's loss trajectory
bit for bit; the checkpoint round trip keeps every parameter bit for bit;
every segmented line rejoins to the width-normalized input and matches the
first pass; a sample of lines decodes the same alone as inside one batch. At
full size, where the schedules are long enough to learn, also: every call
ends with a mean epoch loss below ``LOSS_DROP`` times its first epoch's; and
on every workload but train-paper, ``quality_f1`` closes at least half of
the gap between the F1 of cutting the same lines into single characters and
a perfect 1. A model stuck at the label prior scores about 0.66 on the
lines, against 0.62 for single characters, and fails that check; the trained
models score about 0.99 (B) and 0.91 (C).
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mcseg import checkpoint, synthetic, trainer
from mcseg.corpus import (LabeledSentence, RawCorpus, normalize_width,
                          replace_runs_with_surfaces, tokenize)
from mcseg.metrics import evaluate_segmentation
from mcseg.model import ModelConfig, make_batch
from mcseg.trainer import TrainConfig

from tracer import Probe

# The acceptance suite's synthetic world, model and training seed. The world
# (alphabet and pair inventories) and the training seed stay fixed so that
# --seed varies only the sampled sentences and lines, not how hard the task is.
WORLD_SEED = 7
TRAIN_SEED = 1
SMALL_SPEC = dict(n_chars=400, n_pairs=200, n_shared=190, n_new=10,
                  p_digit=0.05, p_pair=0.30)
SMALL_MODEL = dict(d_embed=32, d_model=64, num_layers=2, num_heads=2,
                   d_ff=256, dropout=0.1)
# With warm-up 300, eight epochs of 30 steps take the small model past the
# label prior by epoch 4 to 6 for training seeds 1-4; shorter warm-ups
# (higher peak rates) left some seeds at the prior after eight epochs.
SMALL_WARMUP = 300
# the paper's model over an alphabet the size of a real character set
PAPER_SPEC = dict(n_chars=4000, n_pairs=400, n_shared=380, n_new=20,
                  p_digit=0.05, p_pair=0.30)
PAPER_MODEL = dict(d_embed=100, d_model=256, num_layers=6, num_heads=4,
                   d_ff=1024, dropout=0.2)
PAPER_EPOCHS = 2
# short enough that the mean loss falls by about half within the call (the
# paper's 4000 leaves the rate near 2e-6 and the model at its random start)
PAPER_WARMUP = 128
TRANSFER_WARMUP = 40
# at full size, every train()/transfer() call must end below this share of
# the mean loss of its first epoch
LOSS_DROP = 0.75

WORKLOADS = ("train-small", "train-paper", "segment-lines", "transfer-fewshot")
# A long line is about 15 sentences cut to a fixed length, so the slowest
# lines, which set p99, cost the same whatever the seed.
LONG_CHARS = 200
SHORT_PER_LONG = 4       # short lines per long line


@dataclass(frozen=True)
class Size:
    sentences: int         # per corpus: train-small and the base model
    epochs: int
    paper_sentences: int   # per corpus: train-paper
    shots: int
    transfer_epochs: int
    lines: int             # short lines per segment pass
    paper_lines: int       # the same for the paper-size model
    setups: int            # set-ups per run: at least this many, and
    setup_seconds: float   # enough that together they take this long
    check_lines: int       # lines decoded alone and in one batch
    learns: bool           # long enough to learn: check loss and quality


# 1066 and 142 sentences leave 960 and 128 after the 10% dev split: whole
# batches of 64, so every training step has the same shape
FULL = Size(sentences=1066, epochs=8, paper_sentences=142, shots=100,
            transfer_epochs=10, lines=400, paper_lines=200, setups=3,
            setup_seconds=2.0, check_lines=32, learns=True)
TINY = Size(sentences=40, epochs=1, paper_sentences=8, shots=20,
            transfer_epochs=1, lines=8, paper_lines=4, setups=1,
            setup_seconds=0.0, check_lines=4, learns=False)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass
class Inputs:
    corpora: list             # RawCorpus A and B
    shots: object             # RawCorpus under convention C
    lines: list[str]          # raw lines to segment
    gold: list[list[str]]     # their width-normalized gold words


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


# inputs -------------------------------------------------------------------


def _fullwidth(word: str, rng) -> str:
    if word[0].isdigit() and rng.random() < 0.5:
        return "".join(chr(ord(c) + 0xFEE0) for c in word)
    return word


def _stream(world, rng, n_chars: int) -> list[str]:
    """A synthetic character stream cut to exactly ``n_chars``."""
    while True:
        chars = synthetic.sample_stream(world, rng)
        if len(chars) >= n_chars:
            return chars[:n_chars]


def _short_length(world, i: int) -> int:
    """The i-th sentence length: the spec's lengths taken in turn, so every
    seed gives the same mix of lengths and so the same batch shapes."""
    spec = world.spec
    return spec.min_len + i % (spec.max_len - spec.min_len + 1)


def _corpus(world, convention: str, n: int, rng) -> RawCorpus:
    pairs = world.conventions[convention]
    return RawCorpus(
        name=convention.lower(), criterion=convention,
        sentences=[synthetic.rule_segment(
            _stream(world, rng, _short_length(world, i)), pairs)
            for i in range(n)])


def _line(world, pairs, rng, n_chars: int,
          one_sentence: bool) -> tuple[str, list[str]]:
    """One sentence, or sentences joined by full-width punctuation, of
    exactly ``n_chars``. Digit runs are written full-width half of the time.
    Returns the text and its width-normalized gold words."""
    pieces = []   # (written, gold); both have the same length
    length = 0
    while length < n_chars:
        if pieces:
            mark = "，" if rng.random() < 0.7 else "。"
            pieces.append((mark, normalize_width(mark)))
            length += 1
        chars = (_stream(world, rng, n_chars) if one_sentence
                 else synthetic.sample_stream(world, rng))
        for word in synthetic.rule_segment(chars, pairs):
            pieces.append((_fullwidth(word, rng), word))
            length += len(word)
    cut, left = [], n_chars
    for written, word in pieces:
        if left <= 0:
            break
        cut.append((written[:left], word[:left]))
        left -= len(word)
    return "".join(w for w, _ in cut), [g for _, g in cut]


def make_inputs(seed: int, corpus_seed: int, spec: dict, n_sentences: int,
                n_shots: int, n_short: int, convention: str) -> Inputs:
    """Training corpora A and B and the shots from ``corpus_seed``; the
    lines from ``seed``."""
    world = synthetic.build_world(synthetic.SyntheticSpec(**spec), WORLD_SEED)
    corpus_rng = np.random.default_rng(corpus_seed)
    corpora = [_corpus(world, c, n_sentences, corpus_rng) for c in ("A", "B")]
    shots = _corpus(world, "C", n_shots, corpus_rng)
    rng = np.random.default_rng(seed)
    pairs = world.conventions[convention]
    made = [_line(world, pairs, rng, _short_length(world, i), True)
            for i in range(n_short)]
    made += [_line(world, pairs, rng, LONG_CHARS, False)
             for _ in range(max(1, n_short // SHORT_PER_LONG))]
    order = rng.permutation(len(made))
    return Inputs(corpora=corpora, shots=shots,
                  lines=[made[i][0] for i in order],
                  gold=[made[i][1] for i in order])


# one workload run ----------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 size: Size, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.out_dir = out_dir
        self.probe = Probe()
        self.checks = Checks()
        self.trajectories: dict[str, list[float]] = {}
        self.first_pass: list | None = None
        self.setup_s: list[float] = []
        self.checkpoint_bytes = 0
        self.final_loss: float | None = None
        self.base = None          # the checkpointed model set-up makes
        self.model = None         # the model the segment passes use

    # configs

    def _train_config(self, epochs: int, warmup: int, batch: int = 64):
        return TrainConfig(epochs=epochs, batch_size=batch,
                           warmup_steps=warmup, seed=TRAIN_SEED)

    @property
    def paper(self) -> bool:
        return self.workload == "train-paper"

    @property
    def criterion(self) -> str:
        return "C" if self.workload == "transfer-fewshot" else "B"

    # set-up

    def setup(self) -> None:
        size = self.size
        with self.probe.span("synthetic.generate"):
            if self.paper:
                self.inputs = make_inputs(
                    self.seed, WORLD_SEED, PAPER_SPEC, size.paper_sentences,
                    size.shots, size.paper_lines, self.criterion)
            else:
                self.inputs = make_inputs(
                    self.seed, WORLD_SEED, SMALL_SPEC, size.sentences,
                    size.shots, size.lines, self.criterion)
        if self.workload in ("segment-lines", "transfer-fewshot"):
            base = self._train("base", trainer.train, self.inputs.corpora,
                               ModelConfig(**SMALL_MODEL),
                               self._small_train_config())
            path = self.out_dir / f"base-{self.workload}-{self.seed}.mseg"
            with self.probe.span("checkpoint.save"):
                checkpoint.save_checkpoint(path, base.segmenter)
            self.checkpoint_bytes = path.stat().st_size
            with self.probe.span("checkpoint.load"):
                self.base, _ = checkpoint.load_checkpoint(path)
            path.unlink()
            self._check_same_params(base.segmenter, self.base)
            self.model = self.base

    def _small_train_config(self):
        return self._train_config(self.size.epochs, warmup=SMALL_WARMUP)

    def _check_same_params(self, a, b) -> None:
        for name, p in a.params.items():
            self.checks.check(np.array_equal(p.data, b.params[name].data),
                              f"checkpoint changed {name}")

    # rounds

    def _train(self, kind: str, fn, *args):
        """One train()/transfer() call, its timing and its loss checks."""
        probe = self.probe
        probe.op_pinned = False
        st = probe.cur
        steps_before = len(st.step_s)
        t0 = time.perf_counter()
        with probe.span(f"trainer.{fn.__name__}"):
            result = fn(*args)
        st.call_s.append(time.perf_counter() - t0)
        st.call_steps.append(len(st.step_s) - steps_before)
        losses = result.loss_steps
        for v in losses:
            self.checks.check(math.isfinite(v), f"{kind}: non-finite loss {v}")
        first = self.trajectories.setdefault(kind, losses)
        if first is not losses:
            self.checks.check(first == losses,
                              f"{kind}: loss trajectory differs from the "
                              "first call on the same seed")
        epoch_loss = [row["mean_loss"] for row in result.history]
        if self.size.learns and len(epoch_loss) >= 2:
            self.checks.check(epoch_loss[-1] < LOSS_DROP * epoch_loss[0],
                              f"{kind}: mean loss went from {epoch_loss[0]:.4g}"
                              f" to only {epoch_loss[-1]:.4g}")
        self.final_loss = epoch_loss[-1]
        return result

    def _segment_pass(self, segmenter) -> list[list[str]]:
        probe = self.probe
        st = probe.cur
        probe.op_pinned = True
        outputs = []
        for i, line in enumerate(self.inputs.lines):
            probe.op = f"{probe.phase}.r{st.rounds}.line{i}"
            t0 = time.perf_counter()
            with probe.span("trainer.segment"):
                words = trainer.segment(segmenter, line, self.criterion)
            st.line_s.append(time.perf_counter() - t0)
            st.line_chars += len(line)
            outputs.append(words)
        st.pass_lines.append(len(outputs))
        probe.op_pinned = False
        for i, (line, words) in enumerate(zip(self.inputs.lines, outputs)):
            ok = "".join(words) == normalize_width(line)
            if self.first_pass is not None:
                ok = ok and words == self.first_pass[i]
            self.checks.check(ok, f"line {i}: output does not rejoin to the "
                                  "input or differs from the first pass")
        if self.first_pass is None:
            self.first_pass = outputs
        return outputs

    def round(self) -> None:
        size = self.size
        if self.workload == "segment-lines":
            self._segment_pass(self.model)
        elif self.workload == "transfer-fewshot":
            result = self._train(
                "transfer", trainer.transfer, self.base, self.inputs.shots,
                self._train_config(size.transfer_epochs,
                                   warmup=TRANSFER_WARMUP, batch=16))
            self.model = result.segmenter
            self._segment_pass(self.model)
        else:
            model = PAPER_MODEL if self.paper else SMALL_MODEL
            config = (self._train_config(PAPER_EPOCHS, warmup=PAPER_WARMUP)
                      if self.paper else self._small_train_config())
            result = self._train("train", trainer.train, self.inputs.corpora,
                                 ModelConfig(**model), config)
            self.model = result.segmenter
            self._segment_pass(self.model)
        self.probe.cur.rounds += 1

    def _rounds(self, phase: str, seconds: float) -> None:
        self.probe.phase = phase
        deadline = time.perf_counter() + seconds
        while True:
            try:
                self.round()
            except Exception:  # a broken program must still end the run
                traceback.print_exc(file=sys.stderr)
                self.checks.check(False, f"round raised: {sys.exc_info()[1]!r}")
                self.probe.cur.rounds += 1
            if time.perf_counter() >= deadline:
                break

    # after the rounds

    def _check_batched_decode(self) -> None:
        """Sampled lines decode to the same labels alone and in one batch."""
        segmenter = self.model
        vocab = segmenter.vocab
        cid = vocab.criterion_id(self.criterion)
        rng = np.random.default_rng(self.seed)
        picked = rng.choice(len(self.inputs.lines),
                            size=min(self.size.check_lines,
                                     len(self.inputs.lines)), replace=False)
        sents = []
        for i in picked:
            tokens, _ = replace_runs_with_surfaces(
                tokenize(normalize_width(self.inputs.lines[int(i)])))
            sents.append(LabeledSentence(tokens=tokens,
                                         labels=["S"] * len(tokens),
                                         criterion_id=cid))
        together = segmenter.decode_batch(make_batch(sents, vocab))
        for i, sent, path in zip(picked, sents, together):
            alone = segmenter.decode_batch(make_batch([sent], vocab))[0]
            self.checks.check(alone == path,
                              f"line {int(i)}: batched decode differs")

    def _line_quality(self) -> float:
        if self.first_pass is None:
            return 0.0
        pairs = [(g, p) for g, p in zip(self.inputs.gold, self.first_pass)
                 if "".join(g) == "".join(p)]
        return evaluate_segmentation([g for g, _ in pairs],
                                     [p for _, p in pairs]).f1

    def execute(self) -> None:
        probe = self.probe
        probe.install()
        try:
            probe.set_tracing(self.trace)
            while (len(self.setup_s) < self.size.setups
                   or sum(self.setup_s) < self.size.setup_seconds):
                t0 = time.perf_counter()
                self.setup()
                self.setup_s.append(time.perf_counter() - t0)
            if self.trace:
                # untraced reference for the tracing overhead
                probe.set_tracing(False)
                self._rounds("reference", self.seconds / 2)
                probe.set_tracing(True)
            self._rounds("run", self.seconds)
            if self.trace:
                probe.set_counting(True)
                self._rounds("counts", 0.0)
                probe.set_counting(False)
            probe.set_tracing(False)
            self.checks_phase()
        finally:
            probe.close()

    def checks_phase(self) -> None:
        self.probe.phase = "checks"
        try:
            self._check_batched_decode()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.checks.check(False, "batched decode check raised")
        if self.size.learns and not self.paper:
            quality, floor = self._line_quality(), self._quality_floor()
            self.checks.check(quality >= floor,
                              f"quality_f1 {quality:.4f} is below {floor:.4f}"
                              ", halfway from single characters to 1")

    def _quality_floor(self) -> float:
        """Halfway between the F1 of single characters and 1."""
        single = evaluate_segmentation(
            self.inputs.gold, [list("".join(g)) for g in self.inputs.gold]).f1
        return (1.0 + single) / 2

    # metrics

    def _training_stats(self):
        run = self.probe.stats["run"]
        return run if run.step_s else self.probe.stats["setup"]

    def end_to_end(self) -> dict:
        """name -> (value, unit, samples)."""
        tr = self._training_stats()
        run = self.probe.stats["run"]
        step_ms = [1e3 * s for s in tr.step_s]
        line_ms = [1e3 * s for s in run.line_s]
        return {
            "setup_s": (statistics.median(self.setup_s), "s",
                        len(self.setup_s)),
            "train_chars_per_s": (tr.step_chars / sum(tr.step_s), "char/s",
                                  len(tr.step_s)),
            "train_step_ms_p50": (_pct(step_ms, 50), "ms", len(step_ms)),
            "train_step_ms_p90": (_round_pct(step_ms, tr.call_steps, 90),
                                  "ms", len(step_ms)),
            "train_call_s": (statistics.median(tr.call_s), "s",
                             len(tr.call_s)),
            "dev_decode_chars_per_s": (tr.dev_chars / tr.dev_decode_s,
                                       "char/s", len(tr.call_s)),
            "segment_chars_per_s": (run.line_chars / sum(run.line_s),
                                    "char/s", len(line_ms)),
            "segment_line_ms_p50": (_pct(line_ms, 50), "ms", len(line_ms)),
            "segment_line_ms_p99": (_round_pct(line_ms, run.pass_lines, 99),
                                    "ms", len(line_ms)),
            "quality_f1": (self._line_quality(), "ratio", 1),
            "final_loss": (self.final_loss, "nats", 1),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB", 1),
        }

    def per_layer(self) -> dict:
        """name -> (value, unit). Times are ms per round of the traced phase;
        set-up layers are ms per set-up."""
        probe = self.probe
        run = probe.stats["run"]
        counts = probe.stats["counts"]
        rounds = max(run.rounds, 1)
        setups = max(len(self.setup_s), 1)

        def per_round(name, table=probe.total_s):
            return 1e3 * table[("run", name)] / rounds

        def per_setup(name):
            return 1e3 * probe.total_s[("setup", name)] / setups

        out = {}
        for name in RUN_SPANS:
            out[f"{name}_ms"] = (per_round(name), "ms")
        for name in SETUP_SPANS:
            out[f"{name}_ms"] = (per_setup(name), "ms")
        for name in PARENT_SPANS:
            out[f"{name}.self_ms"] = (per_round(name, probe.self_s), "ms")

        call_s = sum(run.call_s)
        attributed = sum(run.step_s) + run.dev_eval_s
        viterbi_s = probe.total_s[("run", "decoder.viterbi")]
        out.update({
            "tensor.tape_nodes": (_mean(counts.tape_nodes), "count"),
            "tensor.step_alloc_peak_mb": (
                max(counts.step_alloc_peak, default=0) / 2**20, "MB"),
            "decoder.viterbi_us_per_char": (
                1e6 * viterbi_s / run.viterbi_chars if run.viterbi_chars
                else 0.0, "us/char"),
            "model.pad_fraction": (
                1.0 - run.batch_real / run.batch_slots if run.batch_slots
                else 0.0, "ratio"),
            "model.decode_rows_per_call": (_mean(run.decode_rows), "count"),
            "optim.params_updated": (_mean(counts.params_updated), "count"),
            "optim.state_bytes": (counts.state_bytes, "bytes"),
            "trainer.dev_eval_ms": (1e3 * run.dev_eval_s / rounds, "ms"),
            "trainer.unattributed_ms": (
                1e3 * (call_s - attributed) / rounds if run.call_s else 0.0,
                "ms"),
            "checkpoint.bytes": (self.checkpoint_bytes, "bytes"),
            "trace.overhead_frac": (self._overhead(), "ratio"),
        })
        return out

    def _overhead(self) -> float:
        """Median op time traced over untraced, minus one. The op is a
        training step, or a segmented line on segment-lines."""
        def op_ms(phase):
            st = self.probe.stats[phase]
            return st.step_s if st.step_s else st.line_s
        traced, plain = op_ms("run"), op_ms("reference")
        if not traced or not plain:
            return 0.0
        return statistics.median(traced) / statistics.median(plain) - 1.0


# spans whose time is reported per round, and per set-up
RUN_SPANS = (
    "tensor.backward", "tensor.matmul", "tensor.softmax", "tensor.layer_norm",
    "embedding.build_input", "encoder.encode", "encoder.multi_head",
    "encoder.feed_forward", "decoder.emission", "decoder.crf_nll",
    "decoder.viterbi", "model.make_batch", "model.decode_batch", "optim.adam",
    "trainer.train", "trainer.transfer", "trainer.segment",
    "trainer.predict_words", "corpus.preprocess", "corpus.build_vocab",
    "corpus.label_sentences", "corpus.normalize", "metrics.evaluate",
)
SETUP_SPANS = ("synthetic.generate", "checkpoint.save", "checkpoint.load")
# spans that hold other spans; every other span's self time is its time
PARENT_SPANS = (
    "embedding.build_input", "encoder.encode", "encoder.multi_head",
    "encoder.feed_forward", "decoder.emission", "model.decode_batch",
    "trainer.train", "trainer.transfer", "trainer.segment",
    "trainer.predict_words",
)


def _pct(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _round_pct(values: list, per_round: list[int], q: float) -> float:
    """The q-th percentile within each round, then the median over rounds,
    so that one slow stretch of a shared machine does not set the tail."""
    tails, lo = [], 0
    for n in per_round:
        if n:
            tails.append(_pct(values[lo:lo + n], q))
        lo += n
    return statistics.median(tails) if tails else 0.0


def _mean(values: list) -> float:
    return float(np.mean(values)) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: Size, out_dir: Path) -> dict:
    """Run one workload; end-to-end metrics untraced, per-layer traced."""
    run = Run(workload, seed, seconds, trace, size, out_dir)
    run.execute()
    if trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in run.per_layer().items()}
        run.probe.write_spans(out_dir / f"spans-{workload}.json")
    else:
        metrics = {k: {"value": v, "unit": u, "samples": n}
                   for k, (v, u, n) in run.end_to_end().items()}
    checks = run.checks
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "metrics": metrics,
        "attempted": checks.attempted, "failed": checks.failed,
        "failed_frac": checks.failed / max(checks.attempted, 1),
        "failures": checks.notes,
    }
