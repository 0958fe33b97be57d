"""Benchmark for succabs: tagging, training and loading speed, estimator
comparison, and a per-layer breakdown, with every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload wide40 --seed 1 --seconds 4 --trace 0
    python3 perfbench/run.py --smoke        # every workload at tiny sizes

One run is one workload in one process.  It builds the workload's corpora
(see ``workloads.py``), then times, through the public API:

- train: training text -> ``parse_corpus`` -> ``train_model`` ->
  ``model_to_text`` (``train_s``);
- setup: model text -> ``model_from_text`` (``setup_s``);
- decode: ``tag_corpus`` over the test set in chunks, in passes repeated
  for ``--seconds`` and at least three times (``decode_tok_s``); every call
  builds its decode caches afresh, as one ``succabs tag`` run does;
- compare: grid-searched interpolation weights, then the ``sa`` order-3,
  ``sa`` order-2, ``interp`` and ``ele`` models each trained, written,
  read back and decoded, scored with ``evaluate`` and ``compare``
  (``compare_s``).

Each phase is repeated and split into steps (one training repetition; one
decode chunk; the weight search; one estimator's train, write, read and
decode), and each call in a step is timed on its own.  A metric's time is
the sum over its timed calls of each call's median repetition.  The steps
of all phases are interleaved over the whole run, because the speed of a
shared host drifts by up to a factor of two over seconds.  For the same
reason every time is scaled to a fixed host speed, measured by a reference
kernel run around the timed calls (``hostspeed.py``); the unscaled medians
are in the metadata line.  Between steps a phase keeps only small results,
so the peak memory does not depend on the order of the steps.

Every repetition's output is checked against ``pins.json``: digests of the
input corpora, of each model text and of each decoded tag sequence, and the
error counts.  A repetition whose output does not match counts as failed
and its times are left out.

``--trace 1`` runs each phase once with spans around every call into a
layer (``spans.py``), adds the ``succabs`` CLI as two subprocesses, and
reports per-layer self times, work counters and the tracing overhead (the
number of spans times the measured cost of one).  Spans are written to
``.perfbench_out/``.

The last line of standard output is the JSON result; the line before it
holds run metadata.
"""

from __future__ import annotations

import os

# One thread per workload: set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"

if not (SRC / "succabs" / "__init__.py").is_file():
    sys.exit(f"perfbench: no succabs sources under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from succabs import (  # noqa: E402
    Corpus,
    compare,
    count_ngrams,
    evaluate,
    grid_search_lambdas,
    interpolation_loglik_objective,
    model_from_text,
    model_to_text,
    parse_corpus,
    tag_corpus,
    train_model,
    write_corpus,
)

import workloads  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from spans import NullTracer, Tracer, span_cost  # noqa: E402

# Acceptance criterion 6 pins the order-3 error count on this corpus.
CRITERION6_SA3_ERRORS = 361
GRID_STEP = 0.05

END_TO_END = {  # name: unit
    "decode_tok_s": "tok/s",
    "train_s": "s",
    "setup_s": "s",
    "compare_s": "s",
    "error_rate": "%",
    "unknown_accuracy": "%",
    "peak_rss_mb": "MB",
}

# Per-layer self times, one per span name, reported as "<span>_s".
LAYER_SPANS = (
    "tagger.decode", "tagger.train_model", "lexicon.unknown_dist",
    "smoothing.build_sa", "smoothing.build_interp", "smoothing.build_ele",
    "smoothing.grid_search", "counts.count_ngrams", "counts.build_lexicon",
    "counts.build_suffix_trie", "corpus.parse", "corpus.write",
    "model_io.from_text", "model_io.to_text", "evaluation.evaluate",
    "evaluation.compare", "cli.train", "cli.eval",
)
LAYER_COUNTS = {  # name: unit
    "tagger.lattice_arcs": "count",
    "tagger.mean_lattice": "tags",
    "lexicon.unknown_types": "count",
    "lexicon.unknown_tokens": "count",
    "counts.contexts": "count",
    "counts.trie_nodes": "count",
    "model_io.bytes": "bytes",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tags_digest(tagged) -> str:
    return sha256("\n".join(" ".join(tags) for tags in tagged))


class Checks:
    """Compares observed outputs with the pins; in record mode, collects them.

    A key observed twice in one run must also agree with itself, so a
    nondeterministic output fails even while recording.
    """

    def __init__(self, pins: dict, record: bool):
        self.pins = pins
        self.record = record
        self.observed: dict[str, object] = {}
        self.mismatches: list[str] = []

    def ok(self, key: str, value) -> bool:
        value = json.loads(json.dumps(value))
        first = self.observed.setdefault(key, value)
        expected = first if self.record else self.pins.get(key, "<not pinned>")
        if value == expected:
            return True
        self.mismatches.append(f"{key}: expected {expected!r}, got {value!r}")
        return False


class Tally:
    """Operations attempted and failed, and the step times of the ones that passed."""

    def __init__(self):
        self.clock: HostClock | None = None  # scales the times when set
        self.attempted = 0
        self.failed = 0
        # metric -> step -> one (start, end) per passing repetition
        self.samples: dict[str, dict[str, list[tuple[float, float]]]] = {}

    def op(self, metric: str | None, step_times: dict[str, tuple[float, float]],
           ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        elif metric is not None:
            steps = self.samples.setdefault(metric, {})
            for step, interval in step_times.items():
                steps.setdefault(step, []).append(interval)

    def median(self, metric: str, seconds=lambda start, end: end - start) -> float | None:
        """Sum over the metric's steps of each step's median repetition,
        each repetition's interval measured by ``seconds``."""
        steps = self.samples.get(metric)
        if not steps:
            return None
        return sum(statistics.median(seconds(*interval) for interval in intervals)
                   for intervals in steps.values())

    def repetitions(self) -> dict[str, int]:
        return {metric: min(len(times) for times in steps.values())
                for metric, steps in self.samples.items()}


class Inputs:
    """One workload's corpora, generated once per process."""

    def __init__(self, w: workloads.Workload, seed: int):
        self.train, self.test = w.make_corpora()
        self.train_text = write_corpus(self.train)
        self.test_text = write_corpus(self.test)
        self.words = [[tok.word for tok in sent] for sent in self.test.sentences]
        self.tokens = self.test.num_tokens
        # The seed fixes the order in which sentences reach the decoder.
        self.order = list(range(len(self.words)))
        random.Random(seed).shuffle(self.order)
        self.shuffled = [self.words[i] for i in self.order]
        n = w.compare_sentences
        self.compare_gold = (self.test if n is None else
                             Corpus(self.test.sentences[:n], self.test.tag_set))
        self.compare_words = self.words if n is None else self.words[:n]
        n = w.compare_train_sentences
        self.compare_train = (self.train if n is None else
                              Corpus(self.train.sentences[:n], self.train.tag_set))

    def unshuffle(self, tagged):
        out = [None] * len(tagged)
        for position, index in enumerate(self.order):
            out[index] = tagged[position]
        return out


@contextlib.contextmanager
def timed(tally, times: dict[str, tuple[float, float]], step: str, tr, *spans: str):
    """Record the block's (start, end) as ``step`` into ``times``, inside the
    named spans, with the tally's host clock, if any, ticked around it."""
    clock = tally.clock
    with contextlib.ExitStack() as stack:
        for name in spans:
            stack.enter_context(tr.span(name))
        if clock:
            clock.tick()
        t0 = time.perf_counter()
        yield
        times[step] = (t0, time.perf_counter())
        if clock:
            clock.tick()


def elapsed(times: dict[str, tuple[float, float]]) -> float:
    return sum(end - start for start, end in times.values())


def train_phase(inp, reps, state, tr, checks, tally):
    """One step per repetition: parse, train and write the model, each timed."""
    for rep in range(reps):
        times: dict[str, tuple[float, float]] = {}
        with timed(tally, times, "parse", tr, "run.train", "corpus.parse"):
            corpus = parse_corpus(inp.train_text)
        with timed(tally, times, "train", tr, "run.train", "tagger.train_model"):
            model = train_model(corpus)
        del corpus
        with timed(tally, times, "write", tr, "run.train", "model_io.to_text"):
            text = model_to_text(model)
        del model
        state["text"] = text
        tally.op("train_s", times, checks.ok("model_sha256", sha256(text)))
        yield (rep + 1) / reps


def setup_phase(reps, state, tr, checks, tally):
    """One step per repetition: model text -> model, checked by writing it back."""
    while "text" not in state:  # the first training repetition writes it
        yield None
    for rep in range(reps):
        times: dict[str, tuple[float, float]] = {}
        with timed(tally, times, "load", tr, "run.setup", "model_io.from_text"):
            model = model_from_text(state["text"])
        state["model"] = model
        tally.op("setup_s", times, checks.ok("model_sha256", sha256(model_to_text(model))))
        yield (rep + 1) / reps


def decode_phase(inp, chunks, seconds, single, state, tr, checks, tally):
    """One step per chunk of the shuffled test set; a pass is all chunks.

    At least three passes run, so each chunk has a median of three; more
    follow until the next would overrun ``seconds``.
    """
    while "model" not in state:  # the first setup repetition loads it
        yield None
    n = len(inp.shuffled)
    bounds = [round(i * n / chunks) for i in range(chunks + 1)]
    passes = 0
    spent = last = 0.0
    while passes == 0 or (not single and (passes < 3 or spent + last <= seconds)):
        tagged: list = []
        times: dict[str, tuple[float, float]] = {}
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            with timed(tally, times, f"chunk{i}", tr, "run.decode", "tagger.decode"):
                part = tag_corpus(state["model"], inp.shuffled[lo:hi])
            tagged.extend(part)
            if hi < n:
                yield (spent + elapsed(times)) / max(seconds, 3 * last)
        last = elapsed(times)
        spent += last
        passes += 1
        tagged = inp.unshuffle(tagged)
        tally.op("decode_s", times, checks.ok("tags_sha256", tags_digest(tagged)))
        if passes == 1:
            with tr.span("evaluation.evaluate"):
                report = evaluate(inp.test, tagged, set(state["model"].lexicon.entries))
            ok = all([checks.ok("errors", report.errors),
                      checks.ok("unknown_tokens", report.unknown_tokens),
                      checks.ok("unknown_errors", report.unknown_errors)])
            tally.op(None, {}, ok)
            state["report"] = report
        yield spent / max(seconds, 3 * last)


def compare_systems(lambdas):
    return (("sa3", {"order": 3}), ("sa2", {"order": 2}),
            ("interp", {"order": 3, "smoothing": "interp", "lambdas": lambdas}),
            ("ele", {"order": 3, "smoothing": "ele"}))


def compare_phase(w, inp, reps, smoke, state, tr, checks, tally):
    """Per repetition, one step for the weight search, and per system one
    step to train, write, read back, decode and score it, each timed.

    Only digests and small results are kept between steps, so the memory
    the phase holds does not depend on how its steps interleave with others.
    """
    total = reps * 5
    done = 0
    for _ in range(reps):
        times: dict[str, tuple[float, float]] = {}
        with timed(tally, times, "search", tr, "run.compare"):
            with tr.span("counts.count_ngrams"):
                counts = count_ngrams(inp.compare_train, 3)
            with tr.span("smoothing.grid_search"):
                best = grid_search_lambdas(
                    interpolation_loglik_objective(counts, inp.test), 3, GRID_STEP)
        del counts
        done += 1
        yield done / total
        outputs = []
        for name, kwargs in compare_systems(best.lam):
            with timed(tally, times, f"{name}.train", tr, "run.compare", "tagger.train_model"):
                model = train_model(inp.compare_train, **kwargs)
            with timed(tally, times, f"{name}.write", tr, "run.compare", "model_io.to_text"):
                text = model_to_text(model)
            del model
            with timed(tally, times, f"{name}.read", tr, "run.compare", "model_io.from_text"):
                model = model_from_text(text)
            with timed(tally, times, f"{name}.decode", tr, "run.compare"):
                with tr.span("tagger.decode"):
                    tagged = tag_corpus(model, inp.compare_words)
                with tr.span("evaluation.evaluate"):
                    report = evaluate(inp.compare_gold, tagged, set(model.lexicon.entries))
                outputs.append((name, sha256(text), tags_digest(tagged), report))
                if len(outputs) == 4:
                    with tr.span("evaluation.compare"):
                        compare([(name, report) for name, _, _, report in outputs])
            del model, text, tagged
            done += 1
            if len(outputs) < 4:
                yield done / total
        results = [checks.ok("compare.lambdas", list(best.lam))]
        for name, model_sha, tags_sha, report in outputs:
            results += [checks.ok(f"compare.{name}.model_sha256", model_sha),
                        checks.ok(f"compare.{name}.tags_sha256", tags_sha),
                        checks.ok(f"compare.{name}.errors", report.errors)]
        if w.compare_train_sentences is None:
            # Trained on the whole training set, the sa3 model is the primary model.
            results.append(checks.ok("model_sha256", outputs[0][1]))
        if w.name == "narrow8-compare" and not smoke:
            sa3_errors = outputs[0][3].errors
            if sa3_errors != CRITERION6_SA3_ERRORS:
                checks.mismatches.append(
                    f"criterion 6: sa3 errors {sa3_errors}, pinned {CRITERION6_SA3_ERRORS}")
                results.append(False)
        tally.op("compare_s", times, all(results))
        yield done / total


def run_phases(w, inp, args, single, tr, checks, tally) -> dict:
    """Interleave the phases' steps so each phase spreads over the whole run.

    The machine's speed drifts over seconds, so a metric timed in one
    stretch of the run would carry that stretch's speed.  Each phase yields
    the share of its work done after every step (None while it waits for
    another phase's output); the next step always comes from the phase
    furthest behind.  ``single`` runs one repetition and one decode pass of
    each, for the traced run.
    """
    reps = (lambda n: 1) if single else (lambda n: n)
    state: dict = {}
    phases = [
        train_phase(inp, reps(w.train_reps), state, tr, checks, tally),
        setup_phase(reps(w.setup_reps), state, tr, checks, tally),
        decode_phase(inp, w.decode_chunks, args.seconds, single, state, tr, checks, tally),
        compare_phase(w, inp, reps(w.compare_reps), args.smoke, state, tr, checks, tally),
    ]
    progress = {phase: 0.0 for phase in phases}
    while progress:
        for phase in sorted(progress, key=progress.get):
            try:
                share = next(phase)
            except StopIteration:
                del progress[phase]
                break
            if share is not None:
                progress[phase] = share
                break
    return state


def run_cli(inp, checks, tally, tr) -> None:
    """``succabs train`` and ``succabs eval`` as subprocesses, wall time each."""
    work = OUT / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    base = [sys.executable, "-m", "succabs"]
    try:
        (work / "train.tsv").write_text(inp.train_text, encoding="utf-8")
        (work / "gold.tsv").write_text(inp.test_text, encoding="utf-8")
        model_path = work / "model.txt"
        commands = (
            ("cli.train", ["train", "--corpus", str(work / "train.tsv"),
                           "--out", str(model_path)]),
            ("cli.eval", ["eval", "--model", str(model_path),
                          "--gold", str(work / "gold.tsv"), "--format", "kv"]),
        )
        for name, argv in commands:
            with tr.span(name):
                proc = subprocess.run(base + argv, env=env, capture_output=True,
                                      text=True, timeout=60)
            ok = proc.returncode == 0
            if not ok:
                checks.mismatches.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
            elif name == "cli.train":
                ok = checks.ok("model_sha256",
                               sha256(model_path.read_text(encoding="utf-8")))
            else:
                kv = dict(line.split("\t") for line in proc.stdout.splitlines())
                ok = checks.ok("errors", int(kv["errors"]))
            tally.op(None, {}, ok)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def lattice_counters(model, inp) -> dict[str, float]:
    """Exact work counts of the order-3 decoder on the test set."""
    num_tags = len(model.tag_set)
    entries = model.lexicon.entries
    arcs = tokens = lattice_sum = 0
    unknown_types: set[str] = set()
    unknown_tokens = 0
    for words in inp.words:
        prev2 = prev1 = 1
        for word in words:
            vec = entries.get(word)
            if vec is None:
                size = num_tags
                unknown_types.add(word)
                unknown_tokens += 1
            else:
                size = int(np.count_nonzero(vec))
            arcs += prev2 * prev1 * size
            prev2, prev1 = prev1, size
            tokens += 1
            lattice_sum += size
    return {"tagger.lattice_arcs": arcs,
            "tagger.mean_lattice": lattice_sum / tokens,
            "lexicon.unknown_types": len(unknown_types),
            "lexicon.unknown_tokens": unknown_tokens}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(inp, tally, result) -> dict:
    report = result["report"]
    clock = tally.clock
    pass_s = tally.median("decode_s", clock.scaled)
    unknown_correct = report.unknown_tokens - report.unknown_errors
    values = {
        "decode_tok_s": inp.tokens / pass_s if pass_s else None,
        "train_s": tally.median("train_s", clock.scaled),
        "setup_s": tally.median("setup_s", clock.scaled),
        "compare_s": tally.median("compare_s", clock.scaled),
        "error_rate": 100.0 * report.errors / report.total_tokens,
        "unknown_accuracy": (100.0 * unknown_correct / report.unknown_tokens
                             if report.unknown_tokens else 100.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer_metrics(inp, tracer, result) -> dict:
    model = result["model"]
    self_times = tracer.self_times()
    counters = lattice_counters(model, inp)
    counters["counts.contexts"] = len(count_ngrams(inp.train, 3).counts)
    counters["counts.trie_nodes"] = sum(1 for _ in model.unknown_word_model.trie.iter_nodes())
    counters["model_io.bytes"] = len(result["text"].encode("utf-8"))
    out = {f"{name}_s": metric(self_times.get(name, 0.0), "s") for name in LAYER_SPANS}
    out.update({name: metric(counters[name], unit) for name, unit in LAYER_COUNTS.items()})
    out["trace.overhead_s"] = metric(len(tracer.spans) * span_cost(), "s")
    return out


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def run_workload(name: str, args, pins: dict) -> tuple[dict, dict, Checks]:
    table = workloads.SMOKE if args.smoke else workloads.FULL
    w = table[name]
    pin_key = f"smoke/{name}" if args.smoke else name
    checks = Checks(pins.get(pin_key, {}), args.record_pins)
    tally = Tally()

    t0 = time.perf_counter()
    inp = Inputs(w, args.seed)
    generate_s = time.perf_counter() - t0
    ok = all([checks.ok("train_sha256", sha256(inp.train_text)),
              checks.ok("test_sha256", sha256(inp.test_text))])
    tally.op(None, {}, ok)

    meta = {
        "workload": name, "seed": args.seed, "corpus_seed": workloads.CORPUS_SEED,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "train_tokens": inp.train.num_tokens,
        "decode_tokens": inp.tokens, "decode_sentences": len(inp.words),
        "compare_train_tokens": inp.compare_train.num_tokens,
        "compare_tokens": inp.compare_gold.num_tokens,
        "generate_s": generate_s,
    }
    if args.trace:
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer.hooked():
            result = run_phases(w, inp, args, True, tracer, checks, tally)
        traced_s = time.perf_counter() - t0
        run_cli(inp, checks, tally, tracer)
        metrics = per_layer_metrics(inp, tracer, result)
        seen = {span[0] for span in tracer.spans}
        for span in LAYER_SPANS:
            if span not in seen:
                checks.mismatches.append(f"trace: no {span} span recorded")
                tally.op(None, {}, False)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"spans": tracer.to_jsonable(),
                                          "self_s": tracer.self_times()}, indent=1))
        meta.update(traced_s=traced_s, spans=len(tracer.spans),
                    trace_file=str(trace_path.relative_to(ROOT)))
    else:
        tally.clock = clock = HostClock()
        result = run_phases(w, inp, args, False, NullTracer(), checks, tally)
        clock.tick(force=True)
        metrics = end_to_end_metrics(inp, tally, result)
        meta["unscaled_s"] = {name: tally.median(name) for name in tally.samples}
        meta.update(reference_s=clock.median_s(), reference_runs=len(clock.seconds))
    meta["repetitions"] = tally.repetitions()
    meta["threads"] = thread_count()
    for line in checks.mismatches:
        print(f"perfbench: {name}: MISMATCH {line}", file=sys.stderr)
    correct = tally.failed == 0 and not checks.mismatches
    result_line = {"correct": correct, "attempted": tally.attempted,
                   "failed": tally.failed, "metrics": metrics}
    return meta, result_line, checks


def record(pins: dict, key: str, checks: Checks) -> None:
    pins[key] = dict(sorted(checks.observed.items()))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def smoke(args, pins: dict) -> int:
    """Every workload at tiny sizes, untraced and traced.

    Also checks that each run reports exactly the metrics, with the units,
    that ``BENCHMARK.json`` declares.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name in workloads.SMOKE:
        for trace in (0, 1):
            args.trace = trace
            _, result_line, checks = run_workload(name, args, pins)
            if args.record_pins and trace == 0:
                record(pins, f"smoke/{name}", checks)
            expected = {m["name"]: m["unit"]
                        for m in declared["per_layer" if trace else "end_to_end"]}
            reported = {k: v["unit"] for k, v in result_line["metrics"].items()}
            good = result_line["correct"] and reported == expected
            failures += not good
            print(f"smoke {name} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"({result_line['attempted']} operations, {result_line['failed']} failed"
                  f"{'' if reported == expected else ', metrics differ from BENCHMARK.json'})")
    print(json.dumps({"smoke": True, "correct": failures == 0}))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of the decode passes (default 4, smoke 0.5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, run all workloads both ways")
    parser.add_argument("--record-pins", action="store_true",
                        help="write this run's outputs to pins.json instead of checking")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else 4.0
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    if args.smoke and args.workload is None:
        return smoke(args, pins)
    if args.workload is None:
        parser.error("--workload is required")
    meta, result_line, checks = run_workload(args.workload, args, pins)
    if args.record_pins:
        record(pins, f"smoke/{args.workload}" if args.smoke else args.workload, checks)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result_line))
    return 0 if result_line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
