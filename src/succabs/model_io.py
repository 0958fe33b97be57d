"""Line-oriented text serialization of trained models.

Layout: a magic/version line, then sections, each introduced by a
"[name] count" header followed by exactly count content lines.

    SUCCABS 1
    [meta] 7             key TAB value
    [tags] K             one tag symbol per line, index order
    [unigram] 1          K probabilities, space-separated
    [transitions] n      context TAB probabilities (or [freqs] for the
                         interpolated variant, holding relative frequencies);
                         contexts hold at most order-1 tags, and every
                         estimator but half-count stores the root context
    [lexicon] n          word TAB integer tag counts, not all zero
    [trie] n             depth TAB edge letter TAB integer tag counts,
                         preorder; depth 0 is the root, an empty letter at
                         depth >= 1 is the begin-of-word marker; a node
                         below the root has counts, none above its parent's
    [unknown_root] 1     K probabilities

Counts are non-negative.  Contexts are comma-joined tag indices (-1 is the
sentence boundary, the empty string the root context).  Probabilities are
written with 17 significant digits, which round-trips doubles exactly;
sections are sorted, so identical models serialize byte-identically.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .corpus import TagSet
from .counts import BOW_LETTER, Lexicon, RareWordPolicy, SuffixTrie, SuffixTrieNode
from .errors import ModelFormatError, ValidationError
from .lexicon import UnknownWordModel
from .smoothing import (
    ConditionalDistribution,
    InterpolationWeights,
    SmoothedNGramModel,
    interpolated_ngram_model,
)
from .tagger import SMOOTHING_ELE, SMOOTHING_INTERP, SMOOTHING_MODES, Model, ModelMetadata

MAGIC = "SUCCABS"
FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vector(vec) -> str:
    return " ".join(_fmt(x) for x in vec)


def _fmt_int_vector(vec) -> str:
    return " ".join(str(int(x)) for x in vec)


def _fmt_context(ctx: tuple[int, ...]) -> str:
    return ",".join(str(t) for t in ctx)


def _parse_context(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ModelFormatError(f"malformed context {text!r}") from None


def _distribution(probs: np.ndarray, where: str) -> ConditionalDistribution:
    try:
        return ConditionalDistribution.from_probs(probs)
    except ValidationError as bad:
        raise ModelFormatError(f"{where}: {bad}") from None


def _trie_lines(trie: SuffixTrie) -> Iterator[str]:
    stack: list[tuple[int, str, SuffixTrieNode]] = [(0, "", trie.root)]
    while stack:
        depth, letter, node = stack.pop()
        yield f"{depth}\t{letter}\t{_fmt_int_vector(node.tag_counts)}"
        for key in sorted(node.children, reverse=True):
            stack.append((depth + 1, key, node.children[key]))


def model_to_text(model: Model) -> str:
    meta = model.metadata
    policy = model.unknown_word_model.policy
    meta_rows = [
        ("order", str(meta.order)),
        ("smoothing", meta.smoothing),
        ("root_mode", meta.root_mode),
        ("sigma_scale", _fmt(meta.sigma_scale)),
        ("rare_threshold", str(policy.frequency_threshold)),
        ("max_suffix", str(policy.max_suffix_length)),
        ("digest", meta.corpus_digest),
    ]
    if meta.lambdas is not None:
        meta_rows.append(("lambdas", ",".join(_fmt(x) for x in meta.lambdas)))

    if meta.smoothing == SMOOTHING_INTERP:
        table_section = "freqs"
        table_rows = list(model.transition.freqs.items())
    else:
        table_section = "transitions"
        table_rows = [(ctx, dist.probs) for ctx, dist in model.transition.tables.items()]
    table_rows.sort(key=lambda item: (len(item[0]), item[0]))

    words = sorted(model.lexicon.entries)
    trie_lines = list(_trie_lines(model.unknown_word_model.trie))

    out: list[str] = [f"{MAGIC} {FORMAT_VERSION}"]
    out.append(f"[meta] {len(meta_rows)}")
    out.extend(f"{k}\t{v}" for k, v in meta_rows)
    out.append(f"[tags] {len(model.tag_set)}")
    out.extend(model.tag_set.tags)
    out.append("[unigram] 1")
    out.append(_fmt_vector(model.unigram.probs))
    out.append(f"[{table_section}] {len(table_rows)}")
    out.extend(f"{_fmt_context(ctx)}\t{_fmt_vector(vec)}" for ctx, vec in table_rows)
    out.append(f"[lexicon] {len(words)}")
    out.extend(f"{w}\t{_fmt_int_vector(model.lexicon.entries[w])}" for w in words)
    out.append(f"[trie] {len(trie_lines)}")
    out.extend(trie_lines)
    out.append("[unknown_root] 1")
    out.append(_fmt_vector(model.unknown_word_model.root.probs))
    return "\n".join(out) + "\n"


class _SectionReader:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        if self.lines and self.lines[-1] == "":
            self.lines.pop()
        self.pos = 0

    def take(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"line {self.pos + 1}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def section(self, name: str) -> list[str]:
        header = self.take()
        expected = f"[{name}] "
        if not header.startswith(expected):
            raise ModelFormatError(f"line {self.pos}: expected a [{name}] section")
        try:
            count = int(header[len(expected):])
        except ValueError:
            raise ModelFormatError(f"line {self.pos}: bad section header {header!r}") from None
        if count < 0:
            raise ModelFormatError(f"line {self.pos}: negative section size")
        return [self.take() for _ in range(count)]

    def finished(self) -> bool:
        return self.pos == len(self.lines)


def _split2(line: str, lineno_hint: str) -> tuple[str, str]:
    parts = line.split("\t")
    if len(parts) != 2:
        raise ModelFormatError(f"{lineno_hint}: expected two tab-separated fields")
    return parts[0], parts[1]


def _parse_probs(text: str, dim: int, where: str) -> np.ndarray:
    try:
        vec = np.array([float(x) for x in text.split(" ")], dtype=np.float64)
    except ValueError:
        raise ModelFormatError(f"{where}: malformed number") from None
    if vec.shape[0] != dim:
        raise ModelFormatError(f"{where}: expected {dim} values, got {vec.shape[0]}")
    if not np.isfinite(vec).all():
        raise ModelFormatError(f"{where}: non-finite value")
    return vec


def _parse_int_vector(text: str, dim: int, where: str) -> np.ndarray:
    try:
        vec = np.array(text.split(" "), dtype=np.int64)  # numpy applies int() to each
    except (ValueError, OverflowError):
        raise ModelFormatError(f"{where}: malformed integer") from None
    if vec.shape[0] != dim:
        raise ModelFormatError(f"{where}: expected {dim} values, got {vec.shape[0]}")
    if "-" in text and vec.min() < 0:  # the sign test skips a numpy call per row
        raise ModelFormatError(f"{where}: negative count")
    return vec


def _rebuild_trie(lines: list[str], num_tags: int) -> SuffixTrie:
    if not lines:
        raise ModelFormatError("trie section must at least contain the root")
    root_parts = lines[0].split("\t")
    if len(root_parts) != 3 or root_parts[0] != "0" or root_parts[1] != "":
        raise ModelFormatError("trie: first line must be the depth-0 root")
    root = SuffixTrieNode(None, num_tags)
    root.tag_counts = _parse_int_vector(root_parts[2], num_tags, "trie root")
    path = [root]
    # Each node's counts and its parent's, checked in bulk at the end: numpy
    # checks per node made loading about 40% slower.
    below, above = [], []
    for line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != 3:
            raise ModelFormatError("trie: expected three tab-separated fields")
        try:
            depth = int(parts[0])
        except ValueError:
            raise ModelFormatError(f"trie: malformed depth {parts[0]!r}") from None
        letter = parts[1]
        if len(letter) > 1:
            raise ModelFormatError(f"trie: edge letter {letter!r} is not a single character")
        if not 1 <= depth <= len(path):
            raise ModelFormatError(f"trie: depth {depth} does not follow its parent")
        node = SuffixTrieNode(letter if letter else BOW_LETTER, num_tags)
        node.tag_counts = _parse_int_vector(parts[2], num_tags, "trie node")
        parent = path[depth - 1]
        if node.letter in parent.children:
            raise ModelFormatError(f"trie: duplicate edge {letter!r}")
        parent.children[node.letter] = node
        below.append(node.tag_counts)
        above.append(parent.tag_counts)
        del path[depth:]
        path.append(node)
    for lo in range(0, len(below), 1024):  # in blocks, so the copies stay small
        block, parents = np.array(below[lo:lo + 1024]), np.array(above[lo:lo + 1024])
        if not block.any(axis=1).all():
            raise ModelFormatError("trie: a node below the root has no counts")
        if (block > parents).any():
            raise ModelFormatError("trie: a node counts more of a tag than its parent")
    return SuffixTrie(num_tags=num_tags, root=root)


def model_from_text(text: str) -> Model:
    reader = _SectionReader(text)
    first = reader.take()
    parts = first.split(" ")
    if len(parts) != 2 or parts[0] != MAGIC:
        raise ModelFormatError("not a model file: bad magic line")
    if parts[1] != str(FORMAT_VERSION):
        raise ModelFormatError(f"unsupported model format version {parts[1]}")

    meta: dict[str, str] = {}
    for line in reader.section("meta"):
        key, value = _split2(line, "meta")
        if key in meta:
            raise ModelFormatError(f"meta: duplicate key {key!r}")
        meta[key] = value
    try:
        order = int(meta["order"])
        smoothing = meta["smoothing"]
        root_mode = meta["root_mode"]
        sigma_scale = float(meta["sigma_scale"])
        policy = RareWordPolicy(int(meta["rare_threshold"]), int(meta["max_suffix"]))
        digest = meta["digest"]
    except KeyError as missing:
        raise ModelFormatError(f"meta: missing key {missing}") from None
    except (ValueError, ValidationError):
        raise ModelFormatError("meta: malformed value") from None
    if smoothing not in SMOOTHING_MODES:
        raise ModelFormatError(f"meta: unknown smoothing mode {smoothing!r}")
    lambdas: tuple[float, ...] | None = None
    if "lambdas" in meta:
        try:
            lambdas = tuple(float(x) for x in meta["lambdas"].split(","))
        except ValueError:
            raise ModelFormatError("meta: malformed lambdas") from None
    if (smoothing == SMOOTHING_INTERP) != (lambdas is not None):
        raise ModelFormatError("meta: lambdas present iff smoothing is interp")

    tags = reader.section("tags")
    try:
        tag_set = TagSet(tuple(tags))
    except ValidationError as bad:
        raise ModelFormatError(f"tags: {bad}") from None
    k = len(tag_set)

    unigram_lines = reader.section("unigram")
    if len(unigram_lines) != 1:
        raise ModelFormatError("unigram: expected exactly one line")
    unigram = _distribution(_parse_probs(unigram_lines[0], k, "unigram"), "unigram")

    table_section = "freqs" if smoothing == SMOOTHING_INTERP else "transitions"
    rows: dict[tuple[int, ...], np.ndarray] = {}
    for line in reader.section(table_section):
        ctx_text, vec_text = _split2(line, table_section)
        ctx = _parse_context(ctx_text)
        if ctx in rows:
            raise ModelFormatError(f"{table_section}: duplicate context {ctx_text!r}")
        if len(ctx) >= order or not all(-1 <= t < k for t in ctx):
            raise ModelFormatError(f"{table_section}: context {ctx_text!r} is longer than "
                                   f"order {order} allows or holds a tag index outside [-1, {k})")
        rows[ctx] = _parse_probs(vec_text, k, table_section)
    # Without the root a query can fall through every stored suffix; only
    # half-count tables, which have no back-off rows, may answer uniform then.
    if smoothing != SMOOTHING_ELE and () not in rows:
        raise ModelFormatError(f"{table_section}: the root context is missing")
    if smoothing == SMOOTHING_INTERP:
        try:
            weights = InterpolationWeights(lambdas)
        except ValidationError as bad:
            raise ModelFormatError(f"meta: {bad}") from None
        try:
            transition = interpolated_ngram_model(order, k, rows, weights)
        except ValidationError as bad:
            raise ModelFormatError(f"freqs: {bad}") from None
    else:
        transition = SmoothedNGramModel(order, k, {
            ctx: _distribution(vec, table_section) for ctx, vec in rows.items()})

    lexicon = Lexicon(num_tags=k)
    for line in reader.section("lexicon"):
        word, vec_text = _split2(line, "lexicon")
        if word in lexicon.entries:
            raise ModelFormatError(f"lexicon: duplicate word {word!r}")
        vec = _parse_int_vector(vec_text, k, "lexicon")
        lexicon.entries[word] = vec
        lexicon.totals[word] = int(vec.sum())
        if lexicon.totals[word] == 0:
            raise ModelFormatError(f"lexicon: word {word!r} has no tag counts")

    trie = _rebuild_trie(reader.section("trie"), k)

    root_lines = reader.section("unknown_root")
    if len(root_lines) != 1:
        raise ModelFormatError("unknown_root: expected exactly one line")
    unknown_root = _distribution(_parse_probs(root_lines[0], k, "unknown_root"),
                                 "unknown_root")
    unknown = UnknownWordModel(trie, unknown_root, policy)

    if not reader.finished():
        raise ModelFormatError(f"line {reader.pos + 1}: trailing content")

    metadata = ModelMetadata(order, smoothing, root_mode, sigma_scale, digest, lambdas)
    return Model(tag_set, transition, lexicon, unknown, unigram, metadata)


def write_model(model: Model, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_to_text(model))


def read_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    return model_from_text(text)
