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

Counts are non-negative ASCII decimal integers; probabilities are decimal
floats as ``%.17g`` writes them, which round-trips doubles exactly.  Contexts
are comma-joined tag indices (-1 is the sentence boundary, the empty string
the root context).  Sections are sorted, so identical models serialize
byte-identically.
"""

from __future__ import annotations

import warnings
from itertools import chain
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
_BLOCK = 256  # rows per np.loadtxt call; 96 KiB of counts at 48 tags


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    line = "%d\t%s\t" + " ".join(["%d"] * trie.num_tags)
    stack: list[tuple[int, str, SuffixTrieNode]] = [(0, "", trie.root)]
    while stack:
        depth, letter, node = stack.pop()
        yield line % (depth, letter, *node.tag_counts.tolist())
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
    k = len(model.tag_set)
    probs = " ".join(["%.17g"] * k)  # one %-format per row shape, for row.tolist()
    keyed_probs, keyed_counts = "%s\t" + probs, "%s\t" + " ".join(["%d"] * k)

    out: list[str] = [f"{MAGIC} {FORMAT_VERSION}"]
    out.append(f"[meta] {len(meta_rows)}")
    out.extend(f"{key}\t{value}" for key, value in meta_rows)
    out.append(f"[tags] {k}")
    out.extend(model.tag_set.tags)
    out.append("[unigram] 1")
    out.append(probs % tuple(model.unigram.probs.tolist()))
    out.append(f"[{table_section}] {len(table_rows)}")
    out.extend(keyed_probs % (",".join(map(str, ctx)), *vec.tolist()) for ctx, vec in table_rows)
    out.append(f"[lexicon] {len(words)}")
    out.extend(keyed_counts % (w, *model.lexicon.entries[w].tolist()) for w in words)
    out.append(f"[trie] {len(trie_lines)}")
    out.extend(trie_lines)
    out.append("[unknown_root] 1")
    out.append(probs % tuple(model.unknown_word_model.root.probs.tolist()))
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


def _parse_blocks(texts: list[str], dtype: type, width: int, where: str) -> Iterator[np.ndarray]:
    """Rows of space-separated numbers as matrices of at most ``_BLOCK`` rows, which
    loaded models keep row views of.  Small blocks reuse freed memory: one matrix
    per section, or 2048-row blocks, raised peak memory by 5-10 MB in most runs."""
    for lo in range(0, len(texts), _BLOCK):
        chunk = texts[lo:lo + _BLOCK]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # all-blank rows: "no data"
                block = np.loadtxt(chunk, dtype=dtype, delimiter=" ", comments=None, ndmin=2)
        except (ValueError, UserWarning):
            block = None
        if block is None or block.shape != (len(chunk), width):
            raise ModelFormatError(f"{where}: a row among {lo + 1}-{lo + len(chunk)} is not "
                                   f"{width} numbers")
        if dtype is np.int64 and (block < 0).any():
            raise ModelFormatError(f"{where}: negative count")
        if dtype is np.float64 and not np.isfinite(block).all():
            raise ModelFormatError(f"{where}: non-finite value")
        yield block


def _rebuild_trie(lines: list[str], num_tags: int) -> SuffixTrie:
    if not lines or lines[0].split("\t")[:2] != ["0", ""]:
        raise ModelFormatError("trie: the section must start with the depth-0 root")
    path: list[SuffixTrieNode] = []
    # A block at a time, so only one block's split lines and gathered parent
    # rows exist at once.
    for lo in range(0, len(lines), _BLOCK):
        fields = [line.split("\t") for line in lines[lo:lo + _BLOCK]]
        if any(len(parts) != 3 for parts in fields):
            raise ModelFormatError("trie: expected three tab-separated fields")
        block = next(_parse_blocks([f[2] for f in fields], np.int64, num_tags, "trie"))
        above = []
        for (depth_text, letter, _), counts in zip(fields, block):
            if not path:  # the root
                path.append(SuffixTrieNode(None, counts))
                continue
            try:
                depth = int(depth_text)
            except ValueError:
                raise ModelFormatError(f"trie: malformed depth {depth_text!r}") from None
            if len(letter) > 1:
                raise ModelFormatError(f"trie: edge letter {letter!r} is not a single character")
            if not 1 <= depth <= len(path):
                raise ModelFormatError(f"trie: depth {depth} does not follow its parent")
            node = SuffixTrieNode(letter if letter else BOW_LETTER, counts)
            parent = path[depth - 1]
            if node.letter in parent.children:
                raise ModelFormatError(f"trie: duplicate edge {letter!r}")
            parent.children[node.letter] = node
            above.append(parent.tag_counts)
            del path[depth:]
            path.append(node)
        below = block[len(block) - len(above):]  # all but the root
        if above and not below.any(axis=1).all():
            raise ModelFormatError("trie: a node below the root has no counts")
        if above and (below > np.array(above)).any():
            raise ModelFormatError("trie: a node counts more of a tag than its parent")
    return SuffixTrie(num_tags=num_tags, root=path[0])


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
    unigram = _distribution(next(_parse_blocks(unigram_lines, np.float64, k, "unigram"))[0],
                            "unigram")

    table_section = "freqs" if smoothing == SMOOTHING_INTERP else "transitions"
    fields = [_split2(line, table_section) for line in reader.section(table_section)]
    probs = chain.from_iterable(_parse_blocks([v for _, v in fields], np.float64, k, table_section))
    rows: dict[tuple[int, ...], np.ndarray] = {}
    for (ctx_text, _), vec in zip(fields, probs):
        ctx = _parse_context(ctx_text)
        if ctx in rows:
            raise ModelFormatError(f"{table_section}: duplicate context {ctx_text!r}")
        if len(ctx) >= order or not all(-1 <= t < k for t in ctx):
            raise ModelFormatError(f"{table_section}: context {ctx_text!r} is longer than "
                                   f"order {order} allows or holds a tag index outside [-1, {k})")
        rows[ctx] = vec
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

    fields = [_split2(line, "lexicon") for line in reader.section("lexicon")]
    words = [word for word, _ in fields]
    blocks = list(_parse_blocks([v for _, v in fields], np.int64, k, "lexicon"))
    totals = list(chain.from_iterable(block.sum(axis=1).tolist() for block in blocks))
    lexicon = Lexicon(k, dict(zip(words, chain.from_iterable(blocks))), dict(zip(words, totals)))
    if len(lexicon.entries) < len(words):
        ordered = sorted(words)
        dup = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
        raise ModelFormatError(f"lexicon: duplicate word {dup!r}")
    if 0 in totals:
        raise ModelFormatError(f"lexicon: word {words[totals.index(0)]!r} has no tag counts")

    trie = _rebuild_trie(reader.section("trie"), k)

    root_lines = reader.section("unknown_root")
    if len(root_lines) != 1:
        raise ModelFormatError("unknown_root: expected exactly one line")
    unknown_root = _distribution(next(_parse_blocks(root_lines, np.float64, k, "unknown_root"))[0],
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
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as bad:
        line = data.count(b"\n", 0, bad.start) + 1
        raise ModelFormatError(f"line {line}: not UTF-8 text") from None
    return model_from_text(text)
