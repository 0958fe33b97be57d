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
    [lexicon] n          word TAB integer tag counts, not all zero; no word
                         is empty
    [trie] n             depth TAB edge letter TAB integer tag counts,
                         preorder with siblings in ascending letter order;
                         depth 0 is the root, an empty letter at depth >= 1
                         is the begin-of-word marker, which has no children;
                         no node is deeper than max_suffix; a node below the
                         root has counts, none above its parent's
    [unknown_root] 1     K probabilities

Counts are non-negative ASCII decimal integers; section sizes, trie depths
and the ``[meta]`` integers are spelled as ``str`` writes them, and the
``[meta]`` keys come in ``_META_KEYS`` order.  Probabilities are decimal floats
as ``%.17g`` writes them, which round-trips doubles exactly (the loader
checks that spelling except in ``[transitions]``/``[freqs]`` rows).  Contexts
are comma-joined tag indices (-1 is the sentence boundary, the empty string
the root context).  Sections are sorted, and the loader requires
strictly ascending keys (a context's length, then its tag indices; the word;
the edge letter among siblings), so identical models serialize
byte-identically.
"""

from __future__ import annotations

import warnings

import numpy as np

from .corpus import TagSet
from .counts import BOW_CODE, Lexicon, RareWordPolicy, SuffixTrie, letter_codes
from .errors import ModelFormatError, ValidationError
from .lexicon import UnknownWordModel
from .smoothing import (
    ConditionalDistribution,
    InterpolationWeights,
    SmoothedNGramModel,
    _check_rows,
    interpolated_ngram_model,
)
from .tagger import SMOOTHING_ELE, SMOOTHING_INTERP, SMOOTHING_MODES, Model, ModelMetadata

MAGIC = "SUCCABS"
FORMAT_VERSION = 1
# [meta] keys in file order; lambdas only for interp.
_META_KEYS = ("order", "smoothing", "root_mode", "sigma_scale", "rare_threshold",
              "max_suffix", "digest", "lambdas")
_BLOCK = 256  # rows per np.loadtxt call; 96 KiB of counts at 48 tags


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _decimal(text: str, where: str) -> int:
    """A non-negative integer spelled as ``str`` writes it: ASCII digits,
    with no sign, space or leading zero."""
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and len(text) > 1):
        raise ModelFormatError(f"{where}: {text!r} is not a canonical decimal integer")
    return int(text)


def _float(text: str, where: str) -> float:
    """A float spelled as ``_fmt`` writes it."""
    try:
        value = float(text)
    except ValueError:
        raise ModelFormatError(f"{where}: malformed number {text!r}") from None
    if _fmt(value) != text:
        raise ModelFormatError(f"{where}: {text!r} is not spelled as %.17g writes it")
    return value


def _parse_context(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ModelFormatError(f"malformed context {text!r}") from None


def _read_distribution(reader: _SectionReader, name: str, k: int) -> ConditionalDistribution:
    lines = reader.section(name)
    if len(lines) != 1:
        raise ModelFormatError(f"{name}: expected exactly one line")
    row = _parse_rows(lines, 0, np.float64, k, name)[1][0]
    if " ".join(map(_fmt, row.tolist())) != lines[0]:
        raise ModelFormatError(f"{name}: a probability is not spelled as %.17g writes it")
    try:
        return ConditionalDistribution.from_probs(row)
    except ValidationError as bad:
        raise ModelFormatError(f"{name}: {bad}") from None


def _count_lines(prefixes: list[str], matrix: np.ndarray) -> list[str]:
    """Each prefix followed by its matrix row of integer counts, as one
    ``"%d"`` per cell would write it.  Count rows are mostly zeros, so each
    nonzero cell is one piece holding the run of ``"0 "`` before it, and
    the zeros after a row's last nonzero cell are one run."""
    row, col = np.nonzero(matrix)
    gap = col.copy()
    same_row = row[1:] == row[:-1]
    gap[1:][same_row] -= col[:-1][same_row] + 1
    zeros = ["0 " * n for n in range(matrix.shape[1] + 1)]
    pieces = [f"{zeros[g]}{v} " for g, v in zip(gap.tolist(), matrix[row, col].tolist())]
    bounds = np.searchsorted(row, np.arange(len(prefixes) + 1))
    last = np.full(len(prefixes), -1, dtype=np.int64)
    filled = bounds[1:] > bounds[:-1]
    last[filled] = col[bounds[1:][filled] - 1]
    tails = (matrix.shape[1] - 1 - last).tolist()
    bounds = bounds.tolist()
    return [(prefix + "".join(pieces[lo:hi]) + zeros[tail])[:-1]
            for prefix, lo, hi, tail in zip(prefixes, bounds, bounds[1:], tails)]


def model_to_text(model: Model) -> str:
    meta = model.metadata
    policy = model.unknown_word_model.policy
    meta_values = [str(meta.order), meta.smoothing, meta.root_mode, _fmt(meta.sigma_scale),
                   str(policy.frequency_threshold), str(policy.max_suffix_length),
                   meta.corpus_digest]
    if meta.lambdas is not None:
        meta_values.append(",".join(_fmt(x) for x in meta.lambdas))
    meta_rows = list(zip(_META_KEYS, meta_values))

    transition = model.transition
    if meta.smoothing == SMOOTHING_INTERP:
        table_section, table = "freqs", transition.freqs
    else:
        table_section, table = "transitions", transition.probs

    trie = model.unknown_word_model.trie
    k = len(model.tag_set)
    probs = " ".join(["%.17g"] * k)  # one %-format per row shape, for row.tolist()
    keyed_probs = "%s\t" + probs

    out: list[str] = [f"{MAGIC} {FORMAT_VERSION}"]
    out.append(f"[meta] {len(meta_rows)}")
    out.extend(f"{key}\t{value}" for key, value in meta_rows)
    out.append(f"[tags] {k}")
    out.extend(model.tag_set.tags)
    out.append("[unigram] 1")
    out.append(probs % tuple(model.unigram.probs.tolist()))
    out.append(f"[{table_section}] {len(transition.contexts)}")
    out.extend(keyed_probs % (",".join(map(str, ctx)), *row)
               for ctx, row in zip(transition.contexts, table.tolist()))
    out.append(f"[lexicon] {len(model.lexicon)}")
    out.extend(_count_lines([w + "\t" for w in model.lexicon.words], model.lexicon.counts))
    out.append(f"[trie] {len(trie.depths)}")
    out.extend(_count_lines([f"{d}\t{letter}\t" for d, letter in
                             zip(trie.depths.tolist(), trie.letters())], trie.counts))
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
        count = _decimal(header[len(expected):], f"line {self.pos}: [{name}] header")
        if self.pos + count > len(self.lines):
            raise ModelFormatError(f"line {len(self.lines) + 1}: unexpected end of file")
        self.pos += count
        return self.lines[self.pos - count:self.pos]

    def finished(self) -> bool:
        return self.pos == len(self.lines)


def _split2(line: str, lineno_hint: str) -> tuple[str, str]:
    parts = line.split("\t")
    if len(parts) != 2:
        raise ModelFormatError(f"{lineno_hint}: expected two tab-separated fields")
    return parts[0], parts[1]


def _parse_rows(lines: list[str], keys: int, dtype: type, width: int,
                where: str) -> tuple[list[list[str]], np.ndarray]:
    """Rows of ``keys`` tab-separated key fields and then space-separated
    numbers: each key column, and the numbers as one (rows, width) matrix.
    A block of ``_BLOCK`` rows at a time, so only one block's split lines
    exist at once.  Small blocks also reuse freed memory: one parse per
    section, or 2048-row blocks, raised peak memory by 5-10 MB in most runs."""
    columns: list[list[str]] = [[] for _ in range(keys)]
    out = np.empty((len(lines), width), dtype=dtype)
    for lo in range(0, len(lines), _BLOCK):
        fields = [line.split("\t") for line in lines[lo:lo + _BLOCK]]
        if any(len(parts) != keys + 1 for parts in fields):
            raise ModelFormatError(f"{where}: expected {keys + 1} tab-separated fields per row")
        *key_texts, chunk = map(list, zip(*fields))
        for column, texts in zip(columns, key_texts):
            column.extend(texts)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # all-blank rows: "no data"
                block = np.loadtxt(chunk, dtype=dtype, delimiter=" ", comments=None, ndmin=2)
        except (ValueError, UserWarning):
            block = None
        if block is None or block.shape != (len(chunk), width):
            raise ModelFormatError(f"{where}: a row among {lo + 1}-{lo + len(chunk)} is not "
                                   f"{width} numbers")
        if dtype is np.int64:
            if (block < 0).any():
                raise ModelFormatError(f"{where}: negative count")
            # Any spelling np.loadtxt takes but the writer's (a leading zero
            # or sign, -0, padding) is longer: compare the text's length with
            # the counts' digits plus one separator between each two.
            length, power, top = 2 * block.size - len(chunk), 10, int(block.max(initial=0))
            while power <= top:
                length += np.count_nonzero(block >= power)
                power *= 10
            if sum(map(len, chunk)) != length:
                raise ModelFormatError(f"{where}: a row among {lo + 1}-{lo + len(chunk)} "
                                       "spells a count other than as a plain decimal integer")
        if dtype is np.float64 and not np.isfinite(block).all():
            raise ModelFormatError(f"{where}: non-finite value")
        out[lo:lo + len(chunk)] = block
    return columns, out


def _rebuild_trie(lines: list[str], num_tags: int, max_depth: int) -> SuffixTrie:
    n = len(lines)
    if not lines or lines[0].split("\t")[:2] != ["0", ""]:
        raise ModelFormatError("trie: the section must start with the depth-0 root")
    (depth_texts, letters), counts = _parse_rows(lines, 2, np.int64, num_tags, "trie")
    depth_of = {text: _decimal(text, "trie: depth") for text in set(depth_texts)}
    depths = np.array([depth_of[text] for text in depth_texts], dtype=np.int64)

    if (depths[1:] < 1).any() or (depths[1:] > depths[:-1] + 1).any():
        raise ModelFormatError("trie: a node's depth does not follow its parent")
    if depths.max() > max_depth:
        raise ModelFormatError(f"trie: a node is deeper than max_suffix {max_depth}")
    long_letter = next((letter for letter in letters if len(letter) > 1), None)
    if long_letter is not None:
        raise ModelFormatError(f"trie: edge letter {long_letter!r} is not a single character")
    codes = letter_codes(letters)  # these order as the writer sorts siblings

    # A node's parent is the last earlier node one level up.
    parent = np.full(n, -1, dtype=np.int64)
    for d in range(1, int(depths.max()) + 1):
        up, at = np.flatnonzero(depths == d - 1), np.flatnonzero(depths == d)
        parent[at] = up[np.searchsorted(up, at) - 1]
    if ((codes[parent[1:]] == BOW_CODE) & (parent[1:] != 0)).any():
        raise ModelFormatError("trie: a node lies below a begin-of-word marker")
    siblings = np.argsort(parent[1:], kind="stable") + 1
    same = parent[siblings[1:]] == parent[siblings[:-1]]
    step = codes[siblings[1:]] - codes[siblings[:-1]]
    if (same & (step == 0)).any():
        raise ModelFormatError(f"trie: duplicate edge "
                               f"{letters[siblings[1:][same & (step == 0)][0]]!r}")
    if (same & (step < 0)).any():
        raise ModelFormatError("trie: siblings are not in ascending letter order")
    for lo in range(1, n, _BLOCK):
        below = counts[lo:lo + _BLOCK]
        if not below.any(axis=1).all():
            raise ModelFormatError("trie: a node below the root has no counts")
        if (below > counts[parent[lo:lo + _BLOCK]]).any():
            raise ModelFormatError("trie: a node counts more of a tag than its parent")
    return SuffixTrie(counts, depths, codes, parent)


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
    missing = next((key for key in _META_KEYS[:-1] if key not in meta), None)
    if missing is not None:
        raise ModelFormatError(f"meta: missing key {missing!r}")
    if tuple(meta) != _META_KEYS[:len(meta)]:
        raise ModelFormatError("meta: keys must come in the order " + ", ".join(_META_KEYS))
    order = _decimal(meta["order"], "meta: order")
    smoothing = meta["smoothing"]
    root_mode = meta["root_mode"]
    digest = meta["digest"]
    sigma_scale = _float(meta["sigma_scale"], "meta: sigma_scale")
    if smoothing not in SMOOTHING_MODES:
        raise ModelFormatError(f"meta: unknown smoothing mode {smoothing!r}")
    if (smoothing == SMOOTHING_INTERP) != ("lambdas" in meta):
        raise ModelFormatError("meta: lambdas present iff smoothing is interp")
    lambdas: tuple[float, ...] | None = None
    if "lambdas" in meta:
        lambdas = tuple(_float(x, "meta: lambdas") for x in meta["lambdas"].split(","))
    try:
        policy = RareWordPolicy(_decimal(meta["rare_threshold"], "meta: rare_threshold"),
                                _decimal(meta["max_suffix"], "meta: max_suffix"))
        metadata = ModelMetadata(order, smoothing, root_mode, sigma_scale, digest, lambdas)
        weights = None if lambdas is None else InterpolationWeights(lambdas)
    except ValidationError as bad:
        raise ModelFormatError(f"meta: {bad}") from None

    tags = reader.section("tags")
    try:
        tag_set = TagSet(tuple(tags))
    except ValidationError as bad:
        raise ModelFormatError(f"tags: {bad}") from None
    k = len(tag_set)

    unigram = _read_distribution(reader, "unigram", k)

    table_section = "freqs" if smoothing == SMOOTHING_INTERP else "transitions"
    (texts,), table = _parse_rows(reader.section(table_section), 1, np.float64, k, table_section)
    contexts = tuple(map(_parse_context, texts))
    for i, (text, ctx) in enumerate(zip(texts, contexts)):
        if i and (len(ctx), ctx) <= (len(contexts[i - 1]), contexts[i - 1]):
            raise ModelFormatError(
                f"{table_section}: duplicate context {text!r}" if ctx == contexts[i - 1] else
                f"{table_section}: context {text!r} is out of order; "
                "rows are sorted by length, then by tag indices")
        if len(ctx) >= order or not all(-1 <= t < k for t in ctx):
            raise ModelFormatError(f"{table_section}: context {text!r} is longer than "
                                   f"order {order} allows or holds a tag index outside [-1, {k})")
    # Without the root a query can fall through every stored suffix; only
    # half-count tables, which have no back-off rows, may answer uniform then.
    if smoothing != SMOOTHING_ELE and (not contexts or contexts[0]):
        raise ModelFormatError(f"{table_section}: the root context is missing")
    try:
        _check_rows(table)
        transition = (SmoothedNGramModel(order, k, contexts, table) if lambdas is None else
                      interpolated_ngram_model(order, k, contexts, table, weights))
    except ValidationError as bad:
        raise ModelFormatError(f"{table_section}: {bad}") from None

    (words,), counts = _parse_rows(reader.section("lexicon"), 1, np.int64, k, "lexicon")
    after = next((i for i in range(1, len(words)) if words[i] <= words[i - 1]), None)
    if after is not None:
        raise ModelFormatError(
            f"lexicon: duplicate word {words[after]!r}" if words[after] == words[after - 1] else
            f"lexicon: word {words[after]!r} is out of order; rows are sorted by word")
    if words and not words[0]:  # sorted, so only the first word can be empty
        raise ModelFormatError("lexicon: empty word, which no corpus can hold")
    empty = np.flatnonzero(~counts.any(axis=1))
    if empty.size:
        raise ModelFormatError(f"lexicon: word {words[empty[0]]!r} has no tag counts")
    lexicon = Lexicon(tuple(words), counts)

    trie = _rebuild_trie(reader.section("trie"), k, policy.max_suffix_length)

    unknown = UnknownWordModel(trie, _read_distribution(reader, "unknown_root", k), policy)

    if not reader.finished():
        raise ModelFormatError(f"line {reader.pos + 1}: trailing content")

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
