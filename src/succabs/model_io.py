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
    [trie] n             depth TAB edge letter TAB integer tag counts: the
                         suffix trie of the lexicon words seen fewer than
                         rare_threshold times, max_suffix edges deep
                         (``build_suffix_trie``)
    [unknown_root] 1     K probabilities: the root_mode estimate from the
                         trie root's counts (``build_unknown_word_model``)

Counts are non-negative ASCII decimal integers, each row's summing to at
most 2^63 - 1; section sizes, trie depths and the ``[meta]`` integers are
spelled as ``str`` writes them, and the ``[meta]`` keys come in
``_META_KEYS`` order; ``sigma_scale`` is always ``1``, since the smoothing
step has no scale.  Probabilities are decimal floats as ``%.17g`` writes
them, which round-trips doubles exactly (the loader checks that spelling
except in ``[transitions]``/``[freqs]`` rows).  Contexts are comma-joined tag
indices (-1 is the sentence boundary, the empty string the root context).
Sections are sorted, and the loader requires strictly ascending keys (a
context's length, then its tag indices; the word), so identical models
serialize byte-identically.  The loader derives ``[trie]`` and
``[unknown_root]`` from ``[lexicon]`` and ``[meta]`` with the training
builders, and requires each to be exactly what the writer writes for the
result: ``[trie]`` is checked by its row count first, then by one substring
comparison with the rendered derived trie, and is split into lines and
parsed only to name a malformed row.

Every number section is written by one exact block renderer, ``_render``:
a few numpy passes per block of rows and no Python call per number (but
the ``_fmt`` fallback for floats outside [1e-4, 1)), into bytes that are
exactly what ``"%d"`` and ``"%.17g"`` write.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator

import numpy as np

from .corpus import _SURROGATE, TagSet
from .counts import BOW_CODE, Lexicon, RareWordPolicy, SuffixTrie, build_suffix_trie
from .errors import ModelFormatError, ValidationError
from .lexicon import build_unknown_word_model
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
_RENDER = 2048  # rows per _render buffer; 192 KiB of counts at 48 tags
_POWERS = 10 ** np.arange(19, dtype=np.int64)  # every power of ten in int64
_QUADS = np.frombuffer("".join(f"{i:04d}" for i in range(10 ** 4)).encode("ascii"),
                       dtype=np.uint32)  # each 4-digit ASCII group, in memory order
_SCALES = np.array([1e20, 1e19, 1e18, 1e17])  # x * _SCALES[decade] has 17 integer digits
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter for doubles
_SLOT = 25  # bytes per _float_cells cell: the longest _fmt text (24) and a separator
_SHORT = 4 * 18  # _SLOT_MASKS rows of the "0." texts


def _slot_masks() -> np.ndarray:
    """The bytes a ``_float_cells`` slot keeps: row 18 * z + d for "0.", z
    zeros and d digits; row ``_SHORT`` + n for a text of n bytes at the
    slot's start; each with the last byte, the separator."""
    column = np.arange(_SLOT)
    z, d = np.divmod(np.arange(_SHORT), 18)
    fixed = (column < 2) | (column >= 5 - z[:, None]) & (column < 5 + d[:, None])
    short = column < np.arange(_SLOT)[:, None]
    return np.concatenate([fixed, short]) | (column == _SLOT - 1)


_SLOT_MASKS = _slot_masks()
_SLOT_SIZES = _SLOT_MASKS.sum(axis=1)


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


def _ascii(values: np.ndarray, groups: int) -> np.ndarray:
    """Non-negative int64 ``values`` as right-aligned ASCII decimals,
    zero-padded to 4 * ``groups`` columns: one (n, 4 * groups) uint8 matrix,
    filled four digits per numpy pass from a table."""
    out = np.empty((len(values), groups), dtype=np.uint32)
    for j in range(groups - 1, -1, -1):
        rest = values // 10 ** 4
        out[:, j] = _QUADS[values - rest * 10 ** 4]
        values = rest
    return out.view(np.uint8)


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each double x in [1e-4, 1), the zeros z that ``%.17g`` writes
    after "0." and the 17 digits it writes after them, as the int64 N =
    x * 10 ** (17 + z) rounded half to even.  N is exact: the product is the
    unevaluated sum h + l of two doubles (Dekker's, with Veltkamp's split;
    10 ** 20 and every smaller power of ten are doubles), h is an even
    integer above 2 ** 53, so N is h plus l rounded half to even.

    Each literal 1e-3, 1e-2, 1e-1 is the double just above its power of ten,
    so a double compares at least it exactly when it is at least the power.
    The double below each power is more than half a 17th digit from it, so
    N never carries to 10 ** 17."""
    decade = (x >= 1e-3).astype(np.intp) + (x >= 1e-2) + (x >= 1e-1)
    h = x * _SCALES[decade]
    xh, xl = _halves(x)
    sh, sl = _SCALE_HIGH[decade], _SCALE_LOW[decade]
    low = ((xh * sh - h) + xh * sl + xl * sh) + xl * sl
    return h.astype(np.int64) + np.rint(low).astype(np.int64), 3 - decade


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into a 26-bit high part and the rest."""
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


_SCALE_HIGH, _SCALE_LOW = _halves(_SCALES)


def _put(out: np.ndarray, at: np.ndarray, data: np.ndarray, lengths: np.ndarray) -> None:
    """Write ``data``, runs of the given lengths end to end, with run i at
    ``out[at[i]:]``."""
    out[np.repeat(at - (np.cumsum(lengths) - lengths), lengths) + np.arange(len(data))] = data


def _utf8_sizes(points: np.ndarray) -> np.ndarray:
    """The UTF-8 bytes of each code point (a lone surrogate's three)."""
    return 1 + (points >= 0x80).astype(np.int64) + (points >= 0x800) + (points >= 0x10000)


def _heads(keys: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The row heads key + TAB as one UTF-8 buffer, and where each ends."""
    text = "\t".join(keys) + "\t" * bool(keys)
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    ends = np.cumsum(np.fromiter(map(len, keys), np.int64, len(keys)) + 1)
    if len(data) != len(text):  # a letter past ASCII: count each letter's bytes
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        ends = np.cumsum(_utf8_sizes(points))[ends - 1]
    return data, ends


def _trie_heads(trie: SuffixTrie) -> tuple[np.ndarray, np.ndarray]:
    """Each node's row head, depth TAB edge letter TAB, as one UTF-8 buffer
    made from ``depths`` and ``codes``, and where each ends; the root's and
    the begin-of-word marker's letter is empty."""
    depths, codes = trie.depths, trie.codes
    digits = np.searchsorted(_POWERS, depths, side="right").clip(1)
    lettered = np.flatnonzero(codes != BOW_CODE)
    points = codes[lettered] - 1
    letters = points.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
    sizes = np.zeros(len(codes), dtype=np.int64)
    sizes[lettered] = _utf8_sizes(points)
    lengths = digits + sizes + 2
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.full(int(ends[-1]), ord("\t"), dtype=np.uint8)
    chars = _ascii(depths, -(-int(digits.max()) // 4))
    _put(out, starts, chars[np.arange(chars.shape[1]) >= chars.shape[1] - digits[:, None]], digits)
    _put(out, starts + digits + 1,
         np.frombuffer(letters.encode("utf-8", "surrogatepass"), dtype=np.uint8), sizes)
    return out, ends


def _count_cells(block: np.ndarray, heads: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``_render``'s text of a block of non-negative int64 counts.  Most
    counts are zero: the text starts as "0 " per cell with a newline for
    each row's last space, a nonzero count's leading digit overwrites its
    "0", and one ``np.insert`` puts in its other digits and the heads."""
    rows, k = block.shape
    cells = block.reshape(-1)
    text = np.tile(np.frombuffer(b"0 ", dtype=np.uint8), len(cells))
    text[2 * k - 1::2 * k] = ord("\n")
    nonzero = np.flatnonzero(cells != 0)  # quicker than on the int64 cells
    values = cells[nonzero]
    digits = np.searchsorted(_POWERS, values, side="right")
    chars = _ascii(values, -(-int(digits.max(initial=0)) // 4))
    lead = chars.shape[1] - digits  # each count's leading digit's column
    text[2 * nonzero] = chars[np.arange(len(values)), lead]
    at = np.concatenate([np.repeat(2 * k * np.arange(rows), sizes),
                         np.repeat(2 * nonzero + 1, digits - 1)])
    return np.insert(text, at, np.concatenate(
        [heads, chars[np.arange(chars.shape[1]) > lead[:, None]]]))


def _float_cells(block: np.ndarray, heads: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``_render``'s text of a block of float64 values.

    Each cell gets a slot of ``_SLOT`` bytes: "0.", the ``_ascii`` digits of
    its ``_significands`` N (three "0"s, then N's 17), two spare bytes and
    the separator.  A mask row from ``_SLOT_MASKS`` keeps "0.", the zeros
    and N's digits less its trailing zeros, and the separator; and the
    kept bytes, in order, are the cells' text.  0.0 keeps the slot's "0",
    1.0 a "1" written there, and every other value outside [1e-4, 1)
    (-0.0, NaN, infinities, negative, tiny and large values) its ``_fmt``
    text, written over the slot's start.  One ``np.insert`` puts the heads in."""
    rows, k = block.shape
    cells = block.reshape(-1)
    fast = (cells >= 1e-4) & (cells < 1)
    significands, zeros = _significands(np.where(fast, cells, 0.5))
    chars = _ascii(significands, 5)
    digits = 17 - np.argmax(chars[:, :2:-1] != ord("0"), axis=1)  # less trailing zeros
    slots = np.empty((len(cells), _SLOT), dtype=np.uint8)
    slots[:, :2] = np.frombuffer(b"0.", dtype=np.uint8)
    slots[:, 2:22] = chars
    slots[:, -1] = ord(" ")
    slots[k - 1::k, -1] = ord("\n")
    pattern = np.where(fast, 18 * zeros + digits, _SHORT + 1)
    slots[cells == 1, 0] = ord("1")
    other = np.flatnonzero(~(fast | (cells == 1) | (cells == 0) & ~np.signbit(cells)))
    texts = [*map(_fmt, cells[other].tolist())]
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    _put(slots.reshape(-1), _SLOT * other,
         np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8), lengths)
    pattern[other] = _SHORT + lengths
    kept = _SLOT_SIZES[pattern].reshape(rows, k).sum(axis=1)
    return np.insert(slots[_SLOT_MASKS[pattern]], np.repeat(np.cumsum(kept) - kept, sizes),
                     heads)


def _render(matrix: np.ndarray, heads: np.ndarray | None = None,
            ends: np.ndarray | None = None) -> str:
    """Section text: row r is its head, the UTF-8 bytes
    ``heads[ends[r - 1]:ends[r]]``, then matrix row r's numbers,
    space-separated, and a newline; each non-negative int64 as ``"%d"``
    writes it, each float64 as ``"%.17g"``.  ``_RENDER`` rows at a time,
    ``_count_cells`` or ``_float_cells`` writes a block with a few numpy
    passes and no Python work per cell or row (but for the ``_fmt``
    fallback)."""
    rows = len(matrix)
    cells_text = _float_cells if matrix.dtype.kind == "f" else _count_cells
    if heads is None:
        heads, ends = np.zeros(0, dtype=np.uint8), np.zeros(rows, dtype=np.int64)
    blocks = []
    for lo in range(0, rows, _RENDER):
        first, last = (int(ends[lo - 1]) if lo else 0), int(ends[min(lo + _RENDER, rows) - 1])
        text = cells_text(matrix[lo:lo + _RENDER], heads[first:last],
                          np.diff(ends[lo:lo + _RENDER], prepend=first))
        blocks.append(text.tobytes().decode("utf-8", "surrogatepass"))
    return "".join(blocks)


def model_to_text(model: Model) -> str:
    meta = model.metadata
    policy = model.unknown_word_model.policy
    meta_values = [str(meta.order), meta.smoothing, meta.root_mode, "1",
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
    contexts = [",".join(map(str, ctx)) for ctx in transition.contexts]
    out: list[str] = [f"{MAGIC} {FORMAT_VERSION}"]
    out.append(f"[meta] {len(meta_rows)}")
    out.extend(f"{key}\t{value}" for key, value in meta_rows)
    out.append(f"[tags] {len(model.tag_set)}")
    out.extend(model.tag_set.tags)
    out.append("[unigram] 1")
    return "".join([
        "\n".join(out) + "\n", _render(model.unigram.probs[None, :]),
        f"[{table_section}] {len(contexts)}\n", _render(table, *_heads(contexts)),
        f"[lexicon] {len(model.lexicon)}\n",
        _render(model.lexicon.counts, *_heads(list(model.lexicon.words))),
        f"[trie] {len(trie.depths)}\n", _render(trie.counts, *_trie_heads(trie)),
        "[unknown_root] 1\n", _render(model.unknown_word_model.root.probs[None, :])])


class _SectionReader:
    """The text's lines, each found when it is read, so a section compared
    as a whole (``skip``) is never split into lines."""

    def __init__(self, text: str):
        self.text = text
        self.at = 0  # where the next line starts
        self.pos = 0  # lines read

    def take(self) -> str:
        if self.at >= len(self.text):
            raise ModelFormatError(f"line {self.pos + 1}: unexpected end of file")
        end = self.text.find("\n", self.at)
        end = len(self.text) if end < 0 else end
        line = self.text[self.at:end]
        self.at = end + 1
        self.pos += 1
        return line

    def header(self, name: str) -> int:
        """The row count on a ``[name]`` header line."""
        header = self.take()
        expected = f"[{name}] "
        if not header.startswith(expected):
            raise ModelFormatError(f"line {self.pos}: expected a [{name}] section")
        return _decimal(header[len(expected):], f"line {self.pos}: [{name}] header")

    def lines(self, count: int) -> list[str]:
        return [self.take() for _ in range(count)]

    def section(self, name: str) -> list[str]:
        return self.lines(self.header(name))

    def skip(self, expected: str, count: int) -> bool:
        """Pass the next ``count`` lines if they are ``expected``, each with its newline."""
        if not self.text.startswith(expected, self.at):
            return False
        self.at += len(expected)
        self.pos += count
        return True

    def finished(self) -> bool:
        return self.at >= len(self.text)


def _split2(line: str, lineno_hint: str) -> tuple[str, str]:
    parts = line.split("\t")
    if len(parts) != 2:
        raise ModelFormatError(f"{lineno_hint}: expected two tab-separated fields")
    return parts[0], parts[1]


def _row_blocks(lines: list[str], keys: int, dtype: type,
                width: int, where: str) -> Iterator[tuple[int, list[list[str]], np.ndarray]]:
    """Rows of ``keys`` tab-separated key fields and then space-separated
    numbers, ``_BLOCK`` rows at a time: each block's first row, its key
    columns and its numbers as one (rows, width) matrix.  Only one block's
    split lines exist at once, and small blocks reuse freed memory: one
    parse per section, or 2048-row blocks, raised peak memory by 5-10 MB in
    most runs.  A file that loads has only its ``[transitions]``/``[freqs]``
    and ``[lexicon]`` rows parsed; ``[trie]`` rows are parsed only to name
    a malformed one."""
    for lo in range(0, len(lines), _BLOCK):
        fields = [line.split("\t") for line in lines[lo:lo + _BLOCK]]
        if set(map(len, fields)) != {keys + 1}:
            raise ModelFormatError(f"{where}: expected {keys + 1} tab-separated fields per row")
        *key_texts, chunk = map(list, zip(*fields))
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
            # Row totals are int64 sums, which would wrap silently.
            if top * width >= 2 ** 63 and max(map(sum, block.tolist())) >= 2 ** 63:
                raise ModelFormatError(f"{where}: the counts of a row among "
                                       f"{lo + 1}-{lo + len(chunk)} sum past 2**63 - 1")
        if dtype is np.float64 and not np.isfinite(block).all():
            raise ModelFormatError(f"{where}: non-finite value")
        yield lo, key_texts, block


def _parse_rows(lines: list[str], keys: int, dtype: type, width: int,
                where: str) -> tuple[list[list[str]], np.ndarray]:
    """The rows of ``_row_blocks`` whole: each key column, and the numbers
    as one (rows, width) matrix."""
    columns: list[list[str]] = [[] for _ in range(keys)]
    out = np.empty((len(lines), width), dtype=dtype)
    for lo, key_texts, block in _row_blocks(lines, keys, dtype, width, where):
        for column, texts in zip(columns, key_texts):
            column.extend(texts)
        out[lo:lo + len(block)] = block
    return columns, out


def model_from_text(text: str) -> Model:
    bad = None if text.isascii() else _SURROGATE.search(text)
    if bad:  # a lone surrogate, which no file holds and the writer could not write
        line = text.count("\n", 0, bad.start()) + 1
        raise ModelFormatError(f"line {line}: not UTF-8 text")
    reader = _SectionReader(text)
    first = reader.take()
    parts = first.split(" ")
    if len(parts) != 2 or parts[0] != MAGIC:
        raise ModelFormatError("not a model file: bad magic line")
    if parts[1] != str(FORMAT_VERSION):
        raise ModelFormatError(f"unsupported model format version {parts[1]!r}")

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
    if meta["sigma_scale"] != "1":
        raise ModelFormatError(f"meta: sigma_scale is {meta['sigma_scale']!r}, not 1")
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
        metadata = ModelMetadata(order, smoothing, root_mode, digest, lambdas)
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

    nodes = reader.header("trie")
    try:
        trie = build_suffix_trie(lexicon, policy, nodes=nodes)
    except ValidationError as bad:
        reader.lines(nodes)  # a short section is reported first
        raise ModelFormatError(f"lexicon: {bad}") from None
    # A row count other than the derived trie's is found before its counts
    # exist; the rows are split out and parsed only on a fault, to name it.
    if trie is None or not reader.skip(_render(trie.counts, *_trie_heads(trie)), nodes):
        for _ in _row_blocks(reader.lines(nodes), 2, np.int64, k, "trie"):
            pass
        raise ModelFormatError("trie: not the suffix trie of the lexicon's words under "
                               "rare_threshold and max_suffix")
    try:
        unknown = build_unknown_word_model(trie, policy, root_mode)
    except ValidationError as bad:
        raise ModelFormatError(f"unknown_root: {bad}") from None
    if reader.section("unknown_root") != [" ".join(map(_fmt, unknown.root.probs.tolist()))]:
        raise ModelFormatError("unknown_root: not the root_mode estimate from the trie "
                               "root's counts")

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
