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
    [lexicon] n          word TAB integer tag counts, not all zero; each word
                         one a corpus can hold (``corpus._check_words``)
    [trie] n             depth TAB edge letter TAB integer tag counts: the
                         suffix trie of the lexicon words seen fewer than
                         rare_threshold times, max_suffix edges deep
                         (``build_suffix_trie``)
    [unknown_root] 1     K probabilities: the root_mode estimate from the
                         trie root's counts (``build_unknown_word_model``)

Counts are non-negative ASCII decimal integers, each row's summing to at
most 2^63 - 1; probabilities are decimal floats as ``%.17g`` writes them,
which round-trips doubles exactly.  Contexts are comma-joined tag indices
(-1 is the sentence boundary, the empty string the root context).
Sections are sorted, and the loader requires strictly ascending keys (a
context's length, then its tag indices; the word), so identical models
serialize byte-identically.

One rule makes a file that loads write back its own bytes.  The loader
builds what each section holds, parsed (the ``[meta]`` values,
``[unigram]``, the context keys, ``[lexicon]``, whose rows are cut to
sparse rows a parsed block at a time) or derived with the training
builders from ``[lexicon]`` and ``[meta]`` (``[trie]``, ``[unknown_root]``),
renders it with the writer's own code and compares that text, header
included, with the file's in place, a rendered block at a time; lines are
split only to name the first row that differs.  ``[tags]`` rows are their
own text.  The one exception is the float cells of
``[transitions]``/``[freqs]``, which are parsed but not compared:
rendering them would cost a large share of a load.  A ``[trie]`` header
that differs is found before any row of the derived trie is rendered.

Every number section of many rows is written by one exact block renderer,
``_render_blocks``, from its table and row heads: a few numpy passes per
block of rows and no Python call per number (but the ``_fmt`` fallback for
floats outside [1e-4, 1)), into bytes that are exactly what ``"%d"`` and
``"%.17g"`` write; counts from sparse rows' nonzero cells, floats by one
slot rule (``_float_cells``).  The one-row ``[unigram]`` and
``[unknown_root]`` are written by ``_row``, one ``_fmt`` per number.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager

import numpy as np

from .corpus import _SURROGATE, TagSet, _check_words
from .counts import BOW_CODE, Lexicon, RareWordPolicy, SparseRows, SuffixTrie, build_suffix_trie
from .errors import ModelFormatError, ValidationError
from .lexicon import build_unknown_word_model
from .smoothing import (
    ConditionalDistribution,
    InterpolationWeights,
    SmoothedNGramModel,
    _suffix_rows,
    interpolated_ngram_model,
)
from .tagger import SMOOTHING_ELE, SMOOTHING_INTERP, Model, ModelMetadata

MAGIC = "SUCCABS"
FORMAT_VERSION = 1
# [meta] keys in file order; lambdas only for interp.
_META_KEYS = ("order", "smoothing", "root_mode", "sigma_scale", "rare_threshold",
              "max_suffix", "digest", "lambdas")
_BLOCK = 256  # rows per np.loadtxt call; 96 KiB of counts at 48 tags
_RENDER = 2048  # rows per _render_blocks block; 192 KiB of counts at 48 tags
_POWERS = 10 ** np.arange(19, dtype=np.int64)  # every power of ten in int64
_QUADS = np.frombuffer("".join(f"{i:04d}" for i in range(10 ** 4)).encode("ascii"),
                       dtype=np.uint32)  # each 4-digit ASCII group, in memory order
_SCALES = np.array([1e20, 1e19, 1e18, 1e17])  # x * _SCALES[decade] has 17 integer digits
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter for doubles
_SLOT = 25  # bytes per _float_cells cell: the longest _fmt text (24) and a separator
# Row kind * _SLOT + end: the bytes a _float_cells slot keeps (its docstring).
_KEEP = np.array([[(column < 2 or column >= 5 - kind) and column < end or column == _SLOT - 1
                   for column in range(_SLOT)] for kind in range(5) for end in range(_SLOT)])
_KEPT = _KEEP.sum(axis=1)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _decimal(text: str) -> bool:
    """Whether the text is a non-negative integer spelled as ``str`` writes
    it: ASCII digits, with no sign, space or leading zero."""
    return text.isascii() and text.isdigit() and (text[0] != "0" or len(text) == 1)


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


def _count_cells(counts: SparseRows, lo: int, hi: int, heads: np.ndarray,
                 sizes: np.ndarray) -> np.ndarray:
    """``_render_blocks``' text of rows lo..hi of sparse count rows, from their
    ``cells``, with no dense block made.  The text starts as "0 " per
    cell with a newline for each row's last space, a nonzero count's
    leading digit overwrites its "0", and one ``np.insert`` puts in its
    other digits and the heads."""
    rows, k = hi - lo, counts.num_tags
    cells, tags, values = counts.cells(np.arange(lo, hi))
    nonzero = np.repeat(np.arange(rows), cells) * k + tags
    text = np.tile(np.frombuffer(b"0 ", dtype=np.uint8), rows * k)
    text[2 * k - 1::2 * k] = ord("\n")
    digits = np.searchsorted(_POWERS, values, side="right")
    chars = _ascii(values, -(-int(digits.max(initial=0)) // 4))
    lead = chars.shape[1] - digits  # each count's leading digit's column
    text[2 * nonzero] = chars[np.arange(len(values)), lead]
    at = np.concatenate([np.repeat(2 * k * np.arange(rows), sizes),
                         np.repeat(2 * nonzero + 1, digits - 1)])
    return np.insert(text, at, np.concatenate(
        [heads, chars[np.arange(chars.shape[1]) > lead[:, None]]]))


def _float_cells(block: np.ndarray, heads: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``_render_blocks``' text of a block of float64 values.

    Each cell gets a slot of ``_SLOT`` bytes: "0.", the ``_ascii`` digits of
    its ``_significands`` N (three "0"s, then N's 17), two spare bytes and
    the separator.  One rule picks the bytes a slot keeps, ``_KEEP``'s row
    ``kind * _SLOT + end``: of the slot's first ``end`` bytes, "0." and
    those from byte ``5 - kind`` on; and the separator.  Kind z < 4 keeps
    "0.", z zeros and N's digits less its trailing zeros.  Kind 4 keeps a
    text written from the slot's start: 0.0 the slot's "0", 1.0 a "1"
    written there, and every other value outside [1e-4, 1) (-0.0, NaN,
    infinities, negative, tiny and large values) its ``_fmt`` text.  The
    kept bytes, in order, are the cells' text; one ``np.insert`` puts the
    heads in."""
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
    pattern = np.where(fast, _SLOT * zeros + 5 + digits, 4 * _SLOT + 1)
    slots[cells == 1, 0] = ord("1")
    other = np.flatnonzero(~(fast | (cells == 1) | (cells == 0) & ~np.signbit(cells)))
    texts = [*map(_fmt, cells[other].tolist())]
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    _put(slots.reshape(-1), _SLOT * other,
         np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8), lengths)
    pattern[other] = 4 * _SLOT + lengths
    kept = _KEPT[pattern].reshape(rows, k).sum(axis=1)
    return np.insert(slots[_KEEP[pattern]], np.repeat(np.cumsum(kept) - kept, sizes), heads)


def _render_blocks(table, heads: np.ndarray, ends: np.ndarray) -> Iterator[str]:
    """Section text, ``_RENDER`` rows at a time: row r is its head, the
    UTF-8 bytes ``heads[ends[r - 1]:ends[r]]``, then table row r's numbers,
    space-separated, and a newline.  The table is a float64 matrix, each
    number as ``"%.17g"`` writes it, or ``SparseRows`` of counts, each as
    ``"%d"`` writes it, zeros included.  ``_count_cells`` or
    ``_float_cells`` writes a block with a few numpy passes and no Python
    work per cell or row (but for the ``_fmt`` fallback)."""
    rows, floats = len(table), isinstance(table, np.ndarray)
    for lo in range(0, rows, _RENDER):
        hi = min(lo + _RENDER, rows)
        first, last = (int(ends[lo - 1]) if lo else 0), int(ends[hi - 1])
        block_heads, sizes = heads[first:last], np.diff(ends[lo:hi], prepend=first)
        text = (_float_cells(table[lo:hi], block_heads, sizes) if floats else
                _count_cells(table, lo, hi, block_heads, sizes))
        yield text.tobytes().decode("utf-8", "surrogatepass")


def _header(name: str, rows: int) -> str:
    return f"[{name}] {rows}\n"


def _section(name: str, rows: int, pieces: Iterable[str]) -> Iterator[str]:
    """A section as the writer writes it, a piece at a time: the header
    line, then the rows' text or its rendered blocks, never joined, so that
    neither the writer nor the loader's comparison holds a rendered section
    whole (a 3 MB trie copy raised the loader's peak RSS by 3 MB)."""
    yield _header(name, rows)
    yield from pieces


def _trie_section(trie: SuffixTrie) -> Iterator[str]:
    """The ``[trie]`` section; a header that differs costs the loader no rendering."""
    yield _header("trie", len(trie.depths))
    yield from _render_blocks(trie.counts, *_trie_heads(trie))


def _meta_lines(metadata: ModelMetadata, policy: RareWordPolicy) -> Iterator[str]:
    """The ``[meta]`` section: rows of key TAB value, in ``_META_KEYS``
    order; ``sigma_scale`` is always 1, since the smoothing step has no
    scale."""
    values = [str(metadata.order), metadata.smoothing, metadata.root_mode, "1",
              str(policy.frequency_threshold), str(policy.max_suffix_length),
              metadata.corpus_digest]
    if metadata.lambdas is not None:
        values.append(",".join(map(_fmt, metadata.lambdas)))
    return _section("meta", len(values),
                    ["".join(f"{key}\t{value}\n" for key, value in zip(_META_KEYS, values))])


def _row(probs: np.ndarray) -> str:
    """The text of a one-row section, ``[unigram]`` or ``[unknown_root]``:
    one ``_fmt`` per number, ~15 times quicker than ``_render_blocks``' numpy
    passes on one row of 8 to 48 numbers, and the same bytes."""
    return " ".join(map(_fmt, probs.tolist())) + "\n"


def _parse_context(text: str, where: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split(","))) if text else ()
    except ValueError:
        raise ModelFormatError(f"{where}: malformed context {text!r}") from None


def _context_keys(contexts: Sequence[tuple[int, ...]]) -> list[str]:
    return [",".join(map(str, ctx)) for ctx in contexts]


def model_to_text(model: Model) -> str:
    return "".join(_model_pieces(model))


def _model_pieces(model: Model) -> Iterator[str]:
    """The model file's text in order, a piece at a time: the magic line,
    each section's header and its rows, a rendered section's ``_RENDER``
    rows at a time, so the writer holds one block, not the file."""
    unknown = model.unknown_word_model
    transition, trie = model.transition, unknown.trie
    if model.metadata.smoothing == SMOOTHING_INTERP:
        table_section, table = "freqs", transition.freqs
    else:
        table_section, table = "transitions", transition.probs
    contexts, words = _context_keys(transition.contexts), list(model.lexicon.words)
    yield f"{MAGIC} {FORMAT_VERSION}\n"
    yield from _meta_lines(model.metadata, unknown.policy)
    yield from _section("tags", len(model.tag_set),
                        ["".join(f"{tag}\n" for tag in model.tag_set.tags)])
    yield from _section("unigram", 1, [_row(model.unigram.probs)])
    yield from _section(table_section, len(contexts), _render_blocks(table, *_heads(contexts)))
    yield from _section("lexicon", len(words),
                        _render_blocks(model.lexicon.counts, *_heads(words)))
    yield from _trie_section(trie)
    yield from _section("unknown_root", 1, [_row(unknown.root.probs)])


def _mismatch(where: str, row: int, read: str, written: str) -> ModelFormatError:
    """The error for a section's row, 1-based (0 is the header), that is not
    the row the writer writes."""
    label = "the header" if row == 0 else f"row {row}"
    return ModelFormatError(f"{where}: {label} reads {read!r}, but the writer writes {written!r}")


class _SectionReader:
    """The text's lines, each found when it is read, so a section compared
    as a whole (``expect``) is never split into lines."""

    def __init__(self, text: str):
        self.text = text
        self.at = 0  # where the next line starts

    def line(self, at: int) -> int:
        """The 1-based number of the line starting at ``at``, for an error."""
        return self.text.count("\n", 0, at) + 1

    def take(self) -> str:
        if self.at >= len(self.text):
            raise ModelFormatError(f"line {self.line(self.at)}: unexpected end of file")
        end = self.text.find("\n", self.at)
        end = len(self.text) if end < 0 else end
        line = self.text[self.at:end]
        self.at = end + 1
        return line

    def header(self, name: str) -> int:
        """The row count on a ``[name]`` header line."""
        start = self.at
        header = self.take()
        expected = f"[{name}] "
        if not header.startswith(expected):
            raise ModelFormatError(f"line {self.line(start)}: expected a [{name}] section")
        count = header[len(expected):]
        if not _decimal(count):
            raise ModelFormatError(f"line {self.line(start)}: [{name}] header: {count!r} is not "
                                   "a canonical decimal integer")
        return int(count)

    def section(self, name: str) -> list[str]:
        return [self.take() for _ in range(self.header(name))]

    def lines_at(self, start: int, count: int) -> list[str]:
        """The ``count`` lines from ``start`` on, fewer where the text ends:
        split out only to name a row in an error."""
        return self.text[start:].split("\n", count)[:count]

    def expect(self, start: int, section: Iterable[str], where: str) -> None:
        """Read past the section whose header starts at ``start`` if it is
        ``section``, what the writer writes for it (``_section``), compared
        in place a piece at a time; else raise the ``_mismatch`` of its
        first row that differs."""
        at, row = start, 0
        for piece in section:
            if not self.text.startswith(piece, at):
                rows = piece.split("\n")[:-1]
                read = self.lines_at(at, len(rows))
                bad = next((r for r, pair in enumerate(zip(read, rows)) if pair[0] != pair[1]),
                           None)
                if bad is None:  # each row read is the writer's, but the file ends
                    raise ModelFormatError(f"{where}: the file ends before the section does")
                raise _mismatch(where, row + bad, read[bad], rows[bad])
            at, row = at + len(piece), row + piece.count("\n")
        self.at = at


def _parse_rows(lines: list[str], dtype: type, width: int,
                where: str) -> tuple[list[str], np.ndarray | SparseRows]:
    """Rows of a key, a TAB and space-separated numbers: the keys, and the
    numbers, floats as one (rows, width) matrix and counts as
    ``SparseRows``.  Rows are split and parsed ``_BLOCK`` at a time, and a
    block of counts is cut to its nonzero cells as it is parsed, so only
    one block's split lines and dense numbers exist at once, and small
    blocks reuse freed memory: one parse per section, or 2048-row blocks,
    raised peak memory by 5-10 MB in most runs."""
    keys: list[str] = []
    floats = dtype is np.float64
    out = np.empty((len(lines) if floats else 0, width), dtype=dtype)
    # Each block's nonzero counts per row (after indptr's 0), tags and values.
    cells = [(np.zeros(1, np.int64), np.zeros(0, np.intp), np.zeros(0, np.int64))]
    for lo in range(0, len(lines), _BLOCK):
        fields = [line.split("\t") for line in lines[lo:lo + _BLOCK]]
        if set(map(len, fields)) != {2}:
            raise ModelFormatError(f"{where}: expected two tab-separated fields per row")
        block_keys, chunk = zip(*fields)
        keys.extend(block_keys)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # all-blank rows: "no data"
                block = np.loadtxt(chunk, dtype=dtype, delimiter=" ", comments=None, ndmin=2)
        except (ValueError, UserWarning):
            block = None
        if block is None or block.shape != (len(chunk), width):
            raise ModelFormatError(f"{where}: a row among {lo + 1}-{lo + len(chunk)} is not "
                                   f"{width} numbers")
        if floats:
            out[lo:lo + len(block)] = block
            continue
        # Row totals are int64 sums, which would wrap silently.
        if (int(block.max(initial=0)) * width >= 2 ** 63
                and max(map(sum, block.tolist())) >= 2 ** 63):
            raise ModelFormatError(f"{where}: the counts of a row among "
                                   f"{lo + 1}-{lo + len(chunk)} sum past 2**63 - 1")
        rows, tags = np.nonzero(block)
        cells.append((np.count_nonzero(block, axis=1), tags, block[rows, tags]))
    sizes, tags, values = map(np.concatenate, zip(*cells))
    return keys, out if floats else SparseRows(np.cumsum(sizes), tags, values, width)


@contextmanager
def _section_errors(section: str, *also: type[Exception]) -> Iterator[None]:
    """Report a ``ValidationError`` of what a section's rows make, or an
    error of ``also`` (a number conversion's ``ValueError``), as ``{section}: …``."""
    try:
        yield
    except (ValidationError, *also) as bad:
        raise ModelFormatError(f"{section}: {bad}") from None


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

    start = reader.at
    meta = dict(line.partition("\t")[::2] for line in reader.section("meta"))  # key: value
    missing = next((key for key in _META_KEYS[:-1] if key not in meta), None)
    if missing is not None:
        raise ModelFormatError(f"meta: missing key {missing!r}")
    with _section_errors("meta", ValueError):
        lambdas = (None if "lambdas" not in meta else
                   tuple(map(float, meta["lambdas"].split(","))))
        metadata = ModelMetadata(int(meta["order"]), meta["smoothing"], meta["root_mode"],
                                 meta["digest"], lambdas)
        policy = RareWordPolicy(int(meta["rare_threshold"]), int(meta["max_suffix"]))
        weights = None if lambdas is None else InterpolationWeights(lambdas)
    reader.expect(start, _meta_lines(metadata, policy), "meta")
    order, smoothing = metadata.order, metadata.smoothing

    # The rows are the tags' own text, so they are what the writer writes.
    with _section_errors("tags"):
        tag_set = TagSet(tuple(reader.section("tags")))
    k = len(tag_set)

    start = reader.at
    reader.header("unigram")  # compared with the writer's header below
    with _section_errors("unigram", ValueError):
        unigram = ConditionalDistribution.from_probs([float(x) for x in reader.take().split(" ")])
    if unigram.dim != k:
        raise ModelFormatError(f"unigram: expected {k} probabilities")
    reader.expect(start, _section("unigram", 1, [_row(unigram.probs)]), "unigram")

    table_section = "freqs" if smoothing == SMOOTHING_INTERP else "transitions"
    start = reader.at
    texts, table = _parse_rows(reader.section(table_section), np.float64, k, table_section)
    contexts = [_parse_context(text, table_section) for text in texts]
    # The float cells are not compared: rendering them costs a large share of a load.
    keys = _context_keys(contexts)
    if keys != texts:
        row = next(r for r, pair in enumerate(zip(keys, texts)) if pair[0] != pair[1])
        written = next(_render_blocks(table[row:row + 1], *_heads(keys[row:row + 1])))
        raise _mismatch(table_section, row + 1, reader.lines_at(start, row + 2)[-1], written[:-1])
    # Only half-count tables, which have no back-off rows, may lack the root
    # or a suffix of a stored context, and answer uniform where none is stored.
    with _section_errors(table_section):
        transition = SmoothedNGramModel(order, k, tuple(contexts), table)
        if weights is not None:
            transition = interpolated_ngram_model(transition, weights)
        elif smoothing != SMOOTHING_ELE:
            _suffix_rows(contexts, order)

    start = reader.at
    with _section_errors("lexicon"):
        words, counts = _parse_rows(reader.section("lexicon"), np.int64, k, "lexicon")
        lexicon = Lexicon(tuple(words), counts)
        _check_words(words)
    reader.expect(start, _section("lexicon", len(words), _render_blocks(counts, *_heads(words))),
                  "lexicon")

    with _section_errors("lexicon"):
        trie = build_suffix_trie(lexicon, policy)
    reader.expect(reader.at, _trie_section(trie), "trie: not the suffix trie of the lexicon's "
                  "words under rare_threshold and max_suffix")
    with _section_errors("unknown_root"):
        unknown = build_unknown_word_model(trie, policy, metadata.root_mode)
    reader.expect(reader.at, _section("unknown_root", 1, [_row(unknown.root.probs)]),
                  "unknown_root: not the root_mode estimate from the trie root's counts")

    if reader.at < len(text):
        raise ModelFormatError(f"line {reader.line(reader.at)}: trailing content")

    return Model(tag_set, transition, lexicon, unknown, unigram, metadata)


def write_model(model: Model, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_model_pieces(model))


def read_model(path: str) -> Model:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as bad:
        line = data.count(b"\n", 0, bad.start) + 1
        raise ModelFormatError(f"line {line}: not UTF-8 text") from None
    return model_from_text(text)
