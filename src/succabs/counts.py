"""Frequency statistics feeding the estimators.

Contexts are tuples of tag indices.  Sentence-initial positions are padded
with the reserved pseudo-tag index ``BOUNDARY`` so every token has a full
left context; the pseudo-tag is never an outcome, so outcome vectors range
over the real tag set only.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, TagSet, _integer
from .errors import ValidationError

# Pseudo-tag index padding sentence-initial contexts.  Never a valid outcome.
BOUNDARY = -1

# Marker consumed after a word's last (leftmost) letter on its reversed-suffix
# path.  The empty string can never collide with a real character.
BOW_LETTER = ""

# Letter codes on a trie path: BOW_CODE for the begin-of-word marker, else
# code point + 1, so codes sort as the letters do.
BOW_CODE = 0
_LETTER_CODES = sys.maxunicode + 2

# numpy's limit on an array's axes (64 from numpy 2.0, 32 before), and the
# most cells an intp array's byte size can count.
_MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32
_MAX_INDEX_CELLS = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize

# ``build_suffix_trie`` sums its levels' counts a batch at a time, once a
# batch holds this many (1 MiB of int64 keys and counts): a small trie in
# one pass, a large one in batches of about this size or one level.
_POOL = 1 << 16


@dataclass(frozen=True, eq=False)
class NGramCountTable:
    """Outcome counts for every observed context of every length below the
    order; the empty context is the unigram level.

    ``contexts`` come in model-file order, shortest first and then by tag
    indices, so row 0 is the empty context; row i of the read-only int64
    ``counts`` matrix is context i's outcome counts.
    """

    order: int
    tag_set: TagSet
    contexts: tuple[tuple[int, ...], ...]
    counts: np.ndarray

    def __post_init__(self):
        self.counts.flags.writeable = False

    @property
    def num_tags(self) -> int:
        return len(self.tag_set)


def transition_index_shape(order: int, num_tags: int) -> tuple[int, ...]:
    """Shape of ``SmoothedNGramModel.index``, one axis of size K+1 per
    context tag, and the bound on every order.  A ``ValidationError`` if the
    order is not an integer, if no numpy array can have the shape (more axes
    than numpy supports, checked first so an absurd order builds no shape,
    or more bytes than an array size can count), or if a ``count_ngrams``
    key, a cell times K plus an outcome, could pass int64."""
    order = _integer(order, "order")
    axes = order - 1
    if axes > _MAX_AXES:
        raise ValidationError(f"an order-{order} model needs a transition index of "
                              f"{axes} axes, more than numpy's {_MAX_AXES}")
    shape = (num_tags + 1,) * axes
    cells = math.prod(shape)
    needs = (f"an order-{order} model over {num_tags} tags needs a transition index of "
             f"{cells:,} cells")
    if cells > _MAX_INDEX_CELLS:
        raise ValidationError(f"{needs}, more than an array can hold")
    if cells * num_tags > 2 ** 63 - 1:
        raise ValidationError(f"{needs}, whose count keys (cells times tags) pass 2**63 - 1")
    return shape


def _place_values(num_tags: int, length: int) -> np.ndarray:
    """What each tag of a context of the given length, oldest first, weighs
    in its ``context_keys`` key."""
    return np.array([(num_tags + 1) ** p for p in range(length - 1, -1, -1)], dtype=np.int64)


def context_keys(corpus: Corpus, order: int) -> Iterator[np.ndarray]:
    """For each context length 0..order-1, one int64 key per token for the
    tags before it: each tag is a digit tag+1 in base K+1, where a position
    before the sentence start is the boundary digit 0, and the oldest tag
    is the most significant.  Keys sort as their context tuples do, and a
    full-length key is the context's flat position in
    ``SmoothedNGramModel.index``.  An order past ``transition_index_shape``
    raises before any key is computed.  Each length's keys are a new
    array; one scratch array holds each length's weighted digits."""
    transition_index_shape(order, len(corpus.tag_set))
    place = _place_values(len(corpus.tag_set), order - 1)[::-1]
    n = corpus.num_tokens
    starts, sizes = corpus.offsets[:-1], np.diff(corpus.offsets)
    keys = np.zeros(n, dtype=np.int64)
    yield keys
    previous = np.empty(n, dtype=np.int64)
    for length in range(1, order):
        previous[length:] = corpus.tag_ids[:max(n - length, 0)]
        previous[length:] += 1
        previous *= place[length - 1]
        # The boundary digit wherever the tag lies before the sentence:
        # the first ``length`` tokens of each, those of the corpus included.
        for at in range(length):
            previous[starts[sizes > at] + at] = 0
        keys = keys + previous
        yield keys


def count_ngrams(corpus: Corpus, order: int) -> NGramCountTable:
    """Count tag n-grams of all orders 1..order over the corpus.

    Each sentence's left edge is padded with order-1 BOUNDARY pseudo-tags.
    Each order sorts one array of context key times K plus outcome in
    place, reused from order to order, and counts its runs; keys sort as
    their contexts do, so the rows come in file order.
    """
    order = _integer(order, "order", 1)
    if corpus.num_sentences == 0:
        raise ValidationError("cannot count n-grams of an empty corpus")
    m = len(corpus.tag_set)
    contexts: list[tuple[int, ...]] = []
    blocks = []  # one count matrix per context length
    cells = np.empty(corpus.num_tokens, dtype=np.int64)
    for length, keys in enumerate(context_keys(corpus, order)):
        np.multiply(keys, m, out=cells)
        cells += corpus.tag_ids
        cells.sort()
        first = _run_starts(cells)
        cell_counts = np.diff(first, append=len(cells))
        observed = cells[first]
        stored, row = np.unique(observed // m, return_inverse=True)
        rows = np.zeros((len(stored), m), dtype=np.int64)
        rows[row, observed % m] = cell_counts
        place = _place_values(m, length)
        contexts.extend(map(tuple, (stored[:, None] // place % (m + 1) - 1).tolist()))
        blocks.append(rows)
    return NGramCountTable(order, corpus.tag_set, tuple(contexts), np.concatenate(blocks))


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Rows of int64 counts over ``num_tags`` tags, only the nonzero ones
    held: row i's are ``values[indptr[i]:indptr[i + 1]]``, positive, of the
    tags ``tags[indptr[i]:indptr[i + 1]]``, ascending.  The arrays are
    read-only, and checked where they are made in O(rows + counts)."""

    indptr: np.ndarray
    tags: np.ndarray
    values: np.ndarray
    num_tags: int

    def __post_init__(self):
        indptr, tags, values = self.indptr, self.tags, self.values
        if not all(a.ndim == 1 and a.dtype.kind in "iu" for a in (indptr, tags, values)):
            raise ValidationError("sparse rows' arrays must be one-dimensional integers")
        if len(values) != len(tags):
            raise ValidationError(f"sparse rows hold {len(tags)} tags but {len(values)} values")
        if (not len(indptr) or indptr[0] != 0 or indptr[-1] != len(tags)
                or (indptr[1:] < indptr[:-1]).any()):
            raise ValidationError("sparse rows' indptr must start at 0, never decrease and "
                                  f"end at its {len(tags)} counts")
        if len(tags) and not (tags.min() >= 0 and tags.max() < self.num_tags):
            raise ValidationError(f"sparse rows' tags must lie in [0, {self.num_tags})")
        rising = tags[1:] > tags[:-1]
        rising[indptr[1:-1][(indptr[1:-1] > 0) & (indptr[1:-1] < len(tags))] - 1] = True
        if not rising.all():
            raise ValidationError("sparse rows' tags must ascend within each row")
        if (values <= 0).any():
            raise ValidationError("sparse rows' counts must be positive")
        for array in (indptr, tags, values):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def cells(self, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The given rows' nonzero counts, row after row: how many each row
        holds, and their tags and values."""
        ids = np.asarray(ids, dtype=np.intp)
        starts = self.indptr[ids]
        sizes = self.indptr[ids + 1] - starts
        at = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(int(sizes.sum()))
        return sizes, self.tags[at], self.values[at]

    def rows(self, ids) -> np.ndarray:
        """The given rows, as a dense int64 (rows, K) matrix."""
        sizes, tags, values = self.cells(ids)
        out = np.zeros((len(sizes), self.num_tags), dtype=np.int64)
        out[np.repeat(np.arange(len(sizes)), sizes), tags] = values
        return out

    def totals(self) -> np.ndarray:
        """Each row's total: exact wherever it fits int64, since the running
        sum wraps but the difference of two is right modulo 2**64."""
        sums = np.zeros(len(self.values) + 1, dtype=np.int64)
        np.cumsum(self.values, out=sums[1:])
        return sums[self.indptr[1:]] - sums[self.indptr[:-1]]


@dataclass(frozen=True, eq=False)
class Lexicon(Mapping[str, np.ndarray]):
    """Tag counts per training word: row i of the sparse ``counts`` is
    ``words[i]``'s, with ``words`` strictly ascending in model-file order
    (Python's ``sorted``) and ``index`` mapping each word to its row.  A
    ``ValidationError`` if the words and rows differ in number, a word does
    not follow the one before, or a row holds no counts.  As a mapping, a
    word's value is its dense row, built from the sparse one; a lexicon
    equals only itself, as ``SparseRows`` and ``SuffixTrie`` do."""

    words: tuple[str, ...]
    counts: SparseRows
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        words = self.words
        if len(words) != len(self.counts):
            raise ValidationError(f"{len(words)} words but {len(self.counts)} count rows")
        after = next((i for i in range(1, len(words)) if words[i] <= words[i - 1]), None)
        if after is not None:
            raise ValidationError(
                f"duplicate word {words[after]!r}" if words[after] == words[after - 1] else
                f"word {words[after]!r} is out of order; rows are sorted by word")
        empty = np.flatnonzero(self.counts.indptr[1:] == self.counts.indptr[:-1])
        if empty.size:
            raise ValidationError(f"word {words[empty[0]]!r} has no tag counts")
        object.__setattr__(self, "index", dict(zip(words, range(len(words)))))

    def __getitem__(self, word: str) -> np.ndarray:
        return self.counts.rows([self.index[word]])[0]

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    __eq__ = object.__eq__
    __hash__ = object.__hash__
    entries = property(lambda self: self)  # the benchmark harness reads the mapping by this name


def build_lexicon(corpus: Corpus) -> Lexicon:
    """Tag counts per word: one ``np.unique`` over word rank times K plus
    tag, with the words ranked in ``sorted`` order (a numpy string sort
    would drop trailing NULs), so its cells come as the sparse rows hold
    them."""
    m = len(corpus.tag_set)
    order = sorted(range(len(corpus.vocab)), key=corpus.vocab.__getitem__)
    rank = np.argsort(np.array(order, dtype=np.int64))  # each word id's place in ``order``
    cells, values = np.unique(rank[corpus.word_ids] * m + corpus.tag_ids, return_counts=True)
    indptr = np.searchsorted(cells, np.arange(len(order) + 1) * m)
    return Lexicon(tuple(corpus.vocab[i] for i in order),
                   SparseRows(indptr, cells % max(m, 1), values.astype(np.int64, copy=False), m))


@dataclass(frozen=True)
class RareWordPolicy:
    """Both values are stored as ints, so a model writes what its loader reads."""

    frequency_threshold: int = 10
    max_suffix_length: int = 10

    def __post_init__(self):
        for name in ("frequency_threshold", "max_suffix_length"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.frequency_threshold < 1 or self.max_suffix_length < 1:
            raise ValidationError("rare-word policy values must be positive")


@dataclass(frozen=True, eq=False)
class SuffixTrie:
    """Tree over reversed word suffixes, each node pooling tag counts.

    A word contributes along its ``_suffix_paths`` path from the root.  The
    root aggregates the whole rare-word subcorpus.

    Node ids are rows in preorder, row 0 the root, with siblings in
    ascending letter order (the begin-of-word marker first).  ``counts``
    holds node i's tag counts as its row i.  ``depths``, ``codes`` (the
    letter code of the edge into each node) and ``parents`` (-1 for the
    root) hold one entry per node.  ``edge_keys`` holds each edge's parent
    id * ``_LETTER_CODES`` + code, ascending, and ``edge_nodes`` the node
    each leads to.  All the arrays are read-only, and a ``ValidationError``
    where the trie is made rejects per-node arrays of another length.
    """

    counts: SparseRows
    depths: np.ndarray
    codes: np.ndarray
    parents: np.ndarray
    edge_keys: np.ndarray = field(init=False, repr=False)
    edge_nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = len(self.counts)
        if nodes < 1:
            raise ValidationError("a suffix trie needs a root: its counts hold a row per node")
        arrays = (self.depths, self.codes, self.parents)
        if not all(a.ndim == 1 and a.dtype.kind in "iu" for a in arrays):
            raise ValidationError("a suffix trie's arrays must be one-dimensional integers")
        for name, array in zip(("depths", "codes", "parents"), arrays):
            if len(array) != nodes:
                raise ValidationError(f"a suffix trie's {name} holds {len(array)} entries for "
                                      f"{nodes} nodes")
        keys = self.parents[1:] * _LETTER_CODES + self.codes[1:]
        order = np.argsort(keys, kind="stable")
        object.__setattr__(self, "edge_keys", keys[order])
        object.__setattr__(self, "edge_nodes", order + 1)
        for array in (*arrays, self.edge_keys, self.edge_nodes):
            array.flags.writeable = False

    def iter_nodes(self) -> Iterator[int]:
        """Every node id, in preorder."""
        return iter(range(len(self.codes)))


def _suffix_paths(words: Sequence[str], depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each word's trie path: its reversed letters and then the
    begin-of-word marker, cut at ``depth`` edges, as letter codes.  Word
    i's path is ``codes[offsets[i]:offsets[i] + lengths[i]]``, all int64,
    with no padding; lone surrogates are letters like any other."""
    sizes = np.fromiter(map(len, words), np.int64, len(words))
    # No path outgrows the longest word and its marker; a depth from a
    # model file may not fit int64.
    depth = min(depth, int(sizes.max(initial=0)) + 1)
    cut = np.minimum(sizes, depth)
    ends = np.cumsum(cut)
    # Reversing the joined words reverses each word and their order.
    letters = np.frombuffer("".join(words)[::-1].encode("utf-32-le", "surrogatepass"),
                            dtype="<u4")
    starts = len(letters) - np.cumsum(sizes)  # each reversed word in ``letters``
    at = np.repeat(starts - (ends - cut), cut) + np.arange(int(cut.sum()))
    codes = letters[at].astype(np.int64) + 1
    marked = cut < depth
    codes = np.insert(codes, ends[marked], BOW_CODE)
    lengths = cut + marked
    return codes, np.cumsum(lengths) - lengths, lengths


def build_suffix_trie(lexicon: Lexicon, policy: RareWordPolicy) -> SuffixTrie:
    """Pool tag counts of tokens whose word falls under the rare threshold.

    Counts are of token occurrences, not word types: a node holds the sum
    of the lexicon rows of the rare words whose path passes through it.
    The root pools every rare row, so their total must fit int64: the
    pooled sums would wrap silently.

    With the words sorted by their paths, the trie's preorder is row-major
    order: each path's new nodes are its cells after the ``shared`` letters
    it has in common with the path before, and a node's cell lies over the
    following paths down to the next new cell at its depth.  The build goes
    a depth at a time over the paths still that long, and sums their rows'
    nonzero counts by node and tag a batch of depths at a time, so it holds
    nothing larger than the paths and the nonzero counts (the rare words'
    sparse cells and the nodes'): no dense count matrix.
    """
    counts, totals = lexicon.counts, lexicon.counts.totals()
    # An int64 bound: numpy 1 compares an int64 array with 2**63 as floats.
    rare = np.flatnonzero(totals <= min(policy.frequency_threshold - 1, 2 ** 63 - 1))
    pooled = totals[rare]
    if int(pooled.max(initial=0)) * len(pooled) >= 2 ** 63 and sum(pooled.tolist()) >= 2 ** 63:
        raise ValidationError("the counts of the rare words sum past 2**63 - 1")
    depth = policy.max_suffix_length
    words = [lexicon.words[i] for i in rare.tolist()]
    # Cut reversed words sort as their paths do: a path's marker, code 0,
    # sorts first, as the end of a shorter string does.
    order = sorted(range(len(words)), key=[w[:-depth - 1:-1] for w in words].__getitem__)
    codes, offsets, lengths = _suffix_paths([words[i] for i in order], depth)
    rows = rare[order]

    # The letters each path shares with the path before it: the first cell
    # where the two differ, or the shorter one's length.
    both = np.minimum(lengths[1:], lengths[:-1])
    pair = np.repeat(np.arange(1, len(rows)), both)
    at = np.arange(len(pair)) - np.repeat(np.cumsum(both) - both, both)
    differ = np.flatnonzero(codes[offsets[pair] + at] != codes[offsets[pair - 1] + at])
    shared = np.concatenate([np.zeros(min(len(rows), 1), dtype=np.int64), both])
    np.minimum.at(shared, pair[differ], at[differ])
    new = lengths - shared  # each path's new nodes, numbered in row-major order
    first = np.cumsum(new) - new + 1  # the id of each path's first new node
    start = first - shared  # a path's new node at a level is start + level
    size = int(new.sum()) + 1
    path_of = np.repeat(np.arange(len(rows)), new)
    column = np.arange(1, size) - start[path_of]

    k = counts.num_tags
    # The paths' nonzero counts by tag, then path: a node's paths are a run,
    # so at every level each node and tag's counts, keyed node * K + tag,
    # are a run too, and no key recurs at another level.
    sizes, tags, values = counts.cells(rows)
    by_tag = np.argsort(tags, kind="stable")
    count_rows = np.repeat(np.arange(len(rows)), sizes)[by_tag]
    tags, values = tags[by_tag], values[by_tag]
    batch, cells, pending = [(tags, values)], [], len(tags)  # the root's keys are its tags
    parents = np.arange(-1, size - 1, dtype=np.int64)  # but for each path's first new node
    # The paths still as long as the level, and each path's node at the
    # level (a level up until it is updated).
    alive, on = np.arange(len(rows)), np.zeros(len(rows), dtype=np.int64)
    for level in range(int(lengths.max(initial=0))):
        if pending >= _POOL:
            cells.append(_run_sums(batch))
            batch, pending = [], 0
        alive = alive[lengths[alive] > level]
        opens = alive[shared[alive] == level]
        parents[first[opens]] = on[opens]
        on[alive] = np.maximum.accumulate(np.where(shared[alive] <= level,
                                                   start[alive] + level, 0))
        deep = lengths[count_rows] > level
        count_rows, tags, values = count_rows[deep], tags[deep], values[deep]
        batch.append((on[count_rows] * k + tags, values))
        pending += len(values)
    cells.append(_run_sums(batch))
    keys, values = map(np.concatenate, zip(*cells))
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    # With no tags there are no counts, and no key to divide.
    return SuffixTrie(SparseRows(np.searchsorted(keys, np.arange(size + 1) * k),
                                 keys % max(k, 1), values, k), np.concatenate([[0], column + 1]),
                      np.concatenate([[BOW_CODE], codes[offsets[path_of] + column]]), parents)


def _run_sums(batch: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """A batch of levels' keys and counts joined, with each run of equal
    non-negative keys once and its counts summed: exact int64 sums, where
    ``bincount`` would add in floats."""
    keys, values = map(np.concatenate, zip(*batch))
    first = _run_starts(keys)
    return keys[first], np.add.reduceat(values, first)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal keys starts."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(first)
