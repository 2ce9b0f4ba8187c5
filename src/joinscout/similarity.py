"""String-similarity primitives for column-name and row-value matching.

Everything in this module is deterministic and self-contained: no model
downloads and no network.  The only global state is two memos, both
``functools.lru_cache(maxsize=_MEMO_LIMIT)``, that never change a result:
:func:`token_set` keeps token sets and ``_embedding`` keeps each name's
embedding with its norm.  :func:`name_signal_bounds` bounds the three name
signals for every pair of a few dozen distinct names at once, so each name
is embedded and tokenised once.  :func:`gestalt_ratio` is difflib's
``SequenceMatcher`` ratio on the case-folded names; column matching runs it
only on the pairs whose score bound reaches the threshold.

Row values are compared by :func:`similarity_matrix` over their
:func:`sorted_token_form`: the one token-sort kernel behind validation and
the executor's fuzzy hops.  Each caller picks the forms it scores: a
fuzzy hop passes the distinct forms without an exact-form partner on the
left and every distinct form on the right.

All similarity functions return floats in ``[0.0, 1.0]``.  All but
:func:`gestalt_ratio` are symmetric in their two string arguments; the
gestalt ratio's block matching depends on which string comes first
(``("a_ac", "_ca")`` gives 0.286, ``("_ca", "a_ac")`` gives 0.571).
Column matching stays deterministic because ``candidate_pairs`` always
puts the earlier database on the left.

The semantic signal is a hashed character-trigram embedding.  Before
hashing, tokens are passed through a small synonym lexicon so that domain
terms different sources tend to disagree on ("hospital" vs "clinic",
"medication" vs "drug") land on the same vector.  The embedding is fixed:
there is no model to plug in.
"""

from __future__ import annotations

import functools
import re
import unicodedata
import zlib
from difflib import SequenceMatcher
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "gestalt_ratio",
    "name_signal_bounds",
    "semantic_sim",
    "sorted_token_form",
    "token_overlap",
]

_TOKEN = re.compile(r"[0-9a-z]+")
_WORD = re.compile(r"[^\W_]+")
_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")

# Canonical forms for terms that independent data sources routinely name
# differently.  Kept deliberately tiny: the point is not coverage but that
# the embedding behind semantic_sim recognises obvious same-entity
# vocabulary without pulling in a model.
DEFAULT_SYNONYMS: dict[str, str] = {
    "hospital": "clinic",
    "infirmary": "clinic",
    "medication": "drug",
    "medicine": "drug",
    "patient": "person",
    "citizen": "person",
    "resident": "person",
    "physician": "doctor",
}


def _tokens(text: str) -> list[str]:
    """The tokens of ``text``: the runs of letters and digits of its folded
    form, the one rule behind names and values.

    ASCII text folds by lowercasing.  Other text is NFKD-decomposed,
    casefolded and stripped of its combining marks, so ``"José Müller"``,
    ``"JOSE MULLER"`` and ``"jose muller"`` share their tokens, and so do
    ``"straße"`` and ``"strasse"``.  It is decomposed before it is
    casefolded, since a compatibility character such as ``"ℂ"`` decomposes
    to a capital.  Letters of every script count, so a Cyrillic or Chinese
    name has tokens, and an underscore separates them.
    """
    # On lowercase ASCII, _TOKEN finds what _WORD finds, about 1.2x faster.
    if text.isascii():
        return _TOKEN.findall(text.lower())
    folded = unicodedata.normalize("NFKD", text).casefold()
    bare = "".join(ch for ch in folded if not unicodedata.category(ch).startswith("M"))
    return _WORD.findall(bare)


def normalize(text: str) -> str:
    """The tokens of the text, joined with one space: ``normalize("Müller,
    José")`` is ``"muller jose"``."""
    return " ".join(_tokens(text))


def gestalt_ratio(a: str, b: str) -> float:
    """Gestalt (Ratcliff/Obershelp) similarity of two strings, case-folded.

    This is ``2 * M / (len(a) + len(b))`` where M counts characters in
    recursively matched longest common blocks; two empty strings score 1.0.
    It is difflib's ratio with autojunk off, so names of 200 or more
    characters keep their popular characters.
    """
    return SequenceMatcher(None, a.lower(), b.lower(), autojunk=False).ratio()


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence of ``a`` and ``b``.

    Bit-parallel formulation: the shorter string is encoded as per-character
    bitmasks and a running row of the DP table is kept in a single integer,
    which is fast for one pair.  :func:`similarity_matrix` runs the same
    recurrence over many pairs at once, in words of at most 64 bits; tests
    use this as the per-pair reference.
    """
    if not a or not b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    masks: dict[str, int] = {}
    bit = 1
    for ch in a:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    width_mask = bit - 1
    row = width_mask
    for ch in b:
        match = masks.get(ch, 0)
        carry = row & match
        row = ((row + carry) | (row & ~match)) & width_mask
    # Zero bits in the final row mark matched positions of the shorter string.
    return len(a) - row.bit_count()


def indel_ratio(a: str, b: str) -> float:
    """Similarity under insertions/deletions only: ``2 * LCS / (|a| + |b|)``."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * lcs_length(a, b) / total


# The unsigned word types of ``similarity_matrix``, narrowest first.  A call
# gives each left pattern a lane of ``W`` words: one word of the narrowest
# type that holds the longest left string, or, for a string over 64
# characters, ``ceil(longest / 64)`` uint64 words.  A block holds as many
# right strings as fill ``_LANE_BLOCK`` uint64 words with lanes, so each
# temporary of the recurrence takes at most ``8 * _LANE_BLOCK`` bytes,
# whatever the size of the output; with more words than that, a block is
# one right string.
_LANE_TYPES = (np.uint8, np.uint16, np.uint32, np.uint64)
_LANE_BLOCK = 4096
_LANE_BITS = 64


def similarity_matrix(left_forms: Sequence[str], right_forms: Sequence[str]) -> np.ndarray:
    """``indel_ratio`` of every left × right pair, as an ``(L, R)`` array.

    It runs the bit-parallel LCS recurrence of :func:`lcs_length` with the
    left strings as bit patterns (Hyyrö, "Bit-parallel LCS-length
    computation revisited", 2004), one pattern to a numpy lane of ``W``
    words: one uint8, uint16, uint32 or uint64, the narrowest that holds
    the longest left string, or as many uint64 words as a string over 64
    characters needs.  Each pattern sits in the low bits of its lane, from
    word 0 up, and every lane starts all ones.  A step's ``v - u`` needs no
    borrow between words, since ``u = v & mask`` has only bits of ``v``;
    its ``v + u`` carries out of each word into the next.  A carry out of
    the pattern runs into the bits above it, which the step's ``|`` sets
    again, or off the lane, which fixed-width arithmetic drops; so the set
    bits of the inverted words, summed over the lane, count the LCS.

    Each step advances every lane by one character of one right string.
    Right strings run longest first in blocks, and a block runs as many
    steps as its longest string.  Characters no left string has, and the
    steps past a shorter string's end, get code 0, whose mask is empty and
    leaves a lane as it is.
    """
    out = np.empty((len(left_forms), len(right_forms)))
    if not left_forms or not right_forms:
        return out
    left_len = np.array([len(s) for s in left_forms])
    longest = int(left_len.max())
    lane = next(t for t in _LANE_TYPES if np.iinfo(t).bits >= min(longest, _LANE_BITS))
    bits = np.iinfo(lane).bits
    words = max(1, -(-longest // bits))

    # Code k >= 1 is the character alphabet[k - 1]; code 0 is every
    # character no left string has.  The last entry, past every code point,
    # is no character.
    alphabet = np.array(sorted(map(ord, set("".join(left_forms)))) + [0x110000], dtype=np.uint32)
    mask_table = np.zeros((len(alphabet), len(left_forms), words), dtype=lane)
    which, pos = _spread(left_len)
    word, bit = np.divmod(pos, bits)
    left_codes = np.searchsorted(alphabet, _code_points(left_forms)) + 1
    np.bitwise_or.at(mask_table, (left_codes, which, word), np.left_shift(lane(1), bit.astype(lane)))

    # Right strings longest first; codes[t, j] is the code of character t.
    order = np.argsort([-len(s) for s in right_forms], kind="stable")
    right_len = np.array([len(right_forms[j]) for j in order])
    points = _code_points([right_forms[j] for j in order])
    found = np.searchsorted(alphabet, points)
    col, pos = _spread(right_len)
    codes = np.zeros((right_len[0], len(order)), dtype=np.intp)
    codes[pos, col] = np.where(alphabet[found] == points, found + 1, 0)

    right_block = max(1, _LANE_BLOCK * _LANE_BITS // (bits * words * len(left_forms)))
    ripple = range(1, words)
    for r0 in range(0, len(order), right_block):
        r1 = min(r0 + right_block, len(order))
        v = np.full((r1 - r0, len(left_forms), words), np.iinfo(lane).max, dtype=lane)
        u = np.empty_like(v)
        w = np.empty_like(v)
        for t in range(right_len[r0]):
            # Every code is in range; "clip" lets take write into u unbuffered.
            mask_table.take(codes[t, r0:r1], axis=0, out=u, mode="clip")
            u &= v
            np.subtract(v, u, out=w)
            v += u
            # Word k - 1 carried out if its sum wrapped round below its
            # addend, or if it was all ones and the carry into it wrapped
            # the sum round to the addend itself.
            for k in ripple:
                below, addend = v[..., k - 1], u[..., k - 1]
                wrapped = below < addend
                if k > 1:
                    wrapped |= carry & (below == addend)
                v[..., k] += wrapped
                carry = wrapped
            v |= w
        ratio = np.bitwise_count(np.invert(v, out=v)).sum(axis=-1, dtype=np.float64)
        total = right_len[r0:r1, None] + left_len
        ratio *= 2.0
        ratio /= np.maximum(total, 1)
        ratio[total == 0] = 1.0
        out[:, order[r0:r1]] = ratio.T
    return out


def _code_points(strings: Sequence[str]) -> np.ndarray:
    """The code points of ``strings``, concatenated, as uint32."""
    text = "".join(strings).encode("utf-32-le", "surrogatepass")
    return np.frombuffer(text, dtype=np.uint32)


def _spread(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each character of strings of ``lengths``, concatenated: its
    string's index and its position in that string."""
    which = np.repeat(np.arange(len(lengths)), lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return which, np.arange(len(which)) - starts


def sorted_token_form(text: str) -> str:
    """The tokens of :func:`normalize`, sorted and joined with spaces:
    ``sorted_token_form("Müller, José")`` is ``"jose muller"``."""
    return " ".join(sorted(_tokens(text)))


def token_sort_ratio(a: str, b: str) -> float:
    """Indel similarity of the sorted-token forms of ``a`` and ``b``.

    Word order does not matter: ``"John Smith"`` vs ``"Smith John"`` is 1.0.
    """
    return indel_ratio(sorted_token_form(a), sorted_token_form(b))


# Most entries each memo in this module holds: far more distinct column
# names than a catalog has, and a bound on memory for a long-lived process
# that scores many catalogs.
_MEMO_LIMIT = 4096


@functools.lru_cache(maxsize=_MEMO_LIMIT)
def token_set(text: str) -> frozenset[str]:
    """Tokens of ``text``, as :func:`normalize` finds them after a split
    before each ASCII capital that follows an ASCII lowercase letter or
    digit: ``token_set("patientNäme")`` is ``{"patient", "name"}``."""
    return frozenset(_tokens(_CAMEL_BOUNDARY.sub(" ", text)))


def token_overlap(a: str, b: str) -> float:
    """Overlap coefficient of the token sets: ``|A & B| / min(|A|, |B|)``.

    Either side empty (no tokens at all) scores 0.0.
    """
    ta = token_set(a)
    tb = token_set(b)
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / min(len(ta), len(tb))


# Buckets of the trigram embedding behind :func:`semantic_sim`.
_EMBEDDING_DIMENSION = 256


@functools.lru_cache(maxsize=_MEMO_LIMIT)
def _embedding(text: str) -> tuple[np.ndarray, float]:
    """Hashed character-trigram embedding of ``text`` and its L2 norm.

    ``text`` is tokenised as :func:`token_set` does, each token is mapped
    through :data:`DEFAULT_SYNONYMS`, and the space-joined result is padded
    with one space a side and sliced into character trigrams.  Each trigram
    is hashed (CRC-32) into one of 256 buckets and the count vector is
    L2-normalised.  Text under three characters after canonicalisation
    gives the zero vector, since padding alone would manufacture signal.
    Deterministic across processes and platforms.  The vector is shared
    between callers, so it is read-only.
    """
    tokens = _tokens(_CAMEL_BOUNDARY.sub(" ", text))
    canon = " ".join(DEFAULT_SYNONYMS.get(tok, tok) for tok in tokens)
    vec = np.zeros(_EMBEDDING_DIMENSION, dtype=np.float64)
    if len(canon) >= 3:
        padded = f" {canon} "
        for i in range(len(padded) - 2):
            bucket = zlib.crc32(padded[i : i + 3].encode("utf-8")) % _EMBEDDING_DIMENSION
            vec[bucket] += 1.0
        vec /= np.linalg.norm(vec)
    vec.setflags(write=False)
    return vec, float(np.linalg.norm(vec))


def semantic_sim(a: str, b: str) -> float:
    """Cosine similarity of the names' trigram embeddings, clamped to ``[0, 1]``.

    If either embedding is the zero vector the score is 0.0.
    """
    va, na = _embedding(a)
    vb, nb = _embedding(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    cos = float(np.dot(va, vb) / (na * nb))
    return min(1.0, max(0.0, cos))


def name_signal_bounds(names: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper bounds on the three name signals for every pair of ``names``:
    ``(quick, cosine, overlap)``, each a ``(U, U)`` array.

    ``quick`` is difflib's ``quick_ratio``, ``2 * |common characters| /
    (|a| + |b|)`` on the case-folded names (1.0 for two empty names), which
    no :func:`gestalt_ratio` exceeds in either argument order: its matched
    blocks are common characters.  ``cosine`` is :func:`semantic_sim` and
    ``overlap`` is :func:`token_overlap`.  No step calls BLAS or builds a
    ``(U, U, alphabet)`` array.
    """
    if not names:
        raise ValueError("name_signal_bounds needs at least one name")
    counts = _count_matrix([name.lower() for name in names])
    # The multiset intersection, one character at a time.
    common = np.zeros((len(names), len(names)), dtype=np.intp)
    for column in counts.T:
        common += np.minimum.outer(column, column)
    total = counts.sum(axis=1)[:, None] + counts.sum(axis=1)
    quick = 2.0 * common / np.maximum(total, 1)
    quick[total == 0] = 1.0

    embedded = [_embedding(name) for name in names]
    vectors = np.array([vec for vec, _ in embedded])
    # A zero vector has a zero dot product with anything; norm 1 keeps 0/0 out.
    norms = np.array([norm or 1.0 for _, norm in embedded])
    cosine = np.clip(_dots(vectors) / np.outer(norms, norms), 0.0, 1.0)

    incidence = _count_matrix([token_set(name) for name in names]).astype(float)
    sizes = incidence.sum(axis=1)
    overlap = _dots(incidence) / np.maximum(np.minimum.outer(sizes, sizes), 1)
    return quick, cosine, overlap


def _count_matrix(items: list[Iterable[str]]) -> np.ndarray:
    """How often each element occurs in each item: one row per item, one
    column per distinct element of all of them."""
    columns = {x: k for k, x in enumerate(set().union(*items))}
    cells = [i * len(columns) + columns[x] for i, item in enumerate(items) for x in item]
    counts = np.bincount(np.array(cells, dtype=np.intp), minlength=len(items) * len(columns))
    return counts.reshape(len(items), len(columns))


def _dots(rows: np.ndarray) -> np.ndarray:
    """The dot product of every pair of ``rows``, as a ``(U, U)`` array.

    einsum runs its own loop; a matmul would call BLAS, whose threads and
    buffers cost more time and memory than these small matrices do.
    """
    return np.einsum("ik,jk->ij", rows, rows)
